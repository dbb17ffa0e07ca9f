//! The HTTP plane: keep-alive connection threads that answer queries
//! themselves.
//!
//! A [`QueryService`] owns one accept thread and a bounded pool of
//! connection threads (one per live connection — blocking I/O, no
//! reactor). A connection thread parses a request, admits the query to
//! its destination's shard ([`QueryShards::admit`]), answers it under
//! that shard's cache lock with buffers the connection owns, writes the
//! response, and repeats on the same socket; no query crosses a thread.
//! Every query toward one destination meets the same cache shard, so
//! answers and cache counters do not depend on which connection carried
//! it.
//!
//! Endpoints: `/distance` and `/route` (the query grammar of
//! [`parse_query`]), `/metrics` (Prometheus text), `/healthz`, and
//! `/quitquitquit` (graceful shutdown: answer, stop accepting, let live
//! connections finish — how `dbr serve` gets an end-of-run metrics dump
//! and CI gets a deterministic teardown). A request head or body the
//! server will not frame gets a `4xx` and the connection is closed (see
//! `read_request`).

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use debruijn_core::routing::{RoutePath, RoutingScratch};

use super::query::{parse_query, QueryKind};
use super::shards::{QueryShards, ServiceConfig};
use crate::metrics::{
    read_request, refuse_and_close, write_response, Anomaly, HttpResponse, Incoming,
    MetricsRegistry, PROMETHEUS_CONTENT_TYPE,
};

/// Hard cap on concurrent connections; beyond it new sockets get an
/// immediate `503`. Per-shard in-flight bounds (not this) are the real
/// admission control — the cap only stops a connection flood from
/// exhausting threads.
const MAX_CONNECTIONS: usize = 1024;

/// How long an idle keep-alive connection may sit between requests.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long shutdown waits for live connections to finish their current
/// exchanges before it finalizes the flight recorder.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Shared state every connection thread needs.
struct Shared {
    shards: Arc<QueryShards>,
    registry: Arc<MetricsRegistry>,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    addr: SocketAddr,
}

/// An HTTP query service over one TCP listener, one thread per
/// connection.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use debruijn_net::metrics::{MetricsRegistry, ScrapeServer};
/// use debruijn_net::service::{QueryService, ServiceConfig};
///
/// let registry = Arc::new(MetricsRegistry::new());
/// let service = QueryService::bind("127.0.0.1:0", ServiceConfig::new(2), Arc::clone(&registry))?;
/// let addr = service.local_addr();
/// assert_eq!(ScrapeServer::get(addr, "/distance?x=0000&y=1111")?, "4\n");
/// service.shutdown()?;
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct QueryService {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    shards: Arc<QueryShards>,
    active: Arc<AtomicUsize>,
    torn_down: bool,
}

impl QueryService {
    /// Binds `addr` and starts the accept thread, with one cache shard
    /// per core.
    ///
    /// # Errors
    ///
    /// Returns the bind or thread-spawn error.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
        registry: Arc<MetricsRegistry>,
    ) -> io::Result<Self> {
        let shards = QueryShards::new(config, &registry);
        Self::bind_shards(addr, shards, registry)
    }

    /// Like [`QueryService::bind`] with pre-built shards (e.g. ones
    /// carrying a flight recorder).
    ///
    /// # Errors
    ///
    /// Returns the bind or thread-spawn error.
    pub fn bind_shards(
        addr: impl ToSocketAddrs,
        shards: QueryShards,
        registry: Arc<MetricsRegistry>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shards = Arc::new(shards);
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let shared = Arc::new(Shared {
            shards: Arc::clone(&shards),
            registry,
            stop: Arc::clone(&stop),
            active: Arc::clone(&active),
            addr: local,
        });
        let accept = std::thread::Builder::new()
            .name("dbr-serve-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    if shared.active.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                        let retry = shared.shards.config().retry_after_secs;
                        let _ =
                            write_response(&mut stream, &HttpResponse::overloaded(retry), false);
                        continue;
                    }
                    shared.active.fetch_add(1, Ordering::SeqCst);
                    let conn_shared = Arc::clone(&shared);
                    let spawned = std::thread::Builder::new()
                        .name("dbr-serve-conn".to_string())
                        .spawn(move || {
                            // A panic while answering closes only this
                            // connection: its admission slot is freed by
                            // the guard's drop, and the count stays exact.
                            let served = panic::catch_unwind(AssertUnwindSafe(|| {
                                serve_connection(&conn_shared, stream)
                            }));
                            if served.is_err() {
                                count_error(&conn_shared, "panic");
                            }
                            conn_shared.active.fetch_sub(1, Ordering::SeqCst);
                        });
                    if spawned.is_err() {
                        shared.active.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            })?;
        Ok(Self {
            addr: local,
            stop,
            accept: Some(accept),
            shards,
            active,
            torn_down: false,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The cache shards and admission state, for inspection in tests
    /// and CLI reporting.
    pub fn shards(&self) -> &Arc<QueryShards> {
        &self.shards
    }

    /// Parks the caller until the service stops (a `/quitquitquit`
    /// request), then lets live connections finish.
    ///
    /// # Errors
    ///
    /// Returns the flight-recorder dump error, if any.
    pub fn block(mut self) -> io::Result<Option<Anomaly>> {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.teardown()
    }

    /// Stops accepting and lets live connections finish.
    ///
    /// # Errors
    ///
    /// Returns the flight-recorder dump error, if any.
    pub fn shutdown(mut self) -> io::Result<Option<Anomaly>> {
        self.stop_accepting();
        self.teardown()
    }

    fn stop_accepting(&mut self) {
        if let Some(handle) = self.accept.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept call with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }

    fn teardown(&mut self) -> io::Result<Option<Anomaly>> {
        self.torn_down = true;
        // Let live connections finish their current exchanges.
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while self.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shards.finish_flight()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.stop_accepting();
        if !self.torn_down {
            let _ = self.teardown();
        }
    }
}

/// One connection's keep-alive serve loop.
fn serve_connection(shared: &Shared, mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(IDLE_TIMEOUT))?;
    // Responses are small and latency-bound: without TCP_NODELAY,
    // Nagle holding them for the peer's delayed ACK costs ~40ms per
    // keep-alive exchange even on loopback.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    // Answer buffers owned by the connection, reused for every query.
    let mut scratch = RoutingScratch::new();
    let mut path_buf = RoutePath::empty();
    loop {
        let request = match read_request(&mut reader)? {
            Incoming::Closed => return Ok(()),
            Incoming::Refused { kind, response } => {
                count_error(shared, kind);
                count_request(shared, "other", response.status);
                return refuse_and_close(&mut stream, &mut reader, &response);
            }
            Incoming::Request(request) => request,
        };
        let (path, query_string) = request
            .target
            .split_once('?')
            .unwrap_or((request.target.as_str(), ""));
        let response = respond(
            shared,
            &request.method,
            path,
            query_string,
            &mut scratch,
            &mut path_buf,
        );
        let endpoint = match path {
            "/distance" => "distance",
            "/route" => "route",
            "/metrics" => "metrics",
            "/healthz" => "healthz",
            "/quitquitquit" => "quitquitquit",
            // Unknown paths share one label to keep cardinality bounded.
            _ => "other",
        };
        count_request(shared, endpoint, response.status);
        write_response(&mut stream, &response, request.keep_alive)?;
        if path == "/quitquitquit" {
            // Stop accepting after the response is on the wire; the
            // owner's block()/teardown lets the other connections finish.
            shared.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(shared.addr);
            return Ok(());
        }
        if !request.keep_alive {
            return Ok(());
        }
    }
}

fn respond(
    shared: &Shared,
    method: &str,
    path: &str,
    query_string: &str,
    scratch: &mut RoutingScratch,
    path_buf: &mut RoutePath,
) -> HttpResponse {
    if method != "GET" {
        count_error(shared, "method");
        return HttpResponse::json_error(405, "method", "only GET is supported");
    }
    let kind = match path {
        "/distance" => QueryKind::Distance,
        "/route" => QueryKind::Route,
        "/metrics" => {
            return HttpResponse {
                status: 200,
                content_type: PROMETHEUS_CONTENT_TYPE.to_string(),
                body: shared.registry.snapshot().render(),
                retry_after: None,
            }
        }
        "/healthz" => return HttpResponse::ok("ok\n"),
        "/quitquitquit" => return HttpResponse::ok("shutting down\n"),
        _ => {
            count_error(shared, "unknown-endpoint");
            return HttpResponse::json_error(
                404,
                "unknown-endpoint",
                &format!("no such endpoint: {path}"),
            );
        }
    };
    let query = match parse_query(shared.shards.config().d, kind, query_string) {
        Ok(query) => query,
        Err(e) => {
            count_error(shared, e.kind);
            return HttpResponse::json_error(400, e.kind, &e.detail);
        }
    };
    let Some(slot) = shared.shards.admit(&query) else {
        return HttpResponse::overloaded(shared.shards.config().retry_after_secs);
    };
    let body = slot.answer(scratch, path_buf);
    HttpResponse::ok(body)
}

fn count_request(shared: &Shared, endpoint: &str, status: u16) {
    shared
        .registry
        .counter_with(
            "dbr_service_requests_total",
            "Service requests, by endpoint and status.",
            &[("endpoint", endpoint), ("status", &status.to_string())],
        )
        .inc();
}

fn count_error(shared: &Shared, kind: &str) {
    shared
        .registry
        .counter_with(
            "dbr_service_errors_total",
            "Rejected service requests, by error kind.",
            &[("kind", kind)],
        )
        .inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ScrapeServer;

    fn service() -> (QueryService, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        let service =
            QueryService::bind("127.0.0.1:0", ServiceConfig::new(2), Arc::clone(&registry))
                .unwrap();
        (service, registry)
    }

    #[test]
    fn serves_distance_route_metrics_and_health() {
        let (service, _registry) = service();
        let addr = service.local_addr();
        assert_eq!(
            ScrapeServer::get(addr, "/distance?x=0000&y=1111").unwrap(),
            "4\n"
        );
        let route = ScrapeServer::get(addr, "/route?x=0110&y=1011").unwrap();
        assert!(route.starts_with("distance: "), "{route}");
        assert_eq!(ScrapeServer::get(addr, "/healthz").unwrap(), "ok\n");
        let metrics = ScrapeServer::get(addr, "/metrics").unwrap();
        assert!(
            metrics.contains("dbr_service_requests_total{endpoint=\"distance\",status=\"200\"} 1"),
            "{metrics}"
        );
        service.shutdown().unwrap();
    }

    #[test]
    fn quitquitquit_unblocks_block_and_drains() {
        let (service, registry) = service();
        let addr = service.local_addr();
        let body = ScrapeServer::get(addr, "/distance?x=0110&y=1011").unwrap();
        assert_eq!(body, "1\n");
        let quitter = std::thread::spawn(move || ScrapeServer::get(addr, "/quitquitquit"));
        service.block().unwrap();
        assert_eq!(quitter.join().unwrap().unwrap(), "shutting down\n");
        // The dump after shutdown still carries the service families.
        let rendered = registry.snapshot().render();
        assert!(rendered.contains("dbr_service_cache_total"), "{rendered}");
    }
}
