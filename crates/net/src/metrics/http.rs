//! Minimal std-only HTTP scrape endpoint.
//!
//! A [`ScrapeServer`] owns a `std::net::TcpListener` and one accept
//! thread; each connection gets a single GET request parsed, routed,
//! and answered with `Connection: close`. That is the entire protocol
//! surface Prometheus scraping needs, which is why the workspace's
//! no-external-dependencies rule costs nothing here — see
//! `docs/adr/0004-metrics-registry-and-flight-recorder.md` for the
//! trade-off against hyper/tokio.
//!
//! Built-in routes: `/metrics` (the registry, Prometheus text format)
//! and `/healthz`. Extra routes plug in via [`HttpHandler`] (the
//! `dbr serve` distance/route query endpoints).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::registry::MetricsRegistry;

/// The Prometheus text exposition content type served on `/metrics`.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// One HTTP response produced by a route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 400, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
    /// Optional `Retry-After` header value in seconds (load shedding).
    pub retry_after: Option<u64>,
}

impl HttpResponse {
    /// A `200 OK` plain-text response.
    pub fn ok(body: impl Into<String>) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: body.into(),
            retry_after: None,
        }
    }

    /// A `400 Bad Request` plain-text response.
    pub fn bad_request(body: impl Into<String>) -> Self {
        Self {
            status: 400,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: body.into(),
            retry_after: None,
        }
    }

    /// An arbitrary-status plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: body.into(),
            retry_after: None,
        }
    }

    /// A machine-readable error: `{"error":"<kind>","detail":"<detail>"}`
    /// as `application/json`. The detail is JSON-escaped; the kind must
    /// already be a stable kebab-case identifier.
    pub fn json_error(status: u16, kind: &str, detail: &str) -> Self {
        let mut escaped = String::with_capacity(detail.len());
        for c in detail.chars() {
            match c {
                '"' => escaped.push_str("\\\""),
                '\\' => escaped.push_str("\\\\"),
                '\n' => escaped.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    use std::fmt::Write as _;
                    let _ = write!(escaped, "\\u{:04x}", c as u32);
                }
                c => escaped.push(c),
            }
        }
        Self {
            status,
            content_type: "application/json; charset=utf-8".to_string(),
            body: format!("{{\"error\":\"{kind}\",\"detail\":\"{escaped}\"}}\n"),
            retry_after: None,
        }
    }

    /// A `503 Service Unavailable` shed response with `Retry-After`.
    pub fn overloaded(retry_after_secs: u64) -> Self {
        let mut response = Self::json_error(503, "overloaded", "queue full, retry later");
        response.retry_after = Some(retry_after_secs);
        response
    }
}

/// One parsed HTTP request line plus the connection-management headers
/// the servers here care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, ...).
    pub method: String,
    /// Request target: path plus optional query string.
    pub target: String,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridden by `Connection: close`; HTTP/1.0
    /// defaults to close unless `Connection: keep-alive`).
    pub keep_alive: bool,
}

/// Longest request line accepted (method, target and version, with the
/// line ending); a longer one is refused with `414`.
const MAX_REQUEST_LINE: usize = 8192;

/// Most bytes of header lines accepted after the request line; more are
/// refused with `431`.
const MAX_HEADER_BYTES: usize = 8192;

/// Largest request body read and discarded so a keep-alive connection
/// stays in sync; a larger declared body is refused with `413`.
const MAX_BODY: usize = 8192;

/// How long [`refuse_and_close`] keeps discarding input after answering.
const LINGER: Duration = Duration::from_secs(1);

/// What [`read_request`] found on the connection.
#[derive(Debug)]
pub(crate) enum Incoming {
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// One request head; its declared body has been read and discarded.
    Request(HttpRequest),
    /// A request the server will not frame. Answer it with
    /// [`refuse_and_close`]; `kind` is the stable error label.
    Refused {
        /// Kebab-case error kind, also the JSON body's `error` field.
        kind: &'static str,
        /// The `4xx` response to send before closing.
        response: HttpResponse,
    },
}

fn refused(status: u16, kind: &'static str, detail: &str) -> Incoming {
    Incoming::Refused {
        kind,
        response: HttpResponse::json_error(status, kind, detail),
    }
}

/// Appends one line, through its `\n`, to `line`, reading at most `limit`
/// bytes in total. Returns `false` when the limit is reached before the
/// line ends; end of stream ends the line early.
fn read_line_capped(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    limit: usize,
) -> io::Result<bool> {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(true);
        }
        let room = limit - line.len();
        if let Some(i) = buf.iter().take(room).position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..=i]);
            reader.consume(i + 1);
            return Ok(true);
        }
        let n = buf.len().min(room);
        line.extend_from_slice(&buf[..n]);
        reader.consume(n);
        if line.len() == limit {
            return Ok(false);
        }
    }
}

/// Reads one request head from `reader`, then reads and discards the
/// body its `Content-Length` declares.
///
/// Every read is bounded: the request line at [`MAX_REQUEST_LINE`]
/// (`414`), the header lines together at [`MAX_HEADER_BYTES`] (`431`),
/// and the body at [`MAX_BODY`] (`413`). A `Transfer-Encoding` header is
/// refused with `411`, and a malformed or conflicting `Content-Length`
/// with `400`: without a length the body could not be told apart from
/// the next request. Only `Connection` is otherwise interpreted.
pub(crate) fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Incoming> {
    let mut line = Vec::new();
    if !read_line_capped(reader, &mut line, MAX_REQUEST_LINE)? {
        return Ok(refused(
            414,
            "uri-too-long",
            "request line exceeds 8192 bytes",
        ));
    }
    if line.is_empty() {
        return Ok(Incoming::Closed);
    }
    let request_line = String::from_utf8_lossy(&line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let http10 = parts.next().is_some_and(|v| v == "HTTP/1.0");
    let mut keep_alive = !http10;
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    let mut budget = MAX_HEADER_BYTES;
    loop {
        line.clear();
        if !read_line_capped(reader, &mut line, budget)? {
            return Ok(refused(
                431,
                "headers-too-large",
                "request headers exceed 8192 bytes",
            ));
        }
        budget -= line.len();
        if line.is_empty() || line == b"\r\n" || line == b"\n" {
            break;
        }
        let header = String::from_utf8_lossy(&line);
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = true;
        } else if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                Ok(n) if content_length.is_none_or(|m| m == n) => content_length = Some(n),
                _ => {
                    return Ok(refused(
                        400,
                        "bad-request",
                        "malformed or conflicting Content-Length",
                    ))
                }
            }
        }
    }
    if chunked {
        return Ok(refused(
            411,
            "length-required",
            "Transfer-Encoding is not supported; send Content-Length",
        ));
    }
    let body = content_length.unwrap_or(0);
    if body > MAX_BODY {
        return Ok(refused(
            413,
            "body-too-large",
            "request body exceeds 8192 bytes",
        ));
    }
    io::copy(&mut reader.by_ref().take(body as u64), &mut io::sink())?;
    Ok(Incoming::Request(HttpRequest {
        method,
        target,
        keep_alive,
    }))
}

/// Sends a refused request's response and closes the connection.
///
/// The peer may still be sending (a 1 MiB request line, say). Closing a
/// socket with unread input resets it, which can discard the response
/// before the peer reads it, so this stops sending and then discards
/// input until the peer closes, for at most one second.
pub(crate) fn refuse_and_close(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    response: &HttpResponse,
) -> io::Result<()> {
    write_response(stream, response, false)?;
    stream.shutdown(Shutdown::Write)?;
    let deadline = Instant::now() + LINGER;
    let mut discard = [0u8; 8192];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(());
        }
        stream.set_read_timeout(Some(left))?;
        match reader.read(&mut discard) {
            Ok(0) | Err(_) => return Ok(()),
            Ok(_) => {}
        }
    }
}

/// Writes `response` to `stream` with an explicit `Connection` header
/// (`keep-alive` keeps the stream reusable for the next request).
pub(crate) fn write_response(
    stream: &mut TcpStream,
    response: &HttpResponse,
    keep_alive: bool,
) -> io::Result<()> {
    let retry = match response.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    // One buffer, one write: `write!` straight into an unbuffered
    // TcpStream would issue a syscall (and, under TCP_NODELAY, a
    // packet) per format fragment.
    let message = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n{}",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len(),
        retry,
        if keep_alive { "keep-alive" } else { "close" },
        response.body
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// A pluggable route: receives the request target (path plus query
/// string, e.g. `/distance?x=0110&y=1011`) and returns `Some` response
/// to claim it, `None` to fall through to `404`.
pub type HttpHandler = Arc<dyn Fn(&str) -> Option<HttpResponse> + Send + Sync>;

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Content Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// A background HTTP/1.1 server exposing a [`MetricsRegistry`].
///
/// Binding spawns one accept thread; [`ScrapeServer::shutdown`] (or
/// dropping the server) stops it. [`ScrapeServer::block`] parks the
/// caller on the accept thread for serve-forever CLI modes.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use debruijn_net::metrics::{MetricsRegistry, ScrapeServer};
///
/// let registry = Arc::new(MetricsRegistry::new());
/// registry.counter("dbr_up", "Liveness.").inc();
/// let server = ScrapeServer::bind("127.0.0.1:0", Arc::clone(&registry))?;
/// let body = ScrapeServer::get(server.local_addr(), "/metrics")?;
/// assert!(body.contains("dbr_up 1"));
/// server.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `/metrics` and `/healthz`.
    ///
    /// # Errors
    ///
    /// Returns the bind or thread-spawn error.
    pub fn bind(addr: impl ToSocketAddrs, registry: Arc<MetricsRegistry>) -> io::Result<Self> {
        Self::bind_with_handler(addr, registry, None)
    }

    /// Like [`ScrapeServer::bind`], with an extra route handler
    /// consulted for any target the built-in routes don't claim.
    ///
    /// # Errors
    ///
    /// Returns the bind or thread-spawn error.
    pub fn bind_with_handler(
        addr: impl ToSocketAddrs,
        registry: Arc<MetricsRegistry>,
        handler: Option<HttpHandler>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("dbr-scrape".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    // Serve inline: scrape traffic is one request per
                    // connection and tiny; per-connection errors only
                    // affect that client.
                    let _ = serve_connection(&mut stream, &registry, handler.as_ref());
                }
            })?;
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    /// Parks the calling thread on the accept loop (serve-forever
    /// CLI modes); returns only if the accept thread exits.
    pub fn block(mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    fn stop_accepting(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept call with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }

    /// Convenience test/CLI client: one `GET target` against `addr`,
    /// returning the response body.
    ///
    /// # Errors
    ///
    /// Returns connect/read errors, or [`io::ErrorKind::Other`] on a
    /// non-200 status.
    pub fn get(addr: SocketAddr, target: &str) -> io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: dbr\r\nConnection: close\r\n\r\n"
        )?;
        let mut response = String::new();
        BufReader::new(stream).read_to_string(&mut response)?;
        let (head, body) = response
            .split_once("\r\n\r\n")
            .ok_or_else(|| io::Error::other("malformed HTTP response"))?;
        let status = head.split_whitespace().nth(1).unwrap_or("");
        if status != "200" {
            return Err(io::Error::other(format!("HTTP status {status}")));
        }
        Ok(body.to_string())
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// Reads one request, routes it, writes one response.
///
/// Scrape traffic is one request per connection, so this server stays
/// close-per-request; the keep-alive query plane lives in
/// [`crate::service::QueryService`], which shares [`read_request`] /
/// [`write_response`].
fn serve_connection(
    stream: &mut TcpStream,
    registry: &Arc<MetricsRegistry>,
    handler: Option<&HttpHandler>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let request = match read_request(&mut reader)? {
        Incoming::Closed => return Ok(()),
        Incoming::Refused { response, .. } => {
            count_request(registry, "other", response.status);
            return refuse_and_close(stream, &mut reader, &response);
        }
        Incoming::Request(request) => request,
    };
    let response = route(&request.method, &request.target, registry, handler);
    let endpoint = match request.target.split('?').next().unwrap_or("") {
        path @ ("/metrics" | "/healthz") => path.to_string(),
        path if response.status != 404 => path.to_string(),
        // Unknown paths share one label to keep cardinality bounded.
        _ => "other".to_string(),
    };
    count_request(registry, &endpoint, response.status);
    write_response(stream, &response, false)
}

fn count_request(registry: &MetricsRegistry, endpoint: &str, status: u16) {
    registry
        .counter_with(
            "dbr_http_requests_total",
            "HTTP requests served, by endpoint and status.",
            &[("endpoint", endpoint), ("status", &status.to_string())],
        )
        .inc();
}

fn route(
    method: &str,
    target: &str,
    registry: &Arc<MetricsRegistry>,
    handler: Option<&HttpHandler>,
) -> HttpResponse {
    if method != "GET" {
        return HttpResponse::text(405, "only GET is supported\n");
    }
    match target.split('?').next().unwrap_or("") {
        "/metrics" => HttpResponse {
            status: 200,
            content_type: PROMETHEUS_CONTENT_TYPE.to_string(),
            body: registry.snapshot().render(),
            retry_after: None,
        },
        "/healthz" => HttpResponse::ok("ok\n"),
        _ => {
            if let Some(response) = handler.and_then(|h| h(target)) {
                return response;
            }
            HttpResponse::text(404, "not found\n")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_request(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn test_server() -> (ScrapeServer, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        registry
            .counter_with("dbr_demo_total", "Demo.", &[("kind", "x")])
            .add(5);
        let server = ScrapeServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        (server, registry)
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (server, _registry) = test_server();
        let response = raw_request(
            server.local_addr(),
            "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains(PROMETHEUS_CONTENT_TYPE), "{response}");
        assert!(
            response.contains("dbr_demo_total{kind=\"x\"} 5\n"),
            "{response}"
        );
        // Content-Length matches the body exactly.
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
        server.shutdown();
    }

    #[test]
    fn healthz_unknown_and_non_get_are_routed() {
        let (server, registry) = test_server();
        let addr = server.local_addr();
        assert_eq!(ScrapeServer::get(addr, "/healthz").unwrap(), "ok\n");
        assert!(ScrapeServer::get(addr, "/nope").is_err());
        let response = raw_request(addr, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 405 "), "{response}");
        server.shutdown();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value(
                "dbr_http_requests_total",
                &[("endpoint", "/healthz"), ("status", "200")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter_value(
                "dbr_http_requests_total",
                &[("endpoint", "other"), ("status", "404")]
            ),
            Some(1)
        );
    }

    #[test]
    fn custom_handler_claims_unrouted_targets() {
        let registry = Arc::new(MetricsRegistry::new());
        let handler: HttpHandler = Arc::new(|target: &str| {
            target
                .strip_prefix("/echo?")
                .map(|q| HttpResponse::ok(format!("{q}\n")))
        });
        let server =
            ScrapeServer::bind_with_handler("127.0.0.1:0", Arc::clone(&registry), Some(handler))
                .unwrap();
        let addr = server.local_addr();
        assert_eq!(ScrapeServer::get(addr, "/echo?x=1").unwrap(), "x=1\n");
        assert!(ScrapeServer::get(addr, "/other").is_err());
        // Handler-claimed endpoints are counted under their path.
        assert_eq!(
            registry.snapshot().counter_value(
                "dbr_http_requests_total",
                &[("endpoint", "/echo"), ("status", "200")]
            ),
            Some(1)
        );
        server.shutdown();
    }

    #[test]
    fn scrapes_observe_live_updates() {
        let (server, registry) = test_server();
        let addr = server.local_addr();
        let before = ScrapeServer::get(addr, "/metrics").unwrap();
        assert!(
            before.contains("dbr_demo_total{kind=\"x\"} 5\n"),
            "{before}"
        );
        registry
            .counter_with("dbr_demo_total", "Demo.", &[("kind", "x")])
            .add(2);
        let after = ScrapeServer::get(addr, "/metrics").unwrap();
        assert!(after.contains("dbr_demo_total{kind=\"x\"} 7\n"), "{after}");
        server.shutdown();
    }

    #[test]
    fn oversized_heads_are_refused_and_the_server_keeps_serving() {
        let (server, registry) = test_server();
        let addr = server.local_addr();
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        let response = raw_request(addr, &long_line);
        assert!(
            response.starts_with("HTTP/1.1 414 URI Too Long\r\n"),
            "{response}"
        );
        let long_headers = format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "p".repeat(MAX_HEADER_BYTES)
        );
        let response = raw_request(addr, &long_headers);
        assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
        // A request within the caps, body included, is served.
        let response = raw_request(
            addr,
            "GET /healthz HTTP/1.1\r\nContent-Length: 3\r\nConnection: close\r\n\r\nabc",
        );
        assert!(response.ends_with("\r\n\r\nok\n"), "{response}");
        server.shutdown();
        assert_eq!(
            registry.snapshot().counter_value(
                "dbr_http_requests_total",
                &[("endpoint", "other"), ("status", "414")]
            ),
            Some(1)
        );
    }

    #[test]
    fn drop_joins_the_accept_thread() {
        let (server, _registry) = test_server();
        // Dropping must stop the accept loop and join its thread
        // (a hang here fails the test via the harness timeout).
        drop(server);
    }
}
