//! End-to-end tests for the query service: concurrent keep-alive
//! clients, typed error handling, overload shedding, cache accounting,
//! and bounded request framing.
//!
//! The contract under test: every response is byte-identical to the
//! single-threaded direct-engine answer regardless of core count,
//! connection assignment, or cache state; malformed queries are typed
//! `400`s; overload sheds with `503` + `Retry-After`; the cache counters
//! are exactly those of per-shard caches fed the same queries; oversized
//! or unframeable requests are refused without disturbing other
//! connections.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use debruijn_core::rng::SplitMix64;
use debruijn_core::routing::{destination_shard, RouteCache, RoutePath, RoutingScratch};
use debruijn_core::Word;
use debruijn_net::metrics::MetricsRegistry;
use debruijn_net::service::{
    answer_query_cached, answer_query_direct, parse_query, Query, QueryKind, QueryService,
    ServiceConfig,
};

/// A minimal HTTP/1.1 keep-alive client: one socket, many requests.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One parsed response: status, `Retry-After` (if present), body.
struct Response {
    status: u16,
    retry_after: Option<u64>,
    content_type: String,
    body: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Self { stream, reader }
    }

    /// Sends `GET target` on the persistent connection and reads the
    /// full response (Content-Length framed).
    fn get(&mut self, target: &str) -> Response {
        self.send(format!("GET {target} HTTP/1.1\r\nHost: dbr\r\n\r\n").as_bytes())
    }

    /// Writes raw request bytes and reads one response.
    fn send(&mut self, request: &[u8]) -> Response {
        self.stream.write_all(request).unwrap();
        self.stream.flush().unwrap();
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
            .parse()
            .unwrap();
        let mut content_length = 0usize;
        let mut retry_after = None;
        let mut content_type = String::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            if line == "\r\n" || line == "\n" || line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().unwrap();
                } else if name.eq_ignore_ascii_case("retry-after") {
                    retry_after = Some(value.parse().unwrap());
                } else if name.eq_ignore_ascii_case("content-type") {
                    content_type = value.to_string();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).unwrap();
        Response {
            status,
            retry_after,
            content_type,
            body: String::from_utf8(body).unwrap(),
        }
    }
}

fn bind_service(config: ServiceConfig) -> (QueryService, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    let service = QueryService::bind("127.0.0.1:0", config, Arc::clone(&registry)).unwrap();
    (service, registry)
}

/// The query mix every client thread issues: a deterministic walk over
/// DG(2,6) pairs, alternating endpoint and network direction. All
/// clients share the walk, so the same pairs arrive concurrently from
/// different connections — the cache-hit and determinism stress case.
fn query_mix() -> Vec<(String, Query)> {
    let mut queries = Vec::new();
    for i in 0..48u128 {
        let x = Word::from_rank(2, 6, (i * 5) % 64).unwrap();
        let y = Word::from_rank(2, 6, (i * 11) % 64).unwrap();
        let kind = if i % 2 == 0 { "route" } else { "distance" };
        let directed = i % 3 == 0;
        let target = format!(
            "/{kind}?x={x}&y={y}{}",
            if directed { "&directed=1" } else { "" }
        );
        let kind = if i % 2 == 0 {
            QueryKind::Route
        } else {
            QueryKind::Distance
        };
        let (_, query_string) = target.split_once('?').unwrap();
        let query = parse_query(2, kind, query_string).unwrap();
        queries.push((target, query));
    }
    queries
}

#[test]
fn concurrent_keep_alive_clients_get_byte_identical_answers() {
    let (service, registry) = bind_service(ServiceConfig {
        cache_capacity: 64, // small: force eviction traffic too
        ..ServiceConfig::new(2)
    });
    let addr = service.local_addr();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for (target, query) in query_mix() {
                    let response = client.get(&target);
                    assert_eq!(response.status, 200, "{target}");
                    // Byte-for-byte the single-threaded engine answer.
                    assert_eq!(response.body, answer_query_direct(&query), "{target}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    service.shutdown().unwrap();
    let snap = registry.snapshot();
    let requests: u64 = ["distance", "route"]
        .iter()
        .filter_map(|e| {
            snap.counter_value(
                "dbr_service_requests_total",
                &[("endpoint", e), ("status", "200")],
            )
        })
        .sum();
    assert_eq!(requests, 4 * 48);
    // The cache shards saw the traffic (hits and misses both nonzero:
    // clients overlap in their walks).
    let lookups = |outcome: &str| {
        snap.counter_value("dbr_service_cache_total", &[("outcome", outcome)])
            .unwrap_or(0)
    };
    assert!(lookups("miss") > 0);
    assert!(lookups("hit") > 0, "overlapping clients must hit");
}

#[test]
fn malformed_queries_get_typed_400s_and_unknown_endpoints_404() {
    let (service, registry) = bind_service(ServiceConfig::new(2));
    let mut client = Client::connect(service.local_addr());

    let cases = [
        ("/distance?y=1011", 400, "missing-param"),
        ("/distance?x=012&y=000", 400, "bad-address"),
        ("/route?x=0110&y=01", 400, "length-mismatch"),
        ("/frobnicate", 404, "unknown-endpoint"),
    ];
    for (target, status, kind) in cases {
        let response = client.get(target);
        assert_eq!(response.status, status, "{target}");
        assert!(
            response.content_type.starts_with("application/json"),
            "{target}: {}",
            response.content_type
        );
        assert!(
            response.body.contains(&format!("\"error\":\"{kind}\"")),
            "{target}: {}",
            response.body
        );
    }
    // A good query on the same (still keep-alive) connection works.
    assert_eq!(client.get("/distance?x=0110&y=1011").body, "1\n");
    service.shutdown().unwrap();
    let snap = registry.snapshot();
    for (_, _, kind) in cases {
        assert_eq!(
            snap.counter_value("dbr_service_errors_total", &[("kind", kind)]),
            Some(1),
            "{kind}"
        );
    }
}

#[test]
fn overloaded_service_sheds_503_with_retry_after() {
    let (service, registry) = bind_service(ServiceConfig {
        max_inflight: 4,
        retry_after_secs: 2,
        ..ServiceConfig::new(2)
    });
    // Saturate the query's shard deterministically: hold all
    // max_inflight slots, as four slow queries in flight would.
    let query = parse_query(2, QueryKind::Route, "x=0110&y=1011").unwrap();
    let held: Vec<_> = (0..4)
        .map(|_| service.shards().admit(&query).unwrap())
        .collect();
    let mut client = Client::connect(service.local_addr());
    let response = client.get("/route?x=0110&y=1011");
    assert_eq!(response.status, 503);
    assert_eq!(response.retry_after, Some(2));
    assert!(response.body.contains("\"error\":\"overloaded\""));
    // Non-query endpoints still answer while shedding.
    assert_eq!(client.get("/healthz").body, "ok\n");
    // Freed slots admit again.
    drop(held);
    assert_eq!(
        client.get("/route?x=0110&y=1011").body,
        answer_query_direct(&query)
    );
    service.shutdown().unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.counter_value("dbr_service_shed_total", &[]), Some(1));
    assert_eq!(
        snap.counter_value(
            "dbr_service_requests_total",
            &[("endpoint", "route"), ("status", "503")]
        ),
        Some(1)
    );
}

#[test]
fn one_connection_cache_counters_equal_a_per_shard_replay() {
    let capacity = 16;
    let (service, registry) = bind_service(ServiceConfig {
        cache_capacity: capacity,
        ..ServiceConfig::new(2)
    });
    let shards = service.shards().shards();
    let words: Vec<Word> = (0..64u128)
        .map(|r| Word::from_rank(2, 6, r).unwrap())
        .collect();
    // A seeded mixed sequence: hot destinations with repeats, uniform
    // pairs, both endpoints, one query in five directed.
    let mut rng = SplitMix64::new(0x5EED_CAC4E);
    let queries: Vec<Query> = (0..600)
        .map(|_| {
            let x = words[rng.below_usize(64)].clone();
            let y = if rng.below_usize(3) > 0 {
                words[rng.below_usize(6)].clone()
            } else {
                words[rng.below_usize(64)].clone()
            };
            Query {
                kind: if rng.below_usize(2) == 0 {
                    QueryKind::Distance
                } else {
                    QueryKind::Route
                },
                x,
                y,
                directed: rng.below_usize(5) == 0,
            }
        })
        .collect();

    let mut client = Client::connect(service.local_addr());
    for q in &queries {
        let target = format!(
            "/{}?x={}&y={}{}",
            q.kind.label(),
            q.x,
            q.y,
            if q.directed { "&directed=1" } else { "" }
        );
        let response = client.get(&target);
        assert_eq!(response.status, 200, "{target}");
        assert_eq!(response.body, answer_query_direct(q), "{target}");
    }
    drop(client);
    service.shutdown().unwrap();

    // The same queries through answer_query_cached on per-shard caches
    // with the service's capacity split.
    let mut caches: Vec<RouteCache> = (0..shards)
        .map(|_| RouteCache::new(capacity.div_ceil(shards)))
        .collect();
    let mut scratch = RoutingScratch::new();
    let mut path_buf = RoutePath::empty();
    for q in &queries {
        let cache = &mut caches[destination_shard(&q.y, shards)];
        answer_query_cached(q, cache, &mut scratch, &mut path_buf);
    }
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    for cache in &caches {
        let stats = cache.stats();
        hits += stats.hits;
        misses += stats.misses;
        evictions += stats.evictions;
    }
    assert!(
        hits > 0 && misses > 0 && evictions > 0,
        "the sequence must churn"
    );
    let snap = registry.snapshot();
    let served = |outcome: &str| {
        snap.counter_value("dbr_service_cache_total", &[("outcome", outcome)])
            .unwrap_or(0)
    };
    assert_eq!(
        (served("hit"), served("miss"), served("eviction")),
        (hits, misses, evictions)
    );
}

#[test]
fn newline_free_request_gets_414_and_other_connections_are_unaffected() {
    let (service, registry) = bind_service(ServiceConfig::new(2));
    let addr = service.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    // 1 MiB with no newline: the server must answer 414 after reading a
    // bounded prefix rather than buffering the whole line.
    let request = vec![b'a'; 1 << 20];
    let writer = {
        let mut stream = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            // The server may close before the whole megabyte is sent.
            let _ = stream.write_all(&request);
        })
    };
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    writer.join().unwrap();
    let response = String::from_utf8_lossy(&response);
    assert!(
        response.starts_with("HTTP/1.1 414 URI Too Long\r\n"),
        "{response}"
    );
    assert!(response.contains("Connection: close"), "{response}");
    assert!(
        response.contains("\"error\":\"uri-too-long\""),
        "{response}"
    );

    // A new connection is served normally.
    let mut client = Client::connect(addr);
    assert_eq!(client.get("/distance?x=00000000&y=11111111").body, "8\n");
    drop(client);
    service.shutdown().unwrap();
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter_value(
            "dbr_service_requests_total",
            &[("endpoint", "other"), ("status", "414")]
        ),
        Some(1)
    );
    assert_eq!(
        snap.counter_value("dbr_service_errors_total", &[("kind", "uri-too-long")]),
        Some(1)
    );
}

#[test]
fn request_bodies_are_framed_on_keep_alive_connections() {
    let (service, _registry) = bind_service(ServiceConfig::new(2));
    let addr = service.local_addr();
    let mut client = Client::connect(addr);
    // A declared 5-byte body is consumed, not parsed as the next request.
    let response = client.send(
        b"POST /distance?x=0110&y=1011 HTTP/1.1\r\nHost: dbr\r\nContent-Length: 5\r\n\r\nhello",
    );
    assert_eq!(response.status, 405);
    let response = client.get("/distance?x=0110&y=1011");
    assert_eq!((response.status, response.body.as_str()), (200, "1\n"));
    drop(client);

    // Unframeable bodies are refused and the connection closed.
    for (request, status) in [
        (
            "POST /route HTTP/1.1\r\nContent-Length: 8193\r\n\r\n".to_string(),
            "413",
        ),
        (
            "POST /route HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_string(),
            "411",
        ),
        (
            format!(
                "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                "p".repeat(9000)
            ),
            "431",
        ),
    ] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with(&format!("HTTP/1.1 {status} ")),
            "{status}: {response}"
        );
        assert!(response.contains("Connection: close"), "{response}");
    }
    service.shutdown().unwrap();
}

#[test]
fn connection_close_is_honored_and_http10_defaults_to_close() {
    let (service, _registry) = bind_service(ServiceConfig::new(2));
    let addr = service.local_addr();
    // `Connection: close`: the server answers then closes the socket.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    write!(
        stream,
        "GET /distance?x=0110&y=1011 HTTP/1.1\r\nHost: dbr\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("Connection: close"), "{response}");
    assert!(response.ends_with("1\n"), "{response}");
    // HTTP/1.0 without keep-alive: also one-shot.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    write!(stream, "GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.contains("Connection: close"), "{response}");
    assert!(response.ends_with("ok\n"), "{response}");
    service.shutdown().unwrap();
}
