//! Loopback throughput of the query service: sixteen keep-alive HTTP
//! clients hammering `/route` and `/distance` on `DG(2,16)`, answered
//! inline on the connection threads through the destination-sharded
//! route caches.
//!
//! Two workloads: uniform random pairs, and a destination-skewed one
//! (`workload::zipf`, `--zipf-exponent`, default 1.0) whose hot sinks
//! concentrate on few cache shards (`*_zipf` series). Each reports QPS
//! plus client-observed p50/p99 latency, the median over the runs.
//!
//! QPS is a higher-is-better series, so `bench.sh --check` excludes it
//! from the lower-is-better regression comparison via `--ns-only`. The
//! in-process gate is a ratio instead: `--max-query-over-healthz R`
//! exits non-zero if a query's p50 latency exceeds `R` times a
//! `/healthz` p50 measured interleaved with it (query, healthz, query,
//! ...) on the same connections. `/healthz` is the HTTP round trip with
//! no routing work, so the ratio prices what a query adds to it —
//! parsing, admission, the cache shard and the solve — on any machine.
//!
//! Every response is asserted byte-identical to the single-threaded
//! direct-engine answer — the bench doubles as a load-level
//! determinism check.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use debruijn_bench::{json_mode, random_pairs, JsonReport};
use debruijn_core::DeBruijn;
use debruijn_net::metrics::MetricsRegistry;
use debruijn_net::service::{answer_query_direct, parse_query, QueryKind, QueryService};
use debruijn_net::{workload, ServiceConfig};

const D: u8 = 2;
const K: usize = 16;
const PAIRS: usize = 256;
const CLIENTS: usize = 16;
const PASSES: usize = 2;
const RUNS: usize = 7;
/// Connections in the query-over-healthz probe, each alternating the
/// two requests.
const PROBE_CLIENTS: usize = 2;

/// The number following `flag`, if present.
fn flag_value(flag: &str) -> Option<f64> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == flag)?;
    let value = args.get(i + 1).and_then(|v| v.parse().ok());
    if value.is_none() {
        eprintln!("{flag} needs a number");
        std::process::exit(2);
    }
    value
}

/// Builds the `(target, expected body)` list the clients replay:
/// alternating `/route` and `/distance` targets over `pairs`
/// (undirected, the cacheable path), with the expected byte-exact body
/// precomputed from the direct engine.
fn requests_from(pairs: Vec<(debruijn_core::Word, debruijn_core::Word)>) -> Vec<(String, String)> {
    pairs
        .into_iter()
        .enumerate()
        .map(|(i, (x, y))| {
            let kind = if i % 2 == 0 {
                QueryKind::Route
            } else {
                QueryKind::Distance
            };
            let endpoint = kind.label();
            let query_string = format!("x={x}&y={y}");
            let query = parse_query(D, kind, &query_string).unwrap();
            (
                format!("/{endpoint}?{query_string}"),
                answer_query_direct(&query),
            )
        })
        .collect()
}

/// The uniform request list: independent random pairs.
fn request_list() -> Vec<(String, String)> {
    requests_from(random_pairs(D, K, PAIRS, 0xDB))
}

/// A destination-skewed request list: `workload::zipf` draws the
/// destinations Zipf(`exponent`)-style over all of `DG(D,K)`, so a few
/// hot sinks dominate — convergecast-shaped traffic that concentrates on
/// few cache shards.
fn zipf_request_list(exponent: f64) -> Vec<(String, String)> {
    let space = DeBruijn::new(D, K).expect("bench space is valid");
    let pairs = workload::zipf(space, PAIRS, exponent, 0xDB)
        .into_iter()
        .map(|inj| (inj.source, inj.destination))
        .collect();
    requests_from(pairs)
}

/// One keep-alive connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Self { stream, reader }
    }

    /// One `GET target` exchange, asserting a 200 with body `expected`;
    /// returns the client-observed latency in ns.
    fn exchange(&mut self, target: &str, expected: &str) -> u64 {
        let start = Instant::now();
        write!(self.stream, "GET {target} HTTP/1.1\r\nHost: dbr\r\n\r\n").unwrap();
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).unwrap();
        assert!(status_line.starts_with("HTTP/1.1 200"), "{status_line}");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            if line == "\r\n" || line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).unwrap();
        let elapsed = start.elapsed().as_nanos() as u64;
        assert_eq!(body, expected.as_bytes(), "{target}");
        elapsed
    }
}

/// Runs `clients` connections against a freshly bound service, each
/// calling `client` once; returns the wall time in seconds and every
/// client's result.
fn run_clients<R: Send + 'static>(
    clients: usize,
    client: impl Fn(Conn) -> R + Send + Sync + 'static,
) -> (f64, Vec<R>) {
    let registry = Arc::new(MetricsRegistry::new());
    let service = QueryService::bind("127.0.0.1:0", ServiceConfig::new(D), registry).unwrap();
    let addr = service.local_addr();
    let barrier = Arc::new(Barrier::new(clients + 1));
    let client = Arc::new(client);
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                let conn = Conn::connect(addr);
                barrier.wait();
                client(conn)
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let results: Vec<R> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let elapsed = start.elapsed().as_secs_f64();
    service.shutdown().unwrap();
    (elapsed, results)
}

/// One timed run: `CLIENTS` connections each issuing `PASSES` passes
/// over `requests`. Returns the QPS and every latency sample (ns).
fn run_once(requests: &Arc<Vec<(String, String)>>) -> (f64, Vec<u64>) {
    let requests = Arc::clone(requests);
    let (elapsed, per_client) = run_clients(CLIENTS, move |mut conn| {
        let mut latencies = Vec::with_capacity(PASSES * requests.len());
        for _ in 0..PASSES {
            for (target, expected) in requests.iter() {
                latencies.push(conn.exchange(target, expected));
            }
        }
        latencies
    });
    let latencies: Vec<u64> = per_client.into_iter().flatten().collect();
    (latencies.len() as f64 / elapsed, latencies)
}

/// One probe run: `PROBE_CLIENTS` connections each alternating a query
/// and a `/healthz`; returns query p50 over healthz p50.
fn probe_once(requests: &Arc<Vec<(String, String)>>) -> f64 {
    let requests = Arc::clone(requests);
    let (_, per_client) = run_clients(PROBE_CLIENTS, move |mut conn| {
        let mut query = Vec::with_capacity(PASSES * requests.len());
        let mut healthz = Vec::with_capacity(PASSES * requests.len());
        for _ in 0..PASSES {
            for (target, expected) in requests.iter() {
                query.push(conn.exchange(target, expected));
                healthz.push(conn.exchange("/healthz", "ok\n"));
            }
        }
        (query, healthz)
    });
    let (mut query, mut healthz): (Vec<u64>, Vec<u64>) =
        per_client
            .into_iter()
            .fold((Vec::new(), Vec::new()), |(mut q, mut h), (cq, ch)| {
                q.extend(cq);
                h.extend(ch);
                (q, h)
            });
    percentile(&mut query, 50.0) as f64 / percentile(&mut healthz, 50.0) as f64
}

/// The `p`-th percentile (0–100) of `samples`, which are sorted here.
fn percentile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    let rank = ((samples.len() - 1) as f64 * p / 100.0).round() as usize;
    samples[rank]
}

/// The median of `samples`, which are sorted here.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

fn main() {
    let json = json_mode();
    let ns_only = std::env::args().any(|a| a == "--ns-only");
    let max_query_over_healthz = flag_value("--max-query-over-healthz");
    let zipf_exponent = flag_value("--zipf-exponent").unwrap_or(1.0);
    let mut report = JsonReport::new("service_throughput", "qps_and_ns");

    let requests = Arc::new(request_list());
    let zipf_requests = Arc::new(zipf_request_list(zipf_exponent));
    let total = CLIENTS * PASSES * requests.len();
    if !json {
        println!(
            "query service loopback throughput: DG({D},{K}), {CLIENTS} keep-alive \
             clients, {total} requests per run (median of {RUNS} runs);\n\
             zipf = destinations drawn Zipf({zipf_exponent}) over the whole space\n"
        );
        println!(
            "{:>10} {:>10} {:>12} {:>12}",
            "workload", "qps", "p50_ns", "p99_ns"
        );
    }

    for (suffix, request_set) in [("", &requests), ("_zipf", &zipf_requests)] {
        let mut qps_runs = Vec::with_capacity(RUNS);
        let mut pooled = Vec::new();
        for _ in 0..RUNS {
            let (qps, latencies) = run_once(request_set);
            qps_runs.push(qps);
            pooled.extend(latencies);
        }
        let qps = median(&mut qps_runs);
        let p50 = percentile(&mut pooled, 50.0);
        let p99 = percentile(&mut pooled, 99.0);
        if !ns_only {
            report.push(&format!("qps{suffix}"), CLIENTS, qps);
        }
        report.push(&format!("p50_ns{suffix}"), CLIENTS, p50 as f64);
        report.push(&format!("p99_ns{suffix}"), CLIENTS, p99 as f64);
        if !json {
            let label = if suffix.is_empty() { "uniform" } else { "zipf" };
            println!("{label:>10} {qps:>10.0} {p50:>12} {p99:>12}");
        }
    }

    let mut ratios: Vec<f64> = (0..RUNS).map(|_| probe_once(&requests)).collect();
    let ratio = median(&mut ratios);
    if !json {
        println!(
            "\nquery p50 over interleaved /healthz p50 ({PROBE_CLIENTS} connections, \
             median of {RUNS} runs): {ratio:.3}"
        );
        println!("(every response asserted byte-identical to the direct engine)");
    }
    if let Some(limit) = max_query_over_healthz {
        if ratio > limit {
            eprintln!(
                "query p50 is {ratio:.3}x the interleaved /healthz p50, above the {limit}x ceiling"
            );
            std::process::exit(1);
        }
        eprintln!("query p50 {ratio:.3}x the interleaved /healthz p50 meets the {limit}x ceiling");
    }
    if json {
        println!("{}", report.render());
    }
}
