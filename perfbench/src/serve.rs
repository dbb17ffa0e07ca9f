//! Workload `serve_k16`: `dbr serve 2` under a closed loop of one
//! keep-alive connection alternating `/route` and `/distance` at k = 16,
//! pairs drawn Zipf(1.0) from a seeded pool four times the size of the
//! default route cache. Client and server share one CPU.

use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use debruijn_core::Word;
use debruijn_net::service::{answer_query_direct, parse_query, Query, QueryKind};

use crate::http::{dump_max, dump_sum, get_request, Conn, Server};
use crate::proc::spawn_reference;
use crate::report::Outcome;
use crate::stats::{self, Rng, Zipf};
use crate::trace::{Span, Spans};
use crate::Ctx;

const K: usize = 16;
const POOL: usize = 16_384;
/// `dbr serve`'s default `--cache-capacity`.
const DEFAULT_CACHE: usize = 4096;
/// Server starts per run; one of them carries the load.
const STARTS: usize = 31;
const WARMUP: Duration = Duration::from_secs(1);
/// The timed stretch alternates windows of load with slices of the
/// loopback echo reference.
const WINDOW: Duration = Duration::from_millis(250);
const ECHO_SLICE: Duration = Duration::from_millis(25);
/// The echo exchange's median, p90 and mean, in µs, that the service
/// figures are scaled to: about their values on the box the bounds were
/// set on.
const ECHO_NOMINAL_P50_US: f64 = 16.0;
const ECHO_NOMINAL_P90_US: f64 = 17.0;
const ECHO_NOMINAL_MEAN_US: f64 = 16.5;
const KINDS: [QueryKind; 2] = [QueryKind::Route, QueryKind::Distance];

/// The seeded pair pool with each pair's request bytes and the reference
/// answer bodies from `answer_query_direct`.
struct Pool {
    queries: Vec<String>,
    requests: [Vec<Vec<u8>>; 2],
    expected: [Vec<String>; 2],
    zipf: Zipf,
}

impl Pool {
    fn new(seed: u64) -> Pool {
        let mut rng = Rng::new(seed ^ 0x5E4E_0016);
        let mut seen = HashSet::new();
        let mut pairs = Vec::with_capacity(POOL);
        while pairs.len() < POOL {
            let (x, y) = (rng.binary_word(K), rng.binary_word(K));
            if x != y && seen.insert((x.clone(), y.clone())) {
                pairs.push((x, y));
            }
        }
        let text = |w: &[u8]| w.iter().map(|b| char::from(b'0' + b)).collect::<String>();
        let qs: Vec<String> = pairs
            .iter()
            .map(|(x, y)| format!("x={}&y={}", text(x), text(y)))
            .collect();
        let per_kind = |kind: QueryKind| {
            let path = match kind {
                QueryKind::Route => "/route",
                QueryKind::Distance => "/distance",
            };
            let requests = qs
                .iter()
                .map(|q| get_request(&format!("{path}?{q}")))
                .collect();
            let expected = pairs
                .iter()
                .map(|(x, y)| {
                    answer_query_direct(&Query {
                        kind,
                        x: Word::new(2, x.clone()).expect("binary digits"),
                        y: Word::new(2, y.clone()).expect("binary digits"),
                        directed: false,
                    })
                })
                .collect();
            (requests, expected)
        };
        let (route_req, route_exp) = per_kind(QueryKind::Route);
        let (dist_req, dist_exp) = per_kind(QueryKind::Distance);
        Pool {
            queries: qs,
            requests: [route_req, dist_req],
            expected: [route_exp, dist_exp],
            zipf: Zipf::new(POOL),
        }
    }

    /// The client's request sequence: (kind, pool index) pairs, kinds
    /// alternating, indices Zipf-drawn.
    fn sequence(&self, seed: u64) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        (0..).map(move |i| (i % 2, self.zipf.sample(&mut rng)))
    }
}

/// What the client saw.
#[derive(Default)]
struct ClientLog {
    healthz_us: Vec<f64>,
    completed: u64,
    failed: u64,
    spans: Vec<Span>,
}

/// The closed-loop client: one keep-alive connection working through
/// the seeded request sequence, on the calling thread.
struct Client<'a> {
    pool: &'a Pool,
    addr: SocketAddr,
    conn: Option<Conn>,
    seq: Box<dyn Iterator<Item = (usize, usize)> + 'a>,
    health: Vec<u8>,
    sent: u64,
    log: ClientLog,
}

impl<'a> Client<'a> {
    fn new(pool: &'a Pool, addr: SocketAddr, seed: u64) -> Client<'a> {
        Client {
            pool,
            addr,
            conn: Conn::connect(addr).ok(),
            seq: Box::new(pool.sequence(seed)),
            health: get_request("/healthz"),
            sent: 0,
            log: ClientLog::default(),
        }
    }

    /// Requests until `end`, each checked and counted; returns the query
    /// latencies in µs. With `healthz_every` > 0 every such request is a
    /// `/healthz`, and `trace` records a span per request.
    fn run(&mut self, end: Instant, healthz_every: u64, trace: Option<Instant>) -> Vec<f64> {
        let mut latency_us = Vec::new();
        loop {
            let start = Instant::now();
            if start >= end {
                return latency_us;
            }
            let n = self.sent;
            self.sent += 1;
            let healthz = healthz_every > 0 && n.is_multiple_of(healthz_every);
            let (kind, idx) = if healthz {
                (0, 0)
            } else {
                self.seq.next().expect("endless sequence")
            };
            let request = if healthz {
                self.health.as_slice()
            } else {
                &self.pool.requests[kind][idx]
            };
            let ok = match self.conn.as_mut().map(|c| c.exchange(request)) {
                Some(Ok((200, body))) => {
                    healthz || body == self.pool.expected[kind][idx].as_bytes()
                }
                Some(Ok(_)) => false,
                Some(Err(_)) | None => {
                    self.conn = Conn::connect(self.addr).ok();
                    false
                }
            };
            let done = Instant::now();
            self.log.completed += 1;
            self.log.failed += u64::from(!ok);
            let us = (done - start).as_nanos() as f64 / 1e3;
            if healthz {
                self.log.healthz_us.push(us);
            } else {
                latency_us.push(us);
            }
            if let Some(base) = trace {
                self.log.spans.push(Span {
                    name: if healthz {
                        "service.healthz"
                    } else {
                        "service.query"
                    },
                    start_ns: (start - base).as_nanos() as u64,
                    end_ns: (done - base).as_nanos() as u64,
                    parent: None,
                    id: n,
                });
            }
        }
    }
}

/// The host-speed reference: exchanges of two 64-byte round trips over
/// loopback TCP to an echo thread of the benchmark's own, on the CPU the
/// load runs on. An exchange makes the kind of system calls, wake-ups and
/// loopback transfers a request makes and lasts about as long, so the
/// host's interruptions hit both alike; it runs no code of the program,
/// so it slows with the host and never with the program.
struct Echo {
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> io::Result<Echo> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            let mut buf = [0u8; 64];
            while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Echo {
            stream,
            thread: Some(thread),
        })
    }

    /// Exchanges in µs over `length`: their median, p90 and mean.
    fn exchanges(&mut self, length: Duration) -> io::Result<(f64, f64, f64)> {
        let mut buf = [0x5Au8; 64];
        let mut us = Vec::new();
        let end = Instant::now() + length;
        while us.is_empty() || Instant::now() < end {
            let start = Instant::now();
            for _ in 0..2 {
                self.stream.write_all(&buf)?;
                self.stream.read_exact(&mut buf)?;
            }
            us.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        let s = stats::Summary::of(&us).expect("at least one exchange");
        Ok((s.median, s.p90, stats::mean(&us)))
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Confines the benchmark, and the server it starts, to one CPU. Each
/// request of the closed loop passes client → connection thread →
/// worker → connection thread → client, one thread running at a time;
/// spread over the two vCPUs of a shared host, every pass is a
/// cross-CPU wake-up whose cost varied by half between runs.
fn pin() -> Result<crate::proc::Pinned, String> {
    crate::proc::Pinned::first_cpu().map_err(|e| format!("pinning to one CPU: {e}"))
}

/// The end-to-end run.
pub fn e2e(ctx: &Ctx) -> Result<Outcome, String> {
    let pool = Pool::new(ctx.seed);
    let mut out = Outcome::default();
    let pinned = pin()?;
    out.note("client and server pinned to CPU", pinned.cpu);
    // Half the set-up samples before the load and half after, so their
    // median covers the same stretch of time as the load.
    let start = || Server::start(&ctx.dbr, 2).map_err(|e| format!("dbr serve: {e}"));
    // Each set-up sample is paired with the host-speed reference of the
    // command workloads, taken right after it.
    let reference = || spawn_reference().map_err(|e| format!("spawn reference: {e}"));
    let start_and_quit = || -> Result<(f64, f64), String> {
        let (server, took) = start()?;
        server
            .quit()
            .map_err(|e| format!("dbr serve shutdown: {e}"))?;
        Ok((took.as_secs_f64(), reference()?))
    };
    let mut setup = Vec::with_capacity(STARTS);
    while setup.len() < STARTS / 2 {
        setup.push(start_and_quit()?);
    }
    let mut echo = Echo::start().map_err(|e| format!("loopback echo: {e}"))?;
    let (server, took) = start()?;
    setup.push((took.as_secs_f64(), reference()?));
    let mut client = Client::new(&pool, server.addr, ctx.seed);
    client.run(Instant::now() + WARMUP, 0, None);
    // Windows of load, each followed by a slice of the echo reference.
    let end = Instant::now() + Duration::from_secs(ctx.seconds);
    let mut windows = Vec::new();
    while Instant::now() < end {
        let latency_us = client.run(Instant::now() + WINDOW, 0, None);
        let echo_us = echo
            .exchanges(ECHO_SLICE)
            .map_err(|e| format!("loopback echo: {e}"))?;
        windows.push((latency_us, echo_us));
    }
    let log = std::mem::take(&mut client.log);
    drop(client);
    drop(echo);
    let (dump, exit) = server
        .quit()
        .map_err(|e| format!("dbr serve shutdown: {e}"))?;
    while setup.len() < STARTS {
        setup.push(start_and_quit()?);
    }

    out.attempted = log.completed;
    if log.failed > 0 {
        out.fail(
            log.failed,
            "serve: replies with a non-200 status or a body unlike answer_query_direct",
        );
    }
    // Each window's figures are scaled by the echo reference to the
    // host's nominal speed: the median by the echo's median, the tail by
    // its p90, and the throughput of the closed loop, which follows the
    // mean latency, by its mean. Each metric is the median over the
    // windows. The tail is p90: the p99 follows scheduler stalls of the
    // host and moved by up to 0.35 between runs; it is kept in the notes.
    let (mut qps, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_qps, mut raw_p50, mut raw_p90) = (Vec::new(), Vec::new(), Vec::new());
    let (mut echo_p50, mut echo_p90, mut echo_mean) = (Vec::new(), Vec::new(), Vec::new());
    for (latency_us, (e_p50, e_p90, e_mean)) in &windows {
        let Some(s) = stats::Summary::of(latency_us) else {
            continue;
        };
        let rate = latency_us.len() as f64 / WINDOW.as_secs_f64();
        qps.push(rate * e_mean / ECHO_NOMINAL_MEAN_US);
        p50.push(s.median * ECHO_NOMINAL_P50_US / e_p50);
        p90.push(s.p90 * ECHO_NOMINAL_P90_US / e_p90);
        raw_qps.push(rate);
        raw_p50.push(s.median);
        raw_p90.push(s.p90);
        echo_p50.push(*e_p50);
        echo_p90.push(*e_p90);
        echo_mean.push(*e_mean);
    }
    if qps.is_empty() {
        return Err("serve: no request completed".into());
    }
    out.median_of("throughput_per_s", "1/s", &qps);
    out.median_of("p50_us", "us", &p50);
    out.median_of("tail_us", "us", &p90);
    out.note(
        "unscaled medians over windows",
        format!(
            "{:.0} requests/s, p50 {:.3} us, p90 {:.3} us",
            stats::median(&raw_qps),
            stats::median(&raw_p50),
            stats::median(&raw_p90)
        ),
    );
    out.note(
        "loopback echo exchange, medians over windows",
        format!(
            "p50 {:.3} us, p90 {:.3} us, mean {:.3} us (nominal {ECHO_NOMINAL_P50_US}, \
             {ECHO_NOMINAL_P90_US}, {ECHO_NOMINAL_MEAN_US})",
            stats::median(&echo_p50),
            stats::median(&echo_p90),
            stats::median(&echo_mean)
        ),
    );
    let all: Vec<f64> = windows
        .iter()
        .flat_map(|(l, _)| l.iter().copied())
        .collect();
    if let Some(all) = stats::Summary::of(&all) {
        out.note(
            "unscaled latency over the whole stretch",
            format!(
                "n={}, p50={:.3} us, p99={:.3} us with {} beyond",
                all.n, all.median, all.p99, all.beyond_p99
            ),
        );
    }
    out.setup(&setup);
    let references: Vec<f64> = setup.iter().map(|&(_, r)| r).collect();
    out.note_reference(&references);
    out.metric("peak_rss_mb", "MB", exit.peak_rss_mb);
    note_sharing(&mut out, &dump);
    Ok(out)
}

fn cache_hit_ratio(dump: &str) -> f64 {
    let hits = dump_sum(dump, "dbr_service_cache_total", "outcome=\"hit\"");
    let misses = dump_sum(dump, "dbr_service_cache_total", "outcome=\"miss\"");
    hits / (hits + misses).max(1.0)
}

fn note_sharing(out: &mut Outcome, dump: &str) {
    out.note(
        "pair pool / route cache capacity",
        format!("{POOL} / {DEFAULT_CACHE} = {}", POOL / DEFAULT_CACHE),
    );
    out.note(
        "measured cache hit ratio",
        format!("{:.4}", cache_hit_ratio(dump)),
    );
}

/// The traced run's service layer: a live probe with `/healthz` on the
/// same connection, the server's CPU over the window, the counters of
/// its exit dump, and in-process `parse_query` / `answer_query_direct`
/// over the same request list.
pub fn layers(
    ctx: &Ctx,
    window: Duration,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let pool = Pool::new(ctx.seed);
    let _pinned = pin()?;
    let (server, _) = Server::start(&ctx.dbr, 2).map_err(|e| format!("dbr serve: {e}"))?;
    let pid = server.pid();
    let mut warm = Client::new(&pool, server.addr, ctx.seed);
    warm.run(Instant::now() + WARMUP, 0, None);
    out.attempted += warm.log.completed;
    if warm.log.failed > 0 {
        out.fail(warm.log.failed, "serve warm-up: bad replies");
    }
    drop(warm);
    let (user0, sys0) = crate::proc::cpu_time(pid).map_err(|e| e.to_string())?;
    let mut client = Client::new(&pool, server.addr, ctx.seed);
    let query_us = client.run(Instant::now() + window, 3, Some(spans.base()));
    let (user1, sys1) = crate::proc::cpu_time(pid).map_err(|e| e.to_string())?;
    let log = std::mem::take(&mut client.log);
    drop(client);
    let (dump, _) = server
        .quit()
        .map_err(|e| format!("dbr serve shutdown: {e}"))?;
    out.attempted += log.completed;
    if log.failed > 0 {
        out.fail(log.failed, "serve probe: bad replies");
    }
    // The warm-up had a client of its own, so every request counted here
    // fell inside the CPU window.
    let requests = log.completed.max(1) as f64;
    let healthz_us = log.healthz_us;
    for span in log.spans {
        spans.push(span);
    }

    // The same request list, replayed in process.
    let list: Vec<(usize, usize)> = pool
        .sequence(ctx.seed)
        .take(query_us.len().max(1))
        .collect();
    let root = spans.open("replay.service", None, 0);
    for (i, &(kind, idx)) in list.iter().enumerate() {
        let q = spans.time("service.parse_query", Some(root), i as u64, || {
            parse_query(2, KINDS[kind], &pool.queries[idx])
        });
        let body = match q {
            Ok(q) => spans.time("service.answer_direct", Some(root), i as u64, || {
                answer_query_direct(&q)
            }),
            Err(e) => {
                out.fail(
                    1,
                    format!("parse_query rejected a pool query: {}", e.detail),
                );
                continue;
            }
        };
        out.attempted += 1;
        if body != pool.expected[kind][idx] {
            out.fail(1, "answer_query_direct is not deterministic");
        }
    }
    spans.close(root);
    let times = spans.self_times();
    let mean_ns = |name: &str| times.get(name).map_or(0.0, |v| stats::mean(v));
    let query_p50 = stats::median(&query_us);
    let healthz_p50 = stats::median(&healthz_us);
    let parse_ns = mean_ns("service.parse_query");
    let answer_ns = mean_ns("service.answer_direct");
    out.metric("service.query_p50_us", "us", query_p50);
    out.metric("service.healthz_p50_us", "us", healthz_p50);
    out.metric(
        "service.handoff_p50_us",
        "us",
        query_p50 - healthz_p50 - (parse_ns + answer_ns) / 1e3,
    );
    out.metric(
        "service.server_user_us_per_req",
        "us",
        (user1 - user0).as_secs_f64() * 1e6 / requests,
    );
    out.metric(
        "service.server_sys_us_per_req",
        "us",
        (sys1 - sys0).as_secs_f64() * 1e6 / requests,
    );
    out.metric("service.cache_hit_ratio", "ratio", cache_hit_ratio(&dump));
    out.metric(
        "service.shed_total",
        "count",
        dump_sum(&dump, "dbr_service_shed_total", ""),
    );
    out.metric(
        "service.queue_high_water",
        "count",
        dump_max(&dump, "dbr_service_queue_depth_high_water", ""),
    );
    out.metric("service.parse_query_ns", "ns", parse_ns);
    out.metric("service.answer_direct_ns", "ns", answer_ns);
    out.metric(
        "service.pool_to_cache_ratio",
        "ratio",
        POOL as f64 / DEFAULT_CACHE as f64,
    );
    Ok(())
}
