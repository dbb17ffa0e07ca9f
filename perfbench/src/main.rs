//! The repository benchmark. Runs one seeded workload against the built
//! `dbr` binary and prints every end-to-end metric (`--trace 0`), or
//! replays the workloads' inputs through the library's layers with spans
//! and prints every per-layer metric (`--trace 1`). The last line of
//! standard output is the JSON result. See `perfbench/README.md`.

mod batch;
mod http;
mod proc;
mod report;
mod serve;
mod simulate;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use batch::{Cmd, Mix};
use report::Outcome;
use trace::Spans;

/// What every workload module needs.
pub struct Ctx {
    pub dbr: PathBuf,
    /// Scratch directory for generated inputs, outputs and records.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: u64,
}

const WORKLOADS: [&str; 4] = [
    "serve_k16",
    "batch_k256_uniform",
    "batch_k256_skew",
    "simulate_k12",
];

const END_TO_END: [&str; 5] = [
    "throughput_per_s",
    "p50_us",
    "tail_us",
    "setup_s",
    "peak_rss_mb",
];

const PER_LAYER: [&str; 32] = [
    "service.query_p50_us",
    "service.healthz_p50_us",
    "service.handoff_p50_us",
    "service.server_user_us_per_req",
    "service.server_sys_us_per_req",
    "service.cache_hit_ratio",
    "service.shed_total",
    "service.queue_high_water",
    "service.parse_query_ns",
    "service.answer_direct_ns",
    "service.pool_to_cache_ratio",
    "core.solve_ns_per_pair",
    "strings.bitparallel_ns_per_pair",
    "core.route_from_solution_ns_per_pair",
    "core.route_batch_ns_per_pair.uniform",
    "core.route_batch_ns_per_pair.skew",
    "core.distance_batch_ns_per_pair.uniform",
    "core.distance_batch_ns_per_pair.skew",
    "strings.context_build_ns",
    "strings.context_scan_ns",
    "batch.pairs_per_destination.uniform",
    "batch.pairs_per_destination.skew",
    "cli.overhead_s.route_uniform",
    "cli.overhead_s.distance_uniform",
    "cli.overhead_s.route_skew",
    "cli.overhead_s.distance_skew",
    "router.route_ns_per_msg",
    "shard.build_s",
    "shard.run_ns_per_msg",
    "sim.run_ns_per_msg",
    "trace.overhead_pct",
    "trace.spans",
];

/// Pairs of each batch file replayed in process by the traced run.
const REPLAY_PAIRS: usize = 1024;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    dbr: PathBuf,
}

const USAGE: &str = "usage: perfbench --dbr PATH --workload NAME --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("bad {flag} '{}'", value(flag).unwrap_or_default()))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace '{other}' (0 or 1)")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        dbr: PathBuf::from(value("--dbr")?),
    })
}

fn end_to_end(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    match workload {
        "serve_k16" => serve::e2e(ctx),
        "batch_k256_uniform" => batch::e2e(ctx, Mix::Uniform),
        "batch_k256_skew" => batch::e2e(ctx, Mix::Skew),
        "simulate_k12" => simulate::e2e(ctx),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// The traced run. Every per-layer metric is reported on every workload,
/// each measured on the inputs of the workload whose layer it is, all
/// generated from this run's seed.
fn traced(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let uniform = batch::pairs(ctx.seed, Mix::Uniform);
    let skew = batch::pairs(ctx.seed, Mix::Skew);
    let traffic = simulate::traffic(ctx.seed, simulate::MESSAGES);
    let replay = |spans: &mut Spans| {
        batch::replay(spans, &uniform[..REPLAY_PAIRS], Mix::Uniform)
            + batch::replay(spans, &skew[..REPLAY_PAIRS], Mix::Skew)
            + simulate::replay(spans, &traffic)
    };

    // The in-process replay untraced, traced, untraced: the difference is
    // what the spans cost.
    let base = Instant::now();
    let timed = |spans: &mut Spans| {
        let start = Instant::now();
        let failed = replay(spans);
        (start.elapsed().as_secs_f64(), failed)
    };
    let (off1, _) = timed(&mut Spans::new(base, false));
    let mut spans = Spans::new(base, true);
    let (on, failed) = timed(&mut spans);
    let (off2, _) = timed(&mut Spans::new(base, false));
    out.attempted += (2 * REPLAY_PAIRS + traffic.len()) as u64;
    if failed > 0 {
        out.fail(failed, "in-process replay answers disagree");
    }

    let window = Duration::from_secs(ctx.seconds.div_ceil(5));
    serve::layers(ctx, window, &mut spans, &mut out)?;
    simulate::layers(ctx, &mut spans, &mut out)?;

    let times = spans.self_times();
    let sum = |name: &str| times.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let mean = |name: &str| times.get(name).map_or(0.0, |v| stats::mean(v));
    let per_pair = REPLAY_PAIRS as f64;
    out.metric("core.solve_ns_per_pair", "ns", mean("core.solve"));
    out.metric(
        "strings.bitparallel_ns_per_pair",
        "ns",
        mean("strings.bitparallel"),
    );
    out.metric(
        "core.route_from_solution_ns_per_pair",
        "ns",
        mean("core.route_from_solution"),
    );
    for (mix, pairs) in [(Mix::Uniform, &uniform), (Mix::Skew, &skew)] {
        let m = mix.name();
        for cmd in [Cmd::Route, Cmd::Distance] {
            let c = cmd.name();
            let kernel_ns = sum(&format!("core.{c}_batch.{m}")) / per_pair;
            out.metric(&format!("core.{c}_batch_ns_per_pair.{m}"), "ns", kernel_ns);
            let wall = batch::command_wall(ctx, cmd, mix, pairs)?;
            out.metric(
                &format!("cli.overhead_s.{c}_{m}"),
                "s",
                wall - kernel_ns * batch::PAIRS as f64 / 1e9,
            );
        }
        out.metric(
            &format!("batch.pairs_per_destination.{m}"),
            "count",
            batch::pairs_per_destination(pairs),
        );
    }
    let scan_ns = mean("strings.context_scan");
    out.metric(
        "strings.context_build_ns",
        "ns",
        mean("strings.context_build") - scan_ns,
    );
    out.metric("strings.context_scan_ns", "ns", scan_ns);
    out.metric("router.route_ns_per_msg", "ns", mean("router.route"));
    out.metric(
        "trace.overhead_pct",
        "%",
        (on / ((off1 + off2) / 2.0) - 1.0) * 100.0,
    );
    out.metric("trace.spans", "count", spans.len() as f64);
    let path = ctx.work.join(format!("spans-{workload}.jsonl"));
    std::fs::write(&path, spans.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    out.note("spans written to", path.display());
    Ok(out)
}

/// The metrics must be exactly the declared set, each a finite number.
fn check_metric_set(out: &Outcome, declared: &[&str]) -> Result<(), String> {
    let mut got: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut want = declared.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "metric set {got:?} differs from the declared {want:?}"
        ));
    }
    match out.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not a finite number", m.name)),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    // The host-speed reference: a process that starts and exits at once.
    if std::env::args().nth(1).as_deref() == Some("--noop") {
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        dbr: args.dbr,
        work: PathBuf::from(".bench_work"),
        seed: args.seed,
        seconds: args.seconds,
    };
    let result = std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("creating {}: {e}", ctx.work.display()))
        .and_then(|()| {
            if args.trace {
                let out = traced(&ctx, &args.workload)?;
                check_metric_set(&out, &PER_LAYER).map(|()| out)
            } else {
                let out = end_to_end(&ctx, &args.workload)?;
                check_metric_set(&out, &END_TO_END).map(|()| out)
            }
        });
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut header = proc::machine();
    header.push(("workload", args.workload.clone()));
    header.push(("seed", args.seed.to_string()));
    header.push(("seconds", args.seconds.to_string()));
    header.push(("trace", u8::from(args.trace).to_string()));
    for (key, value) in &header {
        println!("# {key}: {value}");
    }
    print!("{}", out.render());
    let record = ctx.work.join(format!(
        "result-{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&record, out.record_json(&header)) {
        eprintln!("error: writing {}: {e}", record.display());
        return ExitCode::FAILURE;
    }
    println!("# record: {}", record.display());
    println!("{}", out.json_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names this binary emits are the ones `BENCHMARK.json` declares,
    /// in the same order.
    #[test]
    fn declared_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote"))
            .collect();
        let emitted: Vec<&str> = WORKLOADS
            .iter()
            .chain(&END_TO_END)
            .chain(&PER_LAYER)
            .copied()
            .collect();
        assert_eq!(declared, emitted);
    }
}
