//! Workload `simulate_k12`: `dbr simulate 2 12 --messages N --seed S`
//! with the command's default engine, router and policy.

use std::process::Command;
use std::time::{Duration, Instant};

use debruijn_core::distance::undirected;
use debruijn_core::DeBruijn;
use debruijn_net::{workload, Injection, RouterKind, ShardedSimulation, SimConfig};

use crate::proc::{self, Run};
use crate::report::{Outcome, COMMAND_SHARE};
use crate::stats;
use crate::trace::Spans;
use crate::Ctx;

pub const K: usize = 12;
pub const MESSAGES: usize = 5_000;
const SETUP_RUNS: usize = 21;
const MIN_PASSES: usize = 3;

fn space() -> DeBruijn {
    DeBruijn::new(2, K).expect("DG(2,12) is valid")
}

/// The injections `dbr simulate` generates for `--messages n --seed s`.
pub fn traffic(seed: u64, n: usize) -> Vec<Injection> {
    workload::uniform_random(space(), n, seed)
}

/// The report lines every engine must agree on: all delivered, none
/// dropped, and mean hops equal to the exact mean undirected distance of
/// the injected pairs (every router here is optimal).
fn expected_lines(traffic: &[Injection]) -> [String; 3] {
    let hops: usize = traffic
        .iter()
        .map(|m| undirected::distance(&m.source, &m.destination))
        .sum();
    let n = traffic.len();
    [
        format!("delivered:    {n}/{n}"),
        "dropped:      0".to_string(),
        format!("mean hops:    {:.4}", hops as f64 / n as f64),
    ]
}

fn check(report: &str, expected: &[String; 3]) -> bool {
    expected
        .iter()
        .all(|line| report.lines().any(|l| l == line))
}

fn run_dbr(ctx: &Ctx, messages: usize) -> Result<(Run, String), String> {
    let out = ctx.work.join(format!("simulate-{messages}.out"));
    let run = proc::run_to_file(
        Command::new(&ctx.dbr).args([
            "simulate",
            "2",
            &K.to_string(),
            "--messages",
            &messages.to_string(),
            "--seed",
            &ctx.seed.to_string(),
        ]),
        &out,
    )
    .map_err(|e| format!("dbr simulate: {e}"))?;
    let text = std::fs::read_to_string(&out).map_err(|e| e.to_string())?;
    Ok((run, text))
}

/// Wall time of the one-message command: one set-up sample.
fn set_up_once(ctx: &Ctx, out: &mut Outcome, want: &[String; 3]) -> Result<f64, String> {
    let (run, text) = run_dbr(ctx, 1)?;
    out.attempted += 1;
    if !run.exit.success || !check(&text, want) {
        out.fail(1, "one-message set-up run reported wrongly");
    }
    Ok(run.wall.as_secs_f64())
}

pub fn e2e(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let want = expected_lines(&traffic(ctx.seed, MESSAGES));
    let want_one = expected_lines(&traffic(ctx.seed, 1));
    // Passes of timed runs, each followed by a set-up sample and the
    // host-speed reference, so the set-up samples cover the same stretch
    // of time as the timed runs.
    let reference = || proc::spawn_reference().map_err(|e| format!("spawn reference: {e}"));
    let mut setup = Vec::with_capacity(SETUP_RUNS);
    let mut references = Vec::new();
    let mut first: Option<String> = None;
    let mut runs = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    while Instant::now() < deadline || runs.len() < MIN_PASSES {
        let mut pass = Vec::new();
        let mut spent = Duration::ZERO;
        while spent < COMMAND_SHARE {
            let (run, text) = run_dbr(ctx, MESSAGES)?;
            out.attempted += MESSAGES as u64;
            // The first report is checked in full; the rest must repeat it.
            let ok = run.exit.success
                && match &first {
                    None => check(&text, &want),
                    Some(f) => *f == text,
                };
            if !ok {
                out.fail(
                    MESSAGES as u64,
                    "a simulate report is wrong or not reproducible",
                );
            }
            first.get_or_insert(text);
            spent += run.wall;
            pass.push(run);
        }
        runs.push(pass);
        let wall = set_up_once(ctx, &mut out, &want_one)?;
        let r = reference()?;
        references.push(r);
        setup.push((wall, r));
    }
    while setup.len() < SETUP_RUNS {
        let wall = set_up_once(ctx, &mut out, &want_one)?;
        setup.push((wall, reference()?));
    }
    out.repeated_runs(MESSAGES, &[("dbr simulate", runs)], &references);
    out.setup(&setup);
    out.note("messages per run, k", format!("{MESSAGES}, {K}"));
    Ok(out)
}

/// Source routing of every injection through `RouterKind::Algorithm2`,
/// one span per message. Returns routes that miss their destination.
pub fn replay(spans: &mut Spans, traffic: &[Injection]) -> u64 {
    let root = spans.open("replay.router", None, 0);
    let mut failed = 0;
    for (i, m) in traffic.iter().enumerate() {
        let route = spans.time("router.route", Some(root), i as u64, || {
            RouterKind::Algorithm2.route(&m.source, &m.destination)
        });
        failed += u64::from(route.len() != undirected::distance(&m.source, &m.destination));
    }
    spans.close(root);
    failed
}

/// The simulator layers: building and running the sharded engine on the
/// workload's injections, and the command's per-message wall time net of
/// its set-up.
pub fn layers(ctx: &Ctx, spans: &mut Spans, out: &mut Outcome) -> Result<(), String> {
    let traffic = traffic(ctx.seed, MESSAGES);
    let want = expected_lines(&traffic);
    let config = SimConfig {
        seed: ctx.seed,
        ..SimConfig::default()
    };
    let root = spans.open("replay.shard", None, 0);
    let sim = spans
        .time("shard.build", Some(root), 0, || {
            ShardedSimulation::new(space(), config, 1)
        })
        .map_err(|e| format!("ShardedSimulation::new: {e}"))?;
    let report = spans.time("shard.run", Some(root), 0, || sim.run(&traffic));
    spans.close(root);
    out.attempted += MESSAGES as u64;
    let mean_hops = format!("mean hops:    {:.4}", report.mean_hops());
    if report.delivered != MESSAGES || report.dropped != 0 || mean_hops != want[2] {
        out.fail(
            MESSAGES as u64,
            "sharded run disagrees with the exact mean distance",
        );
    }

    let want_one = expected_lines(&self::traffic(ctx.seed, 1));
    let setup: Vec<f64> = (0..3)
        .map(|_| set_up_once(ctx, out, &want_one))
        .collect::<Result<_, _>>()?;
    let setup = stats::median(&setup);
    let mut walls = Vec::new();
    for _ in 0..3 {
        let (run, text) = run_dbr(ctx, MESSAGES)?;
        out.attempted += MESSAGES as u64;
        if !run.exit.success || !check(&text, &want) {
            out.fail(MESSAGES as u64, "simulate report is wrong");
        }
        walls.push(run.wall.as_secs_f64());
    }
    let times = spans.self_times();
    let total = |name: &str| times.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    out.metric("shard.build_s", "s", total("shard.build") / 1e9);
    out.metric(
        "shard.run_ns_per_msg",
        "ns",
        total("shard.run") / MESSAGES as f64,
    );
    out.metric(
        "sim.run_ns_per_msg",
        "ns",
        (stats::median(&walls) - setup) * 1e9 / MESSAGES as f64,
    );
    Ok(())
}
