//! Thread-scaling of the sharded deterministic simulator: the same
//! fixed workload (a 50k-message uniform burst on `DG(2,10)`, 8
//! shards) run at 1, 2, 4, and 8 worker threads.
//!
//! Reports median ns per injected message for each thread count plus
//! the speedup over the 1-thread run (`speedup_vs_1_thread`, a ratio —
//! higher is better, so `bench.sh --check` excludes it from the
//! lower-is-better regression comparison via `--ns-only` and instead
//! gates it inside this binary: `--min-speedup-4t N` exits non-zero if
//! the 4-thread speedup falls below `N`).
//!
//! The workload is a burst (every message injected at tick 0) rather
//! than one-message-per-tick: a time-stepped engine can only
//! parallelize within a tick, so per-tick density is what exposes the
//! scaling. Determinism is not sacrificed for it — every thread count
//! here produces the identical report (asserted below).
//!
//! A second series (`ns_per_message_compressed`) runs the same workload
//! through the compressed shift-prediction tier (`--next-hop
//! compressed`) at 1 and 4 threads, so the checked-in baseline records
//! what large spaces pay for dropping the dense table. Its report is
//! asserted byte-identical to the dense runs.

use debruijn_bench::{json_mode, median_nanos_per_call, JsonReport};
use debruijn_core::DeBruijn;
use debruijn_net::record::{FanoutRecorder, JsonlRecorder, NullRecorder};
use debruijn_net::shard::{NextHopMode, ShardedSimulation};
use debruijn_net::{workload, InMemoryRecorder, ProfileConfig, SimConfig};
use std::hint::black_box;

const MESSAGES: usize = 50_000;
const SHARDS: usize = 8;
const THREADS: [usize; 4] = [1, 2, 4, 8];

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

fn main() {
    let json = json_mode();
    let ns_only = std::env::args().any(|a| a == "--ns-only");
    let min_speedup_4t = flag_value("--min-speedup-4t");
    let mut report = JsonReport::new("simulation_scaling", "ns_per_message");

    let space = DeBruijn::new(2, 10).unwrap();
    let traffic = workload::uniform_burst(space, MESSAGES, 42);
    if !json {
        println!(
            "sharded simulator scaling: DG(2,10), {MESSAGES} burst messages, \
             {SHARDS} shards (median of 5 runs)\n"
        );
        println!(
            "{:>8} {:>16} {:>10}",
            "threads", "ns_per_message", "speedup"
        );
    }

    let mut baseline_report = None;
    let mut one_thread_ns = 0.0;
    let mut speedup_4t = 0.0;
    for threads in THREADS {
        let sim = ShardedSimulation::new(
            space,
            SimConfig {
                threads,
                ..SimConfig::default()
            },
            SHARDS,
        )
        .unwrap();
        assert!(sim.uses_table(), "DG(2,10) fits the next-hop table cap");
        let ns = median_nanos_per_call(
            || {
                black_box(sim.run(black_box(&traffic)));
            },
            1,
            5,
        ) / MESSAGES as f64;
        // The scaling claim is only meaningful if every thread count
        // computes the same simulation.
        let run = sim.run(&traffic);
        match &baseline_report {
            None => baseline_report = Some(run),
            Some(base) => assert_eq!(&run, base, "report differs at {threads} threads"),
        }
        if threads == 1 {
            one_thread_ns = ns;
        }
        let speedup = one_thread_ns / ns;
        if threads == 4 {
            speedup_4t = speedup;
        }
        report.push("ns_per_message", threads, ns);
        if !ns_only {
            report.push("speedup_vs_1_thread", threads, speedup);
        }
        if !json {
            println!("{threads:>8} {ns:>16.1} {speedup:>9.2}x");
        }
    }

    // The compressed shift-prediction tier on the same workload: no
    // dense table, O(1) memory per flight. Its per-message cost tracks
    // the dense series closely on directed-style hops; the gap is what
    // DG(2,20)+ pays for dropping the d^{2k}-byte table.
    for threads in [1usize, 4] {
        let sim = ShardedSimulation::new_with_next_hop(
            space,
            SimConfig {
                threads,
                ..SimConfig::default()
            },
            SHARDS,
            NextHopMode::Compressed,
        )
        .unwrap();
        let ns = median_nanos_per_call(
            || {
                black_box(sim.run(black_box(&traffic)));
            },
            1,
            5,
        ) / MESSAGES as f64;
        let run = sim.run(&traffic);
        assert_eq!(
            Some(&run),
            baseline_report.as_ref(),
            "compressed tier diverged at {threads} threads"
        );
        report.push("ns_per_message_compressed", threads, ns);
        if !json {
            println!("{threads:>8} {ns:>16.1} (compressed tier)");
        }
    }

    if let Some(limit) = min_speedup_4t {
        // Scaling is bounded by the hardware: on a host with fewer
        // than 4 cores a 4-thread run cannot beat 1 thread, so the
        // floor only gates where the machine can express it. The gate
        // runs before the JSON is printed so a self-skip is recorded
        // in the emitted line rather than only on stderr.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores < 4 {
            let reason = format!(
                "4-thread speedup floor skipped: only {cores} core(s) available \
                 (measured {speedup_4t:.2}x)"
            );
            eprintln!("{reason}");
            report.skip(&reason);
        } else if speedup_4t < limit {
            eprintln!(
                "4-thread speedup {speedup_4t:.2}x below the {limit}x floor \
                 ({one_thread_ns:.0} ns/msg at 1 thread)"
            );
            std::process::exit(1);
        } else {
            eprintln!("4-thread speedup {speedup_4t:.2}x meets the {limit}x floor");
        }
    }

    if let Some(limit) = flag_value("--max-profile-overhead-pct") {
        check_profiler(limit, space, &traffic);
    }

    if json {
        println!("{}", report.render());
    } else {
        println!("\nSame report at every thread count (asserted); the residual");
        println!("is the tick barrier plus cross-shard mailbox traffic.");
    }
}

/// The engine-profiler gate behind `--max-profile-overhead-pct`: at
/// default sampling the profiled run must stay within `limit` percent
/// of the unprofiled one on the scaling workload, and profiling must
/// not perturb any observable output — report, event trace, and
/// recorder metrics are asserted byte-identical across a {1,4}x{1,4}
/// shard/thread grid. Exits non-zero on an overhead breach; identity
/// failures panic.
fn check_profiler(limit: f64, space: DeBruijn, traffic: &[debruijn_net::Injection]) {
    let sim = ShardedSimulation::new(
        space,
        SimConfig {
            threads: 4,
            ..SimConfig::default()
        },
        SHARDS,
    )
    .unwrap();
    let profile = ProfileConfig::default();
    // Warm both paths, then time them in back-to-back pairs. Wall-clock
    // noise (scheduler preemption, background load) is strictly
    // additive, so the per-side minimum over several runs is the
    // least-contaminated estimate of each path's true cost — but one
    // lucky outlier on a single side can still skew the min/min ratio
    // on a loaded host. The per-pair ratio is immune to that asymmetry
    // (both runs of a pair see near-identical machine state), so the
    // gate takes the smaller of the two estimates: a real overhead
    // regression inflates every pair and both survive; noise inflates
    // at most one.
    sim.run_recorded(traffic, &mut NullRecorder);
    sim.run_profiled(traffic, &mut NullRecorder, &profile);
    let mut plain_ns = f64::INFINITY;
    let mut prof_ns = f64::INFINITY;
    let mut pair_ratio = f64::INFINITY;
    for _ in 0..9 {
        let t = std::time::Instant::now();
        let pair_plain = {
            black_box(sim.run_recorded(black_box(traffic), &mut NullRecorder));
            t.elapsed().as_nanos() as f64
        };
        plain_ns = plain_ns.min(pair_plain);
        let t = std::time::Instant::now();
        let pair_prof = {
            black_box(sim.run_profiled(black_box(traffic), &mut NullRecorder, &profile));
            t.elapsed().as_nanos() as f64
        };
        prof_ns = prof_ns.min(pair_prof);
        pair_ratio = pair_ratio.min(pair_prof / pair_plain);
    }
    let overhead_pct = ((prof_ns / plain_ns).min(pair_ratio) - 1.0) * 100.0;

    let small = DeBruijn::new(2, 8).unwrap();
    let grid_traffic = workload::uniform_burst(small, 2_000, 7);
    let observe = |sim: &ShardedSimulation, profiled: bool| {
        let mut jsonl = JsonlRecorder::new(Vec::new());
        let mut metrics = InMemoryRecorder::new();
        let mut fan = FanoutRecorder::new();
        fan.push(&mut jsonl);
        fan.push(&mut metrics);
        let report = if profiled {
            sim.run_profiled(&grid_traffic, &mut fan, &profile).0
        } else {
            sim.run_recorded(&grid_traffic, &mut fan)
        };
        drop(fan);
        (report, jsonl.finish().unwrap(), metrics)
    };
    for shards in [1usize, 4] {
        for threads in [1usize, 4] {
            let sim = ShardedSimulation::new(
                small,
                SimConfig {
                    threads,
                    ..SimConfig::default()
                },
                shards,
            )
            .unwrap();
            let plain = observe(&sim, false);
            let profiled = observe(&sim, true);
            assert_eq!(
                plain, profiled,
                "profiling perturbed output at S={shards} T={threads}"
            );
        }
    }
    eprintln!("profiler identity: report/trace/metrics unperturbed on the 2x2 grid");

    if overhead_pct > limit {
        eprintln!(
            "profiler overhead {overhead_pct:+.2}% exceeds the {limit}% cap \
             ({prof_ns:.0} vs {plain_ns:.0} ns/run)"
        );
        std::process::exit(1);
    }
    eprintln!(
        "profiler overhead {overhead_pct:+.2}% within the {limit}% cap \
         ({prof_ns:.0} vs {plain_ns:.0} ns/run)"
    );
}
