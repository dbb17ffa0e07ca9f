//! Timings of the five Theorem-2 distance engines.
//!
//! With `--json`, prints one machine-readable line (see
//! [`debruijn_bench::JsonReport`]) instead of the table; `bench.sh`
//! collects those lines into `BENCH_results.json`.
//!
//! The quadratic engines are gated by size so the sweep stays fast: the
//! `O(k³)` naive scan stops at k = 32, the `O(k²)` Morris–Pratt engine
//! at k = 512. The k = 8 and k = 16 rows bracket the `Engine::Auto`
//! crossover (`AUTO_SAM_MIN_K`) where the suffix automaton (`sam`)
//! overtakes the bit-parallel sweep. Consecutive pairs have different
//! destinations, so every `sam` solve pays its automaton build.

use debruijn_bench::{json_mode, median_nanos_per_call, random_pairs, JsonReport};
use debruijn_core::distance::directed;
use debruijn_core::distance::undirected::{distance_with, Engine};
use std::hint::black_box;

fn main() {
    let json = json_mode();
    let mut report = JsonReport::new("distance_engines", "ns_per_pair");
    if !json {
        println!("distance engines: ns per pair (median of 5 batches)\n");
        println!(
            "{:>6} {:>12} {:>14} {:>13} {:>13} {:>10} {:>12}",
            "k", "directed", "morris_pratt", "suffix_tree", "bitparallel", "sam", "naive"
        );
    }
    for k in [8usize, 16, 32, 128, 512, 1024, 2048] {
        let pairs = random_pairs(2, k, 8, 0xD15);
        let batch = (4096 / k).max(1);
        let time_engine = |engine: Engine| {
            median_nanos_per_call(
                || {
                    for (x, y) in &pairs {
                        black_box(distance_with(engine, x, y));
                    }
                },
                batch,
                5,
            ) / pairs.len() as f64
        };
        let dir = median_nanos_per_call(
            || {
                for (x, y) in &pairs {
                    black_box(directed::distance(black_box(x), black_box(y)));
                }
            },
            batch,
            5,
        ) / pairs.len() as f64;
        let mp = (k <= 512).then(|| time_engine(Engine::MorrisPratt));
        let st = time_engine(Engine::SuffixTree);
        let bp = time_engine(Engine::BitParallel);
        let sam = time_engine(Engine::Sam);
        let naive = (k <= 32).then(|| time_engine(Engine::Naive));
        report.push("directed", k, dir);
        if let Some(mp) = mp {
            report.push("morris_pratt", k, mp);
        }
        report.push("suffix_tree", k, st);
        report.push("bitparallel", k, bp);
        report.push("sam", k, sam);
        if let Some(n) = naive {
            report.push("naive", k, n);
        }
        if !json {
            let mp = mp.map_or("-".into(), |v| format!("{v:.0}"));
            let naive = naive.map_or("-".into(), |n| format!("{n:.0}"));
            println!("{k:>6} {dir:>12.0} {mp:>14} {st:>13.0} {bp:>13.0} {sam:>10.0} {naive:>12}");
        }
    }
    if json {
        println!("{}", report.render());
    } else {
        println!("\nThe word-parallel diagonal sweep (bitparallel) ties the suffix");
        println!("automaton (sam) at k = 8; from k = 16 on the automaton's O(k)");
        println!("build and scan win, by over an order of magnitude from k = 512. The");
        println!("O(k^2) Morris-Pratt and O(k^3) naive engines are for validation.");
    }
}
