//! Differential test of the five Theorem-2 engines across the (d,k) grid.
//!
//! Sweeps every `d ∈ {2,3,4}`, `k ≤ 7`: small spaces exhaustively (all
//! ordered pairs), larger ones with a seeded sample. The suffix-automaton,
//! bit-parallel, Morris–Pratt, suffix-tree, and naive engines must return
//! the same distance on every pair — any packing, shift, or tie-breaking
//! bug in one engine shows up as a disagreement with the others. A seeded
//! large-`k` sweep then checks the production engine against the two
//! other fast ones where the small grid cannot reach.

use debruijn_core::distance::undirected::{distance_with, solve, Engine, AUTO_SAM_MIN_K};
use debruijn_core::rng::SplitMix64;
use debruijn_core::routing::{route_from_solution, route_with_engine};
use debruijn_core::{DeBruijn, Word};

const ENGINES: [Engine; 5] = [
    Engine::Naive,
    Engine::MorrisPratt,
    Engine::SuffixTree,
    Engine::BitParallel,
    Engine::Sam,
];

fn assert_engines_agree(d: u8, k: usize, x: &Word, y: &Word) {
    let want = distance_with(Engine::Naive, x, y);
    for engine in ENGINES {
        assert_eq!(
            distance_with(engine, x, y),
            want,
            "d={d} k={k} {x} {y} {engine:?}"
        );
    }
}

#[test]
fn all_engines_agree_on_every_small_space_and_sampled_large_ones() {
    // Beyond this many vertices, all-pairs is too slow for a tier-1 test;
    // fall back to a seeded uniform sample of ordered pairs.
    const EXHAUSTIVE_LIMIT: usize = 64;
    const SAMPLES: usize = 400;
    let mut rng = SplitMix64::new(0xD1FF);
    for d in [2u8, 3, 4] {
        for k in 1..=7usize {
            let space = DeBruijn::new(d, k).unwrap();
            let n = space.order_usize().unwrap();
            if n <= EXHAUSTIVE_LIMIT {
                for x in space.vertices() {
                    for y in space.vertices() {
                        assert_engines_agree(d, k, &x, &y);
                    }
                }
            } else {
                for _ in 0..SAMPLES {
                    let x = space.word_from_rank(rng.below_u128(n as u128)).unwrap();
                    let y = space.word_from_rank(rng.below_u128(n as u128)).unwrap();
                    assert_engines_agree(d, k, &x, &y);
                }
            }
        }
    }
}

#[test]
fn auto_engine_matches_explicit_engines_on_seeded_pairs() {
    let mut rng = SplitMix64::new(0xA070);
    for d in [2u8, 3, 4] {
        for k in [5usize, 6, 7] {
            let space = DeBruijn::new(d, k).unwrap();
            let n = space.order_usize().unwrap() as u128;
            for _ in 0..100 {
                let x = space.word_from_rank(rng.below_u128(n)).unwrap();
                let y = space.word_from_rank(rng.below_u128(n)).unwrap();
                assert_eq!(
                    debruijn_core::distance::undirected::distance(&x, &y),
                    distance_with(Engine::SuffixTree, &x, &y),
                    "d={d} k={k} {x} {y}"
                );
            }
        }
    }
}

fn random_word(d: u8, k: usize, rng: &mut SplitMix64) -> Word {
    let digits = (0..k)
        .map(|_| rng.below_usize(usize::from(d)) as u8)
        .collect();
    Word::new(d, digits).unwrap()
}

#[test]
fn sam_matches_bit_parallel_and_suffix_tree_at_large_k() {
    let mut rng = SplitMix64::new(0x5A4D);
    for d in [2u8, 3, 5] {
        for k in [64usize, 257, 1024, 4096] {
            assert!(k >= AUTO_SAM_MIN_K, "the sweep covers Auto's Sam regime");
            // Random pairs, plus a pair sharing a long block so the
            // minimizer is a real match rather than the θ = 0 baseline.
            let x = random_word(d, k, &mut rng);
            let y = random_word(d, k, &mut rng);
            let mut digits = y.digits()[k / 3..].to_vec();
            digits.extend((0..k / 3).map(|_| rng.below_usize(usize::from(d)) as u8));
            let shifted = Word::new(d, digits).unwrap();
            for (x, y) in [(&x, &y), (&shifted, &y), (&y, &shifted)] {
                let sol = solve(x, y, Engine::Sam);
                let want = distance_with(Engine::SuffixTree, x, y);
                assert_eq!(sol.distance(), want, "d={d} k={k}");
                assert_eq!(
                    distance_with(Engine::BitParallel, x, y),
                    want,
                    "d={d} k={k}"
                );
                let route = route_from_solution(y, &sol);
                assert_eq!(route.len(), want, "d={d} k={k}");
                assert!(route.leads_to(x, y), "d={d} k={k}");
                // Auto takes the same engine here, so the same route.
                assert_eq!(route_with_engine(x, y, Engine::Auto), route, "d={d} k={k}");
            }
        }
    }
}
