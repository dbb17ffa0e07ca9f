//! Differential test of the destination-major batched kernel against the
//! scalar engines across the (d,k) grid.
//!
//! Sweeps every `d ∈ {2,3,4}`, `k ≤ 7`, both graph orientations, and
//! every engine selector, on shuffled batches with duplicated pairs,
//! skewed destinations, and singletons. `distance_batch_into` must
//! return the scalar distance and `route_batch_into` the byte-identical
//! scalar route (same `Display` rendering, same tie-breaks) at every
//! position — regardless of how the batch was ordered or how the kernel
//! tiered the work (shared context, BFS column, or scalar fall-through).
//! A last case repeats the route contract above `AUTO_SAM_MIN_K`, where
//! `Engine::Auto` runs the suffix automaton in both the shared-context
//! tier and the scalar engine.

use debruijn_core::distance::undirected::{distance_with, Engine, AUTO_SAM_MIN_K};
use debruijn_core::rng::SplitMix64;
use debruijn_core::routing::{algorithm1, route_with_engine};
use debruijn_core::{
    distance, distance_batch_into, route_batch_into, BatchScratch, DeBruijn, Word,
};

const ENGINES: [Engine; 6] = [
    Engine::Auto,
    Engine::Naive,
    Engine::MorrisPratt,
    Engine::SuffixTree,
    Engine::BitParallel,
    Engine::Sam,
];

/// A batch exercising every grouping shape: a destination-skewed block
/// (many sources aimed at few sinks), duplicated pairs, and uniform
/// singleton tails — shuffled so groups are scattered across the input.
fn mixed_batch(space: DeBruijn, seed: u64) -> Vec<(Word, Word)> {
    let words: Vec<Word> = space.vertices().collect();
    let mut rng = SplitMix64::new(seed);
    let mut pairs = Vec::new();
    // Skewed block: 3 hot destinations.
    for _ in 0..60 {
        let x = words[rng.below_usize(words.len())].clone();
        let y = words[rng.below_usize(3.min(words.len()))].clone();
        pairs.push((x, y));
    }
    // Duplicated pairs (identical (x, y) twice).
    for _ in 0..10 {
        let x = words[rng.below_usize(words.len())].clone();
        let y = words[rng.below_usize(words.len())].clone();
        pairs.push((x.clone(), y.clone()));
        pairs.push((x, y));
    }
    // Uniform tail: mostly singleton groups.
    for _ in 0..40 {
        let x = words[rng.below_usize(words.len())].clone();
        let y = words[rng.below_usize(words.len())].clone();
        pairs.push((x, y));
    }
    rng.shuffle(&mut pairs);
    pairs
}

#[test]
fn batched_distances_match_scalar_engines_across_the_grid() {
    let mut scratch = BatchScratch::new();
    let mut dists = Vec::new();
    for d in [2u8, 3, 4] {
        for k in 1..=7usize {
            let space = DeBruijn::new(d, k).unwrap();
            let pairs = mixed_batch(space, 0xD157 ^ (u64::from(d) << 8) ^ k as u64);
            for directed in [true, false] {
                for engine in ENGINES {
                    distance_batch_into(&pairs, directed, engine, &mut scratch, &mut dists);
                    assert_eq!(dists.len(), pairs.len());
                    for (i, (x, y)) in pairs.iter().enumerate() {
                        let want = if directed {
                            distance::directed::distance(x, y)
                        } else {
                            distance_with(engine, x, y)
                        };
                        assert_eq!(
                            dists[i], want,
                            "d={d} k={k} {x} {y} directed={directed} {engine:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn batched_routes_are_byte_identical_to_scalar_routes() {
    let mut scratch = BatchScratch::new();
    let mut routes = Vec::new();
    for d in [2u8, 3, 4] {
        for k in 1..=7usize {
            let space = DeBruijn::new(d, k).unwrap();
            let pairs = mixed_batch(space, 0x2007 ^ (u64::from(d) << 8) ^ k as u64);
            for directed in [true, false] {
                for engine in ENGINES {
                    route_batch_into(&pairs, directed, engine, &mut scratch, &mut routes);
                    assert_eq!(routes.len(), pairs.len());
                    for (i, (x, y)) in pairs.iter().enumerate() {
                        let want = if directed {
                            algorithm1(x, y)
                        } else {
                            route_with_engine(x, y, engine)
                        };
                        assert_eq!(
                            routes[i], want,
                            "d={d} k={k} {x} {y} directed={directed} {engine:?}"
                        );
                        // Same steps is not enough: the printed report
                        // (the CLI's batch output) must match too.
                        assert_eq!(routes[i].to_string(), want.to_string());
                        assert!(routes[i].leads_to(x, y) || x == y);
                    }
                }
            }
        }
    }
}

#[test]
fn auto_batches_above_the_sam_crossover_match_scalar_routes_byte_for_byte() {
    // The grid above stops at k = 7, below AUTO_SAM_MIN_K; here Auto
    // resolves to the suffix automaton, whose shared-context tier serves
    // the hot destinations and whose scalar engine serves the singletons.
    let mut scratch = BatchScratch::new();
    let (mut routes, mut dists) = (Vec::new(), Vec::new());
    let mut rng = SplitMix64::new(0x5A3B);
    for (d, k) in [(2u8, AUTO_SAM_MIN_K), (2, 64), (3, 257), (5, 100)] {
        let word = |rng: &mut SplitMix64| {
            let digits = (0..k)
                .map(|_| rng.below_usize(usize::from(d)) as u8)
                .collect();
            Word::new(d, digits).unwrap()
        };
        let hot: Vec<Word> = (0..4).map(|_| word(&mut rng)).collect();
        let mut pairs = Vec::new();
        for i in 0..120 {
            // Zipf-like skew: the first hot word takes half the traffic.
            let y = hot[[0, 0, 0, 0, 1, 1, 2, 3][i % 8]].clone();
            let x = if i % 10 == 0 {
                y.clone()
            } else {
                word(&mut rng)
            };
            pairs.push((x, y));
        }
        // A source that shares a long block with a hot destination.
        let mut digits = hot[0].digits()[k / 4..].to_vec();
        digits.extend(std::iter::repeat_n(0, k / 4));
        pairs.push((Word::new(d, digits).unwrap(), hot[0].clone()));
        for _ in 0..20 {
            pairs.push((word(&mut rng), word(&mut rng)));
        }
        rng.shuffle(&mut pairs);
        route_batch_into(&pairs, false, Engine::Auto, &mut scratch, &mut routes);
        distance_batch_into(&pairs, false, Engine::Auto, &mut scratch, &mut dists);
        for (i, (x, y)) in pairs.iter().enumerate() {
            let want = route_with_engine(x, y, Engine::Auto);
            assert_eq!(routes[i], want, "d={d} k={k} i={i}");
            assert_eq!(routes[i].to_string(), want.to_string());
            assert_eq!(dists[i], distance_with(Engine::Auto, x, y), "d={d} k={k}");
            assert_eq!(routes[i].len(), dists[i]);
            assert!(routes[i].leads_to(x, y));
        }
    }
}
