//! The paper's optimal routing algorithms.
//!
//! | function | network | engine | time |
//! |---|---|---|---|
//! | [`algorithm1`] | uni-directional | failure function | `O(k)` |
//! | [`algorithm2`] | bi-directional | Algorithm 3 (MP) | `O(k²)` |
//! | [`algorithm4`] | bi-directional | suffix trees | `O(k)` |
//! | [`trivial_route`] | either | — | always `k` hops |
//!
//! All of them return a [`RoutePath`] whose length equals the exact graph
//! distance and which provably reaches the destination under any wildcard
//! resolution ([`RoutePath::leads_to`]).

mod cached;
pub mod compressed;
mod multipath;
mod path;
pub mod table;

pub use cached::{destination_shard, DirectedDestinationRouter, RouteCache, RouteCacheStats};
pub use compressed::{CompressedNextHop, CompressedScratch};
pub use multipath::all_shortest_routes;
pub use path::{Digit, RoutePath, ShiftKind, Step};
pub use table::NextHopTable;

use crate::distance::assert_same_space;
use crate::distance::undirected::{self, Engine, Solution};
use crate::word::Word;

/// Reusable buffers for the allocation-free `*_into` routing variants.
///
/// One scratch per thread (or per batch worker) keeps the routers free of
/// per-call `Vec` churn: [`algorithm1_into`] reuses the failure-function
/// table, and every `*_into` variant rebuilds the caller's [`RoutePath`]
/// in place instead of allocating a fresh step vector. (The bit-parallel
/// distance engine keeps its own thread-local packed-lane scratch, so
/// [`route_with_engine_into`] is allocation-free end to end after
/// warm-up.)
#[derive(Debug, Default, Clone)]
pub struct RoutingScratch {
    fail: Vec<usize>,
}

impl RoutingScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The paper's Algorithm 1: a shortest route in the **uni-directional**
/// network `DN(d,k)`.
///
/// Computes the overlap `l` of Eq. (2) with the failure function and emits
/// the left-shift steps `y_{l+1}, …, y_k`. `O(k)` time and space; the
/// result length equals [`directed::distance`](crate::distance::directed::distance).
///
/// # Panics
///
/// Panics if the words are not in the same `DG(d,k)`.
///
/// # Examples
///
/// ```
/// use debruijn_core::{routing, Word};
///
/// let x = Word::parse(2, "0110")?;
/// let y = Word::parse(2, "1001")?;
/// let route = routing::algorithm1(&x, &y);
/// assert_eq!(route.to_string(), "(0,0)(0,1)");
/// assert!(route.leads_to(&x, &y));
/// # Ok::<(), debruijn_core::Error>(())
/// ```
pub fn algorithm1(x: &Word, y: &Word) -> RoutePath {
    let mut out = RoutePath::empty();
    algorithm1_into(x, y, &mut RoutingScratch::new(), &mut out);
    out
}

/// Allocation-free variant of [`algorithm1`]: rebuilds `out` in place,
/// reusing the scratch's failure-function buffer.
///
/// # Panics
///
/// Panics if the words are not in the same `DG(d,k)`.
pub fn algorithm1_into(x: &Word, y: &Word, scratch: &mut RoutingScratch, out: &mut RoutePath) {
    assert_same_space(x, y);
    out.clear();
    if x == y {
        return;
    }
    let l =
        debruijn_strings::failure::overlap_with_scratch(x.digits(), y.digits(), &mut scratch.fail);
    out.steps_vec_mut()
        .extend((l..y.len()).map(|i| Step::left(y.digits()[i])));
}

/// The always-valid `k`-hop route: left-shift in all `k` digits of the
/// destination (the path used in the paper's diameter argument and in
/// Algorithm 2's `D₁ = D₂ = k` case).
///
/// Works from **any** source in `DG(d,k)`; it is the baseline the optimal
/// algorithms are compared against in the benchmarks.
pub fn trivial_route(y: &Word) -> RoutePath {
    let mut out = RoutePath::empty();
    trivial_route_into(y, &mut out);
    out
}

/// Allocation-free variant of [`trivial_route`]: rebuilds `out` in place.
pub fn trivial_route_into(y: &Word, out: &mut RoutePath) {
    out.clear();
    out.steps_vec_mut()
        .extend(y.digits().iter().map(|&b| Step::left(b)));
}

/// The paper's Algorithm 2: a shortest route in the **bi-directional**
/// network, using the Morris–Pratt matching-function engine (`O(k²)` time,
/// `O(k)` space).
///
/// # Panics
///
/// Panics if the words are not in the same `DG(d,k)`.
pub fn algorithm2(x: &Word, y: &Word) -> RoutePath {
    route_with_engine(x, y, Engine::MorrisPratt)
}

/// The paper's Algorithm 4: a shortest route in the **bi-directional**
/// network, using compact prefix/suffix trees (`O(k)` time and space).
///
/// # Panics
///
/// Panics if the words are not in the same `DG(d,k)`.
pub fn algorithm4(x: &Word, y: &Word) -> RoutePath {
    route_with_engine(x, y, Engine::SuffixTree)
}

/// Shortest bi-directional route with automatic engine selection
/// (see [`Engine::Auto`]).
///
/// # Panics
///
/// Panics if the words are not in the same `DG(d,k)`.
pub fn route_bidirectional(x: &Word, y: &Word) -> RoutePath {
    route_with_engine(x, y, Engine::Auto)
}

/// Shortest bi-directional route with an explicit engine.
///
/// # Panics
///
/// Panics if the words are not in the same `DG(d,k)`.
pub fn route_with_engine(x: &Word, y: &Word, engine: Engine) -> RoutePath {
    let mut out = RoutePath::empty();
    route_with_engine_into(x, y, engine, &mut out);
    out
}

/// Allocation-free variant of [`route_with_engine`]: rebuilds `out` in
/// place. With [`Engine::BitParallel`], [`Engine::Sam`] or [`Engine::Auto`]
/// below the automaton's table cap, no allocation happens after warm-up.
///
/// # Panics
///
/// Panics if the words are not in the same `DG(d,k)`.
pub fn route_with_engine_into(x: &Word, y: &Word, engine: Engine, out: &mut RoutePath) {
    assert_same_space(x, y);
    out.clear();
    if x == y {
        return;
    }
    let sol = undirected::solve(x, y, engine);
    route_from_solution_into(y, &sol, out);
}

/// Builds the route of Algorithm 2 lines 5–9 from a Theorem 2 solution.
///
/// Exposed so callers that already hold a [`Solution`] (e.g. when both the
/// distance and the route are needed) can avoid recomputing it.
///
/// The construction (proof of Theorem 2):
///
/// * **`D₁ ≤ D₂` (L case):** `X` contains the block `y_{t−θ+1}…y_t` at
///   position `s`. Do `s−1` free left shifts to park the block at the
///   register head, then `k−θ` right shifts feeding `y_{t−θ}, …, y_1` and
///   `k−t` free digits, then `k−t` left shifts feeding `y_{t+1}, …, y_k`.
/// * **`D₂ < D₁` (R case):** symmetric, starting with `k−s` free right
///   shifts.
/// * **`D₁ = D₂ = k`:** the trivial left-shift route.
pub fn route_from_solution(y: &Word, sol: &Solution) -> RoutePath {
    let mut out = RoutePath::empty();
    route_from_solution_into(y, sol, &mut out);
    out
}

/// Allocation-free variant of [`route_from_solution`]: rebuilds `out` in
/// place (see [`route_from_solution`] for the construction).
pub fn route_from_solution_into(y: &Word, sol: &Solution, out: &mut RoutePath) {
    let k = sol.k;
    debug_assert_eq!(y.len(), k);
    let d1 = sol.left_family;
    let d2 = sol.right_family;
    // Theorem 2 guarantees min(D₁, D₂) <= k; callers may pass a sentinel
    // above k on the *other* family to force one branch (multipath).
    debug_assert!(d1.steps.min(d2.steps) <= k);
    let yd = y.digits();

    // Line 5–6: both families degenerate to the trivial route.
    if d1.steps == k && d2.steps == k {
        trivial_route_into(y, out);
        return;
    }

    out.clear();
    let steps = out.steps_vec_mut();
    if d1.steps <= d2.steps {
        // Line 8 — L case with (s, t, θ) = (s₁, t₁, θ₁).
        let (s, t, theta) = (d1.s, d1.t, d1.theta);
        steps.extend((0..s - 1).map(|_| Step::left_any()));
        steps.extend((1..=t - theta).rev().map(|i| Step::right(yd[i - 1])));
        steps.extend((0..k - t).map(|_| Step::right_any()));
        steps.extend((t + 1..=k).map(|i| Step::left(yd[i - 1])));
        debug_assert_eq!(steps.len(), d1.steps);
    } else {
        // Line 9 — R case with (s, t, θ) = (s₂, t₂, θ₂).
        let (s, t, theta) = (d2.s, d2.t, d2.theta);
        steps.extend((0..k - s).map(|_| Step::right_any()));
        steps.extend((t + theta..=k).map(|i| Step::left(yd[i - 1])));
        steps.extend((0..t - 1).map(|_| Step::left_any()));
        steps.extend((1..=t - 1).rev().map(|i| Step::right(yd[i - 1])));
        debug_assert_eq!(steps.len(), d2.steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::directed;
    use crate::distance::undirected::Engine;
    use crate::space::DeBruijn;

    fn spaces() -> Vec<DeBruijn> {
        vec![
            DeBruijn::new(2, 1).unwrap(),
            DeBruijn::new(2, 2).unwrap(),
            DeBruijn::new(2, 3).unwrap(),
            DeBruijn::new(2, 4).unwrap(),
            DeBruijn::new(2, 5).unwrap(),
            DeBruijn::new(3, 2).unwrap(),
            DeBruijn::new(3, 3).unwrap(),
            DeBruijn::new(4, 2).unwrap(),
        ]
    }

    #[test]
    fn algorithm1_routes_are_shortest_and_valid() {
        for g in spaces() {
            for x in g.vertices() {
                for y in g.vertices() {
                    let p = algorithm1(&x, &y);
                    assert_eq!(
                        p.len(),
                        directed::distance(&x, &y),
                        "length mismatch {x} -> {y}"
                    );
                    assert!(p.leads_to(&x, &y), "invalid route {x} -> {y}: {p}");
                    assert!(
                        p.iter().all(|s| s.shift == ShiftKind::Left),
                        "uni-directional route used a right shift"
                    );
                }
            }
        }
    }

    #[test]
    fn algorithm2_routes_are_shortest_and_valid() {
        for g in spaces() {
            for x in g.vertices() {
                for y in g.vertices() {
                    let p = algorithm2(&x, &y);
                    assert_eq!(
                        p.len(),
                        undirected::distance_with(Engine::Naive, &x, &y),
                        "length mismatch {x} -> {y}"
                    );
                    assert!(p.leads_to(&x, &y), "invalid route {x} -> {y}: {p}");
                }
            }
        }
    }

    #[test]
    fn algorithm4_routes_are_shortest_and_valid() {
        for g in spaces() {
            for x in g.vertices() {
                for y in g.vertices() {
                    let p = algorithm4(&x, &y);
                    assert_eq!(
                        p.len(),
                        undirected::distance_with(Engine::Naive, &x, &y),
                        "length mismatch {x} -> {y}"
                    );
                    assert!(p.leads_to(&x, &y), "invalid route {x} -> {y}: {p}");
                }
            }
        }
    }

    #[test]
    fn trivial_route_always_reaches_in_k_hops() {
        let g = DeBruijn::new(3, 3).unwrap();
        for x in g.vertices() {
            for y in g.vertices() {
                let p = trivial_route(&y);
                assert_eq!(p.len(), 3);
                assert!(p.leads_to(&x, &y), "{x} -> {y}");
            }
        }
    }

    #[test]
    fn routes_between_equal_words_are_empty() {
        let x = Word::parse(2, "0101").unwrap();
        assert!(algorithm1(&x, &x).is_empty());
        assert!(algorithm2(&x, &x).is_empty());
        assert!(algorithm4(&x, &x).is_empty());
    }

    #[test]
    fn wildcards_never_harm_validity_under_adversarial_resolution() {
        // Resolve every wildcard with the worst-case digit (d-1, then
        // alternating) and confirm arrival regardless.
        let g = DeBruijn::new(2, 4).unwrap();
        for x in g.vertices() {
            for y in g.vertices() {
                let p = algorithm2(&x, &y);
                let via_zero = p.apply(&x);
                let via_one = p.apply_with(&x, |_, _| 1);
                let mut flip = false;
                let via_alt = p.apply_with(&x, |_, _| {
                    flip = !flip;
                    u8::from(flip)
                });
                assert_eq!(via_zero, y);
                assert_eq!(via_one, y);
                assert_eq!(via_alt, y);
            }
        }
    }

    #[test]
    fn bidirectional_routes_beat_or_match_directed_routes() {
        let g = DeBruijn::new(2, 5).unwrap();
        for x in g.vertices() {
            for y in g.vertices() {
                assert!(algorithm2(&x, &y).len() <= algorithm1(&x, &y).len());
            }
        }
    }

    #[test]
    fn route_bidirectional_auto_matches_explicit_engines() {
        let g = DeBruijn::new(3, 3).unwrap();
        for x in g.vertices() {
            for y in g.vertices() {
                let auto = route_bidirectional(&x, &y);
                assert_eq!(auto.len(), algorithm2(&x, &y).len());
                assert!(auto.leads_to(&x, &y));
            }
        }
    }

    #[test]
    fn paper_example_diameter_pair_uses_trivial_route() {
        // D(0…0, 1…1) = k: Algorithm 2 line 6 applies.
        let x = Word::parse(2, "0000").unwrap();
        let y = Word::parse(2, "1111").unwrap();
        let p = algorithm2(&x, &y);
        assert_eq!(p.len(), 4);
        assert!(p.iter().all(|s| s.shift == ShiftKind::Left));
        assert!(p.leads_to(&x, &y));
    }
}
