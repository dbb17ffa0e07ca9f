//! Destination-side preprocessing shared across many sources.
//!
//! Every quantity the routing algorithms need — the overlap `l` of Eq. (2),
//! the matching-function minima of Theorem 2 — is a function of the *pair*
//! `(X, Y)`, but all of the expensive tables depend only on the destination
//! `Y`: the failure function (whose chain enumerates `Y`'s borders) and the
//! suffix automaton of `Y`. [`DestinationContext`] computes each of those
//! once per destination (lazily, so a directed-only caller never builds the
//! automaton) and then answers any number of sources against them:
//!
//! * [`DestinationContext::overlap`] — the directed overlap `l(X, Y)`, an
//!   `O(|X|)` automaton scan over the prebuilt failure table; equals
//!   [`crate::failure::overlap_with_scratch`]`(x, y, …)`.
//! * [`DestinationContext::family_minima`] — both Theorem 2 minima *with*
//!   witnessed minimizers, in one `O(|X|)` forward scan of `X` through the
//!   suffix automaton of `Y`. This is `Engine::Sam`'s kernel: the values
//!   equal every other engine's, and the minimizers feed Algorithm 2's
//!   route construction directly.
//! * [`DestinationContext::family_min_values`] — the same scan, values
//!   only.
//!
//! # The matching-statistics scan
//!
//! The `l` family minimizes `i − j − l_{i,j}` over 1-indexed `(i, j)`,
//! where `l_{i,j}` is the longest substring of `X` starting at `i` that
//! equals a substring of `Y` ending at `j`. Re-parameterizing a match of
//! length `θ > 0` by its 0-based end positions `e_x` in `X` and `e_y` in
//! `Y` gives `i − j − θ = (e_x + 1) − (e_y + 2θ)`; sub-maximal `θ` at a
//! fixed `(i, j)` only increase the objective, so the table minimum equals
//! the minimum over **all** matches plus the `θ = 0` baseline `1 − |Y|`.
//! Scanning `X` through the suffix automaton of `Y` yields, at every
//! `e_x`, the longest match `m` ending there; maximizing the *gain*
//! `G = e_y + 2θ` over all suffix lengths `θ ≤ m` splits by automaton
//! state: the state `u` holding the length-`m` match contributes
//! `maxend(u) + 2m`, and every suffix-link ancestor `v` contributes
//! `maxend(v) + 2·len(v)`, which a per-state precomputed chain maximum
//! folds into one lookup. The minimizer is `s = e_x − θ + 2`,
//! `t = e_y + 1`.
//!
//! The `r` family minimizes `−i + j − r_{i,j}`, where the match *ends* at
//! `i` in `X` and *starts* at `j` in `Y` — the same matches, scored from
//! the other end: `(1 − e_x) + (e_y − 2θ)`. Minimizing `e_y − 2θ` needs the
//! *first* end position `minend` of each state and a chain minimum of
//! `minend(v) − 2·len(v)`; the one scan serves both families. The `r`
//! result is reported as the `l` minimum of the reversed strings (Eq. (9)'s
//! identity, the convention every engine shares): value
//! `(|X| − |Y| + 1) − e_x + (e_y − 2θ)` at `s = |X| − e_x`,
//! `t = |Y| − e_y + θ − 1`.
//!
//! Each chain extremum keeps the state that attains it, so a minimizer
//! comes with its witnessed `θ`. Ties break deterministically: the first
//! `e_x` in scan order that strictly improves wins, and at one `e_x` the
//! state's own match beats an ancestor's.
//!
//! Build: `O(|Y|·d)`. Scan: `O(|X|)` amortized over suffix-link fallbacks;
//! from the second source on, the context also *completes* the transition
//! table (each missing `(state, digit)` edge resolved to its fallback
//! target once, `O(|Y|·d)`), so each further scan is one table lookup per
//! digit.

use crate::failure::failure_function_into;
use crate::matching::MatchTerm;

/// Transition slot marker for "no edge" in the flat automaton table.
const NONE: u32 = u32::MAX;

/// Cap on `states × alphabet` transition cells per automaton
/// (`2·(k+1)·d`); beyond it [`DestinationContext::supports_family_scan`]
/// is false and callers fall back to a scalar engine. 4M cells ≈ 16 MiB.
const SAM_MAX_CELLS: usize = 1 << 22;

/// Per-state tables of the family scan, packed so one scan step touches
/// one record. Positions and gains fit `i32`: the table cap bounds `k`
/// far below `2³¹ / 3`.
#[derive(Debug, Default, Clone, Copy)]
struct Witness {
    /// Max 0-based end position in the text over `endpos(u)`.
    maxend: i32,
    /// Min 0-based end position in the text over `endpos(u)`.
    minend: i32,
    /// Max of `maxend(v) + 2·len(v)` over the proper suffix-link
    /// ancestors `v` of `u` (root excluded), attained at `best_l_at`.
    best_l: i32,
    /// Min of `minend(v) − 2·len(v)` over the same ancestors, attained at
    /// `best_r_at`.
    best_r: i32,
    best_l_at: u32,
    best_r_at: u32,
}

/// Suffix automaton of one destination string, with the per-state tables
/// the family scan needs. All buffers are reused across
/// [`SuffixAutomaton::build`] calls.
#[derive(Debug, Default, Clone)]
struct SuffixAutomaton {
    d: usize,
    text_len: usize,
    len: Vec<u32>,
    link: Vec<i32>,
    trans: Vec<u32>,
    wit: Vec<Witness>,
    /// Completed transitions: `target | cap << 32`, where `cap` bounds the
    /// match length after the step (`len(v) + 1` for the deepest
    /// ancestor-or-self `v` with a real edge; 0 when none has one).
    next: Vec<u64>,
    next_ready: bool,
    /// Counting-sort scratch: states ordered by `len` ascending.
    order: Vec<u32>,
    counts: Vec<u32>,
    states: usize,
    last: usize,
}

impl SuffixAutomaton {
    fn new_state(&mut self, len: u32) -> usize {
        let id = self.states;
        self.states += 1;
        self.len[id] = len;
        self.link[id] = -1;
        id
    }

    /// Rebuilds the automaton for `text` over alphabet `{0, …, d−1}`.
    fn build(&mut self, d: usize, text: &[u8]) {
        let cap = 2 * text.len() + 2;
        self.d = d;
        self.text_len = text.len();
        self.states = 0;
        self.next_ready = false;
        self.len.clear();
        self.len.resize(cap, 0);
        self.link.clear();
        self.link.resize(cap, -1);
        self.trans.clear();
        self.trans.resize(cap * d, NONE);
        self.wit.clear();
        self.wit.resize(
            cap,
            Witness {
                maxend: i32::MIN,
                minend: i32::MAX,
                ..Witness::default()
            },
        );
        self.new_state(0); // root
        self.last = 0;
        for (pos, &ch) in text.iter().enumerate() {
            self.extend(ch as usize);
            // `last` is the state of the full prefix ending at `pos`.
            self.wit[self.last].maxend = pos as i32;
            self.wit[self.last].minend = pos as i32;
        }
        self.finish();
    }

    fn extend(&mut self, c: usize) {
        let d = self.d;
        let cur = self.new_state(self.len[self.last] + 1);
        let mut p = self.last as i32;
        while p >= 0 && self.trans[p as usize * d + c] == NONE {
            self.trans[p as usize * d + c] = cur as u32;
            p = self.link[p as usize];
        }
        if p < 0 {
            self.link[cur] = 0;
        } else {
            let q = self.trans[p as usize * d + c] as usize;
            if self.len[q] == self.len[p as usize] + 1 {
                self.link[cur] = q as i32;
            } else {
                let clone = self.new_state(self.len[p as usize] + 1);
                self.trans.copy_within(q * d..(q + 1) * d, clone * d);
                self.link[clone] = self.link[q];
                self.link[q] = clone as i32;
                self.link[cur] = clone as i32;
                while p >= 0 && self.trans[p as usize * d + c] == q as u32 {
                    self.trans[p as usize * d + c] = clone as u32;
                    p = self.link[p as usize];
                }
            }
        }
        self.last = cur;
    }

    /// Propagates `maxend`/`minend` up the suffix-link tree and
    /// precomputes each state's best proper ancestor for both families.
    fn finish(&mut self) {
        let n = self.states;
        // Counting sort of states by len ascending (len <= text_len).
        self.counts.clear();
        self.counts.resize(self.text_len + 2, 0);
        for u in 0..n {
            self.counts[self.len[u] as usize] += 1;
        }
        let mut acc = 0u32;
        for c in self.counts.iter_mut() {
            let here = *c;
            *c = acc;
            acc += here;
        }
        self.order.clear();
        self.order.resize(n, 0);
        for u in 0..n {
            let slot = &mut self.counts[self.len[u] as usize];
            self.order[*slot as usize] = u as u32;
            *slot += 1;
        }
        // endpos(link(u)) ⊇ endpos(u): fold both ends upward, longest
        // first.
        for &u in self.order.iter().rev() {
            let u = u as usize;
            if self.link[u] >= 0 {
                let l = self.link[u] as usize;
                self.wit[l].maxend = self.wit[l].maxend.max(self.wit[u].maxend);
                self.wit[l].minend = self.wit[l].minend.min(self.wit[u].minend);
            }
        }
        // Shortest first, so a state's link is final before the state.
        // The root contributes nothing (θ = 0 is the baseline).
        self.wit[0].best_l = i32::MIN;
        self.wit[0].best_r = i32::MAX;
        for &u in &self.order[1..] {
            let u = u as usize;
            let v = self.link[u] as usize;
            let up = self.wit[v];
            let (mut best_l, mut best_l_at) = (up.best_l, up.best_l_at);
            let (mut best_r, mut best_r_at) = (up.best_r, up.best_r_at);
            if v != 0 {
                // v's own full-length match, preferred on ties (deeper).
                let len = 2 * self.len[v] as i32;
                if up.maxend + len >= best_l {
                    (best_l, best_l_at) = (up.maxend + len, v as u32);
                }
                if up.minend - len <= best_r {
                    (best_r, best_r_at) = (up.minend - len, v as u32);
                }
            }
            let w = &mut self.wit[u];
            (w.best_l, w.best_l_at, w.best_r, w.best_r_at) = (best_l, best_l_at, best_r, best_r_at);
        }
    }

    /// Resolves every missing `(state, digit)` edge to its suffix-link
    /// fallback once, so later scans take one lookup per digit.
    fn complete(&mut self) {
        let d = self.d;
        self.next.clear();
        self.next.resize(self.states * d, 0);
        for &u in &self.order[..self.states] {
            let u = u as usize;
            let cap = u64::from(self.len[u] + 1) << 32;
            for c in 0..d {
                let t = self.trans[u * d + c];
                self.next[u * d + c] = if t != NONE {
                    u64::from(t) | cap
                } else if u == 0 {
                    0 // no edge anywhere: back to the root, match length 0
                } else {
                    self.next[self.link[u] as usize * d + c]
                };
            }
        }
        self.next_ready = true;
    }

    /// Both Theorem 2 family minima of `x` against the text: `(l, r)`
    /// with `r` in the reversed strings' coordinates (see the module
    /// docs).
    fn family_minima(&self, x: &[u8]) -> (MatchTerm, MatchTerm) {
        let d = self.d;
        let kx = x.len() as i64;
        let ky = self.text_len as i64;
        // θ = 0 baseline at (1, |Y|), for both orientations.
        let mut best_l = MatchTerm {
            value: 1 - ky,
            s: 1,
            t: self.text_len,
            theta: 0,
        };
        let mut best_r = best_l;
        let mut u = 0usize;
        let mut m = 0usize;
        for (e, &ch) in x.iter().enumerate() {
            let c = ch as usize;
            if self.next_ready {
                let cell = self.next[u * d + c];
                u = cell as u32 as usize;
                m = (m + 1).min((cell >> 32) as usize);
            } else {
                loop {
                    let t = self.trans[u * d + c];
                    if t != NONE {
                        u = t as usize;
                        m += 1;
                        break;
                    }
                    if u == 0 {
                        m = 0;
                        break;
                    }
                    u = self.link[u] as usize;
                    m = self.len[u] as usize;
                }
            }
            if m == 0 {
                continue;
            }
            let w = &self.wit[u];
            let e = e as i64;
            let two_m = 2 * m as i64;
            let own = i64::from(w.maxend) + two_m;
            let value = (e + 1) - own.max(i64::from(w.best_l));
            if value < best_l.value {
                let (theta, ey) = if own >= i64::from(w.best_l) {
                    (m, w.maxend)
                } else {
                    let v = w.best_l_at as usize;
                    (self.len[v] as usize, self.wit[v].maxend)
                };
                best_l = MatchTerm {
                    value,
                    s: (e + 2) as usize - theta,
                    t: ey as usize + 1,
                    theta,
                };
            }
            let own = i64::from(w.minend) - two_m;
            let value = (kx - ky + 1) - e + own.min(i64::from(w.best_r));
            if value < best_r.value {
                let (theta, ey) = if own <= i64::from(w.best_r) {
                    (m, w.minend)
                } else {
                    let v = w.best_r_at as usize;
                    (self.len[v] as usize, self.wit[v].minend)
                };
                best_r = MatchTerm {
                    value,
                    s: (kx - e) as usize,
                    t: self.text_len + theta - 1 - ey as usize,
                    theta,
                };
            }
        }
        (best_l, best_r)
    }
}

/// Reusable per-destination tables answering many sources against one
/// destination.
///
/// Bind a destination with [`set_destination`](Self::set_destination), then
/// query any number of sources. Each table (failure function, suffix
/// automaton) is built lazily on first use and cached until the
/// destination changes; all buffers are reused across destinations, so a
/// batch loop is allocation-free after warm-up.
///
/// # Examples
///
/// ```
/// use debruijn_strings::DestinationContext;
///
/// let mut ctx = DestinationContext::new();
/// ctx.set_destination(2, &[1, 0, 0, 1]);
/// // overlap("0110", "1001") = 2: suffix "10" is a prefix of the destination.
/// assert_eq!(ctx.overlap(&[0, 1, 1, 0]), 2);
/// assert_eq!(ctx.overlap(&[1, 1, 1, 1]), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct DestinationContext {
    d: u8,
    y: Vec<u8>,
    fail: Vec<usize>,
    fail_ready: bool,
    sam_ready: bool,
    /// Sources scanned against the current automaton (saturating).
    scans: u8,
    sam: SuffixAutomaton,
}

impl DestinationContext {
    /// Creates an empty context; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the destination `y` over radix `d`, invalidating all cached
    /// tables (they rebuild lazily on first use).
    ///
    /// # Panics
    ///
    /// Panics if `y` is empty or `d < 2`.
    pub fn set_destination(&mut self, d: u8, y: &[u8]) {
        assert!(!y.is_empty(), "k must be at least 1");
        assert!(d >= 2, "radix must be at least 2");
        debug_assert!(y.iter().all(|&v| v < d), "digit out of range");
        self.d = d;
        self.y.clear();
        self.y.extend_from_slice(y);
        self.fail_ready = false;
        self.sam_ready = false;
    }

    /// The bound destination's digits.
    pub fn destination(&self) -> &[u8] {
        &self.y
    }

    /// The bound radix.
    pub fn radix(&self) -> u8 {
        self.d
    }

    /// The destination's Morris–Pratt failure function (built on first
    /// call). Its chain from the last entry enumerates the destination's
    /// borders, longest first (see [`crate::failure::borders`]).
    pub fn failure(&mut self) -> &[usize] {
        self.ensure_fail();
        &self.fail
    }

    fn ensure_fail(&mut self) {
        if !self.fail_ready {
            failure_function_into(&self.y, &mut self.fail);
            self.fail_ready = true;
        }
    }

    /// Length of the longest suffix of `x` that is a prefix of the
    /// destination — the paper's Eq. (2) overlap `l(X, Y)`, so the
    /// directed distance is `k − overlap`.
    ///
    /// Identical to [`crate::failure::overlap_with_scratch`]`(x, y, …)`,
    /// but the failure table is built once per destination instead of once
    /// per pair.
    pub fn overlap(&mut self, x: &[u8]) -> usize {
        self.ensure_fail();
        let m = self.y.len();
        let mut state = 0usize;
        for ch in x {
            if state == m {
                state = self.fail[state - 1];
            }
            while state > 0 && self.y[state] != *ch {
                state = self.fail[state - 1];
            }
            if self.y[state] == *ch {
                state += 1;
            }
        }
        state
    }

    /// Whether the automaton-based family scan
    /// ([`family_minima`](Self::family_minima)) is available for word
    /// length `k` over radix `d` (the flat transition tables are capped at
    /// `SAM_MAX_CELLS` cells).
    pub fn supports_family_scan(d: u8, k: usize) -> bool {
        2usize.saturating_mul(k + 1).saturating_mul(d as usize) <= SAM_MAX_CELLS
    }

    /// Theorem 2 minima of both matching-function families for source `x`,
    /// with witnessed minimizers, in `O(|x|)` after an `O(k·d)`
    /// per-destination build.
    ///
    /// Returns `(l_min, r_min_reversed)` in the convention of
    /// [`crate::bitmatch::both_family_minima`]: `l_min` minimizes
    /// `i − j − l_{i,j}(X,Y)` (value of [`crate::min_l_term`]`(x, y)`), and
    /// `r_min_reversed` minimizes the `l` objective over the reversed
    /// strings (value of [`crate::min_l_term`]`(x̄, ȳ)`), in reversed
    /// 1-indexed coordinates. Every minimizer attains its value through a
    /// witnessed match (`value = s − t − θ`, `θ = l_{s,t}`); ties break as
    /// described in the module docs, which may differ from the other
    /// engines' tie-breaking.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or the scan is unsupported for this
    /// destination (check [`supports_family_scan`](Self::supports_family_scan)).
    pub fn family_minima(&mut self, x: &[u8]) -> (MatchTerm, MatchTerm) {
        assert!(!x.is_empty(), "k must be at least 1");
        assert!(
            Self::supports_family_scan(self.d, self.y.len()),
            "destination too large for the family scan"
        );
        debug_assert!(x.iter().all(|&v| v < self.d), "digit out of range");
        if !self.sam_ready {
            self.sam.build(self.d as usize, &self.y);
            self.sam_ready = true;
            self.scans = 0;
        }
        // A second source means the destination is shared: completing the
        // transitions once makes every further scan link-free.
        if self.scans == 1 {
            self.sam.complete();
        }
        self.scans = self.scans.saturating_add(1);
        self.sam.family_minima(x)
    }

    /// The minimized *values* of [`family_minima`](Self::family_minima):
    /// `(min(i − j − l_{i,j}), min over the reversed strings)`. The
    /// undirected de Bruijn distance is `2k − 1 + min(l, r)`.
    ///
    /// # Panics
    ///
    /// As [`family_minima`](Self::family_minima).
    pub fn family_min_values(&mut self, x: &[u8]) -> (i64, i64) {
        let (l, r) = self.family_minima(x);
        (l.value, r.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{overlap, overlap_with_scratch};
    use crate::matching::{l_table_naive, min_l_term};

    fn all_strings(alphabet: u8, len: usize) -> Vec<Vec<u8>> {
        let mut out = vec![Vec::new()];
        for _ in 0..len {
            out = out
                .into_iter()
                .flat_map(|s| {
                    (0..alphabet).map(move |d| {
                        let mut t = s.clone();
                        t.push(d);
                        t
                    })
                })
                .collect();
        }
        out
    }

    fn reversed(s: &[u8]) -> Vec<u8> {
        s.iter().rev().copied().collect()
    }

    /// Both minima equal Morris–Pratt's values, and each minimizer is a
    /// witnessed match: `value = s − t − θ` with `θ = l_{s,t}` exactly.
    fn check_minima(d: u8, x: &[u8], y: &[u8], got: (MatchTerm, MatchTerm)) {
        let (xr, yr) = (reversed(x), reversed(y));
        for (term, xs, ys, family) in [(got.0, x, y, "l"), (got.1, &xr[..], &yr[..], "r")] {
            let want = min_l_term(xs, ys);
            assert_eq!(term.value, want.value, "{family}: d={d} x={x:?} y={y:?}");
            assert_eq!(
                term.value,
                term.s as i64 - term.t as i64 - term.theta as i64,
                "{family} minimizer misses its value: d={d} x={x:?} y={y:?}"
            );
            let table = l_table_naive(xs, ys);
            assert_eq!(
                term.theta,
                table[term.s - 1][term.t - 1],
                "{family} θ not witnessed: d={d} x={x:?} y={y:?} {term:?}"
            );
        }
    }

    #[test]
    fn overlap_matches_reference_exhaustively() {
        let mut ctx = DestinationContext::new();
        for d in [2u8, 3] {
            let kmax = if d == 2 { 5 } else { 3 };
            for ky in 1..=kmax {
                for y in all_strings(d, ky) {
                    ctx.set_destination(d, &y);
                    for kx in 1..=kmax {
                        for x in all_strings(d, kx) {
                            assert_eq!(ctx.overlap(&x), overlap(&x, &y), "d={d} x={x:?} y={y:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn failure_table_matches_standalone_builder() {
        let mut ctx = DestinationContext::new();
        let mut fail = Vec::new();
        for y in all_strings(2, 6) {
            ctx.set_destination(2, &y);
            // overlap_with_scratch builds the same table as a side effect.
            overlap_with_scratch(&y, &y, &mut fail);
            assert_eq!(ctx.failure(), &fail[..], "y={y:?}");
        }
    }

    #[test]
    fn family_minima_are_witnessed_exhaustively_including_rectangular() {
        let mut ctx = DestinationContext::new();
        for (d, kmax) in [(2u8, 5usize), (3, 3)] {
            for ky in 1..=kmax {
                for y in all_strings(d, ky) {
                    ctx.set_destination(d, &y);
                    for kx in 1..=kmax {
                        for x in all_strings(d, kx) {
                            let got = ctx.family_minima(&x);
                            check_minima(d, &x, &y, got);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn family_minima_are_witnessed_on_random_words() {
        let mut ctx = DestinationContext::new();
        let mut state = 0xfeed_f00d_u32;
        let mut next = move |m: u8| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((state >> 16) % m as u32) as u8
        };
        for d in [2u8, 3, 5, 20] {
            for (kx, ky) in [(1usize, 9usize), (9, 1), (33, 65), (120, 120)] {
                let y: Vec<u8> = (0..ky).map(|_| next(d)).collect();
                ctx.set_destination(d, &y);
                for _ in 0..3 {
                    let x: Vec<u8> = (0..kx).map(|_| next(d)).collect();
                    let got = ctx.family_minima(&x);
                    check_minima(d, &x, &y, got);
                }
                // A source sharing a long block with the destination.
                let x: Vec<u8> = y.iter().rev().chain(&y).take(kx).copied().collect();
                let got = ctx.family_minima(&x);
                check_minima(d, &x, &y, got);
            }
        }
    }

    #[test]
    fn completed_transitions_replay_the_suffix_link_scan_exactly() {
        // The first source of a destination walks suffix links; later
        // ones use the completed table. Same states, same match lengths,
        // so the same minimizers.
        let mut shared = DestinationContext::new();
        for d in [2u8, 3] {
            let k = if d == 2 { 5 } else { 3 };
            for y in all_strings(d, k) {
                shared.set_destination(d, &y);
                for x in all_strings(d, k) {
                    let mut fresh = DestinationContext::new();
                    fresh.set_destination(d, &y);
                    assert_eq!(
                        shared.family_minima(&x),
                        fresh.family_minima(&x),
                        "d={d} x={x:?} y={y:?}"
                    );
                }
                assert!(shared.sam.next_ready, "a shared destination completes");
            }
        }
    }

    #[test]
    fn values_are_the_minima_values() {
        let mut ctx = DestinationContext::new();
        let y = [0u8, 1, 1, 0, 1, 0, 0, 1];
        ctx.set_destination(2, &y);
        for x in all_strings(2, 8) {
            let (l, r) = ctx.family_minima(&x);
            assert_eq!(ctx.family_min_values(&x), (l.value, r.value));
        }
    }

    #[test]
    fn identical_strings_reach_the_full_match() {
        let mut ctx = DestinationContext::new();
        let y = [0u8, 1, 1, 0, 1, 0, 0, 1];
        ctx.set_destination(2, &y);
        let (l, r) = ctx.family_minima(&y);
        let k = y.len();
        assert_eq!(l.value, 1 - 2 * k as i64);
        assert_eq!(r.value, 1 - 2 * k as i64);
        assert_eq!((l.s, l.t, l.theta), (1, k, k));
        assert_eq!((r.s, r.t, r.theta), (1, k, k));
    }

    #[test]
    fn disjoint_alphabets_give_the_baseline() {
        let mut ctx = DestinationContext::new();
        ctx.set_destination(4, &[1, 1, 1]);
        let (l, r) = ctx.family_minima(&[0, 0, 0]);
        assert_eq!((l.value, l.s, l.t, l.theta), (-2, 1, 3, 0));
        assert_eq!((r.value, r.s, r.t, r.theta), (-2, 1, 3, 0));
    }

    #[test]
    fn rebinding_destinations_reuses_buffers_correctly() {
        let mut ctx = DestinationContext::new();
        // Alternate between destinations of different lengths and radixes
        // to shake out stale-buffer bugs.
        let cases: [(u8, &[u8]); 5] = [
            (2, &[1, 0, 1, 1, 0]),
            (3, &[2, 0, 1]),
            (2, &[0]),
            (4, &[3, 3, 0, 1, 2, 3, 1]),
            (2, &[1, 0, 1, 1, 0]),
        ];
        for (d, y) in cases {
            ctx.set_destination(d, y);
            let x: Vec<u8> = y.iter().map(|&v| (v + 1) % d).collect();
            assert_eq!(ctx.overlap(y), y.len());
            assert_eq!(ctx.overlap(&x), overlap(&x, y));
            let (l, _) = ctx.family_min_values(y);
            assert_eq!(l, 1 - 2 * y.len() as i64);
            let got = ctx.family_minima(&x);
            check_minima(d, &x, y, got);
        }
    }

    #[test]
    fn scan_support_cap_is_enforced() {
        assert!(DestinationContext::supports_family_scan(2, 1024));
        assert!(!DestinationContext::supports_family_scan(
            255,
            SAM_MAX_CELLS
        ));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn rejects_empty_destination() {
        DestinationContext::new().set_destination(2, &[]);
    }
}
