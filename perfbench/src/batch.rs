//! Workloads `batch_k256_{uniform,skew}`: `dbr route 2 --batch F` and
//! `dbr distance 2 --batch F` on one seeded file of undirected pairs at
//! k = 256, with uniform destinations or destinations drawn Zipf(1.0)
//! from a pool of 64 words.

use std::collections::HashSet;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use debruijn_core::distance::undirected::{self, Engine};
use debruijn_core::routing::route_from_solution;
use debruijn_core::{distance_batch_into, route_batch_into, BatchScratch, RoutePath, Step, Word};
use debruijn_strings::{both_family_minima, BitScratch, DestinationContext};

use crate::proc::{self, Run};
use crate::report::{Outcome, COMMAND_SHARE};
use crate::stats::{self, Rng, Zipf};
use crate::trace::Spans;
use crate::Ctx;

pub const K: usize = 256;
pub const PAIRS: usize = 2048;
/// The chunk size `dbr` feeds to the batched kernels.
pub const CHUNK: usize = 512;
const SKEW_POOL: usize = 64;
const SETUP_RUNS: usize = 21;
const ORACLE_SAMPLE: usize = 64;
const MIN_PASSES: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Uniform,
    Skew,
}

impl Mix {
    pub fn name(self) -> &'static str {
        match self {
            Mix::Uniform => "uniform",
            Mix::Skew => "skew",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    Route,
    Distance,
}

/// The commands of a pass, in the order they run.
const CMDS: [Cmd; 2] = [Cmd::Route, Cmd::Distance];

impl Cmd {
    pub fn name(self) -> &'static str {
        match self {
            Cmd::Route => "route",
            Cmd::Distance => "distance",
        }
    }
}

/// The seeded pairs of one mix.
pub fn pairs(seed: u64, mix: Mix) -> Vec<(Word, Word)> {
    let stream = match mix {
        Mix::Uniform => 0xBA7C_0001,
        Mix::Skew => 0xBA7C_0002,
    };
    let mut rng = Rng::new(seed ^ stream);
    let pool: Vec<Vec<u8>> = (0..SKEW_POOL).map(|_| rng.binary_word(K)).collect();
    let zipf = Zipf::new(SKEW_POOL);
    let word = |digits: Vec<u8>| Word::new(2, digits).expect("binary digits");
    (0..PAIRS)
        .map(|_| loop {
            let x = rng.binary_word(K);
            let y = match mix {
                Mix::Uniform => rng.binary_word(K),
                Mix::Skew => pool[zipf.sample(&mut rng)].clone(),
            };
            if x != y {
                break (word(x), word(y));
            }
        })
        .collect()
}

fn write_pairs(path: &Path, pairs: &[(Word, Word)]) -> Result<(), String> {
    let text: String = pairs.iter().map(|(x, y)| format!("{x} {y}\n")).collect();
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Mean over `CHUNK`-sized chunks of pairs per distinct destination.
pub fn pairs_per_destination(pairs: &[(Word, Word)]) -> f64 {
    let per_chunk: Vec<f64> = pairs
        .chunks(CHUNK)
        .map(|c| {
            let distinct: HashSet<&[u8]> = c.iter().map(|(_, y)| y.digits()).collect();
            c.len() as f64 / distinct.len() as f64
        })
        .collect();
    stats::mean(&per_chunk)
}

fn run_dbr(ctx: &Ctx, cmd: Cmd, input: &Path, out: &Path) -> Result<(Run, String), String> {
    let run = proc::run_to_file(
        Command::new(&ctx.dbr)
            .args([cmd.name(), "2", "--batch"])
            .arg(input),
        out,
    )
    .map_err(|e| format!("dbr {}: {e}", cmd.name()))?;
    let text = std::fs::read_to_string(out).map_err(|e| e.to_string())?;
    Ok((run, text))
}

fn parse_route(text: &str) -> Option<RoutePath> {
    if text == "(empty)" {
        return Some(RoutePath::empty());
    }
    let mut steps = Vec::new();
    for step in text.strip_prefix('(')?.strip_suffix(')')?.split(")(") {
        let (a, b) = step.split_once(',')?;
        let digit = if b == "*" {
            None
        } else {
            Some(b.parse().ok()?)
        };
        steps.push(match (a, digit) {
            ("0", Some(b)) => Step::left(b),
            ("1", Some(b)) => Step::right(b),
            ("0", None) => Step::left_any(),
            ("1", None) => Step::right_any(),
            _ => return None,
        });
    }
    Some(RoutePath::new(steps))
}

/// Checks one `route --batch` and one `distance --batch` output for the
/// same pairs: every route leads from x to y with the length it states,
/// that length equals the distance line, and a seeded sample of
/// distances matches the suffix-tree oracle. Returns the failed pairs.
pub fn verify(pairs: &[(Word, Word)], routes: &str, dists: &str, seed: u64) -> u64 {
    let routes: Vec<&str> = routes.lines().collect();
    let dists: Vec<Option<usize>> = dists.lines().map(|l| l.parse().ok()).collect();
    if routes.len() != pairs.len() || dists.len() != pairs.len() {
        return pairs.len() as u64;
    }
    let mut bad = vec![false; pairs.len()];
    for (i, (x, y)) in pairs.iter().enumerate() {
        let ok = routes[i].split_once(' ').is_some_and(|(len, path)| {
            let path = parse_route(path);
            match (len.parse::<usize>(), path, dists[i]) {
                (Ok(len), Some(path), Some(dist)) => {
                    path.len() == len && len == dist && path.leads_to(x, y)
                }
                _ => false,
            }
        });
        bad[i] = !ok;
    }
    let mut rng = Rng::new(seed ^ 0x04AC_1E00);
    for _ in 0..ORACLE_SAMPLE {
        let i = rng.below(pairs.len());
        let (x, y) = &pairs[i];
        if dists[i] != Some(undirected::distance_with(Engine::SuffixTree, x, y)) {
            bad[i] = true;
        }
    }
    bad.iter().filter(|&&b| b).count() as u64
}

fn differing_lines(got: &str, want: &str) -> u64 {
    let mut got_lines = got.lines();
    let mut n = 0;
    for w in want.lines() {
        n += u64::from(got_lines.next() != Some(w));
    }
    n
}

/// The end-to-end run on the `mix` file: passes of `route --batch` then
/// `distance --batch`, repeated for the run's seconds.
pub fn e2e(ctx: &Ctx, mix: Mix) -> Result<Outcome, String> {
    let pairs = pairs(ctx.seed, mix);
    let mut out = Outcome::default();
    let input = ctx.work.join(format!("batch-{}.txt", mix.name()));
    let one = ctx.work.join(format!("batch-{}-one.txt", mix.name()));
    let output = ctx.work.join(format!("batch-{}.out", mix.name()));
    write_pairs(&input, &pairs)?;
    write_pairs(&one, &pairs[..1])?;

    // Reference outputs of both commands, checked against each other and
    // the oracle; every timed run must reproduce its command's.
    let (route_run, routes) = run_dbr(ctx, Cmd::Route, &input, &output)?;
    let (dist_run, dists) = run_dbr(ctx, Cmd::Distance, &input, &output)?;
    out.attempted += 2 * PAIRS as u64;
    if !route_run.exit.success || !dist_run.exit.success {
        out.fail(2 * PAIRS as u64, "reference batch command failed");
    } else {
        let bad = verify(&pairs, &routes, &dists, ctx.seed);
        if bad > 0 {
            out.fail(
                bad,
                "reference outputs fail the route/distance/oracle checks",
            );
        }
    }
    let want = [routes, dists];

    // Passes of both commands, each command's timed runs followed by a
    // one-pair set-up run, so the set-up samples cover the same stretch
    // of time as the timed runs; the host-speed reference closes each
    // pass.
    let reference = || proc::spawn_reference().map_err(|e| format!("spawn reference: {e}"));
    let mut references = Vec::new();
    let set_up_once = |out: &mut Outcome, cmd: Cmd, want: &str| -> Result<f64, String> {
        let (run, text) = run_dbr(ctx, cmd, &one, &output)?;
        out.attempted += 1;
        if !run.exit.success || text.lines().next() != want.lines().next() {
            out.fail(1, "one-pair set-up run answered wrongly");
        }
        Ok(run.wall.as_secs_f64())
    };
    let mut setup = Vec::with_capacity(SETUP_RUNS);
    let mut runs = [Vec::new(), Vec::new()];
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    while Instant::now() < deadline || runs[0].len() < MIN_PASSES {
        let mut walls = Vec::with_capacity(CMDS.len());
        for (c, cmd) in CMDS.into_iter().enumerate() {
            let mut pass = Vec::new();
            let mut spent = Duration::ZERO;
            while spent < COMMAND_SHARE {
                let (run, text) = run_dbr(ctx, cmd, &input, &output)?;
                out.attempted += PAIRS as u64;
                if !run.exit.success {
                    out.fail(
                        PAIRS as u64,
                        format!("dbr {} --batch exited non-zero", cmd.name()),
                    );
                } else if text != want[c] {
                    out.fail(
                        differing_lines(&text, &want[c]),
                        "a timed run differs from the checked output",
                    );
                }
                spent += run.wall;
                pass.push(run);
            }
            runs[c].push(pass);
            walls.push(set_up_once(&mut out, cmd, &want[c])?);
        }
        let r = reference()?;
        references.push(r);
        setup.extend(walls.into_iter().map(|wall| (wall, r)));
    }
    while setup.len() < SETUP_RUNS {
        let c = setup.len() % 2;
        let wall = set_up_once(&mut out, CMDS[c], &want[c])?;
        setup.push((wall, reference()?));
    }
    let [routes, dists] = runs;
    out.repeated_runs(
        PAIRS,
        &[
            ("dbr route --batch", routes),
            ("dbr distance --batch", dists),
        ],
        &references,
    );
    out.setup(&setup);
    out.note("pairs per file, k", format!("{PAIRS}, {K}"));
    out.note(
        "pairs per destination per 512-pair chunk",
        format!("{:.3}", pairs_per_destination(&pairs)),
    );
    Ok(out)
}

/// Replays `pairs` of the `mix` file through the layers the batch
/// commands call, one span per call. Returns the failed pairs.
pub fn replay(spans: &mut Spans, pairs: &[(Word, Word)], mix: Mix) -> u64 {
    let mut failed = 0;
    let root = spans.open(
        if mix == Mix::Uniform {
            "replay.batch_uniform"
        } else {
            "replay.batch_skew"
        },
        None,
        0,
    );
    let (route_name, dist_name) = match mix {
        Mix::Uniform => ("core.route_batch.uniform", "core.distance_batch.uniform"),
        Mix::Skew => ("core.route_batch.skew", "core.distance_batch.skew"),
    };
    let mut scratch = BatchScratch::new();
    let mut bits = BitScratch::new();
    let mut ctx = DestinationContext::new();
    let (mut routes, mut dists) = (Vec::new(), Vec::new());
    for (c, chunk) in pairs.chunks(CHUNK).enumerate() {
        spans.time(route_name, Some(root), c as u64, || {
            route_batch_into(chunk, false, Engine::Auto, &mut scratch, &mut routes)
        });
        spans.time(dist_name, Some(root), c as u64, || {
            distance_batch_into(chunk, false, Engine::Auto, &mut scratch, &mut dists)
        });
        failed += routes
            .iter()
            .zip(&dists)
            .filter(|(r, &d)| r.len() != d)
            .count() as u64;
        let k = K as i64;
        match mix {
            Mix::Uniform => {
                for (i, (x, y)) in chunk.iter().enumerate() {
                    let id = (c * CHUNK + i) as u64;
                    let sol = spans.time("core.solve", Some(root), id, || {
                        undirected::solve(x, y, Engine::Auto)
                    });
                    let route = spans.time("core.route_from_solution", Some(root), id, || {
                        route_from_solution(y, &sol)
                    });
                    let (l, r) = spans.time("strings.bitparallel", Some(root), id, || {
                        both_family_minima(2, x.digits(), y.digits(), &mut bits)
                    });
                    let bit_dist = (2 * k - 1 + l.value.min(r.value)) as usize;
                    failed += u64::from(
                        sol.distance() != dists[i]
                            || route.len() != dists[i]
                            || bit_dist != dists[i],
                    );
                }
            }
            Mix::Skew => {
                let mut order: Vec<usize> = (0..chunk.len()).collect();
                order.sort_by(|&a, &b| chunk[a].1.digits().cmp(chunk[b].1.digits()));
                for (pos, &i) in order.iter().enumerate() {
                    let (x, y) = &chunk[i];
                    let id = (c * CHUNK + i) as u64;
                    let first = pos == 0 || chunk[order[pos - 1]].1 != *y;
                    // The automatons are built lazily by the first scan, so
                    // the build span holds set-up plus one scan.
                    let (l, r) = if first {
                        spans.time("strings.context_build", Some(root), id, || {
                            ctx.set_destination(2, y.digits());
                            ctx.family_min_values(x.digits())
                        })
                    } else {
                        spans.time("strings.context_scan", Some(root), id, || {
                            ctx.family_min_values(x.digits())
                        })
                    };
                    failed += u64::from((2 * k - 1 + l.min(r)) as usize != dists[i]);
                }
            }
        }
    }
    spans.close(root);
    failed
}

/// Median wall time of three `dbr <cmd> --batch` runs on the full `mix`
/// file, for the CLI-overhead metric.
pub fn command_wall(ctx: &Ctx, cmd: Cmd, mix: Mix, pairs: &[(Word, Word)]) -> Result<f64, String> {
    let input = ctx.work.join(format!("batch-{}.txt", mix.name()));
    let output = ctx
        .work
        .join(format!("batch-{}-{}.out", mix.name(), cmd.name()));
    write_pairs(&input, pairs)?;
    let walls: Vec<f64> = (0..3)
        .map(|_| match run_dbr(ctx, cmd, &input, &output)? {
            (run, _) if run.exit.success => Ok(run.wall.as_secs_f64()),
            _ => Err(format!("dbr {} --batch exited non-zero", cmd.name())),
        })
        .collect::<Result<_, _>>()?;
    Ok(stats::median(&walls))
}
