//! One run's result: the operations attempted and failed, the metrics
//! with their within-run spread, and the notes printed beside them.

use std::fmt::Write as _;
use std::time::Duration;

use crate::proc::{self, Run};
use crate::stats::{self, Summary};

/// Each command of a pass repeats until it has run this long, so that a
/// fast command gives as many samples per second as a slow one.
pub const COMMAND_SHARE: Duration = Duration::from_millis(100);

/// The passes on each side of a pass whose references are pooled with
/// its own.
const REFERENCE_SPAN: usize = 3;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The samples the value was taken from, when there are several.
    pub spread: Option<Summary>,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of the correctness checks that failed.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Input properties and machine facts printed with the metrics.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            spread: None,
        });
    }

    /// A metric taken as the median of `samples`.
    pub fn median_of(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let spread = Summary::of(samples);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: spread.map_or(0.0, |s| s.median),
            spread,
        });
    }

    /// The end-to-end metrics of commands repeated on the same input,
    /// `units` pairs or messages per run: `runs[c]` names command `c` and
    /// holds its runs in pass `i` at `[i]`, and `reference[i]` the
    /// host-speed reference ([`proc::spawn_reference`]) taken right after
    /// pass `i`. Each run's wall time is scaled by its pass's reference,
    /// pooled with its neighbours', to the host's nominal speed. Per
    /// command, the throughput is units over the mean scaled wall time,
    /// and the median and p90 are taken over all its scaled wall times;
    /// each metric is the geometric mean of the commands' figures, so
    /// each command weighs the same whatever its speed. A run holds too few repeats for a p99 with ten samples
    /// beyond it, so the tail is the p90. Peak memory is the largest
    /// command's median. Each command's sample count, quartiles and tail
    /// are noted.
    pub fn repeated_runs(
        &mut self,
        units: usize,
        runs: &[(&str, Vec<Vec<Run>>)],
        reference: &[f64],
    ) {
        let geomean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
        // A pass's reference is the median over it and `REFERENCE_SPAN`
        // passes each side: a slow stretch of the host lasts seconds, and
        // one reference sample jitters by more than the stretch moves.
        let pooled: Vec<f64> = (0..reference.len())
            .map(|i| {
                let lo = i.saturating_sub(REFERENCE_SPAN);
                let hi = (i + REFERENCE_SPAN + 1).min(reference.len());
                stats::median(&reference[lo..hi])
            })
            .collect();
        let (mut rate, mut p50_us, mut p90_us) = (Vec::new(), Vec::new(), Vec::new());
        let (mut raw_rate, mut raw_p50_us) = (Vec::new(), Vec::new());
        let mut notes = Vec::new();
        for (name, cmd) in runs {
            let raw: Vec<f64> = cmd.iter().flatten().map(|r| r.wall.as_secs_f64()).collect();
            let scaled: Vec<f64> = cmd
                .iter()
                .zip(&pooled)
                .flat_map(|(pass, &r)| {
                    pass.iter()
                        .map(move |run| proc::scaled(run.wall.as_secs_f64(), r))
                })
                .collect();
            let s = Summary::of(&scaled).expect("every command ran");
            notes.push((
                format!("{name}: scaled wall time"),
                format!(
                    "n={}, q1={:.1} us, median={:.1} us, q3={:.1} us, p90={:.1} us with {} beyond",
                    s.n,
                    s.q1 * 1e6,
                    s.median * 1e6,
                    s.q3 * 1e6,
                    s.p90 * 1e6,
                    s.beyond_p90
                ),
            ));
            rate.push(units as f64 / stats::mean(&scaled));
            p50_us.push(s.median * 1e6);
            p90_us.push(s.p90 * 1e6);
            raw_rate.push(units as f64 / stats::mean(&raw));
            raw_p50_us.push(stats::median(&raw) * 1e6);
        }
        self.metric("throughput_per_s", "1/s", geomean(&rate));
        self.metric("p50_us", "us", geomean(&p50_us));
        self.metric("tail_us", "us", geomean(&p90_us));
        let rss = runs
            .iter()
            .map(|(_, cmd)| {
                let rss: Vec<f64> = cmd.iter().flatten().map(|r| r.exit.peak_rss_mb).collect();
                stats::median(&rss)
            })
            .fold(f64::NAN, f64::max);
        self.metric("peak_rss_mb", "MB", rss);
        for (key, value) in notes {
            self.note(&key, value);
        }
        self.note(
            "unscaled throughput and p50",
            format!(
                "{:.1} per second, {:.1} us",
                geomean(&raw_rate),
                geomean(&raw_p50_us)
            ),
        );
        self.note_reference(reference);
    }

    /// The set-up metric: the median of set-up samples, each scaled by
    /// the host-speed reference taken beside it.
    pub fn setup(&mut self, samples: &[(f64, f64)]) {
        let scaled: Vec<f64> = samples
            .iter()
            .map(|&(wall, reference)| proc::scaled(wall, reference))
            .collect();
        self.median_of("setup_s", "s", &scaled);
        let raw: Vec<f64> = samples.iter().map(|&(wall, _)| wall).collect();
        self.note(
            "unscaled set-up median",
            format!("{:.6} s over {} samples", stats::median(&raw), raw.len()),
        );
    }

    /// Notes the host-speed reference's samples beside the metrics.
    pub fn note_reference(&mut self, reference: &[f64]) {
        self.note(
            "spawn reference",
            format!(
                "median {:.6} s, quietest decile {:.6} s over {} samples, nominal {} s",
                stats::median(reference),
                stats::quantile(reference, 0.1),
                reference.len(),
                proc::SPAWN_NOMINAL_S
            ),
        );
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Counts `failed` failed operations for `why`.
    pub fn fail(&mut self, failed: u64, why: impl Into<String>) {
        self.failed += failed;
        self.problems.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Human-readable lines: every metric by name with its unit and
    /// spread, the notes, and the error ratio.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.notes {
            writeln!(out, "# {key}: {value}").expect("write to string");
        }
        for m in &self.metrics {
            write!(out, "{:<40} {:>16.4} {}", m.name, m.value, m.unit).expect("write");
            if let Some(s) = m.spread {
                write!(
                    out,
                    "  (n={}, q1={:.4}, median={:.4}, q3={:.4}, p90={:.4} with {} beyond, p99={:.4} with {} beyond)",
                    s.n, s.q1, s.median, s.q3, s.p90, s.beyond_p90, s.p99, s.beyond_p99
                )
                .expect("write");
            }
            out.push('\n');
        }
        writeln!(
            out,
            "{:<40} {:>16.6} ratio  ({} failed of {} attempted)",
            "error_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        )
        .expect("write");
        for p in &self.problems {
            writeln!(out, "! {p}").expect("write");
        }
        out
    }

    /// The last line of the benchmark's output.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record kept beside the result: machine, notes, and every
    /// metric with its sample count, median, quartiles and tail.
    pub fn record_json(&self, header: &[(&str, String)]) -> String {
        let mut fields: Vec<String> = header
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_string(v)))
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        fields.push(format!("\"notes\": {{{}}}", notes.join(", ")));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let mut s = format!(
                    "{}: {{\"value\": {}, \"unit\": \"{}\"",
                    json_string(&m.name),
                    json_number(m.value),
                    m.unit
                );
                if let Some(sp) = m.spread {
                    write!(
                        s,
                        ", \"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"p90\": {}, \"beyond_p90\": {}, \"p99\": {}, \"beyond_p99\": {}",
                        sp.n,
                        json_number(sp.q1),
                        json_number(sp.median),
                        json_number(sp.q3),
                        json_number(sp.p90),
                        sp.beyond_p90,
                        json_number(sp.p99),
                        sp.beyond_p99
                    )
                    .expect("write");
                }
                s.push('}');
                s
            })
            .collect();
        fields.push(format!("\"metrics\": {{{}}}", metrics.join(", ")));
        fields.push(format!(
            "\"attempted\": {}, \"failed\": {}, \"problems\": [{}]",
            self.attempted,
            self.failed,
            self.problems
                .iter()
                .map(|p| json_string(p))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        format!("{{{}}}\n", fields.join(", "))
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
