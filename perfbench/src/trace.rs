//! Spans recorded by the benchmark around its calls into the program's
//! layers. Kept in memory, written out when the run ends, and reduced to
//! per-layer self times: a span's duration minus the part its children
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request, pair or message the span worked on.
    pub id: u64,
}

/// A span recorder. A disabled one records nothing, so the same replay
/// code measures the cost of tracing itself.
pub struct Spans {
    base: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(base: Instant, enabled: bool) -> Self {
        Spans {
            base,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its handle for [`Spans::close`].
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.base.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    #[inline]
    pub fn close(&mut self, span: usize) {
        if self.enabled {
            self.spans[span].end_ns = self.base.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent, id);
        let out = f();
        self.close(span);
        out
    }

    /// Records a span measured elsewhere (a client thread's request, a
    /// child process), with timestamps from the same base.
    pub fn push(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    pub fn base(&self) -> Instant {
        self.base
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, in nanoseconds, grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            out.entry(span.name).or_default().push(own as f64);
        }
        out
    }

    /// The spans as JSON lines: name, start, end, parent, id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )
            .expect("write to string");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(Instant::now(), true);
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        };
        spans.push(span("outer", 0, 100, None));
        spans.push(span("inner", 10, 40, Some(0)));
        spans.push(span("inner", 50, 70, Some(0)));
        let times = spans.self_times();
        assert_eq!(times["outer"], vec![50.0]);
        assert_eq!(times["inner"], vec![30.0, 20.0]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::new(Instant::now(), false);
        let v = spans.time("x", None, 1, || 42);
        assert_eq!((v, spans.len()), (42, 0));
    }
}
