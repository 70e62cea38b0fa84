//! In-memory spans around the benchmark's calls into the library.
//!
//! Each span holds a name, start, end and parent; spans of one step share
//! the step id. Nothing is written until the run ends, and recording a span
//! is a push into a pre-sized vector, so tracing adds no I/O to a step.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span. Times are seconds since the tracer's
/// origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub step: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder of one thread (one simulated rank).
pub struct Tracer {
    origin: Instant,
    rank: usize,
    step: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(rank: usize, origin: Instant) -> Self {
        Self {
            origin,
            rank,
            step: 0,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
        }
    }

    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    pub fn open(&mut self, name: &'static str) {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            rank: self.rank,
            step: self.step,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        let i = self.open.pop().expect("close without a matching open");
        self.spans[i].end = self.origin.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "tracer dropped with open spans");
        self.spans
    }
}

/// Self time per span name in seconds: each span's duration minus the
/// durations of its direct children. `spans` must come from one tracer
/// (parent indices are local to it).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child) {
        *out.entry(s.name).or_insert(0.0) += s.dur() - c;
    }
    out
}

/// Durations of every span named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

/// One JSON object per line; `id` and `parent` index the rank's own spans.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    let mut ids: BTreeMap<usize, usize> = BTreeMap::new();
    for s in spans {
        let id = ids.entry(s.rank).or_insert(0);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"rank\":{},\"step\":{},\"id\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.name,
            s.rank,
            s.step,
            id,
            parent,
            s.start * 1e6,
            s.end * 1e6
        );
        *id += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |name, parent, start, end| Span {
            name,
            rank: 0,
            step: 0,
            parent,
            start,
            end,
        };
        let spans = [
            mk("step", None, 0.0, 10.0),
            mk("a", Some(0), 1.0, 4.0),
            mk("b", Some(0), 4.0, 9.0),
            mk("b.inner", Some(2), 5.0, 6.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st["step"], 2.0);
        assert_eq!(st["a"], 3.0);
        assert_eq!(st["b"], 4.0);
        assert_eq!(st["b.inner"], 1.0);
    }
}
