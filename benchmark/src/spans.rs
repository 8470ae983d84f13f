//! Benchmark-side tracing: spans recorded around the calls into each layer.
//!
//! Spans exist only in the layer pass. The end-to-end runs happen in child
//! processes that never construct a [`Spans`], so no span is ever active
//! while an end-to-end metric is measured.

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
}

/// Spans of one process, kept in memory until [`Spans::to_json`].
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans opened and not yet closed, innermost last.
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new span; returns its result and the span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        workload: &'static str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, usize) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            workload,
            start_ns,
            end_ns: start_ns,
            parent: self.current(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Records an already-measured interval under `parent`; returns its
    /// index. The split stepper uses this for per-chunk aggregates.
    pub fn record(
        &mut self,
        name: &'static str,
        workload: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            workload,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    pub fn secs(&self, id: usize) -> f64 {
        self.duration_ns(id) as f64 / 1e9
    }

    /// Total duration of the spans named `name` that ran inside `ancestor`
    /// (at any depth).
    pub fn total_ns(&self, ancestor: usize, name: &str) -> u64 {
        (ancestor + 1..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.inside(i, ancestor))
            .map(|i| self.duration_ns(i))
            .sum()
    }

    /// Total self time (duration minus child spans) of the spans named
    /// `name` inside `ancestor`.
    pub fn total_self_ns(&self, ancestor: usize, name: &str) -> u64 {
        (ancestor + 1..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.inside(i, ancestor))
            .map(|i| self.self_ns(i))
            .sum()
    }

    fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = (id + 1..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(id))
            .map(|i| self.duration_ns(i))
            .sum();
        self.duration_ns(id).saturating_sub(children)
    }

    fn inside(&self, mut id: usize, ancestor: usize) -> bool {
        while let Some(parent) = self.spans[id].parent {
            if parent == ancestor {
                return true;
            }
            id = parent;
        }
        false
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("name", Value::str(s.name)),
                        ("workload", Value::str(s.workload)),
                        ("start_ns", Value::from(s.start_ns)),
                        ("end_ns", Value::from(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut spans = Spans::new();
        let outer = spans.record("outer", "w", 0, 100, None);
        spans.record("phase", "w", 10, 40, Some(outer));
        spans.record("phase", "w", 40, 50, Some(outer));
        let inner = spans.record("inner", "w", 50, 60, Some(outer));
        spans.record("phase", "w", 50, 55, Some(inner));
        spans.record("phase", "w", 0, 7, None);
        assert_eq!(spans.total_ns(outer, "phase"), 45);
        assert_eq!(spans.self_ns(outer), 100 - 30 - 10 - 10);
        assert_eq!(spans.total_self_ns(outer, "inner"), 5);
    }

    #[test]
    fn timed_spans_nest() {
        let mut spans = Spans::new();
        let (inner, outer) = spans.time("outer", "w", |s| s.time("inner", "w", |_| ()).1);
        assert_eq!(spans.spans[inner].parent, Some(outer));
        assert_eq!(spans.spans[outer].parent, None);
        assert!(spans.duration_ns(outer) >= spans.duration_ns(inner));
    }
}
