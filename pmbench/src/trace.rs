//! In-memory spans around the calls into each layer.
//!
//! The traced run records one [`Span`] per call (name, start, end, parent,
//! trial id), keeps them in memory, and writes them out as JSONL when the
//! benchmark ends.  A layer's **self time** is its span's duration minus
//! the part its child spans cover; self times of all spans of one trial
//! sum to the trial's wall time, so whatever the root span keeps for
//! itself is the share the layer spans failed to attribute.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-prefixed name (`simnet.step`, `net.publish`, …).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one operation (trial or pass).
    pub trial: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, trial: u64) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            trial,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span around one call.
    pub fn span<T>(&mut self, name: &'static str, trial: u64, call: impl FnOnce() -> T) -> T {
        let id = self.enter(name, trial);
        let result = call();
        self.exit(id);
        result
    }

    /// Records a span from timestamps taken elsewhere (the ticker notes
    /// its publish times in the publish loop and files them afterwards).
    pub fn record(
        &mut self,
        name: &'static str,
        trial: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            trial,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in first-appearance order.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let own = span.duration_ns().saturating_sub(covered);
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += own,
                None => totals.push((span.name, own)),
            }
        }
        totals
    }

    /// The spans as JSONL, one object per line:
    /// `{"id":3,"name":"simnet.step","trial":0,"parent":1,"start_ns":…,"end_ns":…}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |parent| parent.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"trial\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.trial, span.start_ns, span.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }

    /// The self-time table printed when a traced run ends.
    pub fn self_time_table(&self) -> String {
        let totals = self.self_times();
        let sum: u64 = totals.iter().map(|(_, ns)| ns).sum();
        let mut out = format!("{:<24} {:>12} {:>8}\n", "span", "self ms", "share");
        for (name, ns) in totals {
            writeln!(
                out,
                "{name:<24} {:>12.3} {:>7.1}%",
                ns as f64 / 1e6,
                100.0 * ns as f64 / sum.max(1) as f64
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new();
        let root = tracer.record("root", 0, 0, 100, None);
        let child = tracer.record("child", 0, 10, 60, Some(root));
        tracer.record("leaf", 0, 20, 30, Some(child));
        tracer.record("child", 0, 60, 90, Some(root));
        assert_eq!(
            tracer.self_times(),
            vec![("root", 20), ("child", 70), ("leaf", 10)]
        );
    }

    #[test]
    fn nested_calls_record_their_parent() {
        let mut tracer = Tracer::new();
        let root = tracer.enter("root", 7);
        tracer.span("inner", 7, || ());
        tracer.exit(root);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].trial, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(tracer.to_jsonl().lines().count(), 2);
    }
}
