//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (nothing inside the program is instrumented). Each span has a name, a
//! start and end relative to the recorder's origin, a parent span, and a
//! group id shared by every span of one batch run or one serve frame.
//! Spans stay in memory until [`Tracer::write_jsonl`] at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in the recorder.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    group: u64,
    parent: Option<SpanId>,
    start: Duration,
    end: Duration,
    /// Placed from a duration the program reported (an `Engine::stats`
    /// delta) rather than timed by the benchmark: its start is where the
    /// phase would begin if phases ran back to back.
    derived: bool,
}

/// Per-name totals: how often a span ran, its summed wall time, and its
/// self time (wall time not covered by its children).
#[derive(Default, Clone, Copy)]
pub struct LayerTime {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// The span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result and the span id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, group, parent);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Starts a span; pair with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, group: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            group,
            parent,
            start: now,
            end: now,
            derived: false,
        });
        self.spans.len() - 1
    }

    /// Ends a span.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Records a span whose times were measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            group,
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            derived: false,
        });
        self.spans.len() - 1
    }

    /// Records `phases` (name, duration) as back-to-back children of
    /// `parent`, starting at the parent's start.
    pub fn derived_children(&mut self, parent: SpanId, phases: &[(&'static str, Duration)]) {
        let group = self.spans[parent].group;
        let mut at = self.spans[parent].start;
        for &(name, dur) in phases {
            self.spans.push(Span {
                name,
                group,
                parent: Some(parent),
                start: at,
                end: at + dur,
                derived: true,
            });
            at += dur;
        }
    }

    /// Wall duration of one span, milliseconds.
    pub fn duration_ms(&self, id: SpanId) -> f64 {
        crate::util::ms(self.spans[id].end.saturating_sub(self.spans[id].start))
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += crate::util::ms(s.end.saturating_sub(s.start));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = crate::util::ms(s.end.saturating_sub(s.start));
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ms += total;
            e.self_ms += (total - child_ms[i]).max(0.0);
        }
        out
    }

    /// Renders the per-name table (count, total, self time, self share).
    pub fn layer_table(&self) -> String {
        let times = self.layer_times();
        let all_self: f64 = times.values().map(|t| t.self_ms).sum();
        let mut out = format!(
            "{:<24} {:>9} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "self%"
        );
        for (name, t) in &times {
            let share = if all_self > 0.0 {
                100.0 * t.self_ms / all_self
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{name:<24} {:>9} {:>12.3} {:>12.3} {share:>7.2}",
                t.count, t.total_ms, t.self_ms
            );
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"derived\":{}}}",
                s.name,
                s.group,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.derived
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.open("run", 1, None);
        t.derived_children(root, &[("a", Duration::from_millis(2))]);
        std::thread::sleep(Duration::from_millis(5));
        t.close(root);
        let times = t.layer_times();
        let run = times["run"];
        assert!((run.total_ms - run.self_ms - 2.0).abs() < 1e-6);
        assert_eq!(times["a"].count, 1);
    }
}
