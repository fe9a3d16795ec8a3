//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer of the program. Every span carries its name, start, end,
//! parent span and iteration id; parents are passed explicitly, so a span
//! opened on one worker thread may have children on several others. The
//! spans stay in memory until the run ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; [`ROOT`] means "no parent".
pub type SpanId = u64;

/// The parent id of a top-level span.
pub const ROOT: SpanId = 0;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub iter: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder shared by every thread of one traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    iter: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            iter: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Tags spans opened from now on with iteration `iter`.
    pub fn set_iter(&self, iter: u32) {
        self.iter.store(iter, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so that work it starts can name it as parent.
    pub fn span<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let iter = self.iter.load(Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span buffer lock").push(Span {
            id,
            parent,
            name,
            iter,
            start_ns,
            end_ns,
        });
        out
    }

    /// Removes and returns every span recorded so far, ordered by start.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer lock"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(cs, ce)| ce - cs)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children running at the same time on several
/// threads cover their union once, and a child reaching past its parent
/// counts only inside the parent's interval.
pub fn self_times(spans: &[Span]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    let by_id: HashMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for span in spans {
        if let Some(parent) = by_id.get(&span.parent) {
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if start < end {
                children.entry(parent.id).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.remove(&s.id).map_or(0, union_len);
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Calls and summed self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
}

impl LayerTotals {
    pub fn ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Per-name totals over `spans`.
pub fn layer_totals(spans: &[Span]) -> HashMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut totals: HashMap<&'static str, LayerTotals> = HashMap::new();
    for span in spans {
        let t = totals.entry(span.name).or_default();
        t.calls += 1;
        t.self_ns += selfs.get(&span.id).copied().unwrap_or(0);
    }
    totals
}

/// Share of each top-level span's duration that its descendants account
/// for, i.e. one minus its self share; summed over every top-level span.
pub fn coverage(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut dur, mut own) = (0u64, 0u64);
    for span in spans.iter().filter(|s| s.parent == ROOT) {
        dur += span.duration_ns();
        own += selfs.get(&span.id).copied().unwrap_or(0);
    }
    if dur == 0 {
        0.0
    } else {
        1.0 - own as f64 / dur as f64
    }
}

/// The spans as JSON lines, for writing out at the end of a run.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"iter\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.name, s.iter, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            iter: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn overlapping_children_on_two_threads_are_covered_once() {
        // A parent fans out to two workers whose children overlap in time.
        let spans = vec![
            span(1, ROOT, "grid", 0, 100),
            span(2, 1, "cell", 10, 50),
            span(3, 1, "cell", 30, 80),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 70, "children cover [10, 80) once");
        assert_eq!(selfs[&2], 40);
        assert_eq!(selfs[&3], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span(1, ROOT, "grid", 0, 100),
            span(2, 1, "cell", 90, 130),
            span(3, 1, "cell", 0, 5),
            span(4, 1, "cell", 0, 5),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 10 - 5);
    }

    #[test]
    fn grandchildren_count_against_their_own_parent_only() {
        let spans = vec![
            span(1, ROOT, "iter", 0, 100),
            span(2, 1, "cell", 0, 60),
            span(3, 2, "score", 10, 40),
            span(4, 1, "commit", 70, 80),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(totals["iter"].self_ns, 100 - 60 - 10);
        assert_eq!(totals["cell"].self_ns, 60 - 30);
        assert_eq!(totals["score"].self_ns, 30);
        assert!((coverage(&spans) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_parents_across_threads() {
        let tracer = Tracer::new();
        tracer.set_iter(3);
        tracer.span("iter", ROOT, |root| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| tracer.span("cell", root, |_| ()));
                }
            });
        });
        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "iter").expect("root span");
        assert!(spans
            .iter()
            .filter(|s| s.name == "cell")
            .all(|s| s.parent == root.id && s.iter == 3));
        assert!(tracer.take().is_empty());
    }
}
