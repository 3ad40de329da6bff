//! Spans recorded by the benchmark's own code around each call across a
//! layer boundary.
//!
//! A span is `{id, parent, request, name, start_ns, end_ns}` plus the
//! counts measured at that boundary (`steps`, `rows`, `records`,
//! `bytes`), so ratios are taken where the work happens. Every span of
//! one batch or cycle shares a `request` id. Spans go into a vector
//! allocated before the timed region and are written out as JSON lines
//! only after the last timed operation. A span's *self time* is its
//! duration minus the part its children cover.
//!
//! The untraced run uses a disabled tracer: `begin`/`end` return
//! without reading the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Counts riding on a span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Metered evaluation steps.
    pub steps: u64,
    /// Rows or answers produced.
    pub rows: u64,
    /// Log records or updates handled.
    pub records: u64,
    /// Bytes moved.
    pub bytes: u64,
}

impl Counts {
    /// `n` records (updates, queries) and nothing else.
    pub fn records(n: usize) -> Counts {
        Counts {
            records: n as u64,
            ..Counts::default()
        }
    }

    /// `records` records making up `bytes` bytes.
    pub fn moved(records: usize, bytes: u64) -> Counts {
        Counts {
            records: records as u64,
            bytes,
            ..Counts::default()
        }
    }
}

/// One recorded span. `parent == 0` marks a request's root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, never 0.
    pub id: u32,
    /// The span that caused this one, or 0.
    pub parent: u32,
    /// The batch or cycle this span belongs to.
    pub request: u32,
    /// `layer.call`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Counts measured at this boundary.
    pub counts: Counts,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has begun; hand it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: usize,
    /// The span's id, for its children's `parent`. 0 when untraced.
    pub id: u32,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    /// High bits set per generator thread so ids never collide.
    id_base: u32,
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            spans: Vec::new(),
            id_base: 0,
        }
    }

    /// A recording tracer for generator thread `thread` (0 or 1) with
    /// room for `capacity` spans, sharing `origin` with its siblings.
    pub fn on(origin: Instant, thread: u32, capacity: usize) -> Self {
        Tracer {
            origin: Some(origin),
            spans: Vec::with_capacity(capacity),
            id_base: thread << 28,
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(origin: Instant) -> u64 {
        u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under `parent` (0 for a request root).
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u32) -> Open {
        let Some(origin) = self.origin else {
            return Open { index: 0, id: 0 };
        };
        let index = self.spans.len();
        let id = self.id_base + index as u32 + 1;
        let start_ns = Self::now_ns(origin);
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Counts::default(),
        });
        Open { index, id }
    }

    /// Close a span, attaching the counts measured at its boundary.
    pub fn end(&mut self, open: Open, counts: Counts) {
        let Some(origin) = self.origin else {
            return;
        };
        let end_ns = Self::now_ns(origin);
        let span = &mut self.spans[open.index];
        span.end_ns = end_ns;
        span.counts = counts;
    }

    /// Hand over everything recorded.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a span buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Spans of this name.
    pub calls: usize,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ self time, ns.
    pub self_ns: u64,
    /// Σ counts.
    pub counts: Counts,
    /// Each span's duration in µs, in buffer order.
    pub durations_us: Vec<f64>,
}

impl Layer {
    /// Mean duration in µs (0 with no calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / self.calls as f64
        }
    }
}

/// Self time per span id: duration minus the union of the children's
/// intervals, clipped to the parent's own interval.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Aggregate a span buffer by span name (durations keep buffer order).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let layer = layers.entry(s.name).or_default();
        layer.calls += 1;
        layer.total_ns += s.dur_ns();
        layer.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
        layer.counts.steps += s.counts.steps;
        layer.counts.rows += s.counts.rows;
        layer.counts.records += s.counts.records;
        layer.counts.bytes += s.counts.bytes;
        layer.durations_us.push(s.dur_ns() as f64 / 1e3);
    }
    layers
}

/// Write the buffer as JSON lines, one span per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\
             \"end_ns\":{},\"steps\":{},\"rows\":{},\"records\":{},\"bytes\":{}}}",
            s.id,
            s.parent,
            s.request,
            s.name,
            s.start_ns,
            s.end_ns,
            s.counts.steps,
            s.counts.rows,
            s.counts.records,
            s.counts.bytes
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
            counts: Counts::default(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "request", 0, 100),
            // Two overlapping children cover [10, 60) once, not twice.
            span(2, 1, "a", 10, 50),
            span(3, 1, "b", 40, 60),
            // A grandchild only reduces its own parent.
            span(4, 2, "c", 20, 30),
            // A child overhanging its parent is clipped to it.
            span(5, 1, "d", 90, 130),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 10);
        assert_eq!(selfs[&5], 40);
    }

    #[test]
    fn layers_sum_calls_durations_and_counts() {
        let mut spans = vec![span(1, 0, "x", 0, 10), span(2, 0, "x", 20, 50)];
        spans[1].counts.steps = 7;
        let layers = by_name(&spans);
        let x = &layers["x"];
        assert_eq!((x.calls, x.total_ns, x.self_ns), (2, 40, 40));
        assert_eq!(x.counts.steps, 7);
        assert_eq!(x.durations_us, vec![0.01, 0.03]);
        assert_eq!(x.mean_us(), 0.02);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert!(!t.enabled());
        let open = t.begin("x", 0, 1);
        assert_eq!(open.id, 0);
        t.end(open, Counts::default());
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn recorded_spans_nest_and_keep_thread_ids_apart() {
        let origin = Instant::now();
        let mut a = Tracer::on(origin, 0, 8);
        let mut b = Tracer::on(origin, 1, 8);
        let root = a.begin("request", 0, 9);
        let child = a.begin("call", root.id, 9);
        a.end(child, Counts::records(3));
        a.end(root, Counts::default());
        let other = b.begin("request", 0, 9);
        b.end(other, Counts::default());
        let spans = a.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].counts.records, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_ne!(spans[0].id, b.into_spans()[0].id);
    }
}
