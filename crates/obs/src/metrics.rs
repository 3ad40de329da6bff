//! Atomic metric primitives and the registry that names them.
//!
//! Three instrument kinds, all lock-free on the record path:
//!
//! * [`Counter`] — monotonically non-decreasing `u64` (events, bytes).
//! * [`Gauge`] — signed point-in-time value (queue depth, live pins),
//!   set from a status read.
//! * [`Histogram`] — fixed base-2 log buckets over `u64` samples
//!   (latencies in µs, batch sizes). Bucket `i` holds samples with
//!   `2^(i-1) < v ≤ 2^i`, so boundaries are *exact at powers of two* and
//!   merging two histograms is plain bucket-wise addition.
//!
//! Handles are cheap clones of an `Option<Arc<cell>>`; the `None` (no-op)
//! form costs one branch per operation, which is what lets instrumented
//! constructors default to disabled without a measurable hot-path tax.
//!
//! Series names follow Prometheus conventions and may carry a label set
//! inline: `engine_plans_total{path="full-scan"}`. The registry treats the
//! whole string as the key; the exporter splits base name from labels.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Number of histogram buckets. Bucket `i < 63` covers samples `v` with
/// `v ≤ 2^i` (and `v > 2^(i-1)` for `i > 0`); the last bucket is `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Index of the bucket a sample lands in.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        // ceil(log2(v)) — exact at powers of two: 2^k lands in bucket k.
        let idx = 64 - (v - 1).leading_zeros() as usize;
        idx.min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`, or `None` for the `+Inf` bucket.
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    (i < HISTOGRAM_BUCKETS - 1).then(|| 1u64 << i)
}

#[derive(Debug, Default)]
pub(crate) struct CounterCell {
    value: AtomicU64,
}

#[derive(Debug, Default)]
pub(crate) struct GaugeCell {
    value: AtomicI64,
}

#[derive(Debug)]
pub(crate) struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Monotonic event counter. Cloning shares the underlying cell; the
/// default value is a no-op handle.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// A disabled handle: every operation is a single-branch no-op.
    pub const fn noop() -> Self {
        Counter { cell: None }
    }

    pub(crate) fn from_cell(cell: Arc<CounterCell>) -> Self {
        Counter { cell: Some(cell) }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raise the counter to `total` if it is currently below it (no-op
    /// otherwise). This is how externally-accumulated totals — a stats
    /// struct that kept its own atomic — publish into the registry while
    /// keeping the series monotonic.
    #[inline]
    pub fn raise_to(&self, total: u64) {
        if let Some(cell) = &self.cell {
            cell.value.fetch_max(total, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// Signed point-in-time gauge. Cloning shares the cell; default is no-op.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// A disabled handle.
    pub const fn noop() -> Self {
        Gauge { cell: None }
    }

    pub(crate) fn from_cell(cell: Arc<GaugeCell>) -> Self {
        Gauge { cell: Some(cell) }
    }

    /// Set to an absolute value — the one write: a gauge carries state
    /// read at publish time, never a running delta.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.cell {
            cell.value.store(v, Ordering::Relaxed);
        }
    }
}

/// Base-2 log-bucket histogram of `u64` samples. Cloning shares the cell;
/// default is no-op.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// A disabled handle.
    pub const fn noop() -> Self {
        Histogram { cell: None }
    }

    pub(crate) fn from_cell(cell: Arc<HistogramCell>) -> Self {
        Histogram { cell: Some(cell) }
    }

    /// Whether this handle records anywhere (false for the no-op form).
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum.fetch_add(v, Ordering::Relaxed);
            cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a duration in microseconds (saturating).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if self.cell.is_some() {
            self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        }
    }

    /// Point-in-time copy of the counts (empty snapshot for no-op).
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.cell {
            None => HistogramSnapshot::default(),
            Some(cell) => cell.snapshot(),
        }
    }
}

impl HistogramCell {
    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Point-in-time copy of one histogram: total count, total sum, and the
/// per-bucket (non-cumulative) counts, `buckets.len() == HISTOGRAM_BUCKETS`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Per-bucket sample counts (not cumulative; the exporter cumulates).
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Record a sample into this snapshot (used to build expected values
    /// in tests and to fold sequential baselines).
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.buckets[bucket_index(v)] += 1;
    }

    /// Bucket-wise merge. Associative and commutative: histograms recorded
    /// on different threads or shards combine into the same totals in any
    /// order.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Upper bound of the bucket holding the `q`-th sample
    /// (`q` clamped to `0.0..=1.0`): a conservative quantile estimate,
    /// exact to within one power-of-two bucket. Returns 0 when empty and
    /// `u64::MAX` when the rank lands in the open top bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Thread-safe, name-keyed home for every instrument. Lookup registers on
/// first use; handles obtained from the same name share one cell. Names
/// are kept in sorted order so exports are deterministic.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<CounterCell>>>,
    gauges: RwLock<BTreeMap<String, Arc<GaugeCell>>>,
    histograms: RwLock<BTreeMap<String, Arc<HistogramCell>>>,
}

/// Register-or-get a cell by name in one of the kind maps. A poisoned
/// lock (a panic while holding the registry write lock) degrades to a
/// no-op handle rather than propagating the panic into the caller.
fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Option<Arc<T>> {
    if let Ok(read) = map.read() {
        if let Some(cell) = read.get(name) {
            return Some(Arc::clone(cell));
        }
    }
    let mut write = map.write().ok()?;
    Some(Arc::clone(
        write.entry(name.to_string()).or_insert_with(Arc::default),
    ))
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter handle for `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        intern(&self.counters, name).map_or_else(Counter::noop, Counter::from_cell)
    }

    /// Gauge handle for `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        intern(&self.gauges, name).map_or_else(Gauge::noop, Gauge::from_cell)
    }

    /// Histogram handle for `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        intern(&self.histograms, name).map_or_else(Histogram::noop, Histogram::from_cell)
    }

    /// Point-in-time copy of every registered series, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self.counters.read().map_or_else(
            |_| Vec::new(),
            |m| {
                m.iter()
                    .map(|(k, v)| (k.clone(), v.value.load(Ordering::Relaxed)))
                    .collect()
            },
        );
        let gauges = self.gauges.read().map_or_else(
            |_| Vec::new(),
            |m| {
                m.iter()
                    .map(|(k, v)| (k.clone(), v.value.load(Ordering::Relaxed)))
                    .collect()
            },
        );
        let histograms = self.histograms.read().map_or_else(
            |_| Vec::new(),
            |m| m.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
        );
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One consistent-enough view of every registered series: the single
/// source of truth behind the Prometheus and JSON exporters and the
/// unified replacement for ad-hoc per-subsystem stats structs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// True when no series are registered at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Value of a counter by exact series name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of a gauge by exact series name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram snapshot by exact series name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_exact_at_powers() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), Some(1));
        assert_eq!(bucket_upper_bound(10), Some(1024));
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn quantile_returns_bucket_upper_bounds() {
        let mut h = HistogramSnapshot::default();
        assert_eq!(h.quantile(0.99), 0, "empty histogram");
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        // Nine of ten samples sit in the first bucket (≤ 1); the tenth
        // lands in the bucket whose upper bound is 1024.
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.9), 1);
        assert_eq!(h.quantile(0.99), 1024);
        assert_eq!(h.quantile(1.0), 1024);
        let mut top = HistogramSnapshot::default();
        top.record(u64::MAX);
        assert_eq!(top.quantile(0.5), u64::MAX, "open top bucket");
    }

    #[test]
    fn registry_shares_cells_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.add(2);
        b.inc();
        assert_eq!(reg.counter("x_total").get(), 3);
        reg.gauge("depth").set(5);
        assert_eq!(reg.snapshot().gauge("depth"), Some(5));
    }

    #[test]
    fn noop_handles_do_nothing() {
        let c = Counter::noop();
        c.inc();
        c.raise_to(10);
        assert_eq!(c.get(), 0);
        let h = Histogram::noop();
        h.record(99);
        assert_eq!(h.snapshot().count, 0);
        assert!(!h.is_enabled());
    }

    #[test]
    fn raise_to_is_monotonic() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("published_total");
        c.raise_to(10);
        c.raise_to(7);
        assert_eq!(c.get(), 10);
        c.raise_to(12);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn snapshot_lists_sorted_names() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").inc();
        reg.counter("a_total").inc();
        reg.histogram("h").record(3);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a_total", "b_total"]);
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.histogram("h").unwrap().sum, 3);
    }
}
