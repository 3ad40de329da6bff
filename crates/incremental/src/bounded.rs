//! |CHANGED|-based accounting for incremental algorithms.
//!
//! Ramalingam & Reps: charge an incremental algorithm against
//! `|CHANGED| = |ΔD| + |ΔO|`, the part of the cost *inherent* to the
//! update. Every maintenance structure in this crate emits one
//! [`UpdateRecord`] per applied change; [`BoundednessReport`] folds a
//! run into running sums and answers "was the measured work a function
//! of |CHANGED| (times a constant), or did it secretly scale with |D|?"
//! — the E10 verdict. The report keeps no record list: its size is
//! fixed however many updates it has seen.

/// Cost record for one applied update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateRecord {
    /// Size of the input change |ΔD| (e.g. 1 for a single edge insert).
    pub delta_input: u64,
    /// Size of the output change |ΔO| (e.g. newly reachable nodes).
    pub delta_output: u64,
    /// Work actually performed by the incremental algorithm.
    pub work: u64,
}

impl UpdateRecord {
    /// `|CHANGED| = |ΔD| + |ΔO|`.
    pub fn changed(&self) -> u64 {
        self.delta_input + self.delta_output
    }

    /// `work / (|CHANGED| + 1)`, the per-update ratio the report's
    /// worst case is taken over.
    fn ratio(&self) -> f64 {
        self.work as f64 / (self.changed() as f64 + 1.0)
    }
}

/// Running sums over a run of updates: counts, totals, the extremes of
/// the per-update work and the worst per-update ratio.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BoundednessReport {
    updates: u64,
    delta_input: u64,
    delta_output: u64,
    work: u64,
    min_work: u64,
    max_work: u64,
    worst_ratio: f64,
}

impl BoundednessReport {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one update's record into the sums.
    pub fn push(&mut self, r: UpdateRecord) {
        self.min_work = if self.updates == 0 {
            r.work
        } else {
            self.min_work.min(r.work)
        };
        self.max_work = self.max_work.max(r.work);
        self.updates += 1;
        self.delta_input += r.delta_input;
        self.delta_output += r.delta_output;
        self.work += r.work;
        self.worst_ratio = self.worst_ratio.max(r.ratio());
    }

    /// Number of recorded updates.
    pub fn len(&self) -> usize {
        self.updates as usize
    }

    /// Is the report empty?
    pub fn is_empty(&self) -> bool {
        self.updates == 0
    }

    /// Total work across the run.
    pub fn total_work(&self) -> u64 {
        self.work
    }

    /// Total |CHANGED| across the run.
    pub fn total_changed(&self) -> u64 {
        self.delta_input + self.delta_output
    }

    /// Total |ΔD| across the run.
    pub fn total_delta_input(&self) -> u64 {
        self.delta_input
    }

    /// Total |ΔO| across the run.
    pub fn total_delta_output(&self) -> u64 {
        self.delta_output
    }

    /// The least work any one update cost (0 for an empty report).
    pub fn min_work(&self) -> u64 {
        self.min_work
    }

    /// The most work any one update cost (0 for an empty report).
    pub fn max_work(&self) -> u64 {
        self.max_work
    }

    /// **Amortized boundedness**: total work ≤ `c · (total |CHANGED| + 1)`.
    /// Amortization is the honest notion for insertion-only maintenance
    /// (one update may pay for work that later updates then skip).
    pub fn is_amortized_bounded(&self, c: f64) -> bool {
        (self.total_work() as f64) <= c * (self.total_changed() as f64 + 1.0)
    }

    /// **Per-update boundedness**: every record individually satisfies
    /// `work ≤ c · (|CHANGED| + 1)`, i.e. the worst ratio is at most
    /// `c`. Stricter; fails for algorithms that are only
    /// amortized-bounded.
    pub fn is_per_update_bounded(&self, c: f64) -> bool {
        self.worst_ratio <= c
    }

    /// The worst per-update ratio `work / (|CHANGED| + 1)` — reported by
    /// the E10 table.
    pub fn worst_ratio(&self) -> f64 {
        self.worst_ratio
    }

    /// The run-level totals.
    pub fn totals(&self) -> BoundednessTotals {
        BoundednessTotals {
            updates: self.updates,
            changed: self.total_changed(),
            work: self.total_work(),
            worst_ratio: self.worst_ratio(),
        }
    }
}

/// The run-level totals of a report ([`BoundednessReport::totals`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BoundednessTotals {
    /// Recorded updates.
    pub updates: u64,
    /// Total |CHANGED|.
    pub changed: u64,
    /// Total work.
    pub work: u64,
    /// The worst per-update `work / (|CHANGED| + 1)`.
    pub worst_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(di: u64, do_: u64, w: u64) -> UpdateRecord {
        UpdateRecord {
            delta_input: di,
            delta_output: do_,
            work: w,
        }
    }

    #[test]
    fn changed_sums_both_deltas() {
        assert_eq!(rec(1, 4, 10).changed(), 5);
        assert_eq!(rec(0, 0, 0).changed(), 0);
    }

    #[test]
    fn bounded_run_passes_both_checks() {
        let mut report = BoundednessReport::new();
        for i in 0..100 {
            report.push(rec(1, i % 5, 2 * (1 + i % 5)));
        }
        assert!(report.is_per_update_bounded(2.0));
        assert!(report.is_amortized_bounded(2.0));
    }

    #[test]
    fn unbounded_run_fails() {
        let mut report = BoundednessReport::new();
        // Work grows with a hidden |D| = 1000 even when nothing changes.
        for _ in 0..50 {
            report.push(rec(1, 0, 1000));
        }
        assert!(!report.is_per_update_bounded(10.0));
        assert!(!report.is_amortized_bounded(10.0));
    }

    #[test]
    fn amortized_but_not_per_update() {
        let mut report = BoundednessReport::new();
        // One expensive update whose output change is charged to others:
        // 9 updates with |ΔO|=10, work 1; one with |ΔO|=0, work 90.
        for _ in 0..9 {
            report.push(rec(1, 10, 1));
        }
        report.push(rec(1, 0, 90));
        assert!(!report.is_per_update_bounded(2.0));
        assert!(report.is_amortized_bounded(2.0));
    }

    #[test]
    fn worst_ratio_identifies_the_spike() {
        let mut report = BoundednessReport::new();
        report.push(rec(1, 1, 2)); // ratio 2/3
        report.push(rec(1, 0, 50)); // ratio 25
        assert!((report.worst_ratio() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_trivially_bounded() {
        let report = BoundednessReport::new();
        assert!(report.is_per_update_bounded(1.0));
        assert!(report.is_amortized_bounded(1.0));
        assert_eq!(report.worst_ratio(), 0.0);
        assert_eq!((report.min_work(), report.max_work()), (0, 0));
    }

    #[test]
    fn running_sums_match_the_records_folded_in() {
        let records = [rec(1, 3, 9), rec(2, 0, 4), rec(1, 1, 30), rec(0, 5, 6)];
        let mut report = BoundednessReport::new();
        for r in records {
            report.push(r);
        }
        assert_eq!(report.len(), 4);
        assert_eq!(report.total_delta_input(), 4);
        assert_eq!(report.total_delta_output(), 9);
        assert_eq!(report.total_changed(), 13);
        assert_eq!(report.total_work(), 49);
        assert_eq!((report.min_work(), report.max_work()), (4, 30));
        assert_eq!(report.worst_ratio(), 10.0, "30 / (2 + 1)");
    }
}
