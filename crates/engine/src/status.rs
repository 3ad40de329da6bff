//! One status snapshot of what a node is doing: [`NodeStatus`].
//!
//! The metrics rule, stated once. **An event is counted or timed where
//! it happens**: `wal_*`, `pool_batch_micros`,
//! `pool_admission_wait_micros`, `engine_plans_total`,
//! `engine_{batches,queries,steps,updates}_total`,
//! `mvcc_rollback_entries` and `repl_*`. **State is read when someone
//! calls `status()`** ([`BatchServe::status`](crate::pool::BatchServe::status),
//! which [`PooledExecutor::status`](crate::pool::PooledExecutor::status)
//! extends with the pool): no pin, release, undo, trim, submit, dequeue
//! or admit path touches a gauge. [`NodeStatus::publish`] is the one
//! place a status series is named or set. A scraper calls
//! `status().publish(&recorder)` and then renders; publishing again
//! changes nothing at quiescence, since gauges are set and totals are
//! counters raised to the value read.

use crate::live::VersionStats;
use crate::pool::PoolStats;
use pitract_core::lockdep::LockdepStats;
use pitract_incremental::bounded::BoundednessTotals;
use pitract_obs::Recorder;

/// What a node is doing right now, read in one call; a field is `None`
/// where the node has no such state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeStatus {
    /// MVCC epochs, pins and retained versions (`mvcc_*`).
    pub versions: Option<VersionStats>,
    /// The executor's pool: sizing, load and admission totals (`pool_*`).
    pub pool: Option<PoolStats>,
    /// `|CHANGED|` totals of update maintenance (`engine_maintenance_*`).
    pub maintenance: Option<BoundednessTotals>,
    /// `|CHANGED|` totals of version retention (`mvcc_retention_*`).
    pub retention: Option<BoundednessTotals>,
    /// Process-wide lock-order checking totals (`lockdep_*`).
    pub lockdep: Option<LockdepStats>,
    /// A durable node's WAL frontier (`wal_*`).
    pub wal: Option<WalStatus>,
    /// A follower's position against its primary (`replication_*`).
    pub replica: Option<CatchUpReport>,
}

/// A durable node's WAL frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStatus {
    /// Every record below this LSN is durable.
    pub durable_lsn: u64,
    /// The latest confirmed checkpoint mark: compaction drops below it.
    pub checkpoint_mark: u64,
}

/// Typed catch-up progress: where a follower stands against its primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatchUpReport {
    /// The first primary LSN the follower's served state does not cover.
    pub applied_lsn: u64,
    /// The primary's durable frontier at the time of the report.
    pub primary_lsn: u64,
    /// `primary_lsn − applied_lsn`: the log positions the cut trails by.
    pub lag: u64,
}

impl NodeStatus {
    /// Set every present field in `recorder`: state as gauges, monotonic
    /// totals as counters raised to the value read.
    pub fn publish(&self, recorder: &Recorder) {
        let gauge = |name: &str, v: u64| recorder.gauge(name).set(v.min(i64::MAX as u64) as i64);
        let total = |name: &str, value: u64| recorder.counter(name).raise_to(value);
        if let Some(v) = &self.versions {
            gauge("mvcc_current_epoch", v.current_epoch.get());
            gauge("mvcc_watermark", v.watermark.get());
            gauge("mvcc_pins", v.pins as u64);
            gauge("mvcc_retained_versions", v.retained_versions as u64);
            gauge("mvcc_retained_slots", v.retained_slots as u64);
        }
        if let Some(p) = &self.pool {
            gauge("pool_workers", p.workers as u64);
            gauge("pool_max_inflight", p.max_inflight as u64);
            gauge("pool_inflight", p.inflight as u64);
            gauge("pool_queued_jobs", p.queued_jobs as u64);
            total("pool_batches_admitted_total", p.batches_admitted);
            total("pool_admission_waits_total", p.admission_waits);
            let waited = u64::try_from(p.total_admission_wait.as_micros()).unwrap_or(u64::MAX);
            total("pool_admission_wait_micros_total", waited);
        }
        for (prefix, totals) in [
            ("engine_maintenance", &self.maintenance),
            ("mvcc_retention", &self.retention),
        ] {
            if let Some(t) = totals {
                total(&format!("{prefix}_updates_total"), t.updates);
                total(&format!("{prefix}_changed_total"), t.changed);
                total(&format!("{prefix}_work_total"), t.work);
                let milli = (t.worst_ratio * 1000.0) as u64;
                gauge(&format!("{prefix}_worst_ratio_milli"), milli);
            }
        }
        if let Some(l) = &self.lockdep {
            total("lockdep_checks_total", l.checks);
            total("lockdep_violations_total", l.violations);
        }
        if let Some(w) = &self.wal {
            gauge("wal_durable_lsn", w.durable_lsn);
            gauge("wal_checkpoint_mark", w.checkpoint_mark);
        }
        if let Some(r) = &self.replica {
            gauge("replication_applied_lsn", r.applied_lsn);
            gauge("replication_primary_lsn", r.primary_lsn);
            gauge("replication_lag_lsn", r.lag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_empty_status_publishes_nothing() {
        let recorder = Recorder::new();
        NodeStatus::default().publish(&recorder);
        assert!(recorder.snapshot().is_empty());
    }
}
