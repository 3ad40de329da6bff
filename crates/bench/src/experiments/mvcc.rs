//! Experiment E20: epoch-pinned MVCC reads vs read-committed under
//! writer churn.
//!
//! The serving tier's contract is that a batch is one consistent cut:
//! the executor pins the epoch once and every shard answers at exactly
//! that instance, while writers record O(1) undo entries around the pin
//! instead of blocking. The obvious worry is the price — does pinning
//! (and the undo rings it retains) cost latency against a weaker
//! read-committed read, which observes each shard's freshest state and
//! offers no cross-shard consistency?
//!
//! Read-committed is not a serving path: it exists here only, as the
//! [`ReadCommitted`] wrapper that forwards a live relation's
//! [`BatchServe`] surface but declines to pin, so the executor
//! evaluates every shard at [`Epoch::LATEST`]. Both series run through
//! a warm [`PooledExecutor`] over the same relation and the batches
//! interleave (pinned, read-committed, pinned, ...), so the two series
//! face the same writer-activity regimes and the measured delta is the
//! pin alone.
//!
//! This experiment serves the same mixed batch both ways at 0, 1 and 4
//! racing writers, reporting p50/p99 per-batch latency side by side plus
//! the high-water undo-ring footprint (`VersionStats`) the pins ever
//! retained. Under churn the consistency proof lives in the
//! `live_serving` property suite — here we only measure.
//!
//! The same sweep backs the `mvcc` bench target, which serializes the
//! comparison to `BENCH_mvcc.json` next to the other perf artifacts.

use crate::table::{fmt_u64, Table};
use pitract_core::epoch::Epoch;
use pitract_engine::batch::{OutputMode, QueryBatch, Routing, WorkerResults};
use pitract_engine::live::LiveRelation;
use pitract_engine::shard::ShardBy;
use pitract_engine::{BatchServe, EngineError, PooledExecutor};
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Queries per batch in the sweep workload (also serialized into the
/// `BENCH_mvcc.json` perf artifact).
pub const MVCC_BATCH_QUERIES: i64 = 256;

/// Shard count the live relation is built with.
pub const MVCC_SHARDS: usize = 4;

/// Writer-thread counts the sweep measures.
pub const MVCC_WRITERS: [usize; 3] = [0, 1, 4];

/// The read-committed baseline: a live relation served with **no**
/// epoch pin. `pin_epoch` keeps the trait default (`None`), so the
/// executor evaluates each shard at [`Epoch::LATEST`] — whatever state
/// its read lock finds — and a multi-shard batch racing writers may see
/// different shards at different instants. Everything else forwards.
#[derive(Debug)]
pub struct ReadCommitted(pub Arc<LiveRelation>);

impl BatchServe for ReadCommitted {
    fn route_shards(&self, queries: &[SelectionQuery]) -> Result<Routing, EngineError> {
        self.0.route_shards(queries)
    }

    fn shard_count(&self) -> usize {
        BatchServe::shard_count(&*self.0)
    }

    fn eval_shard<M: OutputMode>(
        &self,
        shard: usize,
        at: Epoch,
        queries: &[SelectionQuery],
        assigned: &[usize],
    ) -> WorkerResults<M::Out> {
        self.0.eval_shard::<M>(shard, at, queries, assigned)
    }

    fn id_map<T>(&self, shard: usize, read: impl FnOnce(&[usize]) -> T) -> T {
        self.0.id_map(shard, read)
    }
}

/// One measured point: both read paths at a fixed writer count.
#[derive(Debug, Clone)]
pub struct MvccSample {
    /// Racing writer threads during the measurement.
    pub writers: usize,
    /// Median per-batch seconds, epoch-pinned (one consistent cut).
    pub pinned_p50_seconds: f64,
    /// 99th-percentile per-batch seconds, epoch-pinned.
    pub pinned_p99_seconds: f64,
    /// Queries per second, epoch-pinned (from the median).
    pub pinned_qps: f64,
    /// Median per-batch seconds on the unpinned read-committed path.
    pub read_committed_p50_seconds: f64,
    /// 99th-percentile per-batch seconds, read-committed.
    pub read_committed_p99_seconds: f64,
    /// Queries per second, read-committed (from the median).
    pub read_committed_qps: f64,
    /// High-water count of undo records the pins retained.
    pub max_retained_versions: usize,
    /// High-water row slots held by those retained records.
    pub max_retained_slots: usize,
}

fn workload(n: i64) -> (Relation, QueryBatch) {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 64))])
        .collect();
    let rel = Relation::from_rows(schema, rows).expect("valid rows");
    // Mixed points / ranges / conjunctions, deliberately covering the
    // volatile key region `>= n` the writers churn in, so the pinned
    // path is exercised where consistency actually matters.
    let batch = QueryBatch::new((0..MVCC_BATCH_QUERIES).map(|k| match k % 4 {
        0 => SelectionQuery::point(0, (k * 997) % (n + n / 8)),
        1 => {
            let lo = (k * 641) % n;
            SelectionQuery::range_closed(0, lo, lo + 200)
        }
        2 => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 64).as_str()),
            SelectionQuery::range_closed(0, (k * 331) % n, (k * 331) % n + 2_000),
        ),
        _ => SelectionQuery::range_closed(0, n - 50, n + 10_000),
    }));
    (rel, batch)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run both read paths on an `n`-row live relation with `batches` timed
/// batches per path at each writer count. Shared by E20 and the `mvcc`
/// bench target.
pub fn mvcc_serving_sweep(n: i64, writer_counts: &[usize], batches: usize) -> Vec<MvccSample> {
    let (rel, batch) = workload(n);
    let oracle: Vec<bool> = batch.queries().iter().map(|q| rel.eval_scan(q)).collect();

    writer_counts
        .iter()
        .map(|&writers| {
            let live = Arc::new(
                LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, MVCC_SHARDS, &[0, 1])
                    .expect("valid sharding spec"),
            );
            let pinned_exec = PooledExecutor::with_default_pool(Arc::clone(&live));
            let rc_exec =
                PooledExecutor::with_default_pool(Arc::new(ReadCommitted(Arc::clone(&live))));
            // Warm both pools outside the timer (no writer is running
            // yet, so both must match the scan oracle).
            let warm = pinned_exec.execute(&batch).expect("valid batch");
            assert_eq!(warm.answers, oracle, "pinned warm-up diverged");
            assert!(
                warm.report.epoch.is_some(),
                "the pinned path records its cut"
            );
            let warm = rc_exec.execute(&batch).expect("valid batch");
            assert_eq!(warm.answers, oracle, "read-committed warm-up diverged");
            assert_eq!(warm.report.epoch, None, "the baseline takes no pin");

            let stop = AtomicBool::new(false);
            let (mut pinned, mut read_committed) = (Vec::new(), Vec::new());
            let (mut max_versions, mut max_slots) = (0usize, 0usize);
            std::thread::scope(|scope| {
                for w in 0..writers {
                    let live = Arc::clone(&live);
                    let stop = &stop;
                    scope.spawn(move || {
                        // Steady insert/delete churn in the volatile key
                        // region: every 4th op deletes the row inserted
                        // 4 ops earlier, so tombstones and undo records
                        // both accumulate.
                        let mut recent: Vec<usize> = Vec::new();
                        let mut i = 0i64;
                        while !stop.load(Ordering::Relaxed) {
                            let key = n + (w as i64) * 1_000_000 + i;
                            let gid = live
                                .insert(vec![Value::Int(key), Value::str("churn")])
                                .expect("valid row");
                            recent.push(gid);
                            if recent.len() > 4 {
                                let victim = recent.remove(0);
                                live.delete(victim).expect("no sink installed");
                            }
                            i += 1;
                        }
                    });
                }

                // Interleave the two paths so both series sample the
                // same writer-activity phases (back-to-back phases
                // would let one path run against writers a prior phase
                // already dammed up behind the shard locks), and
                // alternate which path goes first: each batch leaves
                // the writers dammed behind its read locks, so a fixed
                // order would hand the second path a systematically
                // quieter system.
                for i in 0..batches.max(1) {
                    for leg in 0..2 {
                        if (leg == 0) == (i % 2 == 0) {
                            let t0 = Instant::now();
                            pinned_exec.execute(&batch).expect("valid batch");
                            pinned.push(t0.elapsed().as_secs_f64());
                            let stats = live.version_stats();
                            max_versions = max_versions.max(stats.retained_versions);
                            max_slots = max_slots.max(stats.retained_slots);
                        } else {
                            let t0 = Instant::now();
                            rc_exec.execute(&batch).expect("valid batch");
                            read_committed.push(t0.elapsed().as_secs_f64());
                        }
                    }
                }
                // Footprint probe: the rings trim right back once a
                // batch's pin drops, so sampling between batches reads
                // ~0. Hold one pin against the still-running writers
                // and sample what it actually retains.
                if writers > 0 {
                    let pin = live.pin();
                    for _ in 0..4 {
                        std::thread::yield_now();
                        let stats = live.version_stats();
                        max_versions = max_versions.max(stats.retained_versions);
                        max_slots = max_slots.max(stats.retained_slots);
                    }
                    drop(pin);
                }
                stop.store(true, Ordering::Relaxed);
            });

            pinned.sort_by(f64::total_cmp);
            read_committed.sort_by(f64::total_cmp);
            let pinned_p50 = percentile(&pinned, 0.5);
            let rc_p50 = percentile(&read_committed, 0.5);
            MvccSample {
                writers,
                pinned_p50_seconds: pinned_p50,
                pinned_p99_seconds: percentile(&pinned, 0.99),
                pinned_qps: batch.len() as f64 / pinned_p50,
                read_committed_p50_seconds: rc_p50,
                read_committed_p99_seconds: percentile(&read_committed, 0.99),
                read_committed_qps: batch.len() as f64 / rc_p50,
                max_retained_versions: max_versions,
                max_retained_slots: max_slots,
            }
        })
        .collect()
}

/// E20 — epoch-pinned consistent reads vs read-committed: latency under
/// 0/1/4 racing writers, plus the version-ring memory the pins cost.
pub fn run_e20() -> Table {
    let samples = mvcc_serving_sweep(1 << 15, &MVCC_WRITERS, 24);
    let rows = samples
        .iter()
        .map(|s| {
            vec![
                fmt_u64(s.writers as u64),
                format!("{:.2}", s.pinned_p50_seconds * 1e3),
                format!("{:.2}", s.pinned_p99_seconds * 1e3),
                format!("{:.2}", s.read_committed_p50_seconds * 1e3),
                format!("{:.2}", s.read_committed_p99_seconds * 1e3),
                format!(
                    "{:.2}x",
                    s.pinned_p50_seconds / s.read_committed_p50_seconds
                ),
                fmt_u64(s.max_retained_versions as u64),
                fmt_u64(s.max_retained_slots as u64),
            ]
        })
        .collect();
    let worst = samples
        .iter()
        .map(|s| s.pinned_p50_seconds / s.read_committed_p50_seconds)
        .fold(0.0f64, f64::max);
    Table {
        id: "E20",
        title: "epoch-pinned MVCC cut vs read-committed reads (engine)",
        paper_claim: "a batch is one consistent instance of D, and the pin costs (almost) nothing",
        headers: [
            "writers",
            "pinned p50 ms",
            "pinned p99 ms",
            "rc p50 ms",
            "rc p99 ms",
            "pinned/rc",
            "max versions",
            "max slots",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        verdict: format!(
            "worst pinned/read-committed median ratio {worst:.2}x across {:?} writers; \
             quiescent answers on both paths verified against the scan oracle",
            MVCC_WRITERS
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_measures_both_paths_at_every_writer_count() {
        // Tiny size: the debug-mode smoke run only checks the plumbing.
        let samples = mvcc_serving_sweep(2_000, &[0, 1], 3);
        assert_eq!(samples.len(), 2);
        for s in &samples {
            assert!(s.pinned_p50_seconds > 0.0);
            assert!(s.pinned_p99_seconds >= s.pinned_p50_seconds);
            assert!(s.read_committed_p50_seconds > 0.0);
            assert!(s.pinned_qps > 0.0 && s.read_committed_qps > 0.0);
        }
        assert_eq!(samples[0].writers, 0);
        assert_eq!(samples[1].writers, 1);
    }

    #[test]
    fn e20_runs_and_renders() {
        let t = run_e20();
        let s = t.render();
        assert!(s.contains("E20"));
        assert_eq!(t.rows.len(), MVCC_WRITERS.len());
    }
}
