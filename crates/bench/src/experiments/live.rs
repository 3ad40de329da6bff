//! Experiment E17: live serving — batch throughput under concurrent
//! writers.
//!
//! The paper's maintenance requirement (Section 4(7)) is only meaningful
//! if Π(D) keeps answering *while* it is maintained. This experiment
//! serves the E15 mixed query batch on a [`LiveRelation`] behind a warm
//! [`PooledExecutor`] with 0, 1 and
//! 4 concurrent writer threads churning insert/delete traffic against a
//! volatile key region, and reports batch throughput, the update rate
//! sustained alongside it, and the `|CHANGED|` boundedness verdict of
//! all that maintenance. Every batch is verified against the scan oracle
//! over the stable region before a number is reported.
//!
//! The same sweep backs the `live` bench target, which serializes the
//! writer-count → throughput curve to `BENCH_live.json` next to
//! `BENCH_engine.json`.

use crate::table::{fmt_u64, Table};
use pitract_engine::batch::QueryBatch;
use pitract_engine::live::LiveRelation;
use pitract_engine::shard::ShardBy;
use pitract_engine::PooledExecutor;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One measured point of the live sweep.
#[derive(Debug, Clone)]
pub struct LiveSample {
    /// Concurrent writer threads during the measurement.
    pub writers: usize,
    /// Wall-clock seconds for one batch execution (best of the timed
    /// repetitions).
    pub batch_seconds: f64,
    /// Queries served per second at that writer count.
    pub queries_per_second: f64,
    /// Updates applied by the writers per second of measurement, summed
    /// over all writers (0 when `writers == 0`).
    pub updates_per_second: f64,
    /// Worst per-update `work / (|CHANGED| + 1)` ratio of the run's
    /// maintenance (0 when nothing was written).
    pub worst_maintenance_ratio: f64,
}

/// Shards used throughout the sweep.
pub const LIVE_SHARDS: usize = 8;

/// Queries per batch (matches the E15 batch size so the two sweeps are
/// comparable).
pub const LIVE_BATCH_QUERIES: i64 = 512;

fn workload(n: i64) -> (Relation, QueryBatch) {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 64))])
        .collect();
    let rel = Relation::from_rows(schema, rows).expect("valid rows");
    // Stable-region queries only: writers churn keys >= n, so the scan
    // oracle computed on the base relation stays valid mid-churn.
    let batch = QueryBatch::new((0..LIVE_BATCH_QUERIES).map(|k| match k % 3 {
        0 => SelectionQuery::point(0, (k * 997) % n),
        1 => {
            let lo = (k * 641) % n;
            SelectionQuery::range_closed(0, lo, lo + 200)
        }
        _ => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 64).as_str()),
            SelectionQuery::range_closed(0, (k * 331) % n, (k * 331) % n + 2_000),
        ),
    }));
    (rel, batch)
}

/// Run the live sweep on an `n`-row relation: for each writer count,
/// serve `reps` batches while that many writers churn, verifying every
/// batch against the scan oracle. Shared by E17 and the `live` bench
/// target.
pub fn live_throughput_sweep(n: i64, writer_counts: &[usize], reps: usize) -> Vec<LiveSample> {
    let (rel, batch) = workload(n);
    let oracle: Vec<bool> = batch.queries().iter().map(|q| rel.eval_scan(q)).collect();
    writer_counts
        .iter()
        .map(|&writers| {
            let live = Arc::new(
                LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, LIVE_SHARDS, &[0, 1])
                    .expect("valid sharding spec"),
            );
            let exec = PooledExecutor::with_default_pool(Arc::clone(&live));
            // Worker spin-up is paid once per session, outside the timer.
            let warm = exec.execute(&batch).expect("valid batch");
            assert_eq!(warm.answers, oracle, "warm-up diverged from oracle");
            let stop = AtomicBool::new(false);
            let t_run = Instant::now();
            let (best, applied) = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..writers)
                    .map(|w| {
                        let live = &live;
                        let stop = &stop;
                        scope.spawn(move || {
                            let mut round = 0i64;
                            let mut applied = 0u64;
                            // At least one round, however fast the
                            // timed batches finish: a writer that was
                            // scheduled late still wrote.
                            loop {
                                let key = n + (w as i64) * 1_000_000 + round;
                                let gid = live
                                    .insert(vec![Value::Int(key), Value::str("hot")])
                                    .expect("valid row");
                                applied += 1;
                                if round % 2 == 0 {
                                    live.delete(gid).unwrap().expect("just inserted");
                                    applied += 1;
                                }
                                round += 1;
                                if stop.load(Ordering::Relaxed) {
                                    break;
                                }
                            }
                            applied
                        })
                    })
                    .collect();
                let mut best = f64::MAX;
                for _ in 0..reps.max(1) {
                    let t0 = Instant::now();
                    let result = exec.execute(&batch).expect("valid batch");
                    let dt = t0.elapsed().as_secs_f64();
                    assert_eq!(
                        result.answers, oracle,
                        "writers={writers} diverged from oracle"
                    );
                    best = best.min(dt);
                }
                stop.store(true, Ordering::Relaxed);
                let applied: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
                (best, applied)
            });
            let run_seconds = t_run.elapsed().as_secs_f64().max(1e-12);
            LiveSample {
                writers,
                batch_seconds: best,
                queries_per_second: batch.len() as f64 / best,
                updates_per_second: applied as f64 / run_seconds,
                worst_maintenance_ratio: live.boundedness_report().worst_ratio(),
            }
        })
        .collect()
}

/// E17 — live serving: batch throughput with 0/1/4 concurrent writers.
pub fn run_e17() -> Table {
    let samples = live_throughput_sweep(1 << 16, &[0, 1, 4], 3);
    let base_qps = samples[0].queries_per_second;
    let rows = samples
        .iter()
        .map(|s| {
            vec![
                fmt_u64(s.writers as u64),
                format!("{:.2}", s.batch_seconds * 1e3),
                fmt_u64(s.queries_per_second as u64),
                format!("{:.2}x", s.queries_per_second / base_qps.max(1e-12)),
                fmt_u64(s.updates_per_second as u64),
                format!("{:.1}", s.worst_maintenance_ratio),
            ]
        })
        .collect();
    let busiest = samples.last().expect("non-empty sweep");
    Table {
        id: "E17",
        title: "live serving: 512 mixed queries under 0/1/4 concurrent writers (engine)",
        paper_claim: "maintenance charges |CHANGED|, not |D| — and serving survives it live",
        headers: [
            "writers",
            "batch ms",
            "queries/s",
            "vs idle",
            "updates/s",
            "worst work/|CHANGED|",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        verdict: format!(
            "with {} writers the node still served {} q/s while absorbing {} updates/s; \
             every batch matched the scan oracle",
            busiest.writers, busiest.queries_per_second as u64, busiest.updates_per_second as u64
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_verifies_and_reports_every_writer_count() {
        // Tiny size: the debug-mode smoke run only checks the plumbing.
        let samples = live_throughput_sweep(2_000, &[0, 1], 1);
        assert_eq!(samples.len(), 2);
        assert!(samples[0].queries_per_second > 0.0);
        assert_eq!(samples[0].updates_per_second, 0.0, "no writers, no updates");
        assert!(samples[1].updates_per_second > 0.0, "the writer wrote");
    }

    #[test]
    fn e17_runs_and_renders() {
        let t = run_e17();
        let s = t.render();
        assert!(s.contains("E17"));
        assert_eq!(t.rows.len(), 3);
    }
}
