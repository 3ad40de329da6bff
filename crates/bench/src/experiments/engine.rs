//! Experiment E15: sharded batch serving — the NC claim with real threads.
//!
//! The step-metered experiments certify the polylog *work* of every query;
//! this one exercises the parallel dimension: one batch of mixed
//! point/range/conjunction queries served by a warm
//! [`PooledExecutor`] across 1/2/4/8 shards, wall-clock timed, and
//! verified against the scan oracle.
//!
//! The same sweep backs the `sharding` bench target, which serializes the
//! shard-count → throughput curve to `BENCH_engine.json` so CI keeps a
//! machine-readable perf trajectory across PRs.

use crate::table::{fmt_u64, Table};
use pitract_engine::batch::QueryBatch;
use pitract_engine::shard::{ShardBy, ShardedRelation};
use pitract_engine::PooledExecutor;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use std::sync::Arc;
use std::time::Instant;

/// One measured point of the shard sweep.
#[derive(Debug, Clone)]
pub struct ShardSample {
    /// Shard count S.
    pub shards: usize,
    /// Workers the executor sized itself to for this S
    /// (`min(S, available parallelism)`).
    pub workers: usize,
    /// Wall-clock seconds for one batch execution (best of the timed
    /// repetitions).
    pub batch_seconds: f64,
    /// Queries served per second at that shard count.
    pub queries_per_second: f64,
    /// Total metered steps across the batch (work, not wall time).
    pub total_steps: u64,
}

/// Queries per batch in the sweep workload (also serialized into the
/// `BENCH_engine.json` perf artifact).
pub const BATCH_QUERIES: i64 = 512;

fn workload(n: i64) -> (Relation, QueryBatch) {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 64))])
        .collect();
    let rel = Relation::from_rows(schema, rows).expect("valid rows");
    let batch = QueryBatch::new((0..BATCH_QUERIES).map(|k| match k % 4 {
        0 => SelectionQuery::point(0, (k * 997) % (n + n / 8)),
        1 => {
            let lo = (k * 641) % n;
            SelectionQuery::range_closed(0, lo, lo + 200)
        }
        2 => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 64).as_str()),
            SelectionQuery::range_closed(0, (k * 331) % n, (k * 331) % n + 2_000),
        ),
        _ => SelectionQuery::point(0, n + k),
    }));
    (rel, batch)
}

/// Run the shard sweep on an `n`-row relation with `reps` timed
/// repetitions per shard count, verifying every batch against the scan
/// oracle. Shared by E15 and the `sharding` bench target.
pub fn shard_throughput_sweep(n: i64, shard_counts: &[usize], reps: usize) -> Vec<ShardSample> {
    let (rel, batch) = workload(n);
    let oracle: Vec<bool> = batch.queries().iter().map(|q| rel.eval_scan(q)).collect();
    shard_counts
        .iter()
        .map(|&shards| {
            let sharded = ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, shards, &[0, 1])
                .expect("valid sharding spec");
            let exec = PooledExecutor::with_default_pool(Arc::new(sharded));
            // One warm-up batch so worker spin-up (paid once per serving
            // session) isn't billed to the sample.
            let warm = exec.execute(&batch).expect("valid batch");
            assert_eq!(warm.answers, oracle, "warm-up S={shards} diverged");
            let mut best = f64::MAX;
            let mut total_steps = 0u64;
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                let result = exec.execute(&batch).expect("valid batch");
                let dt = t0.elapsed().as_secs_f64();
                assert_eq!(result.answers, oracle, "S={shards} diverged from oracle");
                best = best.min(dt);
                total_steps = result.report.total_steps;
            }
            ShardSample {
                shards,
                workers: exec.stats().workers,
                batch_seconds: best,
                queries_per_second: batch.len() as f64 / best,
                total_steps,
            }
        })
        .collect()
}

/// E15 — sharded batch serving: throughput across 1/2/4/8 shards.
pub fn run_e15() -> Table {
    let samples = shard_throughput_sweep(1 << 16, &[1, 2, 4, 8], 3);
    let base_qps = samples[0].queries_per_second;
    let rows = samples
        .iter()
        .map(|s| {
            vec![
                fmt_u64(s.shards as u64),
                fmt_u64(s.workers as u64),
                format!("{:.2}", s.batch_seconds * 1e3),
                fmt_u64(s.queries_per_second as u64),
                format!("{:.2}x", s.queries_per_second / base_qps),
                fmt_u64(s.total_steps),
            ]
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let best = samples
        .iter()
        .max_by(|a, b| a.queries_per_second.total_cmp(&b.queries_per_second))
        .expect("non-empty sweep");
    Table {
        id: "E15",
        title: "sharded batch serving: 512 mixed queries across S shards (engine)",
        paper_claim: "after PTIME Π(D), queries answer in NC — parallel across shards/threads",
        headers: [
            "shards",
            "workers",
            "batch ms",
            "queries/s",
            "speedup",
            "total steps",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        verdict: format!(
            "best throughput at S={} ({} q/s) on {cores} core(s); answers identical \
             to the scan oracle at every shard count",
            best.shards, best.queries_per_second as u64
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_verifies_and_reports_every_shard_count() {
        // Tiny size: the debug-mode smoke run only checks the plumbing.
        let samples = shard_throughput_sweep(2_000, &[1, 2, 4], 1);
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert!(s.queries_per_second > 0.0);
            assert!(s.total_steps > 0);
            assert!(s.workers >= 1 && s.workers <= s.shards);
        }
    }

    #[test]
    fn e15_runs_and_renders() {
        let t = run_e15();
        let s = t.render();
        assert!(s.contains("E15"));
        assert_eq!(t.rows.len(), 4);
    }
}
