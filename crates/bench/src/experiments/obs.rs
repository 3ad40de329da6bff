//! Observability overhead: what the recorder costs the serving path.
//!
//! The whole design premise of `pitract-obs` is that a **disabled**
//! recorder (the default every config carries) leaves the hot path
//! untouched — each metric touch is one `Option` branch, no clock
//! reads, no allocation. This sweep runs the E15 pooled-batch workload
//! and the E20 MVCC epoch-pinned workload twice each — once with the
//! default (disabled-recorder) `PoolConfig`, once with a live recorder
//! in `PoolConfig::recorder` and on the relation — verifies every answer
//! against the scan oracle, and reports the enabled/disabled ratio.
//! The disabled numbers are directly comparable to the committed
//! `BENCH_engine.json` / `BENCH_mvcc.json` trajectories; the artifact
//! lands in `BENCH_obs.json`.

use crate::table::{fmt_u64, Table};
use pitract_engine::batch::QueryBatch;
use pitract_engine::live::LiveRelation;
use pitract_engine::shard::{ShardBy, ShardedRelation};
use pitract_engine::{PoolConfig, PooledExecutor};
use pitract_obs::Recorder;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use std::sync::Arc;
use std::time::Instant;

/// Queries per batch in both workloads.
pub const OBS_BATCH_QUERIES: i64 = 512;

/// Shard count both workloads run at.
pub const OBS_SHARDS: usize = 4;

/// One workload measured with the recorder disabled and enabled.
#[derive(Debug, Clone)]
pub struct ObsSample {
    /// Workload label (`e15-pooled-batch` or `e20-mvcc-pinned`).
    pub workload: &'static str,
    /// Best wall-clock seconds for one batch, default config (disabled
    /// recorder — the no-op hot path every caller gets).
    pub disabled_seconds: f64,
    /// Queries per second with the recorder disabled.
    pub disabled_qps: f64,
    /// Best wall-clock seconds for one batch with a live recorder in the
    /// pool config and on the relation.
    pub enabled_seconds: f64,
    /// Queries per second with the recorder enabled.
    pub enabled_qps: f64,
}

impl ObsSample {
    /// Enabled-over-disabled wall-clock ratio (1.0 = free).
    pub fn overhead(&self) -> f64 {
        self.enabled_seconds / self.disabled_seconds
    }
}

fn workload(n: i64) -> (Relation, QueryBatch) {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 64))])
        .collect();
    let rel = Relation::from_rows(schema, rows).expect("valid rows");
    let batch = QueryBatch::new((0..OBS_BATCH_QUERIES).map(|k| match k % 4 {
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

/// Best-of-`reps` wall clock for `batch` on `exec`, every repetition
/// verified against `oracle`. One warm-up batch is run first so worker
/// spin-up isn't billed to either configuration.
fn measure<R: pitract_engine::BatchServe + Send + Sync>(
    exec: &PooledExecutor<R>,
    batch: &QueryBatch,
    oracle: &[bool],
    reps: usize,
) -> f64 {
    let warm = exec.execute(batch).expect("valid batch");
    assert_eq!(warm.answers, oracle, "warm-up diverged");
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let result = exec.execute(batch).expect("valid batch");
        best = best.min(t0.elapsed().as_secs_f64());
        assert_eq!(result.answers, oracle, "measured batch diverged");
    }
    best
}

/// Run both workloads disabled and enabled with `reps` timed
/// repetitions each (best-of). Shared by E21-style reporting and the
/// `obs` bench target.
pub fn obs_overhead_sweep(n: i64, reps: usize) -> Vec<ObsSample> {
    let (rel, batch) = workload(n);
    let oracle: Vec<bool> = batch.queries().iter().map(|q| rel.eval_scan(q)).collect();
    let config = PoolConfig {
        workers: OBS_SHARDS,
        max_inflight: OBS_SHARDS,
        ..PoolConfig::default()
    };
    let recorder = Recorder::new();
    let observed = PoolConfig {
        recorder: recorder.clone(),
        ..config.clone()
    };
    let qps = |seconds: f64| batch.len() as f64 / seconds;

    // E15 shape: static sharded relation behind the pooled executor.
    let sharded = Arc::new(
        ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, OBS_SHARDS, &[0, 1])
            .expect("valid sharding spec"),
    );
    let disabled = PooledExecutor::new(Arc::clone(&sharded), config.clone());
    let disabled_seconds = measure(&disabled, &batch, &oracle, reps);
    drop(disabled);
    let enabled = PooledExecutor::new(Arc::clone(&sharded), observed.clone());
    let enabled_seconds = measure(&enabled, &batch, &oracle, reps);
    let e15 = ObsSample {
        workload: "e15-pooled-batch",
        disabled_seconds,
        disabled_qps: qps(disabled_seconds),
        enabled_seconds,
        enabled_qps: qps(enabled_seconds),
    };
    drop(enabled);

    // E20 shape: live relation, epoch-pinned path (MVCC instruments on
    // the read side), same executor config.
    let build_live = || {
        LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, OBS_SHARDS, &[0, 1])
            .expect("valid sharding spec")
    };
    let disabled = PooledExecutor::new(Arc::new(build_live()), config);
    let disabled_seconds = measure(&disabled, &batch, &oracle, reps);
    drop(disabled);
    let mut live = build_live();
    live.set_recorder(&recorder);
    let enabled = PooledExecutor::new(Arc::new(live), observed);
    let enabled_seconds = measure(&enabled, &batch, &oracle, reps);
    let e20 = ObsSample {
        workload: "e20-mvcc-pinned",
        disabled_seconds,
        disabled_qps: qps(disabled_seconds),
        enabled_seconds,
        enabled_qps: qps(enabled_seconds),
    };

    vec![e15, e20]
}

/// Observability overhead table: the recorder disabled vs enabled on
/// the E15/E20 serving workloads.
pub fn run_obs_overhead() -> Table {
    let samples = obs_overhead_sweep(1 << 15, 3);
    let rows = samples
        .iter()
        .map(|s| {
            vec![
                s.workload.to_string(),
                fmt_u64(s.disabled_qps as u64),
                fmt_u64(s.enabled_qps as u64),
                format!("{:.3}x", s.overhead()),
            ]
        })
        .collect();
    let worst = samples
        .iter()
        .max_by(|a, b| a.overhead().total_cmp(&b.overhead()))
        .expect("non-empty sweep");
    Table {
        id: "OBS",
        title: "recorder overhead on the serving path (disabled vs enabled)",
        paper_claim: "observability must not tax the Π-bounded hot path",
        headers: [
            "workload",
            "disabled q/s",
            "enabled q/s",
            "enabled/disabled",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        verdict: format!(
            "worst enabled/disabled ratio {:.3}x on {}; the disabled default is the \
             committed-baseline configuration",
            worst.overhead(),
            worst.workload
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_measures_both_workloads_in_both_modes() {
        // Tiny size: the debug-mode smoke run only checks the plumbing.
        let samples = obs_overhead_sweep(2_000, 1);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].workload, "e15-pooled-batch");
        assert_eq!(samples[1].workload, "e20-mvcc-pinned");
        for s in &samples {
            assert!(s.disabled_seconds > 0.0 && s.enabled_seconds > 0.0);
            assert!(s.overhead() > 0.0);
        }
    }

    #[test]
    fn overhead_table_renders() {
        let t = run_obs_overhead();
        assert!(t.render().contains("OBS"));
        assert_eq!(t.rows.len(), 2);
    }
}
