//! Experiment E16: cold rebuild vs snapshot warm start.
//!
//! The paper's Definition 1 makes preprocessing a *one-time* PTIME cost —
//! but only a persistence layer makes "one-time" literal across process
//! starts. This experiment quantifies the warm-start win: for growing
//! data sizes, build a `ShardedRelation` from scratch (route + per-key
//! index inserts, O(n log n)) and, separately, reload the same structure
//! from a `pitract-store` snapshot file (sequential decode + O(n) B⁺-tree
//! bulk load). Every loaded relation is verified against the cold one on
//! a query batch before any number is reported.
//!
//! The same sweep backs the `persistence` bench target, which serializes
//! the size → (build, load) curve to `BENCH_store.json` next to the
//! engine's `BENCH_engine.json`.

use crate::table::{fmt_u64, Table};
use pitract_engine::batch::QueryBatch;
use pitract_engine::shard::{ShardBy, ShardedRelation};
use pitract_engine::PooledExecutor;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use pitract_store::Snapshot;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One measured point of the persistence sweep.
#[derive(Debug, Clone)]
pub struct StoreSample {
    /// Rows in the relation.
    pub rows: i64,
    /// Snapshot file size in bytes.
    pub file_bytes: u64,
    /// Cold `ShardedRelation::build` seconds (best of reps).
    pub build_seconds: f64,
    /// `Snapshot::load` seconds from a file (best of reps).
    pub load_seconds: f64,
}

impl StoreSample {
    /// Cold-build time over warm-load time (> 1 means warm start wins).
    pub fn speedup(&self) -> f64 {
        self.build_seconds / self.load_seconds.max(1e-12)
    }
}

/// Shards used throughout the sweep.
pub const STORE_SHARDS: usize = 8;

fn workload(n: i64) -> (Relation, QueryBatch) {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 64))])
        .collect();
    let rel = Relation::from_rows(schema, rows).expect("valid rows");
    let batch = QueryBatch::new((0..128i64).map(|k| match k % 3 {
        0 => SelectionQuery::point(0, (k * 997) % (n + n / 8)),
        1 => SelectionQuery::range_closed(0, (k * 641) % n, (k * 641) % n + 200),
        _ => SelectionQuery::point(1, format!("grp{}", k % 64).as_str()),
    }));
    (rel, batch)
}

/// Run the cold-build vs snapshot-load sweep with `reps` timed
/// repetitions per size, verifying the loaded relation against the cold
/// one on every size. Shared by E16 and the `persistence` bench target.
pub fn store_warmstart_sweep(sizes: &[i64], reps: usize) -> Vec<StoreSample> {
    // Per-call directory: concurrent sweeps in one process (the unit
    // tests) must not remove each other's snapshot files.
    static SWEEP: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pitract-e16-{}-{}",
        std::process::id(),
        SWEEP.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let samples = sizes
        .iter()
        .map(|&n| {
            let (rel, batch) = workload(n);
            let mut build_best = f64::MAX;
            let mut cold = None;
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                let built =
                    ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, STORE_SHARDS, &[0, 1])
                        .expect("valid sharding spec");
                build_best = build_best.min(t0.elapsed().as_secs_f64());
                cold = Some(built);
            }
            let cold = cold.expect("at least one rep");

            let path = dir.join(format!("e16-{n}.snap"));
            let snap = Snapshot::Sharded(cold);
            snap.save(&path).expect("snapshot save");
            // Recover the built relation from the enum so the oracle
            // check below reuses the measured build instead of paying
            // another O(n log n) rebuild.
            let cold = snap.into_sharded().expect("sharded snapshot");
            let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

            let mut load_best = f64::MAX;
            let mut warm = None;
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                let loaded = Snapshot::load(&path)
                    .expect("snapshot load")
                    .into_sharded()
                    .expect("sharded snapshot");
                load_best = load_best.min(t0.elapsed().as_secs_f64());
                warm = Some(loaded);
            }
            let warm = warm.expect("at least one rep");

            // Correctness before cost: the warm relation must serve the
            // batch identically to the cold-built one.
            let answers = |sr| {
                PooledExecutor::with_default_pool(Arc::new(sr))
                    .execute(&batch)
                    .expect("valid batch")
                    .answers
            };
            assert_eq!(
                answers(warm),
                answers(cold),
                "n={n} warm diverged from cold"
            );

            let _ = std::fs::remove_file(&path);
            StoreSample {
                rows: n,
                file_bytes,
                build_seconds: build_best,
                load_seconds: load_best,
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    samples
}

/// E16 — persistent snapshots: cold Π(D) rebuild vs warm start from disk.
pub fn run_e16() -> Table {
    let samples = store_warmstart_sweep(&[1 << 13, 1 << 15, 1 << 16], 3);
    let rows = samples
        .iter()
        .map(|s| {
            vec![
                fmt_u64(s.rows as u64),
                format!("{:.1}", s.file_bytes as f64 / 1024.0),
                format!("{:.2}", s.build_seconds * 1e3),
                format!("{:.2}", s.load_seconds * 1e3),
                format!("{:.2}x", s.speedup()),
            ]
        })
        .collect();
    let largest = samples.last().expect("non-empty sweep");
    Table {
        id: "E16",
        title: "persistent snapshots: cold ShardedRelation::build vs Snapshot load (store)",
        paper_claim:
            "Π(D) is a ONE-TIME PTIME cost — persistence makes it one-time across process starts",
        headers: ["rows", "file KiB", "build ms", "load ms", "speedup"]
            .map(String::from)
            .to_vec(),
        rows,
        verdict: format!(
            "warm start {:.2}x faster than cold rebuild at n={} ({} KiB snapshot); \
             loaded relations verified against the cold oracle at every size",
            largest.speedup(),
            largest.rows,
            largest.file_bytes / 1024
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_verifies_and_reports_every_size() {
        // Tiny sizes: the debug-mode smoke run only checks the plumbing.
        let samples = store_warmstart_sweep(&[500, 1_000], 1);
        assert_eq!(samples.len(), 2);
        for s in &samples {
            assert!(s.build_seconds > 0.0);
            assert!(s.load_seconds > 0.0);
            assert!(s.file_bytes > 0);
        }
    }

    #[test]
    fn e16_runs_and_renders() {
        let t = run_e16();
        let s = t.render();
        assert!(s.contains("E16"));
        assert_eq!(t.rows.len(), 3);
    }
}
