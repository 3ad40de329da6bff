//! Experiment E18: the price of durability, and what compaction buys
//! back.
//!
//! Two questions a durable serving tier must answer with numbers:
//!
//! 1. **Update throughput.** How much does the write-ahead log cost per
//!    update? Measured across the fsync spectrum: no WAL at all (the
//!    in-memory `LiveRelation`), fsync-per-record
//!    ([`SyncPolicy::Always`] — the naive contract), group commit
//!    ([`SyncPolicy::GroupCommit`] — concurrent committers share one
//!    flush), batched group commit
//!    ([`LiveRelation::apply_batch`] — many records staged per commit,
//!    one fsync per batch), and OS-buffered ([`SyncPolicy::Never`]).
//!    Each mode runs the same multi-writer insert/delete workload, and
//!    every durable run's WAL is recovered and verified row-for-row
//!    against the live node before its number is reported.
//! 2. **Recovery time.** How does crash-recovery scale with log length,
//!    and how much does compaction bound it? A churn-heavy history
//!    (every insert soon deleted) is recovered twice — from the raw log
//!    and from the compacted one — at growing log lengths.
//!
//! The same sweeps back the `wal` bench target, which serializes both
//! curves to `BENCH_wal.json` next to the other perf artifacts.

use crate::table::{fmt_u64, Table};
use pitract_engine::live::LiveRelation;
use pitract_engine::shard::ShardBy;
use pitract_engine::{Applied, UpdateOp};
use pitract_relation::{ColType, Relation, Schema, Value};
use pitract_store::SnapshotCatalog;
use pitract_wal::{Compactor, DurableLiveRelation, SyncPolicy, WalConfig, WalReader};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Shards used throughout the sweep.
pub const WAL_SHARDS: usize = 4;

/// Concurrent writer threads in the throughput sweep.
pub const WAL_WRITERS: usize = 4;

/// Ops per [`LiveRelation::apply_batch`] call in the batched
/// group-commit mode.
pub const WAL_BATCH_OPS: usize = 128;

/// One measured point of the durability-cost sweep.
#[derive(Debug, Clone)]
pub struct WalThroughputSample {
    /// Human label of the durability mode.
    pub mode: &'static str,
    /// Updates applied across all writers.
    pub updates: u64,
    /// Wall-clock seconds for the whole workload.
    pub seconds: f64,
    /// Updates per second.
    pub updates_per_second: f64,
}

/// One measured point of the recovery sweep.
#[derive(Debug, Clone)]
pub struct WalRecoverySample {
    /// Updates in the log before compaction.
    pub log_len: usize,
    /// Entries the raw recovery replayed.
    pub raw_replayed: usize,
    /// Seconds to recover from the raw log (best of reps).
    pub raw_seconds: f64,
    /// Entries the compacted recovery replayed.
    pub compacted_replayed: usize,
    /// Seconds to recover after compaction (best of reps).
    pub compacted_seconds: f64,
}

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pitract-bench-wal-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_live(n: i64) -> LiveRelation {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 32))])
        .collect();
    let rel = Relation::from_rows(schema, rows).expect("valid rows");
    LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, WAL_SHARDS, &[0, 1])
        .expect("valid sharding spec")
}

/// Apply the standard workload — `WAL_WRITERS` threads, each inserting
/// `per_writer` rows and deleting every other one — to `node` (any
/// target that derefs to a `LiveRelation`).
fn churn(node: &LiveRelation, n: i64, per_writer: i64) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WAL_WRITERS as i64)
            .map(|w| {
                scope.spawn(move || {
                    let mut applied = 0u64;
                    for i in 0..per_writer {
                        let gid = node
                            .insert(vec![Value::Int(n + w * 1_000_000 + i), Value::str("hot")])
                            .expect("valid row");
                        applied += 1;
                        if i % 2 == 0 {
                            node.delete(gid).expect("durable delete").expect("live gid");
                            applied += 1;
                        }
                    }
                    applied
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// The same workload as [`churn`] — same writers, same rows, same
/// delete pattern — but applied in [`WAL_BATCH_OPS`]-sized
/// [`LiveRelation::apply_batch`] runs: each run stages every record and
/// fsyncs once at the end, so the fsync count drops from one per
/// commit-group to one per batch.
fn churn_batched(node: &LiveRelation, n: i64, per_writer: i64) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WAL_WRITERS as i64)
            .map(|w| {
                scope.spawn(move || {
                    let mut applied = 0u64;
                    let mut i = 0i64;
                    while i < per_writer {
                        let take = (WAL_BATCH_OPS as i64).min(per_writer - i);
                        let inserts: Vec<UpdateOp> = (0..take)
                            .map(|j| {
                                UpdateOp::Insert(vec![
                                    Value::Int(n + w * 1_000_000 + i + j),
                                    Value::str("hot"),
                                ])
                            })
                            .collect();
                        let inserted = node.apply_batch(inserts).expect("batched inserts");
                        applied += take as u64;
                        // Deletes need the gids the inserts got, so they
                        // ride in a second batch: same every-other-row
                        // pattern as the per-record workload.
                        let deletes: Vec<UpdateOp> = inserted
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| (i + *j as i64) % 2 == 0)
                            .map(|(_, a)| match a {
                                Applied::Inserted(gid) => UpdateOp::Delete(*gid),
                                Applied::Deleted(_) => unreachable!("insert batch"),
                            })
                            .collect();
                        applied += deletes.len() as u64;
                        node.apply_batch(deletes).expect("batched deletes");
                        i += take;
                    }
                    applied
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// Measure the same multi-writer update workload under each durability
/// mode. Every WAL-backed run is recovered and verified against its
/// live node before the number is reported.
pub fn wal_throughput_sweep(n: i64, per_writer: i64) -> Vec<WalThroughputSample> {
    let mut samples = Vec::new();

    // Baseline: no WAL at all.
    let live = base_live(n);
    let t0 = Instant::now();
    let updates = churn(&live, n, per_writer);
    let seconds = t0.elapsed().as_secs_f64().max(1e-12);
    samples.push(WalThroughputSample {
        mode: "no WAL (in-memory)",
        updates,
        seconds,
        updates_per_second: updates as f64 / seconds,
    });

    for (mode, sync, batched) in [
        ("fsync per record", SyncPolicy::Always, false),
        ("group commit", SyncPolicy::GroupCommit, false),
        ("group commit (batched)", SyncPolicy::GroupCommit, true),
        ("OS-buffered", SyncPolicy::Never, false),
    ] {
        let root = fresh_dir("thru");
        let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog dir");
        let wal_dir = root.join("wal");
        let config = WalConfig {
            sync,
            ..WalConfig::default()
        };
        let node =
            DurableLiveRelation::create(base_live(n), &catalog, "bench", &wal_dir, config.clone())
                .expect("fresh durable node");
        let t0 = Instant::now();
        let updates = if batched {
            churn_batched(&node, n, per_writer)
        } else {
            churn(&node, n, per_writer)
        };
        node.wal().sync().expect("final flush");
        let seconds = t0.elapsed().as_secs_f64().max(1e-12);

        // Verify: recovery reproduces the live node exactly.
        let expected: Vec<Option<Vec<Value>>> = (0..(n as usize + updates as usize))
            .map(|gid| node.row(gid))
            .collect();
        drop(node);
        let recovered = DurableLiveRelation::recover(&catalog, "bench", &wal_dir, config)
            .expect("recovery after the run");
        for (gid, expect) in expected.iter().enumerate() {
            assert_eq!(&recovered.row(gid), expect, "{mode}: gid {gid} diverged");
        }
        samples.push(WalThroughputSample {
            mode,
            updates,
            seconds,
            updates_per_second: updates as f64 / seconds,
        });
        let _ = std::fs::remove_dir_all(&root);
    }
    samples
}

/// Measure recovery time against log length, raw vs compacted. The
/// workload is churn-heavy (2/3 of entries are insert+delete pairs), so
/// compaction has something to cancel; both recoveries are verified to
/// answer identically.
pub fn wal_recovery_sweep(n: i64, log_lens: &[usize], reps: usize) -> Vec<WalRecoverySample> {
    log_lens
        .iter()
        .map(|&target| {
            let root = fresh_dir("rec");
            let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog dir");
            let wal_dir = root.join("wal");
            let config = WalConfig {
                segment_bytes: 64 << 10,
                sync: SyncPolicy::Never, // recovery cost is what's measured
                ..WalConfig::default()
            };
            let node = DurableLiveRelation::create(
                base_live(n),
                &catalog,
                "bench",
                &wal_dir,
                config.clone(),
            )
            .expect("fresh durable node");
            let mut applied = 0usize;
            let mut i = 0i64;
            while applied + 3 <= target {
                let gid = node
                    .insert(vec![Value::Int(n + i), Value::str("hot")])
                    .expect("valid row");
                applied += 1;
                if i % 3 != 0 {
                    node.delete(gid).expect("durable delete").expect("live gid");
                    applied += 1;
                }
                i += 1;
            }
            node.wal().sync().expect("flush");
            drop(node);

            // Raw recovery: replay the *whole* tail, entry by entry —
            // what recovery cost before compaction existed (work grows
            // with the history, not the net change).
            let mut raw_seconds = f64::MAX;
            let mut raw_replayed = 0usize;
            let mut raw_len = 0usize;
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                let (state, mark, _epoch) = catalog
                    .load("bench")
                    .expect("checkpoint")
                    .into_checkpoint()
                    .expect("checkpoint kind");
                let tail = WalReader::open(&wal_dir).expect("wal scan").tail_log(mark);
                let live = LiveRelation::from_sharded(state);
                live.replay(&tail).expect("raw replay");
                raw_seconds = raw_seconds.min(t0.elapsed().as_secs_f64());
                raw_replayed = tail.len();
                raw_len = live.len();
            }

            // Compacted recovery: close the active segment, compact the
            // disk log, then recover through the production path (which
            // also compacts the remaining tail in memory).
            {
                let node =
                    DurableLiveRelation::recover(&catalog, "bench", &wal_dir, config.clone())
                        .expect("recovery before compaction");
                node.wal().rotate_now().expect("rotate");
                drop(node);
                Compactor::new(0).compact_dir(&wal_dir).expect("compaction");
            }
            let mut compacted_seconds = f64::MAX;
            let mut compacted_replayed = 0usize;
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                let node =
                    DurableLiveRelation::recover(&catalog, "bench", &wal_dir, config.clone())
                        .expect("compacted recovery");
                compacted_seconds = compacted_seconds.min(t0.elapsed().as_secs_f64());
                compacted_replayed = node.boundedness_report().len();
                assert_eq!(node.len(), raw_len, "compaction changed the state");
            }

            let log_len = applied;
            let _ = std::fs::remove_dir_all(&root);
            WalRecoverySample {
                log_len,
                raw_replayed,
                raw_seconds,
                compacted_replayed,
                compacted_seconds,
            }
        })
        .collect()
}

/// E18 — durability: WAL throughput across fsync policies, and recovery
/// time raw vs compacted.
pub fn run_e18() -> Table {
    let n = 4_000i64;
    let throughput = wal_throughput_sweep(n, 300);
    let recovery = wal_recovery_sweep(n, &[600, 2_400], 2);
    let base = throughput[0].updates_per_second;

    let mut rows: Vec<Vec<String>> = throughput
        .iter()
        .map(|s| {
            vec![
                s.mode.to_string(),
                fmt_u64(s.updates),
                fmt_u64(s.updates_per_second as u64),
                format!("{:.3}x", s.updates_per_second / base.max(1e-12)),
                "-".into(),
            ]
        })
        .collect();
    for s in &recovery {
        rows.push(vec![
            format!("recover {} raw", fmt_u64(s.log_len as u64)),
            fmt_u64(s.raw_replayed as u64),
            "-".into(),
            "-".into(),
            format!("{:.2}ms", s.raw_seconds * 1e3),
        ]);
        rows.push(vec![
            format!("recover {} compacted", fmt_u64(s.log_len as u64)),
            fmt_u64(s.compacted_replayed as u64),
            "-".into(),
            "-".into(),
            format!("{:.2}ms", s.compacted_seconds * 1e3),
        ]);
    }

    let always = &throughput[1];
    let group = &throughput[2];
    let batched = &throughput[3];
    let last = recovery.last().expect("non-empty sweep");
    Table {
        id: "E18",
        title: "durable WAL: update throughput by fsync policy + recovery, raw vs compacted (wal)",
        paper_claim:
            "preprocessing is paid once — crashes included; recovery work tracks |CHANGED|",
        headers: [
            "mode",
            "updates/replayed",
            "updates/s",
            "vs no WAL",
            "recover",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        verdict: format!(
            "group commit sustained {} updates/s vs {} with fsync-per-record ({} batched via \
             apply_batch); compaction cut a {}-entry log's replay to {} entries — every \
             recovered node verified row-identical",
            group.updates_per_second as u64,
            always.updates_per_second as u64,
            batched.updates_per_second as u64,
            fmt_u64(last.log_len as u64),
            fmt_u64(last.compacted_replayed as u64),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_sweep_covers_all_modes_and_verifies() {
        let samples = wal_throughput_sweep(400, 20);
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[0].mode, "no WAL (in-memory)");
        assert_eq!(samples[3].mode, "group commit (batched)");
        for s in &samples {
            assert!(s.updates_per_second > 0.0, "{}", s.mode);
            // The batched mode applies the exact same update count —
            // same rows, same every-other-row deletes — as the
            // per-record modes; only the commit cadence differs.
            assert_eq!(s.updates, (20 + 10) * WAL_WRITERS as u64, "{}", s.mode);
        }
    }

    #[test]
    fn recovery_sweep_shows_compaction_bounding_replay() {
        let samples = wal_recovery_sweep(200, &[90], 1);
        assert_eq!(samples.len(), 1);
        let s = &samples[0];
        assert!(s.raw_replayed <= s.log_len);
        assert!(
            s.compacted_replayed < s.raw_replayed,
            "churn compacts: {} < {}",
            s.compacted_replayed,
            s.raw_replayed
        );
    }

    #[test]
    fn e18_runs_and_renders() {
        let t = run_e18();
        let s = t.render();
        assert!(s.contains("E18"));
        assert!(t.rows.len() >= 6);
    }
}
