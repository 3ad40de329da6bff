//! Experiment E21: WAL-shipping replication — catch-up cost tracks the
//! *net* change, and a follower serves reads at primary throughput.
//!
//! Two claims, both verified before anything is reported:
//!
//! * **Catch-up vs net change.** The primary's compactor cancels
//!   insert+delete pairs inside closed segments, so what a follower
//!   ships and replays is bounded by the surviving records, not the
//!   total update count — the replication analogue of the paper's
//!   |CHANGED|-bounded maintenance. The sweep holds total churn fixed
//!   and varies the net change; catch-up time must follow the net.
//! * **Follower serving vs primary under writers.** A follower serves
//!   pooled batches from its own recovered engine while 0/1/4 writer
//!   threads hammer the primary and a catch-up loop keeps the replica
//!   fresh. Both tiers are measured with the same batch; at quiesce the
//!   follower must be bit-identical to the primary (answers and gids).
//!
//! The same sweeps back the `repl` bench target, which serializes both
//! curves to `BENCH_repl.json` next to the other perf artifacts.

use crate::table::{fmt_u64, Table};
use pitract_engine::batch::QueryBatch;
use pitract_engine::{LiveRelation, PoolConfig, PooledExecutor, ShardBy};
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use pitract_repl::{Follower, SegmentPublisher};
use pitract_store::SnapshotCatalog;
use pitract_wal::{DurableLiveRelation, SyncPolicy, WalConfig, WalReader};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Queries per measured batch in the serving sweep (also serialized
/// into the `BENCH_repl.json` perf artifact).
pub const REPL_BATCH_QUERIES: i64 = 256;

/// Shards on both the primary and the follower in the sweeps.
pub const REPL_SHARDS: usize = 3;

/// One measured point of the catch-up sweep.
#[derive(Debug, Clone)]
pub struct ReplCatchUpSample {
    /// Updates applied on the primary (inserts + deletes), fixed across
    /// the sweep.
    pub total_ops: usize,
    /// Rows that survive the churn — the net change the follower must
    /// actually materialize.
    pub net_change: usize,
    /// WAL records left to ship after the primary's compaction pass.
    pub shipped_records: usize,
    /// Wall-clock seconds for the follower to bootstrap-attach and
    /// catch up to lag 0.
    pub seconds: f64,
    /// Shipped records replayed per second.
    pub records_per_second: f64,
}

/// One measured point of the serving comparison.
#[derive(Debug, Clone)]
pub struct ReplServeSample {
    /// Racing writer threads on the primary.
    pub writers: usize,
    /// Best queries/second for one pooled batch on the primary.
    pub primary_qps: f64,
    /// Best queries/second for the same batch on the follower.
    pub follower_qps: f64,
    /// The follower's LSN lag after the final catch-up (always 0: the
    /// sweep quiesces and verifies).
    pub final_lag: u64,
}

fn fresh_root(tag: &str, seq: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pitract-replbench-{tag}-{}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> WalConfig {
    WalConfig {
        segment_bytes: 32 * 1024,
        sync: SyncPolicy::GroupCommit,
        ..WalConfig::default()
    }
}

fn empty_primary(root: &Path) -> (Arc<DurableLiveRelation>, SnapshotCatalog) {
    let schema = Schema::new(&[("id", ColType::Int)]);
    let rel = Relation::from_rows(schema, vec![]).expect("valid rows");
    let live =
        LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, REPL_SHARDS, &[0]).expect("valid spec");
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog dir");
    let node = Arc::new(
        DurableLiveRelation::create(live, &catalog, "node", root.join("wal"), config())
            .expect("fresh durable node"),
    );
    (node, catalog)
}

/// Fixed total churn, varying net change: insert `net` keepers plus
/// enough insert+delete pairs to reach `total_ops`, compact the
/// primary's closed segments, then time a fresh follower catching up.
/// The follower is verified row-for-row against the primary before the
/// sample is reported.
pub fn repl_catchup_sweep(total_ops: usize, nets: &[usize]) -> Vec<ReplCatchUpSample> {
    nets.iter()
        .enumerate()
        .map(|(seq, &net)| {
            assert!(net <= total_ops, "net change cannot exceed total ops");
            let root = fresh_root("catchup", seq);
            let (node, catalog) = empty_primary(&root);
            let publisher = SegmentPublisher::new(Arc::clone(&node));

            // `net` keepers, then cancelling pairs for the rest of the
            // budget (one pair = two ops).
            for i in 0..net {
                node.insert(vec![Value::Int(i as i64)]).expect("insert");
            }
            let pairs = (total_ops - net) / 2;
            for i in 0..pairs {
                let gid = node
                    .insert(vec![Value::Int((1_000_000 + i) as i64)])
                    .expect("insert");
                node.delete(gid).expect("delete");
            }
            node.wal().rotate_now().expect("rotate");
            publisher.compact_primary().expect("compact");
            let shipped_records = WalReader::open(root.join("wal"))
                .expect("scan after compaction")
                .records()
                .len();

            let t0 = Instant::now();
            let follower = Follower::bootstrap(&catalog, "node", root.join("mirror"), config())
                .expect("bootstrap");
            let sub = follower.attach(&publisher);
            let report = follower.catch_up(&publisher, sub).expect("catch up");
            let seconds = t0.elapsed().as_secs_f64();

            assert_eq!(report.lag, 0, "caught up");
            assert_eq!(follower.len(), node.len(), "net {net} diverged in size");
            for i in 0..net {
                let q = SelectionQuery::point(0, i as i64);
                assert_eq!(
                    follower.matching_ids(&q),
                    node.matching_ids(&q),
                    "net {net} diverged at key {i}"
                );
            }
            let _ = std::fs::remove_dir_all(&root);
            ReplCatchUpSample {
                total_ops,
                net_change: net,
                shipped_records,
                seconds,
                records_per_second: shipped_records as f64 / seconds.max(1e-9),
            }
        })
        .collect()
}

/// Measure one pooled batch per tier while `writers` threads race on
/// the primary and a catch-up loop keeps the follower fresh; quiesce,
/// drain, and verify the follower bit-for-bit before reporting.
pub fn repl_serving_sweep(
    n: i64,
    writer_counts: &[usize],
    per_writer: i64,
    reps: usize,
) -> Vec<ReplServeSample> {
    writer_counts
        .iter()
        .enumerate()
        .map(|(seq, &writers)| {
            let root = fresh_root("serve", seq);
            let (node, catalog) = empty_primary(&root);
            let publisher = SegmentPublisher::new(Arc::clone(&node));
            for i in 0..n {
                node.insert(vec![Value::Int(i)]).expect("insert");
            }
            let follower = Arc::new(
                Follower::bootstrap(&catalog, "node", root.join("mirror"), config())
                    .expect("bootstrap"),
            );
            let sub = follower.attach(&publisher);
            follower
                .catch_up(&publisher, sub)
                .expect("initial catch up");

            let batch = QueryBatch::new(
                (0..REPL_BATCH_QUERIES).map(|k| SelectionQuery::point(0, (k * 997) % (n + n / 8))),
            );
            let pool = PoolConfig {
                workers: 2,
                max_inflight: 2,
                ..PoolConfig::default()
            };
            let primary_exec = PooledExecutor::new(Arc::clone(&node), pool.clone());
            let follower_exec = PooledExecutor::new(Arc::clone(&follower), pool);

            let mut primary_qps = 0.0f64;
            let mut follower_qps = 0.0f64;
            let done = std::sync::atomic::AtomicBool::new(false);
            let done = &done;
            std::thread::scope(|scope| {
                for w in 0..writers {
                    let node = Arc::clone(&node);
                    scope.spawn(move || {
                        for i in 0..per_writer {
                            let key = n + (w as i64) * per_writer + i;
                            node.insert(vec![Value::Int(key)]).expect("insert");
                        }
                    });
                }
                // The catch-up loop: keeps the replica fresh while the
                // measurement below runs against a moving primary.
                let fol = Arc::clone(&follower);
                let pubr = &publisher;
                scope.spawn(move || {
                    while !done.load(std::sync::atomic::Ordering::SeqCst) {
                        fol.catch_up(pubr, sub).expect("catch up loop");
                        std::thread::yield_now();
                    }
                });

                for _ in 0..reps.max(1) {
                    let t0 = Instant::now();
                    let result = primary_exec.execute(&batch).expect("primary serves");
                    let qps = result.answers.len() as f64 / t0.elapsed().as_secs_f64();
                    primary_qps = primary_qps.max(qps);

                    let t0 = Instant::now();
                    let result = follower_exec.execute(&batch).expect("follower serves");
                    let qps = result.answers.len() as f64 / t0.elapsed().as_secs_f64();
                    follower_qps = follower_qps.max(qps);
                }
                done.store(true, std::sync::atomic::Ordering::SeqCst);
            });

            // Quiesce and verify bit-identity across the whole keyspace
            // the writers touched.
            node.wal().sync().expect("sync");
            let report = follower.catch_up(&publisher, sub).expect("final catch up");
            assert_eq!(report.lag, 0);
            assert_eq!(follower.len(), node.len(), "writers={writers} diverged");
            for k in (0..n + (writers as i64) * per_writer).step_by(7) {
                let q = SelectionQuery::point(0, k);
                assert_eq!(
                    follower.matching_ids(&q),
                    node.matching_ids(&q),
                    "writers={writers} diverged at key {k}"
                );
            }
            let _ = std::fs::remove_dir_all(&root);
            ReplServeSample {
                writers,
                primary_qps,
                follower_qps,
                final_lag: report.lag,
            }
        })
        .collect()
}

/// E21 — replication: catch-up tracks net change; the follower serves
/// at primary-grade throughput under 0/1/4 racing writers.
pub fn run_e21() -> Table {
    let total = 6_000usize;
    let catchup = repl_catchup_sweep(total, &[500, 1_500, 3_000, 6_000]);
    let serving = repl_serving_sweep(20_000, &[0, 1, 4], 400, 3);

    let mut rows: Vec<Vec<String>> = catchup
        .iter()
        .map(|s| {
            vec![
                format!("catch-up net={}", s.net_change),
                fmt_u64(s.total_ops as u64),
                fmt_u64(s.shipped_records as u64),
                format!("{:.4}s", s.seconds),
                fmt_u64(s.records_per_second as u64),
            ]
        })
        .collect();
    rows.extend(serving.iter().map(|s| {
        vec![
            format!("serve writers={}", s.writers),
            fmt_u64(s.primary_qps as u64),
            fmt_u64(s.follower_qps as u64),
            format!("{:.2}x", s.follower_qps / s.primary_qps.max(1e-9)),
            format!("lag {}", s.final_lag),
        ]
    }));

    let widest = catchup.last().expect("non-empty sweep");
    let narrowest = catchup.first().expect("non-empty sweep");
    Table {
        id: "E21",
        title: "WAL-shipping replication: catch-up vs net change, follower vs primary serving",
        paper_claim: "replica maintenance is |CHANGED|-bounded and replica reads scale out",
        headers: ["case", "a", "b", "c", "d"].map(String::from).to_vec(),
        rows,
        verdict: format!(
            "catch-up ships {} records for net {} vs {} for net {} (total churn fixed at {}); \
             every follower verified bit-identical to its primary at quiesce",
            narrowest.shipped_records,
            narrowest.net_change,
            widest.shipped_records,
            widest.net_change,
            total,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catchup_sweep_ships_the_net_not_the_churn() {
        let samples = repl_catchup_sweep(400, &[50, 400]);
        assert_eq!(samples.len(), 2);
        // Fixed churn, small vs full net: the compactor must have
        // cancelled the paired half, so the small-net case ships fewer
        // records.
        assert!(
            samples[0].shipped_records < samples[1].shipped_records,
            "{samples:?}"
        );
        for s in &samples {
            assert!(s.records_per_second > 0.0);
        }
    }

    #[test]
    fn serving_sweep_measures_both_tiers_under_writers() {
        let samples = repl_serving_sweep(2_000, &[0, 1], 40, 1);
        assert_eq!(samples.len(), 2);
        for s in &samples {
            assert!(s.primary_qps > 0.0);
            assert!(s.follower_qps > 0.0);
            assert_eq!(s.final_lag, 0);
        }
    }
}
