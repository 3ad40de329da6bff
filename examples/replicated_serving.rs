//! Replicated serving: scale reads out with log shipping, lose nothing.
//!
//! The durable tier (`examples/durable_serving.rs`) makes one node
//! crash-consistent; this example turns that node into a **primary** and
//! hangs a read replica off its WAL:
//!
//! 1. **Publish**: wrap the primary in a `SegmentPublisher` — its WAL
//!    segments become a polled tail subscription, capped at the durable
//!    frontier so a follower can never apply what the primary could lose.
//!    The `WalConfig` the primary is built from carries a `Recorder`,
//!    and the publisher counts into it.
//! 2. **Bootstrap**: a `Follower` loads the primary's checkpoint, fixes
//!    its epoch ↔ LSN dictionary at the cut, and attaches (which also
//!    pins the primary's compactor retention to its cursor). Built from
//!    the same `WalConfig`, it records into the same registry (lag via `status()`).
//! 3. **Serve under fire**: writer threads churn the primary while a
//!    catch-up loop streams shipments — validated frame-by-frame,
//!    mirrored to local disk, then replayed — and a pooled executor
//!    answers batches on the replica, each pinned to the epoch of the
//!    last LSN the follower applied.
//! 4. **Verify**: quiesce and check the replica is bit-identical to the
//!    primary — answers AND global row ids — then kill the follower,
//!    restart it from its mirror, and verify again.
//!
//! Run with: `cargo run --release --example replicated_serving`

use pi_tractable::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    println!("=== Replicated serving: log shipping, epoch-pinned replica reads ===\n");

    let n = 20_000i64;
    let schema = Schema::new(&[("id", ColType::Int)]);
    let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int(i)]).collect();
    let base = Relation::from_rows(schema, rows).expect("valid rows");

    let root = std::env::temp_dir().join(format!("pitract-repl-ex-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog dir");
    // One recorder for the whole replication pair: it rides in the
    // `WalConfig` both nodes are built from.
    let recorder = Recorder::new();
    let config = WalConfig {
        segment_bytes: 64 << 10,
        sync: SyncPolicy::GroupCommit,
        recorder: recorder.clone(),
    };

    // 1. The primary: durable node + segment publisher (which counts
    // into the primary's recorder).
    let live =
        LiveRelation::build(&base, ShardBy::Hash { col: 0 }, 4, &[0]).expect("valid sharding spec");
    let primary = Arc::new(
        DurableLiveRelation::create(live, &catalog, "orders", root.join("wal"), config.clone())
            .expect("fresh durable node"),
    );
    let publisher = SegmentPublisher::new(Arc::clone(&primary));
    println!("primary: 20k rows durable, WAL published for subscription");

    // 2. The follower: checkpoint bootstrap + attach.
    let t0 = Instant::now();
    let follower = Arc::new(
        Follower::bootstrap(&catalog, "orders", root.join("mirror"), config.clone())
            .expect("bootstrap"),
    );
    let sub = follower.attach(&publisher);
    println!(
        "follower: bootstrapped from the checkpoint in {:.0}ms, attached at lsn {}",
        t0.elapsed().as_secs_f64() * 1e3,
        follower.applied_lsn(),
    );

    // 3. Serve under fire: writers churn the primary, a catch-up loop
    // keeps the replica fresh, a pool answers batches on the replica.
    let exec = PooledExecutor::new(
        Arc::clone(&follower),
        PoolConfig {
            workers: 2,
            max_inflight: 2,
            ..PoolConfig::default()
        },
    );
    let batch = QueryBatch::new((0..256i64).map(|k| SelectionQuery::point(0, (k * 997) % n)));
    let t1 = Instant::now();
    let (updates, batches) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2i64)
            .map(|w| {
                let primary = Arc::clone(&primary);
                scope.spawn(move || {
                    let mut applied = 0u64;
                    for i in 0..2_000i64 {
                        let gid = primary
                            .insert(vec![Value::Int(n + w * 1_000_000 + i)])
                            .expect("primary insert");
                        applied += 1;
                        if i % 3 == 0 {
                            primary
                                .delete(gid)
                                .expect("primary delete")
                                .expect("live gid");
                            applied += 1;
                        }
                    }
                    applied
                })
            })
            .collect();
        let mut batches = 0u64;
        loop {
            let report = follower.catch_up(&publisher, sub).expect("catch up");
            let result = exec.execute(&batch).expect("replica batch");
            let pinned = result.report.epoch;
            assert_eq!(
                follower.lsn_of_epoch(pinned),
                report.applied_lsn,
                "each batch reads one consistent prefix of the primary"
            );
            batches += 1;
            if writers.iter().all(|h| h.is_finished()) {
                break;
            }
        }
        let updates: u64 = writers.into_iter().map(|h| h.join().unwrap()).sum();
        (updates, batches)
    });
    primary.wal().sync().expect("final flush");
    let report = follower.catch_up(&publisher, sub).expect("final catch up");
    println!(
        "served {batches}×256 replica queries while the primary absorbed {updates} updates \
         in {:.2}s; final lag {} lsn (durable frontier {})",
        t1.elapsed().as_secs_f64(),
        report.lag,
        report.primary_lsn,
    );
    exec.status().publish(&recorder); // the replica's state, beside the primary's events

    // 4a. Verify bit-identity: answers and global row ids.
    assert_eq!(follower.len(), primary.len(), "replica row count");
    let mut checked = 0usize;
    for k in (0..n + 2_100_000).step_by(997) {
        let q = SelectionQuery::point(0, k);
        assert_eq!(follower.answer(&q), primary.answer(&q), "answer for {k}");
        assert_eq!(
            follower.matching_ids(&q),
            primary.matching_ids(&q),
            "gids for {k}"
        );
        checked += 1;
    }
    println!(
        "verified {checked} probes bit-identical (answers and global row ids) at epoch {:?}",
        follower.applied_epoch(),
    );

    // 4b. Kill the follower and restart it from its own mirror: the
    // dictionary and the data come back exactly.
    let applied_before = follower.applied_lsn();
    drop(exec);
    drop(follower);
    let t2 = Instant::now();
    let follower = Follower::bootstrap(&catalog, "orders", root.join("mirror"), config)
        .expect("restart from mirror");
    assert_eq!(
        follower.applied_lsn(),
        applied_before,
        "mirror replayed in full"
    );
    assert_eq!(follower.len(), primary.len(), "row count after restart");
    println!(
        "follower killed and restarted from its mirror in {:.0}ms — cursor and state intact",
        t2.elapsed().as_secs_f64() * 1e3,
    );

    // The replication series are live next to the wal_/pool_/mvcc_ ones.
    let text = pi_tractable::obs::to_prometheus(&recorder.snapshot());
    let lag_line = text
        .lines()
        .find(|l| l.starts_with("replication_lag_lsn"))
        .expect("lag gauge exported");
    let shipped_line = text
        .lines()
        .find(|l| l.starts_with("repl_segments_shipped_total"))
        .expect("shipped counter exported");
    println!("\nmetrics: {lag_line} | {shipped_line}");

    println!("\neverything verified: published, shipped, replayed, bit-identical. ✓");
    let _ = std::fs::remove_dir_all(&root);
}
