//! Live serving: queries answered *while* updates land, with checkpoint
//! and crash recovery.
//!
//! The paper's maintenance story (Section 4(7)) only matters if the
//! preprocessed structure survives a live workload: heavy query traffic
//! interleaved with inserts and deletes, each update charged against
//! `|CHANGED| = |ΔD| + |ΔO|`, not `|D|`. This example walks that loop:
//!
//! 1. **Go live**: wrap a 100k-row sharded relation in a `LiveRelation`
//!    (per-shard read/write locks — updates lock one shard, batches
//!    read-lock only the shards they route to), made durable by a
//!    write-ahead log on an in-memory volume: the WAL is the one update
//!    log.
//! 2. **Serve under fire**: four writer threads churn inserts/deletes
//!    while the main thread serves query batches concurrently, verifying
//!    a stable key region against the scan oracle the whole time.
//! 3. **Account**: print the `|CHANGED|` boundedness report of every
//!    applied update.
//! 4. **Checkpoint + recover**: persist the state with its WAL mark
//!    through the snapshot catalog, apply more updates, then recover
//!    (snapshot load + WAL tail replay) and verify the recovered node is
//!    bit-identical — same answers, same global row ids.
//!
//! Run with: `cargo run --release --example live_serving`

use pi_tractable::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    println!("=== Live serving: concurrent updates, bounded maintenance, recovery ===\n");

    let n = 100_000i64;
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 100))])
        .collect();
    let base = Relation::from_rows(schema, rows).expect("valid rows");

    // 1. Go live: Π(D) across 8 shards, wrapped for concurrent serving,
    //    with a WAL underneath (an in-memory volume; a path puts it on
    //    disk).
    let root = Dir::memory();
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog dir");
    let live = Arc::new(
        DurableLiveRelation::create(
            LiveRelation::build(&base, ShardBy::Hash { col: 0 }, 8, &[0, 1])
                .expect("valid sharding spec"),
            &catalog,
            "live-orders",
            root.join("wal"),
            WalConfig::default(),
        )
        .expect("bootstrap checkpoint + wal"),
    );
    let exec = PooledExecutor::with_default_pool(Arc::clone(&live));
    println!(
        "live Π(D): {} rows -> 8 shards behind per-shard RwLocks, every update logged to the WAL",
        live.len()
    );

    // Queries over the stable region [0, n): writers only touch keys
    // above n, so these answers are invariant under the churn.
    let batch = QueryBatch::new((0..512i64).map(|k| match k % 3 {
        0 => SelectionQuery::point(0, (k * 997) % n),
        1 => SelectionQuery::range_closed(0, (k * 641) % n, (k * 641) % n + 250),
        _ => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 100).as_str()),
            SelectionQuery::range_closed(0, (k * 331) % n, (k * 331) % n + 5_000),
        ),
    }));
    let oracle: Vec<bool> = batch.queries().iter().map(|q| base.eval_scan(q)).collect();

    // 2. Serve while four writers churn the volatile region.
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (batches_served, updates_applied) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let live = &live;
                let stop = &stop;
                scope.spawn(move || {
                    let mut applied = 0u64;
                    let mut round = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        let key = n + w * 1_000_000 + round;
                        let gid = live
                            .insert(vec![Value::Int(key), Value::str("hot")])
                            .expect("valid row");
                        applied += 1;
                        if round % 2 == 0 {
                            live.delete(gid).unwrap().expect("just inserted");
                            applied += 1;
                        }
                        round += 1;
                    }
                    applied
                })
            })
            .collect();

        let mut served = 0u64;
        for _ in 0..20 {
            let got = exec.execute(&batch).expect("valid batch");
            assert_eq!(got.answers, oracle, "stable region diverged under churn");
            served += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let applied: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        (served, applied)
    });
    let dt = t0.elapsed();
    println!(
        "served {batches_served} batches x {} queries concurrently with {updates_applied} updates  [{dt:.2?}]",
        batch.len()
    );
    println!("every batch matched the single-threaded scan oracle\n");

    // 3. The |CHANGED| accounting of all that maintenance.
    let report = live.boundedness_report();
    println!(
        "maintenance: {} updates, total work {}, total |CHANGED| {}, worst work/(|CHANGED|+1) = {:.1}",
        report.len(),
        report.total_work(),
        report.total_changed(),
        report.worst_ratio()
    );
    let descent_bound = 64.0; // ~2 + log2(shard size): the B+-tree descent factor
    println!(
        "per-update bounded by c = {descent_bound}: {}\n",
        report.is_per_update_bounded(descent_bound)
    );

    // 4. Checkpoint, keep writing, then recover and verify bit-identity.
    let t1 = Instant::now();
    live.checkpoint(&catalog, "live-orders")
        .expect("checkpoint");
    println!(
        "checkpointed at WAL mark {}  [{:.2?}]",
        live.checkpoint_mark(),
        t1.elapsed()
    );

    let post_gid = live
        .insert(vec![Value::Int(n * 10), Value::str("post-checkpoint")])
        .expect("valid row");
    live.delete(7).unwrap().expect("gid 7 live");
    println!(
        "post-checkpoint traffic: 1 insert (gid {post_gid}), 1 delete; WAL tail past the mark = {} records",
        live.wal().next_lsn() - live.checkpoint_mark()
    );

    // The WAL has one writer: stop the node before recovering its log.
    let probes = QueryBatch::new(vec![
        SelectionQuery::point(0, n * 10),
        SelectionQuery::point(0, 7i64),
        SelectionQuery::range_closed(0, 0i64, 100i64),
    ]);
    let a = exec.execute_rows(&probes).expect("live rows");
    let (epoch, len) = (live.current_epoch(), live.len());
    drop(exec);
    drop(live);

    let t2 = Instant::now();
    let recovered = DurableLiveRelation::recover(
        &catalog,
        "live-orders",
        root.join("wal"),
        WalConfig::default(),
    )
    .expect("snapshot load + WAL replay");
    let summary = recovered.recovery_summary().expect("a recovered node");
    println!(
        "recovered = snapshot + replay  [{:.2?}]  (epoch clock resumed at {}, {} entries replayed)",
        t2.elapsed(),
        summary.epoch,
        summary.replayed
    );
    assert_eq!(recovered.current_epoch(), epoch);
    assert_eq!(recovered.len(), len);
    let b = PooledExecutor::with_default_pool(Arc::new(recovered))
        .execute_rows(&probes)
        .expect("recovered rows");
    assert_eq!(a.rows, b.rows, "global row ids survive recovery");
    println!("recovered node is bit-identical: same answers, same global row ids");
}
