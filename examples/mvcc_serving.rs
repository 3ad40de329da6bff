//! MVCC serving: every batch reads one consistent cut, writers never wait.
//!
//! A batch fanned out across shards can otherwise observe a database
//! instance that never existed — shard 0 answered before an update,
//! shard 3 after it. This example shows the epoch-pinned read path
//! closing that hole without blocking writers:
//!
//! 1. **Build the live tier**: a 20k-row relation sharded 4 ways behind
//!    a `LiveRelation`, made durable by a write-ahead log on an in-memory
//!    volume; every applied update ticks a monotonic `Epoch` and is
//!    logged once, to the WAL.
//! 2. **Serve under churn**: batches flow through a `PooledExecutor`
//!    while writer threads race them. Each batch pins one epoch
//!    (`BatchReport::epoch`) and every shard answers at exactly that
//!    instance; writers push O(1) undo records around the pin.
//! 3. **Prove the cut**: for each batch, replay the WAL records below
//!    the pinned epoch's LSN onto a fresh build — the oracle's row ids
//!    must equal the batch's, bit for bit.
//! 4. **Crash and recover**: checkpoint, write, drop the node, recover
//!    from the checkpoint and the WAL tail — the epoch clock resumes
//!    exactly where the lost node's stood (`Recovered`), so pinned reads
//!    mean the same instant across the restart.
//!
//! Run with: `cargo run --release --example mvcc_serving`

use pi_tractable::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    println!("=== MVCC serving: one consistent epoch per batch, writers never blocked ===\n");

    let n = 20_000i64;
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 50))])
        .collect();
    let base = Relation::from_rows(schema, rows).expect("valid rows");

    // 1. The live tier: Π(D) across 4 shards, epoch clock at zero, a
    //    WAL underneath (an in-memory volume; a path puts it on disk).
    let root = Dir::memory();
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog dir");
    let live = Arc::new(
        DurableLiveRelation::create(
            LiveRelation::build(&base, ShardBy::Hash { col: 0 }, 4, &[0, 1])
                .expect("valid sharding spec"),
            &catalog,
            "mvcc-orders",
            root.join("wal"),
            WalConfig::default(),
        )
        .expect("bootstrap checkpoint + wal"),
    );
    let exec = PooledExecutor::with_default_pool(Arc::clone(&live));
    println!(
        "live tier up: {} rows, 4 shards, epoch clock at {}",
        live.len(),
        live.current_epoch()
    );

    // Queries that deliberately cover the volatile key region the
    // writers churn in — a torn read would change these answers.
    let batch = QueryBatch::new(vec![
        SelectionQuery::range_closed(0, 0i64, n * 2),
        SelectionQuery::point(1, "hot"),
        SelectionQuery::and(
            SelectionQuery::point(1, "hot"),
            SelectionQuery::range_closed(0, n, n * 2),
        ),
        SelectionQuery::range_closed(0, n - 100, n + 500),
    ]);

    // 2. Serve while two writers race the batches.
    let t0 = Instant::now();
    let mut observed: Vec<(Epoch, Vec<Vec<usize>>)> = Vec::new();
    std::thread::scope(|scope| {
        for w in 0..2i64 {
            let live = Arc::clone(&live);
            scope.spawn(move || {
                for i in 0..150i64 {
                    let gid = live
                        .insert(vec![Value::Int(n + w * 10_000 + i), Value::str("hot")])
                        .expect("valid row");
                    if i % 3 == 0 {
                        live.delete(gid).unwrap().expect("own insert still live");
                    }
                }
            });
        }
        for _ in 0..8 {
            let got = exec.execute_rows(&batch).expect("valid batch");
            let epoch = got.report.epoch;
            observed.push((epoch, got.rows));
        }
    });
    println!(
        "served {} batches against 2 racing writers in {:.2?}; pinned epochs: {:?}",
        observed.len(),
        t0.elapsed(),
        observed.iter().map(|(e, _)| e.get()).collect::<Vec<_>>()
    );

    // 3. The consistency proof: epoch E names the state after exactly
    //    the WAL records below `lsn_of_epoch(E)`; replaying that prefix
    //    reproduces each batch's row ids bit-identically.
    let log = WalReader::open(root.join("wal")).expect("wal readable");
    for (epoch, rows) in &observed {
        let below = live.lsn_of_epoch(*epoch);
        let prefix: Vec<UpdateEntry> = log
            .records()
            .iter()
            .filter(|r| r.lsn < below)
            .map(|r| r.entry.clone())
            .collect();
        let oracle = LiveRelation::build(&base, ShardBy::Hash { col: 0 }, 4, &[0, 1])
            .expect("valid sharding spec");
        oracle.replay_entries(prefix).expect("own history replays");
        let expect = PooledExecutor::with_default_pool(Arc::new(oracle))
            .execute_rows(&batch)
            .expect("valid batch");
        assert_eq!(&expect.rows, rows, "batch at pinned epoch {epoch} diverged");
    }
    println!("every batch bit-identical to the log-prefix oracle at its pinned epoch");
    let stats = live.version_stats();
    println!(
        "version rings drained: {} pins, {} retained versions (clock at {})",
        stats.pins, stats.retained_versions, stats.current_epoch
    );

    // 4. Crash and recover: the epoch clock survives the restart.
    live.checkpoint(&catalog, "mvcc-orders")
        .expect("checkpoint");
    live.insert(vec![Value::Int(n * 5), Value::str("post-checkpoint")])
        .expect("valid row");
    let lost_epoch = live.current_epoch();
    drop((exec, live)); // "crash"
    let recovered = DurableLiveRelation::recover(
        &catalog,
        "mvcc-orders",
        root.join("wal"),
        WalConfig::default(),
    )
    .expect("snapshot load + WAL replay");
    let summary = recovered.recovery_summary().expect("a recovered node");
    println!(
        "recovered: epoch clock resumed at {} ({} entries replayed)",
        summary.epoch, summary.replayed
    );
    assert_eq!(recovered.current_epoch(), lost_epoch);
    recovered
        .insert(vec![Value::Int(n * 6), Value::str("next")])
        .expect("valid row");
    assert_eq!(
        recovered.current_epoch(),
        Epoch::new(lost_epoch.get() + 1),
        "the next update is stamped as the lost node would have stamped it"
    );
    println!(
        "post-recovery update stamped exactly as on the lost node (epoch {})",
        recovered.current_epoch()
    );
}
