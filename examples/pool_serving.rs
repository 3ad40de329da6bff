//! Pooled serving: a worker pool spawned once, batches streamed through.
//!
//! Spawning and joining a thread per shard for *every* batch would put
//! the spawn/join tax on the serving path. This example runs serving as
//! a **session** instead:
//!
//! 1. **Go durable**: a 50k-row relation sharded 8 ways behind a
//!    `DurableLiveRelation` (checkpoint + write-ahead log).
//! 2. **Open the session**: a `PooledExecutor` sizes a worker pool once
//!    (workers ≤ available cores, capped at the shard count) with an
//!    admission gate bounding in-flight batches.
//! 3. **Stream batches under fire**: query batches flow through the
//!    standing workers while a writer thread lands durable updates with
//!    `apply_batch` — many records per WAL commit, one fsync per batch.
//! 4. **Verify**: every batch is checked against the scan oracle, and
//!    the batched writes recover bit-identically after a cold drop.
//!
//! Run with: `cargo run --release --example pool_serving`

use pi_tractable::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    println!("=== Pooled serving: a standing worker pool + batched durable writes ===\n");

    let n = 50_000i64;
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 100))])
        .collect();
    let base = Relation::from_rows(schema, rows).expect("valid rows");

    let root = std::env::temp_dir().join(format!("pitract-pool-ex-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog dir");
    let wal_dir = root.join("wal");
    let config = WalConfig {
        segment_bytes: 256 << 10,
        ..WalConfig::default()
    };

    // 1. Go durable: Π(D) across 8 shards + bootstrap checkpoint + WAL.
    let live = LiveRelation::build(&base, ShardBy::Hash { col: 0 }, 8, &[0, 1])
        .expect("valid sharding spec");
    let node = Arc::new(
        DurableLiveRelation::create(live, &catalog, "orders", &wal_dir, config.clone())
            .expect("fresh durable node"),
    );

    // 2. Open the serving session: workers spawn once, here, not per batch.
    let exec = PooledExecutor::with_default_pool(Arc::clone(&node));
    println!(
        "session open: {} worker(s) for 8 shards, at most {} batch(es) in flight",
        exec.stats().workers,
        exec.stats().max_inflight,
    );

    // 3. Stream batches while a writer lands batched durable updates.
    let batch = QueryBatch::new((0..256i64).map(|k| match k % 3 {
        0 => SelectionQuery::point(0, (k * 997) % n),
        1 => SelectionQuery::range_closed(0, (k * 641) % n, (k * 641) % n + 150),
        _ => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 100).as_str()),
            SelectionQuery::range_closed(0, (k * 331) % n, (k * 331) % n + 1_500),
        ),
    }));
    let oracle: Vec<bool> = batch.queries().iter().map(|q| base.eval_scan(q)).collect();
    let rounds = 20usize;
    let t0 = Instant::now();
    let written: usize = std::thread::scope(|scope| {
        let writer = Arc::clone(&node);
        let handle = scope.spawn(move || {
            let mut written = 0usize;
            for chunk in 0..25i64 {
                // 128 inserts per call — staged record by record, made
                // durable by ONE trailing commit (one fsync per batch).
                let ops = (0..128i64).map(|j| {
                    UpdateOp::Insert(vec![Value::Int(n + chunk * 128 + j), Value::str("hot")])
                });
                written += writer.apply_batch(ops).expect("durable batch").len();
            }
            written
        });
        for round in 0..rounds {
            let got = exec.execute(&batch).expect("pooled batch");
            assert_eq!(got.answers, oracle, "round {round} diverged from oracle");
        }
        handle.join().unwrap()
    });
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "streamed {rounds}×256 verified queries through the standing pool while \
         {written} durable updates landed in {} apply_batch commits \
         ({:.0} queries/s alongside {:.0} updates/s); wal: {} records durable",
        written / 128,
        (rounds * 256) as f64 / secs,
        written as f64 / secs,
        node.wal().durable_lsn(),
    );

    // Row-id lookups ride the same pool.
    let rows_batch = QueryBatch::new((0..64i64).map(|k| SelectionQuery::point(0, k * 7)));
    let got = exec.execute_rows(&rows_batch).expect("pooled rows");
    for (k, ids) in got.rows.iter().enumerate() {
        assert_eq!(ids, &vec![k * 7], "global id of key {}", k * 7);
    }
    println!("row-id lookups verified: key k maps to global row id k, pool or no pool");

    // 4. Crash cold; recovery must replay every batched write.
    let expected_len = node.len();
    drop(exec);
    drop(node);
    let node = DurableLiveRelation::recover(&catalog, "orders", &wal_dir, config)
        .expect("recovery after the session");
    assert_eq!(
        node.len(),
        expected_len,
        "batched writes survived the crash"
    );
    assert!(node.answer(&SelectionQuery::point(0, n + 25 * 128 - 1)));
    println!(
        "\nrecovered: all {written} batched updates replayed — session throughput, \
         per-record durability. ✓"
    );
    let _ = std::fs::remove_dir_all(&root);
}
