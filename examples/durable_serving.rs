//! Durable serving: a crash at any instant loses no confirmed update.
//!
//! The live serving tier (`examples/live_serving.rs`) keeps its update
//! log in memory — everything since the last checkpoint sits in a crash
//! window. This example closes that window with the `pitract-wal`
//! write-ahead log and walks the whole durability loop:
//!
//! 1. **Go durable**: wrap a 50k-row live relation in a
//!    `DurableLiveRelation` — a bootstrap checkpoint plus an fsync'd,
//!    checksummed segment log with group-commit batching.
//! 2. **Serve under fire**: writer threads churn inserts/deletes while
//!    query batches verify a stable region against the scan oracle; every
//!    confirmed update is on disk before its caller sees it succeed.
//! 3. **Crash**: drop the node cold — and, for good measure, leave a
//!    half-written record at the log's tail, exactly what a power cut
//!    mid-append does.
//! 4. **Recover**: checkpoint load + tail replay; verify the recovered
//!    node is bit-identical on rows, answers, and row ids.
//! 5. **Compact**: checkpoint, rotate, remove the closed segments the
//!    checkpoint covers, and show recovery now replays only what was
//!    logged after it, not the churn before it.
//!
//! Run with: `cargo run --release --example durable_serving`

use pi_tractable::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// The serving session a process keeps over its node.
fn session(node: &Arc<DurableLiveRelation>) -> PooledExecutor<DurableLiveRelation> {
    PooledExecutor::with_default_pool(Arc::clone(node))
}

fn main() {
    println!("=== Durable serving: WAL, crash recovery, compaction ===\n");

    let n = 50_000i64;
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 100))])
        .collect();
    let base = Relation::from_rows(schema, rows).expect("valid rows");

    let root = std::env::temp_dir().join(format!("pitract-durable-ex-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog dir");
    let wal_dir = root.join("wal");
    let config = WalConfig {
        segment_bytes: 256 << 10,
        ..WalConfig::default()
    };

    // 1. Go durable: Π(D) across 8 shards + bootstrap checkpoint + WAL.
    let t0 = Instant::now();
    let live = LiveRelation::build(&base, ShardBy::Hash { col: 0 }, 8, &[0, 1])
        .expect("valid sharding spec");
    let node = Arc::new(
        DurableLiveRelation::create(live, &catalog, "orders", &wal_dir, config.clone())
            .expect("fresh durable node"),
    );
    let exec = session(&node);
    println!(
        "bootstrap: 50k rows sharded, checkpointed, and WAL-attached in {:.0}ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // 2. Serve under fire: 4 writers churn while batches verify.
    let batch = QueryBatch::new((0..256i64).map(|k| match k % 3 {
        0 => SelectionQuery::point(0, (k * 997) % n),
        1 => SelectionQuery::range_closed(0, (k * 641) % n, (k * 641) % n + 150),
        _ => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 100).as_str()),
            SelectionQuery::range_closed(0, (k * 331) % n, (k * 331) % n + 1_500),
        ),
    }));
    let oracle: Vec<bool> = batch.queries().iter().map(|q| base.eval_scan(q)).collect();
    let t1 = Instant::now();
    let applied: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4i64)
            .map(|w| {
                let node = &node;
                scope.spawn(move || {
                    let mut applied = 0u64;
                    for i in 0..1_500i64 {
                        let gid = node
                            .insert(vec![Value::Int(n + w * 1_000_000 + i), Value::str("hot")])
                            .expect("durable insert");
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
        for round in 0..10 {
            let got = exec.execute(&batch).expect("batch");
            assert_eq!(got.answers, oracle, "round {round} diverged from oracle");
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    node.wal().sync().expect("final flush");
    let secs = t1.elapsed().as_secs_f64();
    println!(
        "served 10×256 verified queries while absorbing {} durable updates \
         ({:.0} updates/s, group commit); wal: {} records durable",
        applied,
        applied as f64 / secs,
        node.wal().durable_lsn(),
    );

    // 3. Crash. Cold drop, plus a torn record: append half a frame to
    // the newest segment — exactly what a power cut leaves when it hits
    // mid-append, before the update was ever confirmed to its caller.
    let expected: Vec<Option<Vec<Value>>> =
        (0..(n as usize + 7_000)).map(|gid| node.row(gid)).collect();
    let expected_len = node.len();
    drop(exec);
    drop(node);
    let newest = std::fs::read_dir(&wal_dir)
        .expect("wal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .max()
        .expect("segments exist");
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&newest)
            .expect("open segment");
        // A length prefix promising 64 payload bytes, then silence.
        f.write_all(&64u32.to_le_bytes()).expect("torn frame");
        f.write_all(&[0xAB; 5]).expect("torn frame");
    }
    println!("\ncrash: process gone, a half-written (never confirmed) record torn at the tail");

    // 4. Recover and verify bit-identical state.
    let t2 = Instant::now();
    let node = Arc::new(
        DurableLiveRelation::recover(&catalog, "orders", &wal_dir, config.clone())
            .expect("recovery"),
    );
    let recover_ms = t2.elapsed().as_secs_f64() * 1e3;
    assert_eq!(node.len(), expected_len, "live count after recovery");
    let mut checked = 0usize;
    for (gid, expect) in expected.iter().enumerate() {
        assert_eq!(&node.row(gid), expect, "gid {gid} after recovery");
        checked += 1;
    }
    let served = session(&node).execute(&batch).expect("batch");
    assert_eq!(served.answers, oracle);
    println!(
        "recovered in {recover_ms:.0}ms: {checked} row slots, 256 answers, and every \
         global row id verified identical (the torn record was never confirmed, so it is gone)"
    );

    // 5. Compact: the checkpoint covers the churn, rotation closes the
    // segments, and compaction removes the closed segments it covers.
    node.checkpoint(&catalog, "orders").expect("checkpoint");
    node.wal().rotate_now().expect("rotate");
    let report = node.compact_wal().expect("compaction");
    println!(
        "\ncompaction: {} records across {} closed segments → {} records \
         ({} segments removed whole, none rewritten)",
        report.records_before, report.segments_seen, report.records_after, report.segments_removed,
    );
    drop(node);
    let t3 = Instant::now();
    let node = Arc::new(
        DurableLiveRelation::recover(&catalog, "orders", &wal_dir, config)
            .expect("recovery after compaction"),
    );
    println!(
        "post-compaction recovery replayed {} entries in {:.0}ms — the log past the \
         checkpoint, not the {} updates of churn before it",
        node.boundedness_report().len(),
        t3.elapsed().as_secs_f64() * 1e3,
        applied,
    );
    assert_eq!(node.len(), expected_len);
    let served = session(&node).execute(&batch).expect("batch");
    assert_eq!(served.answers, oracle);

    println!("\neverything verified: durable, crash-consistent, compacted. ✓");
    let _ = std::fs::remove_dir_all(&root);
}
