//! Persistent serving: pay Π(D) once, warm-start every boot after.
//!
//! Definition 1's contract is *one-time* PTIME preprocessing followed by
//! parallel polylog answering — but without persistence the "one-time"
//! cost is paid on every process start. This example walks the full
//! deployment loop:
//!
//! 1. **Cold start**: build a 100k-row `ShardedRelation` (8 hash shards,
//!    B⁺-trees on both columns) — the expensive Π(D).
//! 2. **Persist**: serialize it into a named snapshot via
//!    `SnapshotCatalog` (versioned, checksummed, atomically written).
//! 3. **Warm start**: a fresh engine loads the snapshot from disk —
//!    the rows, with the trees rebuilt by sort as they are decoded —
//!    wraps it for serving (`LiveRelation::from_sharded`) and serves a
//!    1,000-query batch against it.
//! 4. **Verify**: warm answers equal the cold engine's answers, row ids
//!    included.
//!
//! Run with: `cargo run --release --example persistent_serving`

use pi_tractable::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn mixed_batch(n: i64) -> QueryBatch {
    QueryBatch::new((0..1_000i64).map(|k| match k % 4 {
        0 => SelectionQuery::point(0, (k * 997) % (n + n / 10)),
        1 => SelectionQuery::range_closed(0, (k * 641) % n, (k * 641) % n + 250),
        2 => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 100).as_str()),
            SelectionQuery::range_closed(0, (k * 331) % n, (k * 331) % n + 5_000),
        ),
        _ => SelectionQuery::point(0, n + k),
    }))
}

fn main() {
    println!("=== Persistent snapshots: serialize Π(D) once, warm-start from disk ===\n");

    let n = 100_000i64;
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 100))])
        .collect();
    let base = Relation::from_rows(schema, rows).expect("valid rows");

    // 1. Cold start: the one-time PTIME preprocessing.
    let t0 = Instant::now();
    let cold = ShardedRelation::build(&base, ShardBy::Hash { col: 0 }, 8, &[0, 1])
        .expect("valid sharding spec");
    let build_time = t0.elapsed();
    println!(
        "cold Π(D): {} rows -> 8 shards, indexes on both columns  [{build_time:.2?}]",
        cold.len()
    );

    // 2. Persist under a name. The catalog writes atomically (temp file +
    //    rename), so a crash mid-save can never corrupt a served snapshot.
    let dir = std::env::temp_dir().join(format!("pitract-serving-{}", std::process::id()));
    let catalog = SnapshotCatalog::open(&dir).expect("catalog dir");
    let t0 = Instant::now();
    let path = catalog
        .save("traffic", &Snapshot::from(cold))
        .expect("snapshot save");
    let save_time = t0.elapsed();
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "persisted:  {} ({:.1} MiB)  [{save_time:.2?}]",
        path.display(),
        file_bytes as f64 / (1024.0 * 1024.0)
    );

    // 3. Warm start: a fresh engine, nothing in memory, loads the rows
    //    from disk; the load sorts them into the same trees the build made.
    let t0 = Instant::now();
    let warm = catalog.load("traffic").expect("snapshot load").state;
    let load_time = t0.elapsed();
    println!(
        "warm start: loaded {} rows across {} shards  [{load_time:.2?}]  (load / cold build = {:.2})\n",
        warm.len(),
        warm.shard_count(),
        load_time.as_secs_f64() / build_time.as_secs_f64().max(1e-9)
    );

    // 4. Serve a batch from the warm engine and verify against a cold one.
    let batch = mixed_batch(n);
    let warm = PooledExecutor::with_default_pool(Arc::new(LiveRelation::from_sharded(warm)));
    let t0 = Instant::now();
    let result = warm.execute(&batch).expect("valid batch");
    let serve_time = t0.elapsed();
    let hits = result.answers.iter().filter(|&&a| a).count();
    println!(
        "served {} queries from the warm engine in {serve_time:.2?} ({hits} hits)",
        batch.len()
    );
    print!("paths:");
    for (label, count) in result.report.path_histogram() {
        print!("  {label} x{count}");
    }
    println!("\n");

    let rebuilt = LiveRelation::build(&base, ShardBy::Hash { col: 0 }, 8, &[0, 1])
        .expect("valid sharding spec");
    let oracle = PooledExecutor::with_default_pool(Arc::new(rebuilt))
        .execute(&batch)
        .expect("valid batch");
    assert_eq!(
        result.answers, oracle.answers,
        "warm == cold on every query"
    );
    println!("verified: warm-started answers identical to the cold-rebuilt oracle");

    let _ = std::fs::remove_dir_all(&dir);
}
