//! Sharded batch serving: the paper's NC claim with real threads.
//!
//! Definition 1 calls a query class tractable when a one-time PTIME
//! preprocessing step `Π(D)` makes every query answerable in parallel
//! polylog time. This example exercises the *parallel* half: a 100k-row
//! relation is hash-partitioned into shards (each one an independently
//! indexed `Π(D)`), and a batch of 1,000 mixed point / range /
//! conjunction queries fans out across the shards on the executor's
//! worker pool.
//!
//! Along the way the planner routes every query to its cheapest access
//! path and the per-query step meters are aggregated into a batch cost
//! report — so the output shows both *what* ran (path histogram, shard
//! fan-out) and *how much* it cost (steps vs the scan baseline).
//!
//! Run with: `cargo run --release --example sharded_serving`

use pi_tractable::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn mixed_batch(n: i64) -> QueryBatch {
    QueryBatch::new((0..1_000i64).map(|k| match k % 4 {
        // Point lookups on the shard key: routable to one shard.
        0 => SelectionQuery::point(0, (k * 997) % (n + n / 10)),
        // Range probes on the indexed timestamp-like column.
        1 => SelectionQuery::range_closed(0, (k * 641) % n, (k * 641) % n + 250),
        // Conjunctions: indexed point drives, range verifies.
        2 => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 100).as_str()),
            SelectionQuery::range_closed(0, (k * 331) % n, (k * 331) % n + 5_000),
        ),
        // Misses beyond the data: worst case for a scan.
        _ => SelectionQuery::point(0, n + k),
    }))
}

fn main() {
    println!("=== Sharded batch serving: Π(D) across S shards, one batch fan-out ===\n");

    let n = 100_000i64;
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 100))])
        .collect();
    let base = Relation::from_rows(schema, rows).expect("valid rows");
    let batch = mixed_batch(n);
    println!(
        "relation: {} rows; batch: {} mixed point/range/conjunction queries\n",
        base.len(),
        batch.len()
    );

    // The oracle: a sequential scan per query over the unpartitioned data.
    let t0 = Instant::now();
    let oracle: Vec<bool> = batch.queries().iter().map(|q| base.eval_scan(q)).collect();
    let scan_time = t0.elapsed();

    println!("shards  batch time  vs scan    total steps  paths");
    for shards in [1usize, 2, 4, 8] {
        let sharded = LiveRelation::build(&base, ShardBy::Hash { col: 0 }, shards, &[0, 1])
            .expect("valid sharding spec");
        // The pool is spawned once per serving session, outside the timer.
        let exec = PooledExecutor::with_default_pool(Arc::new(sharded));
        let t0 = Instant::now();
        let result = exec.execute(&batch).expect("valid batch");
        let elapsed = t0.elapsed();
        assert_eq!(
            result.answers, oracle,
            "sharded answers must match the scan oracle"
        );
        let paths: Vec<String> = result
            .report
            .path_histogram()
            .iter()
            .map(|(label, count)| format!("{label}×{count}"))
            .collect();
        println!(
            "{shards:>6}  {:>9.2?}  {:>7.1}x  {:>11}  {}",
            elapsed,
            scan_time.as_secs_f64() / elapsed.as_secs_f64(),
            result.report.total_steps,
            paths.join(", ")
        );
    }

    // Row-id serving: the same fan-out, returning witnesses. The built
    // Π(D) is immutable; serving it wraps it in a live relation.
    let sharded = ShardedRelation::build(&base, ShardBy::Hash { col: 0 }, 4, &[0, 1])
        .expect("valid sharding spec");
    let probe = SelectionQuery::point(0, 77i64);
    let (touched, shard_count) = (sharded.relevant_shards(&probe).len(), sharded.shard_count());
    let witness_batch = QueryBatch::new([
        SelectionQuery::point(1, "grp42"),
        SelectionQuery::range_closed(0, 500i64, 520i64),
    ]);
    let rows = PooledExecutor::with_default_pool(Arc::new(LiveRelation::from_sharded(sharded)))
        .execute_rows(&witness_batch)
        .expect("valid batch");
    println!(
        "\nrow-id mode: grp42 has {} member rows; ids [500,520] holds {} rows",
        rows.rows[0].len(),
        rows.rows[1].len()
    );

    // Shard-key routing: a point query on the shard key probes one shard.
    println!("routing: {probe:?} touches {touched} of {shard_count} shards");

    println!("\nEvery batch answer matched the sequential scan oracle.");
}
