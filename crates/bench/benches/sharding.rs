//! Wall-clock benchmarks for the sharded batch engine, plus the
//! machine-readable perf artifact.
//!
//! Besides the criterion groups, every run (including the CI `--test`
//! smoke) serializes the shard-count → batch-throughput curve to
//! `BENCH_engine.json` (default `BENCH_engine.json` in the
//! repository root; override with the `BENCH_ENGINE_JSON` env var), so
//! future PRs have a perf trajectory to diff against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pitract_bench::artifact::{available_parallelism, experiment, rounded, write_artifact};
use pitract_bench::experiments::{shard_throughput_sweep, ShardSample, BATCH_QUERIES};
use pitract_engine::batch::QueryBatch;
use pitract_engine::shard::{ShardBy, ShardedRelation};
use pitract_engine::PooledExecutor;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use std::hint::black_box;
use std::sync::Arc;

const ROWS: i64 = 1 << 16;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_batch_across_shards(c: &mut Criterion) {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 64))])
        .collect();
    let rel = Relation::from_rows(schema, rows).expect("valid rows");
    let batch = QueryBatch::new((0..256i64).map(|k| match k % 3 {
        0 => SelectionQuery::point(0, (k * 997) % ROWS),
        1 => {
            let lo = (k * 641) % ROWS;
            SelectionQuery::range_closed(0, lo, lo + 200)
        }
        _ => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 64).as_str()),
            SelectionQuery::range_closed(0, (k * 331) % ROWS, (k * 331) % ROWS + 2_000),
        ),
    }));

    let mut group = c.benchmark_group("e15_sharded_batch");
    for &shards in &SHARD_COUNTS {
        let sharded = ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, shards, &[0, 1])
            .expect("valid sharding spec");
        let exec = PooledExecutor::with_default_pool(Arc::new(sharded));
        group.bench_with_input(BenchmarkId::new("mixed_batch", shards), &shards, |b, _| {
            b.iter(|| black_box(&exec).execute(black_box(&batch)).unwrap())
        });
    }
    group.finish();
}

/// Measure the sweep once and write the JSON artifact.
fn emit_bench_engine_json(c: &mut Criterion) {
    // Keep the artifact fast to produce in `--test` smoke mode: one timed
    // repetition per shard count (the criterion groups above carry the
    // statistically sampled numbers).
    let samples = shard_throughput_sweep(ROWS, &SHARD_COUNTS, 1);
    let path = std::env::var("BENCH_ENGINE_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json").to_string()
    });
    match write_json(&path, &samples) {
        Ok(()) => println!("BENCH_engine.json written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    // Keep the shim's "ran at least one benchmark" accounting honest.
    c.bench_function("e15_emit_json", |b| b.iter(|| samples.len()));
}

fn write_json(path: &str, samples: &[ShardSample]) -> std::io::Result<()> {
    let results: Vec<_> = samples
        .iter()
        .map(|s| {
            pitract_obs::Json::obj()
                .set("shards", s.shards)
                .set("workers", s.workers)
                .set("batch_seconds", rounded(s.batch_seconds, 6))
                .set("queries_per_second", rounded(s.queries_per_second, 1))
                .set("total_steps", s.total_steps)
        })
        .collect();
    let doc = experiment("sharded-batch-throughput")
        .set("rows", ROWS)
        .set("batch_queries", BATCH_QUERIES)
        .set("available_parallelism", available_parallelism())
        .set("results", results);
    write_artifact(path, &doc)
}

criterion_group!(benches, bench_batch_across_shards, emit_bench_engine_json);
criterion_main!(benches);
