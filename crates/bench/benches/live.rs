//! Wall-clock benchmarks for the live serving tier, plus the
//! machine-readable perf artifact.
//!
//! Besides the criterion group, every run (including the CI `--test`
//! smoke) serializes the writer-count → batch-throughput curve to
//! `BENCH_live.json` (default `BENCH_live.json` in the repository
//! root; override with the `BENCH_LIVE_JSON` env var), next to
//! `BENCH_engine.json`, so future PRs can diff
//! how much concurrent write traffic costs the serving path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pitract_bench::artifact::{available_parallelism, experiment, rounded, write_artifact};
use pitract_bench::experiments::{
    live_throughput_sweep, LiveSample, LIVE_BATCH_QUERIES, LIVE_SHARDS,
};
use pitract_engine::batch::QueryBatch;
use pitract_engine::live::LiveRelation;
use pitract_engine::shard::ShardBy;
use pitract_engine::PooledExecutor;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use std::hint::black_box;
use std::sync::Arc;

const ROWS: i64 = 1 << 16;
const WRITER_COUNTS: [usize; 3] = [0, 1, 4];

/// Criterion group: the batch path itself (no writers — criterion's
/// repeated sampling would conflate writer scheduling noise with the
/// query path; the writer dimension is measured once per run by the
/// sweep below and serialized to the JSON artifact).
fn bench_live_batch(c: &mut Criterion) {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 64))])
        .collect();
    let rel = Relation::from_rows(schema, rows).expect("valid rows");
    let live = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, LIVE_SHARDS, &[0, 1])
        .expect("valid sharding spec");
    let exec = PooledExecutor::with_default_pool(Arc::new(live));
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

    let mut group = c.benchmark_group("e17_live_batch");
    group.bench_with_input(BenchmarkId::new("locked_batch", 0), &0, |b, _| {
        b.iter(|| black_box(&exec).execute(black_box(&batch)).unwrap().answers)
    });
    group.finish();
}

/// Measure the writer sweep once and write the JSON artifact.
fn emit_bench_live_json(c: &mut Criterion) {
    // One timed repetition per writer count keeps the `--test` smoke
    // fast; the criterion group above carries the sampled numbers for
    // the uncontended path.
    let samples = live_throughput_sweep(ROWS, &WRITER_COUNTS, 1);
    let path = std::env::var("BENCH_LIVE_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_live.json").to_string()
    });
    match write_json(&path, &samples) {
        Ok(()) => println!("BENCH_live.json written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    // Keep the shim's "ran at least one benchmark" accounting honest.
    c.bench_function("e17_emit_json", |b| b.iter(|| samples.len()));
}

fn write_json(path: &str, samples: &[LiveSample]) -> std::io::Result<()> {
    let results: Vec<_> = samples
        .iter()
        .map(|s| {
            pitract_obs::Json::obj()
                .set("writers", s.writers)
                .set("batch_seconds", rounded(s.batch_seconds, 6))
                .set("queries_per_second", rounded(s.queries_per_second, 1))
                .set("updates_per_second", rounded(s.updates_per_second, 1))
                .set(
                    "worst_maintenance_ratio",
                    rounded(s.worst_maintenance_ratio, 2),
                )
        })
        .collect();
    let doc = experiment("live-serving-throughput")
        .set("rows", ROWS)
        .set("shards", LIVE_SHARDS)
        .set("batch_queries", LIVE_BATCH_QUERIES)
        .set("available_parallelism", available_parallelism())
        .set("results", results);
    write_artifact(path, &doc)
}

criterion_group!(benches, bench_live_batch, emit_bench_live_json);
criterion_main!(benches);
