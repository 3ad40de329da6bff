//! Wall-clock benchmarks for epoch-pinned MVCC serving, plus the
//! machine-readable perf artifact.
//!
//! Besides the criterion group, every run (including the CI `--test`
//! smoke) serializes the pinned-vs-read-committed comparison at 0/1/4
//! racing writers to `BENCH_mvcc.json` (default `BENCH_mvcc.json` in
//! the repository root; override with the `BENCH_MVCC_JSON` env var),
//! next to the engine/store/live/wal artifacts, so future PRs can
//! diff what one consistent cut per batch costs over unpinned reads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pitract_bench::artifact::{available_parallelism, experiment, rounded, write_artifact};
use pitract_bench::experiments::{
    mvcc_serving_sweep, MvccSample, ReadCommitted, MVCC_BATCH_QUERIES, MVCC_SHARDS, MVCC_WRITERS,
};
use pitract_engine::batch::QueryBatch;
use pitract_engine::live::LiveRelation;
use pitract_engine::shard::ShardBy;
use pitract_engine::PooledExecutor;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use std::hint::black_box;
use std::sync::Arc;

const ROWS: i64 = 1 << 15;

/// Criterion group: the same mixed batch answered through two warm
/// executors over one relation, epoch-pinned and via the unpinned
/// [`ReadCommitted`] baseline (no writers — the pin's fixed overhead,
/// isolated).
fn bench_mvcc_paths(c: &mut Criterion) {
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
    let live = Arc::new(
        LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, MVCC_SHARDS, &[0, 1])
            .expect("valid sharding spec"),
    );
    let exec = PooledExecutor::with_default_pool(Arc::clone(&live));
    let rc_exec = PooledExecutor::with_default_pool(Arc::new(ReadCommitted(live)));

    let mut group = c.benchmark_group("e20_mvcc_batch");
    group.bench_with_input(BenchmarkId::new("epoch_pinned", 0), &0, |b, _| {
        b.iter(|| black_box(&exec).execute(black_box(&batch)).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("read_committed", 0), &0, |b, _| {
        b.iter(|| black_box(&rc_exec).execute(black_box(&batch)).unwrap())
    });
    group.finish();
}

/// Measure the writer sweep once and write the JSON artifact.
fn emit_bench_mvcc_json(c: &mut Criterion) {
    // 32 batches per path per writer count: cheap enough for the
    // `--test` smoke, enough samples that the p50 isn't at the mercy
    // of scheduler luck against the racing writers (the two paths
    // interleave batch-for-batch inside the sweep).
    let samples = mvcc_serving_sweep(ROWS, &MVCC_WRITERS, 32);
    let path = std::env::var("BENCH_MVCC_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mvcc.json").to_string()
    });
    match write_json(&path, &samples) {
        Ok(()) => println!("BENCH_mvcc.json written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    // Keep the shim's "ran at least one benchmark" accounting honest.
    c.bench_function("e20_emit_json", |b| b.iter(|| samples.len()));
}

fn write_json(path: &str, samples: &[MvccSample]) -> std::io::Result<()> {
    let results: Vec<_> = samples
        .iter()
        .map(|s| {
            pitract_obs::Json::obj()
                .set("writers", s.writers)
                .set("pinned_p50_seconds", rounded(s.pinned_p50_seconds, 6))
                .set("pinned_p99_seconds", rounded(s.pinned_p99_seconds, 6))
                .set("pinned_qps", rounded(s.pinned_qps, 1))
                .set(
                    "read_committed_p50_seconds",
                    rounded(s.read_committed_p50_seconds, 6),
                )
                .set(
                    "read_committed_p99_seconds",
                    rounded(s.read_committed_p99_seconds, 6),
                )
                .set("read_committed_qps", rounded(s.read_committed_qps, 1))
                .set(
                    "pinned_over_rc",
                    rounded(s.pinned_p50_seconds / s.read_committed_p50_seconds, 3),
                )
                .set("max_retained_versions", s.max_retained_versions)
                .set("max_retained_slots", s.max_retained_slots)
        })
        .collect();
    let doc = experiment("mvcc-epoch-pinned-vs-read-committed")
        .set("rows", ROWS)
        .set("shards", MVCC_SHARDS)
        .set("batch_queries", MVCC_BATCH_QUERIES)
        .set("available_parallelism", available_parallelism())
        .set("results", results);
    write_artifact(path, &doc)
}

criterion_group!(benches, bench_mvcc_paths, emit_bench_mvcc_json);
criterion_main!(benches);
