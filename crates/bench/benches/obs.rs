//! Wall-clock benchmarks for the observability layer's hot-path cost,
//! plus the machine-readable perf artifact.
//!
//! Besides the criterion group, every run (including the CI `--test`
//! smoke) serializes the disabled-vs-enabled recorder comparison on the
//! E15 (pooled batch) and E20 (MVCC epoch-pinned) workloads to
//! `BENCH_obs.json` (default `BENCH_obs.json` in the repository root;
//! override with the `BENCH_OBS_JSON` env var). The disabled
//! configuration is exactly what `BENCH_engine.json` / `BENCH_mvcc.json`
//! measure, so the committed trajectories stay directly comparable —
//! the artifact is the evidence that the default no-op recorder does
//! not tax the serving path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pitract_bench::artifact::{available_parallelism, experiment, rounded, write_artifact};
use pitract_bench::experiments::{obs_overhead_sweep, ObsSample, OBS_BATCH_QUERIES, OBS_SHARDS};
use pitract_engine::batch::QueryBatch;
use pitract_engine::shard::{ShardBy, ShardedRelation};
use pitract_engine::{PoolConfig, PooledExecutor};
use pitract_obs::Recorder;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use std::hint::black_box;
use std::sync::Arc;

const ROWS: i64 = 1 << 15;

/// Criterion group: one mixed batch through a warm pooled executor with
/// the recorder disabled (the default) and enabled — the sampled twin
/// of the sweep below.
fn bench_recorder_modes(c: &mut Criterion) {
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
    let sharded = Arc::new(
        ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, OBS_SHARDS, &[0, 1])
            .expect("valid sharding spec"),
    );
    let config = PoolConfig {
        workers: OBS_SHARDS,
        max_inflight: OBS_SHARDS,
        ..PoolConfig::default()
    };
    let disabled = PooledExecutor::new(Arc::clone(&sharded), config.clone());
    let recorder = Recorder::new();
    let enabled = PooledExecutor::new(Arc::clone(&sharded), PoolConfig { recorder, ..config });

    let mut group = c.benchmark_group("obs_recorder_overhead");
    group.bench_with_input(BenchmarkId::new("disabled", 0), &0, |b, _| {
        b.iter(|| black_box(&disabled).execute(black_box(&batch)).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("enabled", 0), &0, |b, _| {
        b.iter(|| black_box(&enabled).execute(black_box(&batch)).unwrap())
    });
    group.finish();
}

/// Measure the sweep once and write the JSON artifact.
fn emit_bench_obs_json(c: &mut Criterion) {
    // Best-of-3 per mode per workload: cheap enough for the `--test`
    // smoke, stable enough that the ratio isn't one scheduler hiccup.
    let samples = obs_overhead_sweep(ROWS, 3);
    let path = std::env::var("BENCH_OBS_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json").to_string()
    });
    match write_json(&path, &samples) {
        Ok(()) => println!("BENCH_obs.json written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    // Keep the shim's "ran at least one benchmark" accounting honest.
    c.bench_function("obs_emit_json", |b| b.iter(|| samples.len()));
}

fn write_json(path: &str, samples: &[ObsSample]) -> std::io::Result<()> {
    let results: Vec<_> = samples
        .iter()
        .map(|s| {
            pitract_obs::Json::obj()
                .set("workload", s.workload)
                .set("disabled_seconds", rounded(s.disabled_seconds, 6))
                .set("disabled_qps", rounded(s.disabled_qps, 1))
                .set("enabled_seconds", rounded(s.enabled_seconds, 6))
                .set("enabled_qps", rounded(s.enabled_qps, 1))
                .set("enabled_over_disabled", rounded(s.overhead(), 3))
        })
        .collect();
    let doc = experiment("observability-recorder-overhead")
        .set("rows", ROWS)
        .set("shards", OBS_SHARDS)
        .set("batch_queries", OBS_BATCH_QUERIES)
        .set("available_parallelism", available_parallelism())
        .set("results", results);
    write_artifact(path, &doc)
}

criterion_group!(benches, bench_recorder_modes, emit_bench_obs_json);
criterion_main!(benches);
