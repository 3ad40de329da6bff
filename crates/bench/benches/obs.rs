//! Wall-clock cost of the observability layer on the serving hot path:
//! one mixed batch through a warm pooled executor with the recorder
//! disabled (the default) and enabled. The end-to-end benchmark runs no
//! `Recorder`, so this group is the only measurement of that cost; it
//! prints and writes nothing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pitract_engine::batch::QueryBatch;
use pitract_engine::shard::ShardBy;
use pitract_engine::{LiveRelation, PoolConfig, PooledExecutor};
use pitract_obs::Recorder;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use std::hint::black_box;
use std::sync::Arc;

const ROWS: i64 = 1 << 15;
const SHARDS: usize = 4;

/// Criterion group: one mixed batch through a warm pooled executor with
/// the recorder disabled (the default) and enabled.
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
        LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, SHARDS, &[0, 1])
            .expect("valid sharding spec"),
    );
    let config = PoolConfig {
        workers: SHARDS,
        max_inflight: SHARDS,
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

criterion_group!(benches, bench_recorder_modes);
criterion_main!(benches);
