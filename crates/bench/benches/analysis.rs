//! Pricing the runtime lockdep (PR 9): what the rank-checked
//! `OrderedMutex`/`OrderedRwLock` wrappers cost relative to the bare std
//! locks they wrap, microscopically and on the E15 pooled serving
//! workload.
//!
//! Release builds compile the rank check out, so `ordered_mutex_ns`
//! should sit on top of `std_mutex_ns`; `noted_pair_ns` adds the
//! explicit `note_acquire`/`note_release` bookkeeping a *debug*
//! acquisition pays (those functions are always compiled, so a release
//! bench can price them). The serving-level number runs the E15 mixed
//! batch through a pooled executor over a `LiveRelation`, whose entire
//! lock population is ordered — the end-to-end cost of the migration.
//!
//! Every run (including the CI `--test` smoke) writes
//! `BENCH_analysis.json` (repository root; override with the
//! `BENCH_ANALYSIS_JSON` env var) so future PRs can diff the overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use pitract_bench::artifact::{available_parallelism, experiment, rounded, write_artifact};
use pitract_core::lockdep::{self, LockRank, OrderedMutex};
use pitract_engine::batch::QueryBatch;
use pitract_engine::live::LiveRelation;
use pitract_engine::shard::ShardBy;
use pitract_engine::PooledExecutor;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const ROWS: i64 = 1 << 16;
const BATCH_QUERIES: i64 = 256;
const LOCK_ROUNDS: u64 = 1_000_000;

fn ns_per(rounds: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..rounds {
        f();
    }
    start.elapsed().as_nanos() as f64 / rounds as f64
}

fn relation() -> Relation {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 64))])
        .collect();
    Relation::from_rows(schema, rows).expect("valid rows")
}

fn mixed_batch() -> QueryBatch {
    QueryBatch::new((0..BATCH_QUERIES).map(|k| match k % 3 {
        0 => SelectionQuery::point(0, (k * 997) % ROWS),
        1 => {
            let lo = (k * 641) % ROWS;
            SelectionQuery::range_closed(0, lo, lo + 200)
        }
        _ => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 64).as_str()),
            SelectionQuery::range_closed(0, (k * 331) % ROWS, (k * 331) % ROWS + 2_000),
        ),
    }))
}

/// Criterion group: bare std mutex vs the ordered wrapper (passthrough
/// in release builds) vs the explicit note pair a debug acquisition
/// adds.
fn bench_lock_micro(c: &mut Criterion) {
    let plain = Mutex::new(0u64);
    let ordered = OrderedMutex::new(LockRank::WalState, 0u64);
    let mut group = c.benchmark_group("lockdep_micro");
    group.bench_function("std_mutex", |b| {
        b.iter(|| {
            *black_box(&plain).lock().expect("unpoisoned") += 1;
        })
    });
    group.bench_function("ordered_mutex", |b| {
        b.iter(|| {
            *black_box(&ordered).lock() += 1;
        })
    });
    group.bench_function("noted_pair", |b| {
        b.iter(|| {
            let _ = lockdep::note_acquire(LockRank::WalState, 0);
            *black_box(&plain).lock().expect("unpoisoned") += 1;
            lockdep::note_release(LockRank::WalState, 0);
        })
    });
    group.finish();
}

/// Measure everything once and write the JSON artifact.
fn emit_bench_analysis_json(c: &mut Criterion) {
    let plain = Mutex::new(0u64);
    let ordered = OrderedMutex::new(LockRank::WalState, 0u64);
    let std_ns = ns_per(LOCK_ROUNDS, || {
        *black_box(&plain).lock().expect("unpoisoned") += 1;
    });
    let ordered_ns = ns_per(LOCK_ROUNDS, || {
        *black_box(&ordered).lock() += 1;
    });
    let noted_ns = ns_per(LOCK_ROUNDS, || {
        let _ = lockdep::note_acquire(LockRank::WalState, 0);
        *black_box(&plain).lock().expect("unpoisoned") += 1;
        lockdep::note_release(LockRank::WalState, 0);
    });

    // E15 workload over the fully ordered-lock LiveRelation: best-of-3
    // batch latencies through a warm pool.
    let live = Arc::new(
        LiveRelation::build(&relation(), ShardBy::Hash { col: 0 }, 4, &[0, 1]).expect("valid"),
    );
    let exec = PooledExecutor::with_default_pool(Arc::clone(&live));
    let batch = mixed_batch();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        exec.execute(&batch).expect("batch serves");
        best = best.min(start.elapsed().as_secs_f64());
    }
    let qps = BATCH_QUERIES as f64 / best;

    let doc = experiment("lockdep-overhead")
        .set("debug_assertions", cfg!(debug_assertions))
        .set("rows", ROWS)
        .set("batch_queries", BATCH_QUERIES)
        .set("available_parallelism", available_parallelism())
        .set(
            "results",
            pitract_obs::Json::obj()
                .set("std_mutex_ns", rounded(std_ns, 2))
                .set("ordered_mutex_ns", rounded(ordered_ns, 2))
                .set("noted_pair_ns", rounded(noted_ns, 2))
                .set("ordered_overhead_ns", rounded(ordered_ns - std_ns, 2))
                .set("live_pooled_batch_seconds", rounded(best, 6))
                .set("live_pooled_qps", rounded(qps, 1))
                .set("lockdep_checks_total", lockdep::stats().checks)
                .set("lockdep_violations_total", lockdep::stats().violations),
        );
    let path = std::env::var("BENCH_ANALYSIS_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analysis.json").to_string()
    });
    match write_artifact(&path, &doc) {
        Ok(()) => println!("BENCH_analysis.json written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    c.bench_function("lockdep_emit_json", |b| b.iter(|| black_box(std_ns)));
}

criterion_group!(benches, bench_lock_micro, emit_bench_analysis_json);
criterion_main!(benches);
