//! Ablation benches for three design choices:
//! B⁺-tree node order, bulk load vs incremental construction, and the
//! RMQ space/time trade-off (sparse table vs Fischer–Heun).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pitract_index::bptree::BPlusTree;
use pitract_index::rmq::{fischer_heun::FischerHeunRmq, sparse::SparseRmq, RangeMin};
use std::hint::black_box;

/// Node order: small orders deepen the tree (more cache misses per probe),
/// huge orders pay linear in-node searches. DEFAULT_ORDER = 32 sits in the
/// valley; this ablation shows the valley exists.
fn ablate_bptree_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bptree_order");
    let n = 1u64 << 16;
    for &order in &[4usize, 16, 32, 128, 512] {
        let tree = BPlusTree::bulk_load_with_order(order, (0..n).map(|i| (i, i)).collect());
        group.bench_with_input(BenchmarkId::new("probe", order), &order, |b, _| {
            let mut k = 0u64;
            b.iter(|| {
                k = (k + 48271) % n;
                tree.get(black_box(&k))
            })
        });
        group.bench_with_input(BenchmarkId::new("insert_build", order), &order, |b, _| {
            b.iter(|| {
                let mut t: BPlusTree<u64, u64> = BPlusTree::with_order(order);
                for i in 0..4096u64 {
                    t.insert(i, i);
                }
                t
            })
        });
    }
    group.finish();
}

/// Bulk load packs leaves in one pass; incremental insertion splits its
/// way up. Both produce valid trees; the build-cost gap is the point.
fn ablate_bulk_vs_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_build_path");
    group.sample_size(20);
    let n = 1u64 << 15;
    let entries: Vec<(u64, u64)> = (0..n).map(|i| (i, i)).collect();
    group.bench_function("bulk_load_sorted", |b| {
        b.iter(|| BPlusTree::bulk_load(black_box(entries.clone())))
    });
    group.bench_function("insert_sorted", |b| {
        b.iter(|| BPlusTree::build(black_box(entries.clone())))
    });
    group.finish();
}

/// Sparse table: O(n log n) space, 2 probes. Fischer–Heun: O(n) space,
/// ≤ 3 probes. Build time and probe time, side by side.
fn ablate_rmq_space_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_rmq");
    group.sample_size(20);
    let n = 1usize << 16;
    let data: Vec<i64> = (0..n).map(|i| ((i * 48271) % 99991) as i64).collect();
    group.bench_function("build_sparse", |b| {
        b.iter(|| SparseRmq::build(black_box(&data)))
    });
    group.bench_function("build_fischer_heun", |b| {
        b.iter(|| FischerHeunRmq::build(black_box(&data)))
    });
    let sparse = SparseRmq::build(&data);
    let fh = FischerHeunRmq::build(&data);
    group.bench_function("probe_sparse", |b| {
        b.iter(|| sparse.query(black_box(17), black_box(n - 9)))
    });
    group.bench_function("probe_fischer_heun", |b| {
        b.iter(|| fh.query(black_box(17), black_box(n - 9)))
    });
    group.finish();
}

criterion_group!(
    ablations,
    ablate_bptree_order,
    ablate_bulk_vs_incremental,
    ablate_rmq_space_time
);
criterion_main!(ablations);
