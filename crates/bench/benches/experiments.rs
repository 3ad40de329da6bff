//! Criterion wall-clock benchmarks, one group per experiment (E1–E14).
//!
//! The step-metered tables (`cargo run -p pitract-bench --bin tables`)
//! carry the growth-curve verdicts; these benches add real time for the
//! same operations. Groups are kept small (fixed representative sizes)
//! so `cargo bench` completes quickly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pitract_circuit::factor::{gate_factorization, gate_table_scheme};
use pitract_circuit::generate::layered;
use pitract_core::cost::Meter;
use pitract_core::factor::Factorization;
use pitract_graph::bds::{visited_before_by_search, BdsIndex};
use pitract_graph::compress::CompressedReach;
use pitract_graph::generate;
use pitract_graph::reach::ReachIndex;
use pitract_graph::traverse::reachable_bfs;
use pitract_incremental::closure::IncrementalClosure;
use pitract_index::bptree::BPlusTree;
use pitract_index::lca::tree::{naive_lca, EulerTourLca, RootedTree};
use pitract_index::rmq::{fischer_heun::FischerHeunRmq, naive::NaiveRmq, RangeMin};
use pitract_index::sorted::SortedIndex;
use pitract_kernel::buss::decide_via_kernel;
use pitract_reductions::{connectivity_to_bds, rmq_lca};
use pitract_relation::indexed::IndexedRelation;
use pitract_relation::views::{MaterializedView, ViewSet};
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use std::hint::black_box;
use std::ops::Bound;

fn relation_of(n: i64) -> Relation {
    let schema = Schema::new(&[("a", ColType::Int)]);
    Relation::from_rows(schema, (0..n).map(|i| vec![Value::Int(i)]).collect()).unwrap()
}

/// E1/E2: point + range selection, scan vs B⁺-tree.
fn bench_e01_e02_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("e01_e02_selection");
    for &n in &[1i64 << 14, 1 << 17] {
        let rel = relation_of(n);
        let idx = IndexedRelation::build(&rel, &[0]).expect("column 0 exists");
        let miss = SelectionQuery::point(0, n + 1);
        group.bench_with_input(BenchmarkId::new("scan_point", n), &n, |b, _| {
            b.iter(|| rel.eval_scan(black_box(&miss)))
        });
        group.bench_with_input(BenchmarkId::new("bptree_point", n), &n, |b, _| {
            b.iter(|| idx.answer(black_box(&miss)))
        });
        let range = SelectionQuery::range_closed(0, n + 1, n + 100);
        group.bench_with_input(BenchmarkId::new("bptree_range", n), &n, |b, _| {
            b.iter(|| idx.answer(black_box(&range)))
        });
    }
    group.finish();
}

/// E3: list search — sorted-index probe vs scan, plus the one-time sort.
fn bench_e03_list_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("e03_list_search");
    let n = 1u64 << 16;
    let list: Vec<u64> = (0..n).map(|i| (i * 2654435761) % (2 * n)).collect();
    let idx = SortedIndex::build(&list);
    group.bench_function("scan_miss", |b| {
        b.iter(|| list.contains(black_box(&(2 * n + 1))))
    });
    group.bench_function("sorted_probe_miss", |b| {
        b.iter(|| idx.contains(black_box(&(2 * n + 1))))
    });
    group.bench_function("preprocess_sort", |b| {
        b.iter(|| SortedIndex::build(black_box(&list)))
    });
    group.finish();
}

/// E4: RMQ — naive scan vs Fischer–Heun O(1).
fn bench_e04_rmq(c: &mut Criterion) {
    let mut group = c.benchmark_group("e04_rmq");
    let n = 1usize << 16;
    let data: Vec<i64> = (0..n).map(|i| ((i * 48271) % 99991) as i64).collect();
    let naive = NaiveRmq::build(&data);
    let fh = FischerHeunRmq::build(&data);
    group.bench_function("naive_halfspan", |b| {
        b.iter(|| naive.query(black_box(1000), black_box(n / 2)))
    });
    group.bench_function("fischer_heun_halfspan", |b| {
        b.iter(|| fh.query(black_box(1000), black_box(n / 2)))
    });
    group.bench_function("preprocess_fischer_heun", |b| {
        b.iter(|| FischerHeunRmq::build(black_box(&data)))
    });
    group.finish();
}

/// E5: LCA — naive walk vs Euler+RMQ on a deep tree.
fn bench_e05_lca(c: &mut Criterion) {
    let mut group = c.benchmark_group("e05_lca");
    let n = 1usize << 15;
    let parents: Vec<Option<usize>> = (0..n)
        .map(|i| if i == 0 { None } else { Some(i - 1) })
        .collect();
    let tree = RootedTree::from_parents(&parents).unwrap();
    let euler = EulerTourLca::build(&tree);
    group.bench_function("naive_walk_deep", |b| {
        b.iter(|| naive_lca(black_box(&tree), n - 1, n / 2))
    });
    group.bench_function("euler_probe_deep", |b| {
        b.iter(|| euler.query(black_box(n - 1), black_box(n / 2)))
    });
    group.finish();
}

/// E6: reachability — per-query BFS vs matrix probe.
fn bench_e06_reachability(c: &mut Criterion) {
    let mut group = c.benchmark_group("e06_reachability");
    let n = 2048;
    let g = generate::gnp_directed(n, 2.0 / n as f64, 5);
    let idx = ReachIndex::build(&g);
    group.bench_function("bfs_per_query", |b| {
        b.iter(|| reachable_bfs(black_box(&g), 0, n - 1))
    });
    group.bench_function("matrix_probe", |b| {
        b.iter(|| idx.reachable(black_box(0), black_box(n - 1)))
    });
    group.finish();
}

/// E7: BDS — full search per query vs preprocessed probe.
fn bench_e07_bds(c: &mut Criterion) {
    let mut group = c.benchmark_group("e07_bds");
    group.sample_size(20);
    let g = generate::grid(48);
    let idx = BdsIndex::build(&g);
    let meter = Meter::new();
    group.bench_function("full_search_per_query", |b| {
        b.iter(|| visited_before_by_search(black_box(&g), 5, 2000, &meter))
    });
    group.bench_function("index_probe", |b| {
        b.iter(|| idx.visited_before(black_box(5), black_box(2000)))
    });
    group.bench_function("preprocess_bds", |b| {
        b.iter(|| BdsIndex::build(black_box(&g)))
    });
    group.finish();
}

/// E8: compression — build + query on a cyclic workload.
fn bench_e08_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("e08_compression");
    group.sample_size(20);
    let n = 900;
    let g = generate::gnp_directed(n, 3.0 / n as f64, 21);
    let compressed = CompressedReach::build(&g);
    group.bench_function("compress_build", |b| {
        b.iter(|| CompressedReach::build(black_box(&g)))
    });
    group.bench_function("compressed_query", |b| {
        b.iter(|| compressed.reachable(black_box(3), black_box(n - 2)))
    });
    group.finish();
}

/// E9: views — base scan vs covering-view answering.
fn bench_e09_views(c: &mut Criterion) {
    let mut group = c.benchmark_group("e09_views");
    let n = 100_000i64;
    let base = relation_of(n);
    let mut views = ViewSet::new();
    views.add(MaterializedView::materialize(
        "first_percent",
        &base,
        0,
        Bound::Included(Value::Int(0)),
        Bound::Excluded(Value::Int(n / 100)),
    ));
    let q = SelectionQuery::range_closed(0, 100i64, 200i64);
    let meter = Meter::new();
    group.bench_function("base_scan", |b| b.iter(|| base.eval_scan(black_box(&q))));
    group.bench_function("view_answer", |b| {
        b.iter(|| views.answer_metered(black_box(&q), &meter).unwrap())
    });
    group.finish();
}

/// E10: incremental closure insert vs from-scratch closure.
fn bench_e10_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_incremental");
    group.sample_size(20);
    let n = 150;
    group.bench_function("incremental_insert_stream", |b| {
        b.iter(|| {
            let mut inc = IncrementalClosure::new(n);
            for i in 0..n - 1 {
                inc.insert_edge(black_box(i), black_box(i + 1));
            }
            inc
        })
    });
    group.bench_function("bptree_insert_stream", |b| {
        b.iter(|| {
            let mut t: BPlusTree<u64, u64> = BPlusTree::new();
            for i in 0..4096u64 {
                t.insert(black_box(i * 2654435761 % 8192), i);
            }
            t
        })
    });
    group.finish();
}

/// E11: CVP — full evaluation per query vs gate-table probe.
fn bench_e11_cvp(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_cvp");
    let circuit = layered(8, 256, 8, 42);
    let inputs = vec![true, false, true, true, false, false, true, false];
    let x = (circuit, inputs);
    let f = gate_factorization();
    let scheme = gate_table_scheme();
    let d = f.pi1(&x);
    let table = scheme.preprocess(&d);
    let out = f.pi2(&x);
    group.bench_function("upsilon0_full_eval_per_query", |b| {
        b.iter(|| x.0.evaluate(black_box(&x.1)))
    });
    group.bench_function("gate_table_probe", |b| {
        b.iter(|| scheme.answer(black_box(&table), black_box(&out)))
    });
    group.bench_function("gate_table_preprocess", |b| {
        b.iter(|| scheme.preprocess(black_box(&d)))
    });
    group.finish();
}

/// E12: vertex cover — kernel pipeline on growing graphs, fixed k.
fn bench_e12_vertex_cover(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_vertex_cover");
    group.sample_size(20);
    let meter = Meter::new();
    for &n in &[500usize, 4000] {
        let mut edges = Vec::new();
        for hub in 0..3 {
            for i in 10..n / 2 {
                if i % 3 == hub {
                    edges.push((hub, i));
                }
            }
        }
        edges.push((n / 2, n / 2 + 1));
        let g = pitract_graph::Graph::undirected_from_edges(n, &edges);
        group.bench_with_input(BenchmarkId::new("kernel_decide_k8", n), &n, |b, _| {
            b.iter(|| decide_via_kernel(black_box(&g), 8, &meter))
        });
    }
    group.finish();
}

/// E13: reductions — transferred RMQ scheme vs recompute-per-query.
fn bench_e13_reductions(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_reductions");
    let data: Vec<i64> = (0..20_000).map(|i| ((i * 37) % 1009) as i64).collect();
    let scheme = rmq_lca::transferred_rmq_scheme();
    let pre = scheme.preprocess(&data);
    group.bench_function("transferred_rmq_probe", |b| {
        b.iter(|| scheme.answer(black_box(&pre), black_box(&(100, 15_000, 101))))
    });
    let g = generate::gnp_undirected(2_000, 0.001, 3);
    let conn = connectivity_to_bds::transferred_connectivity_scheme();
    let cp = conn.preprocess(&g);
    group.bench_function("connectivity_via_bds_probe", |b| {
        b.iter(|| conn.answer(black_box(&cp), black_box(&1500)))
    });
    group.finish();
}

/// E14: the NC substrate — closure by squaring at two scales.
fn bench_e14_nc_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_nc_depth");
    group.sample_size(10);
    for &n in &[128usize, 512] {
        let g = generate::gnp_directed(n, 2.0 / n as f64, 9);
        let m = pitract_pram::matrix::BitMatrix::from_edges(n, &g.edges());
        group.bench_with_input(BenchmarkId::new("closure_by_squaring", n), &n, |b, _| {
            b.iter(|| m.transitive_closure())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_e01_e02_selection,
    bench_e03_list_search,
    bench_e04_rmq,
    bench_e05_lca,
    bench_e06_reachability,
    bench_e07_bds,
    bench_e08_compression,
    bench_e09_views,
    bench_e10_incremental,
    bench_e11_cvp,
    bench_e12_vertex_cover,
    bench_e13_reductions,
    bench_e14_nc_depth
);
criterion_main!(benches);
