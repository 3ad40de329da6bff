//! Property-based tests (proptest) on the workspace's core invariants.
//!
//! Each property states a paper-level contract — "preprocessing never
//! changes answers", "factorizations roundtrip", "all RMQ structures
//! agree" — and hammers it with randomized inputs plus shrinking.

use pi_tractable::graph::traverse::reachable_bfs;
use pi_tractable::graph::Graph;
use pi_tractable::index::rmq::{
    fischer_heun::FischerHeunRmq, naive::NaiveRmq, segtree::SegTreeRmq, sparse::SparseRmq,
    table::AllPairsRmq, RangeMin,
};
use pi_tractable::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    /// B⁺-tree behaves exactly like the standard ordered map under any
    /// interleaving of inserts, deletes and lookups, at every node order.
    #[test]
    fn bptree_matches_btreemap(
        order in 3usize..12,
        ops in prop::collection::vec((0u8..3, 0u64..200, 0u64..1000), 0..400)
    ) {
        let mut tree: BPlusTree<u64, u64> = BPlusTree::with_order(order);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, key, val) in ops {
            match op {
                0 => prop_assert_eq!(tree.insert(key, val), model.insert(key, val)),
                1 => prop_assert_eq!(tree.remove(&key), model.remove(&key)),
                _ => prop_assert_eq!(tree.get(&key), model.get(&key)),
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let got: Vec<(u64, u64)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, expect);
    }

    /// Every RMQ structure returns the same (leftmost) argmin on every
    /// range of any array.
    #[test]
    fn rmq_structures_cross_agree(
        data in prop::collection::vec(-100i64..100, 1..80),
        ranges in prop::collection::vec((0usize..80, 0usize..80), 1..20)
    ) {
        let n = data.len();
        let naive = NaiveRmq::build(&data);
        let table = AllPairsRmq::build(&data);
        let sparse = SparseRmq::build(&data);
        let seg = SegTreeRmq::build(&data);
        let fh = FischerHeunRmq::build(&data);
        for (a, b) in ranges {
            let (i, j) = ((a % n).min(b % n), (a % n).max(b % n));
            let expect = naive.query(i, j);
            prop_assert_eq!(table.query(i, j), expect, "table [{},{}]", i, j);
            prop_assert_eq!(sparse.query(i, j), expect, "sparse [{},{}]", i, j);
            prop_assert_eq!(seg.query(i, j), expect, "segtree [{},{}]", i, j);
            prop_assert_eq!(fh.query(i, j), expect, "fischer-heun [{},{}]", i, j);
        }
    }

    /// Query-preserving compression never changes a reachability answer
    /// (Section 4(5)'s defining property).
    #[test]
    fn compression_preserves_all_reachability(
        n in 2usize..25,
        edges in prop::collection::vec((0usize..25, 0usize..25), 0..60)
    ) {
        let edges: Vec<(usize, usize)> = edges
            .into_iter()
            .map(|(u, v)| (u % n, v % n))
            .collect();
        let g = Graph::directed_from_edges(n, &edges);
        let c = CompressedReach::build(&g);
        for u in 0..n {
            for v in 0..n {
                let expect = u == v || reachable_bfs(&g, u, v);
                prop_assert_eq!(c.reachable(u, v), expect, "({},{})", u, v);
            }
        }
    }

    /// The all-pairs reachability index agrees with per-query BFS — the
    /// "matrix" of Example 3 is sound and complete.
    #[test]
    fn reach_index_is_sound_and_complete(
        n in 1usize..30,
        edges in prop::collection::vec((0usize..30, 0usize..30), 0..70)
    ) {
        let edges: Vec<(usize, usize)> = edges
            .into_iter()
            .map(|(u, v)| (u % n, v % n))
            .collect();
        let g = Graph::directed_from_edges(n, &edges);
        let idx = ReachIndex::build(&g);
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(idx.reachable(u, v), reachable_bfs(&g, u, v));
            }
        }
    }

    /// Indexed relations answer exactly like scans for every point/range
    /// query — Definition 1's "⟨D,Q⟩ ∈ S iff ⟨Π(D),Q⟩ ∈ S′" on Q₁.
    #[test]
    fn indexed_relation_equals_scan(
        values in prop::collection::vec(-50i64..50, 0..120),
        probes in prop::collection::vec(-60i64..60, 1..40),
    ) {
        let schema = Schema::new(&[("a", ColType::Int)]);
        let rows = values.iter().map(|&v| vec![Value::Int(v)]).collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let idx = IndexedRelation::build(&rel, &[0]).expect("column 0 exists");
        for p in probes {
            let point = SelectionQuery::point(0, p);
            prop_assert_eq!(idx.answer(&point), rel.eval_scan(&point));
            let range = SelectionQuery::range_closed(0, p, p + 7);
            prop_assert_eq!(idx.answer(&range), rel.eval_scan(&range));
        }
    }

    /// A sharded relation — any shard count, either partitioning, after
    /// any insert/delete interleaving — batch-answers exactly like a
    /// sequential scan over the surviving rows.
    #[test]
    fn sharded_relation_equals_scan_under_updates(
        shards in 1usize..9,
        use_range_partitioning in any::<bool>(),
        ops in prop::collection::vec((0u8..4, -40i64..40, 0usize..8), 1..120),
        probes in prop::collection::vec((0u8..3, -50i64..50, 0usize..8), 1..30),
    ) {
        let schema = Schema::new(&[("k", ColType::Int), ("tag", ColType::Str)]);
        let shard_by = if use_range_partitioning {
            // Ascending int splits spanning the value domain.
            let splits = (1..shards as i64)
                .map(|i| Value::Int(-40 + i * 80 / shards as i64))
                .collect();
            ShardBy::Range { col: 0, splits }
        } else {
            ShardBy::Hash { col: 0 }
        };
        let sharded = LiveRelation::build(
            &Relation::new(schema.clone()),
            shard_by,
            shards,
            &[0, 1],
        ).unwrap();
        // The model: plain rows keyed by the same global ids.
        let mut model: Vec<Option<Vec<Value>>> = Vec::new();
        for (op, k, t) in ops {
            if op < 3 {
                let row = vec![Value::Int(k), Value::str(format!("t{t}"))];
                let gid = sharded.insert(row.clone()).unwrap();
                prop_assert_eq!(gid, model.len());
                model.push(Some(row));
            } else if !model.is_empty() {
                let victim = (k.unsigned_abs() as usize + t) % model.len();
                prop_assert_eq!(
                    sharded.delete(victim).unwrap(),
                    model[victim].take(),
                    "delete {}", victim
                );
            }
        }
        let live: Vec<Vec<Value>> = model.iter().flatten().cloned().collect();
        let oracle = Relation::from_rows(schema, live).unwrap();
        prop_assert_eq!(sharded.len(), oracle.len());

        let batch = QueryBatch::new(probes.iter().map(|&(shape, v, t)| match shape {
            0 => SelectionQuery::point(0, v),
            1 => SelectionQuery::range_closed(0, v, v + 9),
            _ => SelectionQuery::and(
                SelectionQuery::point(1, format!("t{t}").as_str()),
                SelectionQuery::range_closed(0, v, v + 15),
            ),
        }));
        let exec = PooledExecutor::with_default_pool(std::sync::Arc::new(sharded));
        let got = exec.execute(&batch).unwrap();
        for (q, &ans) in batch.queries().iter().zip(&got.answers) {
            prop_assert_eq!(ans, oracle.eval_scan(q), "{:?}", q);
        }
        // Row-id mode agrees with the match count on the oracle.
        let rows = exec.execute_rows(&batch).unwrap();
        for (q, ids) in batch.queries().iter().zip(&rows.rows) {
            prop_assert_eq!(ids.len(), oracle.count_where(q), "{:?}", q);
        }
    }

    /// Factorization roundtrip law (Proposition 1's precondition) for the
    /// identity, trivial and padded factorizations on arbitrary pairs.
    #[test]
    fn factorization_roundtrips(d in prop::collection::vec(0u64..100, 0..20), q in 0u64..100) {
        use pi_tractable::core::factor::{
            identity_pair_factorization, padded_factorization,
            trivial_data_factorization, trivial_query_factorization,
        };
        let x = (d, q);
        let f1 = identity_pair_factorization::<Vec<u64>, u64>();
        prop_assert!(f1.check_roundtrip(&x));
        let f2 = trivial_data_factorization::<(Vec<u64>, u64)>();
        prop_assert!(f2.check_roundtrip(&x));
        let f3 = trivial_query_factorization::<(Vec<u64>, u64)>();
        prop_assert!(f3.check_roundtrip(&x));
        let f4 = padded_factorization(identity_pair_factorization::<Vec<u64>, u64>());
        prop_assert!(f4.check_roundtrip(&x));
    }

    /// The Encoded pair framing is injective and splits losslessly for
    /// arbitrary byte contents (the paper's `@`-padding replacement).
    #[test]
    fn encoded_pairs_roundtrip(a in prop::collection::vec(any::<u8>(), 0..64),
                               b in prop::collection::vec(any::<u8>(), 0..64)) {
        use pi_tractable::core::encode::Encoded;
        let ea = Encoded::from_bytes(a.clone());
        let eb = Encoded::from_bytes(b.clone());
        let pair = Encoded::pair(&ea, &eb);
        let (ra, rb) = pair.split_pair().expect("well-formed");
        prop_assert_eq!(ra.as_bytes(), &a[..]);
        prop_assert_eq!(rb.as_bytes(), &b[..]);
    }

    /// Incremental closure equals batch closure after any insert stream.
    #[test]
    fn incremental_closure_matches_batch(
        n in 1usize..20,
        stream in prop::collection::vec((0usize..20, 0usize..20), 0..50)
    ) {
        use pi_tractable::incremental::closure::IncrementalClosure;
        use pi_tractable::pram::matrix::closure_by_dfs;
        let mut inc = IncrementalClosure::new(n);
        let mut edges = Vec::new();
        for (u, v) in stream {
            let (u, v) = (u % n, v % n);
            inc.insert_edge(u, v);
            edges.push((u, v));
        }
        prop_assert_eq!(inc.matrix(), &closure_by_dfs(n, &edges));
    }

    /// BDS visit order is always a permutation and the index inverts it.
    #[test]
    fn bds_order_is_a_permutation(
        n in 1usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..80)
    ) {
        let edges: Vec<(usize, usize)> = edges
            .into_iter()
            .map(|(u, v)| (u % n, v % n))
            .collect();
        let g = Graph::undirected_from_edges(n, &edges);
        let order = bds_order(&g);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        let idx = BdsIndex::build(&g);
        for (pos, &node) in order.iter().enumerate() {
            prop_assert_eq!(idx.position(node), pos);
        }
    }

    /// Buss kernel decisions agree with the plain search tree on the
    /// original instance for all small graphs and budgets.
    #[test]
    fn kernelized_vc_agrees_with_direct_solver(
        n in 2usize..14,
        edges in prop::collection::vec((0usize..14, 0usize..14), 0..30),
        k in 0usize..8
    ) {
        use pi_tractable::kernel::buss::decide_via_kernel;
        use pi_tractable::kernel::vc::bounded_search_tree;
        let edges: Vec<(usize, usize)> = edges
            .into_iter()
            .map(|(u, v)| (u % n, v % n))
            .collect();
        let g = Graph::undirected_from_edges(n, &edges);
        let meter = Meter::new();
        prop_assert_eq!(
            decide_via_kernel(&g, k, &meter),
            bounded_search_tree(&g, k).is_some()
        );
    }
}
