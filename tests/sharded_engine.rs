//! Integration: the sharded batch engine against the scan oracle at the
//! acceptance scale — an 8-shard batch of 1,000+ mixed queries over a
//! 100k-row relation, plus concurrent batches sharing one engine.

use pi_tractable::prelude::*;
use std::sync::Arc;

const N: i64 = 100_000;

fn base_relation() -> Relation {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..N)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 100))])
        .collect();
    Relation::from_rows(schema, rows).expect("valid rows")
}

/// 1,024 queries: shard-key points (hits and misses), ranges (in and out
/// of the data), and conjunctions driven by either side.
fn mixed_batch() -> QueryBatch {
    QueryBatch::new((0..1_024i64).map(|k| match k % 8 {
        0 | 1 => SelectionQuery::point(0, (k * 997) % (N + N / 8)),
        2 => SelectionQuery::point(1, format!("grp{}", k % 128).as_str()),
        3 | 4 => {
            let lo = (k * 641) % (N + 10_000);
            SelectionQuery::range_closed(0, lo, lo + 300)
        }
        5 => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 100).as_str()),
            SelectionQuery::range_closed(0, (k * 331) % N, (k * 331) % N + 2_000),
        ),
        6 => SelectionQuery::and(
            SelectionQuery::range_closed(0, (k * 577) % N, (k * 577) % N + 50),
            SelectionQuery::point(1, format!("grp{}", k % 50).as_str()),
        ),
        _ => SelectionQuery::point(0, N + k),
    }))
}

#[test]
fn eight_shard_batch_matches_scan_oracle_at_scale() {
    let base = base_relation();
    let batch = mixed_batch();
    assert!(batch.len() >= 1_000 && base.len() >= 100_000);
    let oracle: Vec<bool> = batch.queries().iter().map(|q| base.eval_scan(q)).collect();

    for shard_by in [
        ShardBy::Hash { col: 0 },
        ShardBy::Range {
            col: 0,
            splits: (1..8).map(|i| Value::Int(i * N / 8)).collect(),
        },
    ] {
        let sharded = LiveRelation::build(&base, shard_by.clone(), 8, &[0, 1]).expect("valid spec");
        assert_eq!(sharded.len(), base.len());

        let result = PooledExecutor::with_default_pool(Arc::new(sharded))
            .execute(&batch)
            .expect("valid batch");
        assert_eq!(result.answers, oracle, "{shard_by:?}");

        // The report accounts for every query, and the planner kept the
        // indexable queries off the scan path.
        assert_eq!(result.report.per_query.len(), batch.len());
        let hist = result.report.path_histogram();
        let scans = hist
            .iter()
            .find(|(l, _)| *l == "full-scan")
            .map_or(0, |(_, c)| *c);
        assert_eq!(scans, 0, "all shapes in this batch are indexable: {hist:?}");
    }
}

#[test]
fn row_id_serving_matches_count_oracle_at_scale() {
    let base = base_relation();
    let sharded = Arc::new(
        LiveRelation::build(&base, ShardBy::Hash { col: 0 }, 8, &[0, 1]).expect("valid spec"),
    );
    let batch = QueryBatch::new((0..64i64).map(|k| {
        SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 100).as_str()),
            SelectionQuery::range_closed(0, k * 1_000, k * 1_000 + 10_000),
        )
    }));
    let got = PooledExecutor::with_default_pool(Arc::clone(&sharded))
        .execute_rows(&batch)
        .expect("valid batch");
    for (q, ids) in batch.queries().iter().zip(&got.rows) {
        assert_eq!(ids.len(), base.count_where(q), "{q:?}");
        for &gid in ids {
            assert!(q.matches(&sharded.row(gid).expect("live row")), "{q:?}");
        }
    }
}

#[test]
fn concurrent_batches_agree_with_the_oracle() {
    let base = base_relation();
    let sharded =
        LiveRelation::build(&base, ShardBy::Hash { col: 0 }, 4, &[0, 1]).expect("valid spec");
    let exec = PooledExecutor::with_default_pool(Arc::new(sharded));
    let batch = mixed_batch();
    let oracle: Vec<bool> = batch.queries().iter().map(|q| base.eval_scan(q)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| scope.spawn(|| exec.execute(&batch).expect("valid batch").answers))
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("batch thread"), oracle);
        }
    });
}

#[test]
fn updates_flow_through_batch_answers() {
    let base = base_relation();
    let sharded = Arc::new(
        LiveRelation::build(&base, ShardBy::Hash { col: 0 }, 8, &[0, 1]).expect("valid spec"),
    );
    let fresh = SelectionQuery::point(0, N + 7);
    let batch = QueryBatch::new([fresh.clone(), SelectionQuery::point(0, 3i64)]);
    // One serving session; the updates land between its batches.
    let exec = PooledExecutor::with_default_pool(Arc::clone(&sharded));
    let serve = || exec.execute(&batch).expect("valid batch").answers;
    assert_eq!(serve(), vec![false, true]);

    let gid = sharded
        .insert(vec![Value::Int(N + 7), Value::str("grp0")])
        .expect("valid row");
    sharded
        .delete(3)
        .expect("no sink to fail")
        .expect("row with global id 3 (id value 3) is live");
    assert_eq!(serve(), vec![true, false]);

    sharded
        .delete(gid)
        .expect("no sink to fail")
        .expect("inserted row is live");
    assert_eq!(serve(), vec![false, false]);
}
