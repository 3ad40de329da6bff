//! Integration: the persistence layer's warm-start contract.
//!
//! For every persisted structure — `IndexedRelation`, `ShardedRelation`,
//! `HopLabels` — a snapshot written by one "process" and loaded by a
//! fresh one must answer **every** query identically to the cold-rebuilt
//! oracle: same Booleans, same global row ids, same reachability. And
//! every way a file can go bad (truncated, bit-flipped, version-skewed,
//! not a snapshot at all) must surface as a typed `StoreError`, never a
//! panic or a silently wrong answer.

use pi_tractable::graph::generate;
use pi_tractable::graph::hop::HopLabels;
use pi_tractable::graph::traverse::reachable_bfs;
use pi_tractable::prelude::*;
use pi_tractable::store::FORMAT_VERSION;
use std::sync::Arc;

fn relation(n: i64) -> Relation {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 64))])
        .collect();
    Relation::from_rows(schema, rows).unwrap()
}

fn mixed_queries(n: i64) -> Vec<SelectionQuery> {
    (0..120i64)
        .map(|k| match k % 4 {
            0 => SelectionQuery::point(0, (k * 997) % (n + n / 8)),
            1 => SelectionQuery::range_closed(0, (k * 641) % n, (k * 641) % n + 200),
            2 => SelectionQuery::and(
                SelectionQuery::point(1, format!("grp{}", k % 64).as_str()),
                SelectionQuery::range_closed(0, (k * 331) % n, (k * 331) % n + 2_000),
            ),
            _ => SelectionQuery::point(0, n + k),
        })
        .collect()
}

/// Mutate a relation the way a serving window would: deletes and late
/// inserts, so snapshots carry tombstones and post-build rows.
fn churn(lr: &LiveRelation, n: i64) {
    for gid in (0..n as usize).step_by(97) {
        lr.delete(gid).unwrap();
    }
    for i in 0..50i64 {
        lr.insert(vec![Value::Int(n + i), Value::str("late")])
            .unwrap();
    }
}

#[test]
fn sharded_snapshot_serves_identically_to_cold_rebuild() {
    let n = 20_000i64;
    let rel = relation(n);
    let dir = Dir::memory();
    let catalog = SnapshotCatalog::open(&dir).unwrap();

    for (name, shard_by) in [
        ("hash", ShardBy::Hash { col: 0 }),
        (
            "range",
            ShardBy::Range {
                col: 0,
                splits: vec![Value::Int(n / 4), Value::Int(n / 2), Value::Int(3 * n / 4)],
            },
        ),
    ] {
        // "Process 1": preprocess, mutate, persist.
        let built = LiveRelation::build(&rel, shard_by, 4, &[0, 1]).unwrap();
        churn(&built, n);
        catalog
            .save(name, &Snapshot::Sharded(built.to_sharded()))
            .unwrap();

        // "Process 2": warm-start from disk only.
        let warm = LiveRelation::from_sharded(catalog.load(name).unwrap().into_sharded().unwrap());

        // Cold oracle: rebuild Π from scratch with the same history.
        let cold = LiveRelation::build(&rel, warm.shard_by().clone(), 4, &[0, 1]).unwrap();
        churn(&cold, n);

        assert_eq!(warm.len(), cold.len());
        let batch = QueryBatch::new(mixed_queries(n));
        let warm = PooledExecutor::with_default_pool(Arc::new(warm));
        let cold = PooledExecutor::with_default_pool(Arc::new(cold));
        // Row ids — not just Booleans — must match: the id maps and
        // tombstones are part of the persisted state.
        assert_eq!(
            warm.execute_rows(&batch).unwrap().rows,
            cold.execute_rows(&batch).unwrap().rows,
            "{name}"
        );
        assert_eq!(
            warm.execute(&batch).unwrap().answers,
            cold.execute(&batch).unwrap().answers,
            "{name}"
        );
    }
    let mut files = dir.list().unwrap();
    files.sort();
    assert_eq!(files, ["hash.snap", "range.snap"], "no stray temp files");
}

#[test]
fn indexed_snapshot_matches_cold_rebuild() {
    let n = 5_000i64;
    let rel = relation(n);
    let mut built = IndexedRelation::build(&rel, &[0, 1]).unwrap();
    for id in (0..n as usize).step_by(13) {
        built.delete(id);
    }
    let bytes = Snapshot::Indexed(built).to_bytes();
    let warm = Snapshot::from_bytes(&bytes)
        .unwrap()
        .into_indexed()
        .unwrap();

    let mut cold = IndexedRelation::build(&rel, &[0, 1]).unwrap();
    for id in (0..n as usize).step_by(13) {
        cold.delete(id);
    }
    let meter = Meter::new();
    for q in mixed_queries(n) {
        assert_eq!(warm.answer(&q), cold.answer(&q), "{q:?}");
        assert_eq!(
            warm.matching_ids_metered(&q, &meter),
            cold.matching_ids_metered(&q, &meter),
            "{q:?}"
        );
    }
}

#[test]
fn hop_labels_snapshot_matches_bfs_oracle() {
    let g = generate::random_dag(300, 900, 42);
    let built = HopLabels::build(&g).unwrap();
    let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
    catalog.save("reach", &Snapshot::Hop(built)).unwrap();
    let warm = catalog.load("reach").unwrap();
    assert_eq!(warm.kind(), SnapshotKind::HopLabels);
    let warm = warm.into_hop().unwrap();
    for u in (0..300).step_by(17) {
        for v in (0..300).step_by(11) {
            assert_eq!(warm.query(u, v), reachable_bfs(&g, u, v), "({u},{v})");
        }
    }
}

#[test]
fn damaged_files_fail_typed_never_panic() {
    let sr = ShardedRelation::build(&relation(500), ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
    let good = Snapshot::Sharded(sr).to_bytes();

    // Truncation points across the whole file: every early offset (the
    // header/table region) plus samples through the payload. Checksums
    // make each check O(cut), so exhaustive cuts would be quadratic.
    for cut in (0..64).chain((64..good.len()).step_by(41)) {
        assert!(
            Snapshot::from_bytes(&good[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
    }
    // A bit flip in every 37th byte (checksum or payload validation
    // catches each one; either way: typed error or a clean load, no
    // panic, and pristine bytes keep loading).
    for at in (0..good.len()).step_by(37) {
        let mut bad = good.clone();
        bad[at] ^= 0x40;
        let _ = Snapshot::from_bytes(&bad);
    }
    // Version skew is diagnosed as such.
    let mut skewed = good.clone();
    skewed[8..10].copy_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
    assert!(matches!(
        Snapshot::from_bytes(&skewed),
        Err(StoreError::VersionMismatch { .. })
    ));
    // Not a snapshot at all.
    assert!(matches!(
        Snapshot::from_bytes(b"{\"json\": \"not a snapshot\", \"pad\": 123}"),
        Err(StoreError::BadMagic)
    ));
    assert!(Snapshot::from_bytes(&good).is_ok());
}

#[test]
fn wrong_kind_is_reported_not_coerced() {
    let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
    let ir = IndexedRelation::build(&relation(50), &[0]).unwrap();
    catalog.save("rel", &Snapshot::Indexed(ir)).unwrap();
    match catalog.load("rel").unwrap().into_sharded() {
        Err(StoreError::WrongKind { expected, found }) => {
            assert_eq!(expected, SnapshotKind::ShardedRelation);
            assert_eq!(found, SnapshotKind::IndexedRelation);
        }
        other => panic!("expected WrongKind, got {other:?}"),
    }
}
