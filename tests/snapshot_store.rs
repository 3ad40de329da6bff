//! Integration: the persistence layer's warm-start contract.
//!
//! For the one persisted structure — a `ShardedRelation`, an unsharded
//! relation being one shard — a snapshot written by one "process" and
//! loaded by a fresh one must answer **every** query identically to the
//! cold-rebuilt oracle: same Booleans, same global row ids. A
//! standalone `IndexedRelation` file of versions 1 to 4 loads the same
//! way, as one shard. And
//! every way a file can go bad (truncated, bit-flipped, version-skewed,
//! not a snapshot at all) must surface as a typed `StoreError`, never a
//! panic or a silently wrong answer.

use pi_tractable::prelude::*;
use pi_tractable::store::codec::{Reader, Writer};
use pi_tractable::store::snapshot::checksum;
use pi_tractable::store::{FORMAT_VERSION, MAGIC};
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
            .save(name, &Snapshot::from(built.to_sharded()))
            .unwrap();

        // "Process 2": warm-start from disk only.
        let warm = LiveRelation::from_sharded(catalog.load(name).unwrap().state);

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

/// `bytes`, the file of a one-shard relation, laid out as versions 1
/// to 4 wrote a standalone `IndexedRelation` (kind 1; here version 4):
/// the schema (section 1), the shard's body alone (2) and the indexed
/// columns (14).
fn as_v4_indexed(bytes: &[u8]) -> Vec<u8> {
    let mut r = Reader::new(&bytes[12..bytes.len() - 8]);
    let count = r.u32().unwrap();
    let table: Vec<(u32, usize)> = (0..count)
        .map(|_| (r.u32().unwrap(), r.usize().unwrap()))
        .collect();
    let sections: Vec<(u32, &[u8])> = table
        .into_iter()
        .map(|(tag, len)| (tag, r.take(len).unwrap()))
        .collect();
    let get = |tag: u32| sections.iter().find(|(t, _)| *t == tag).unwrap().1;
    // Section 5 is the shard count, 1, then the one body.
    let kept = [(1, get(1)), (2, &get(5)[8..]), (14, get(14))];
    let mut w = Writer::new();
    w.raw(&MAGIC);
    w.u16(4);
    w.u16(1);
    w.u32(kept.len() as u32);
    for (tag, payload) in kept {
        w.u32(tag);
        w.u64(payload.len() as u64);
    }
    for (_, payload) in kept {
        w.raw(payload);
    }
    let mut file = w.into_bytes();
    let sum = checksum(4, &file);
    file.extend_from_slice(&sum.to_le_bytes());
    file
}

/// An unsharded relation is saved as one shard, and a version-4 file
/// of it as a standalone `IndexedRelation` loads as that shard: both
/// answer as the cold-built relation does, row ids and metered steps
/// included.
#[test]
fn indexed_snapshot_matches_cold_rebuild() {
    let n = 5_000i64;
    let rel = relation(n);
    let built = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 1, &[0, 1]).unwrap();
    for id in (0..n as usize).step_by(13) {
        built.delete(id).unwrap();
    }
    let bytes = Snapshot::from(built.to_sharded()).to_bytes();

    let mut cold = IndexedRelation::build(&rel, &[0, 1]).unwrap();
    for id in (0..n as usize).step_by(13) {
        cold.delete(id);
    }
    let meter = Meter::new();
    for file in [bytes.clone(), as_v4_indexed(&bytes)] {
        let warm = Snapshot::from_bytes(&file).unwrap().state;
        assert_eq!(warm.id_map(), built.to_sharded().id_map());
        let warm = &warm.shards()[0];
        for q in mixed_queries(n) {
            assert_eq!(warm.answer(&q), cold.answer(&q), "{q:?}");
            assert_eq!(
                warm.matching_ids_metered(&q, &meter),
                cold.matching_ids_metered(&q, &meter),
                "{q:?}"
            );
        }
    }
}

#[test]
fn damaged_files_fail_typed_never_panic() {
    let sr = ShardedRelation::build(&relation(500), ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
    let good = Snapshot::from(sr).to_bytes();

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

/// A plain save holds no WAL mark, and asking it for a checkpoint is
/// reported, not coerced.
#[test]
fn an_unmarked_snapshot_is_not_a_checkpoint() {
    let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
    let sr = ShardedRelation::build(&relation(50), ShardBy::Hash { col: 0 }, 1, &[0]).unwrap();
    catalog.save("rel", &Snapshot::from(sr)).unwrap();
    let loaded = catalog.load("rel").unwrap();
    assert_eq!(loaded.mark, None);
    match loaded.into_checkpoint() {
        Err(StoreError::NotACheckpoint) => {}
        other => panic!("expected NotACheckpoint, got {other:?}"),
    }
}
