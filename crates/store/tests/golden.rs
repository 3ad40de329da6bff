//! Golden-fixture tests: the on-disk format may not drift silently.
//!
//! A small snapshot of each relation structure is committed under
//! `tests/fixtures/`. These tests assert that (a) today's writer still
//! produces those bytes **byte-for-byte**, and (b) the committed bytes
//! still load and answer queries. Any intentional format change must
//! bump [`pitract_store::FORMAT_VERSION`] and regenerate the fixtures:
//!
//! ```text
//! PITRACT_REGEN_FIXTURES=1 cargo test -p pitract-store --test golden
//! ```

use pitract_engine::{EngineError, PooledExecutor, QueryBatch, ShardBy, ShardedRelation};
use pitract_relation::indexed::{IndexEntries, IndexedRelation};
use pitract_relation::{ColType, IndexedError, Relation, RowRef, Schema, SelectionQuery, Value};
use pitract_store::{Snapshot, StoreError, FORMAT_VERSION};
use std::sync::Arc;

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The deterministic relation both fixtures are built from: covers
/// negative ints, duplicate keys, multi-byte UTF-8, and a tombstone.
fn fixture_relation() -> Relation {
    let schema = Schema::new(&[("id", ColType::Int), ("name", ColType::Str)]);
    let rows = vec![
        vec![Value::Int(-3), Value::str("alpha")],
        vec![Value::Int(0), Value::str("héllo")],
        vec![Value::Int(7), Value::str("Σ*")],
        vec![Value::Int(7), Value::str("alpha")],
        vec![Value::Int(42), Value::str("日本語")],
        vec![Value::Int(1000), Value::str("")],
    ];
    Relation::from_rows(schema, rows).unwrap()
}

fn fixture_indexed() -> IndexedRelation {
    let mut ir = IndexedRelation::build(&fixture_relation(), &[0, 1]).unwrap();
    ir.delete(2); // tombstone in the middle of the id space
    ir
}

fn fixture_sharded() -> ShardedRelation {
    let mut sr = ShardedRelation::build(
        &fixture_relation(),
        ShardBy::Range {
            col: 0,
            splits: vec![Value::Int(7)],
        },
        2,
        &[0, 1],
    )
    .unwrap();
    sr.delete(4);
    sr
}

/// Compare (or, under `PITRACT_REGEN_FIXTURES=1`, rewrite) one fixture.
fn assert_golden(name: &str, bytes: &[u8]) -> Vec<u8> {
    let path = fixture_path(name);
    if std::env::var("PITRACT_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, bytes).unwrap();
    }
    let on_disk = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("fixture {name} missing ({e}); see module docs to regenerate"));
    assert_eq!(
        on_disk, bytes,
        "snapshot encoding for {name} drifted from the committed fixture: \
         either revert the encoding change or bump FORMAT_VERSION and regenerate"
    );
    on_disk
}

#[test]
fn indexed_fixture_is_byte_stable_and_loads() {
    let bytes = assert_golden(
        "indexed_v1.snap",
        &Snapshot::Indexed(fixture_indexed()).to_bytes(),
    );
    let loaded = Snapshot::from_bytes(&bytes)
        .unwrap()
        .into_indexed()
        .unwrap();
    assert_eq!(loaded.len(), 5);
    assert!(loaded.answer(&SelectionQuery::point(0, -3i64)));
    assert!(loaded.answer(&SelectionQuery::point(1, "日本語")));
    assert!(
        !loaded.answer(&SelectionQuery::point(1, "Σ*")),
        "tombstoned row stays deleted"
    );
    assert_eq!(
        loaded.matching_ids_metered(
            &SelectionQuery::point(0, 7i64),
            &pitract_core::cost::Meter::new()
        ),
        vec![3],
        "row ids survive byte-for-byte"
    );
}

#[test]
fn sharded_fixture_is_byte_stable_and_loads() {
    let bytes = assert_golden(
        "sharded_v1.snap",
        &Snapshot::Sharded(fixture_sharded()).to_bytes(),
    );
    let loaded = Snapshot::from_bytes(&bytes)
        .unwrap()
        .into_sharded()
        .unwrap();
    assert_eq!(loaded.shard_count(), 2);
    assert_eq!(loaded.len(), 5);
    let batch = QueryBatch::new([
        SelectionQuery::point(0, -3i64),
        SelectionQuery::point(0, 42i64), // deleted
        SelectionQuery::point(1, "alpha"),
    ]);
    let result = PooledExecutor::with_default_pool(Arc::new(loaded))
        .execute(&batch)
        .unwrap();
    assert_eq!(result.answers, vec![true, false, true]);
}

#[test]
fn bumped_version_is_rejected_with_version_mismatch() {
    let mut bytes = std::fs::read(fixture_path("indexed_v1.snap")).unwrap();
    // Bytes 8..10 are the little-endian format version.
    let bumped = FORMAT_VERSION + 1;
    bytes[8..10].copy_from_slice(&bumped.to_le_bytes());
    match Snapshot::from_bytes(&bytes) {
        Err(StoreError::VersionMismatch { found, expected }) => {
            assert_eq!(found, bumped);
            assert_eq!(expected, FORMAT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

/// Save → load → save writes the same bytes: what a load rebuilds —
/// typed columns, `Str` arenas, tombstone placeholders behind the live
/// bitmap — writes back exactly what was read, for a standalone indexed
/// relation and for a sharded one.
#[test]
fn save_load_save_is_byte_identical() {
    // Duplicate keys, empty and multi-byte strings; tombstones among the
    // built rows (every 7th) and among later inserts (every 11th).
    let names = ["", "alpha", "héllo", "Σ*", "日本語"];
    let row = |i: i64| {
        vec![
            Value::Int(i % 97 - 40),
            Value::str(format!("{}{}", names[(i % 5) as usize], i % 13)),
        ]
    };
    let schema = fixture_relation().schema().clone();
    let relation = Relation::from_rows(schema, (0..300).map(row).collect()).unwrap();
    let mut ir = IndexedRelation::build(&relation, &[0, 1]).unwrap();
    let mut sr = ShardedRelation::build(&relation, ShardBy::Hash { col: 1 }, 3, &[0, 1]).unwrap();
    for id in (0..300).step_by(7) {
        ir.delete(id).unwrap();
        sr.delete(id).unwrap();
    }
    for i in 300..340 {
        let (id, gid) = (ir.insert(row(i)).unwrap(), sr.insert(row(i)).unwrap());
        if i % 11 == 0 {
            ir.delete(id).unwrap();
            sr.delete(gid).unwrap();
        }
    }
    for snapshot in [
        Snapshot::Indexed(fixture_indexed()),
        Snapshot::Indexed(ir),
        Snapshot::Sharded(fixture_sharded()),
        Snapshot::Sharded(sr),
    ] {
        let kind = snapshot.kind();
        let saved = snapshot.to_bytes();
        let resaved = Snapshot::from_bytes(&saved).unwrap().to_bytes();
        assert!(
            resaved == saved,
            "{kind} changed bytes across save → load → save"
        );
    }
}

/// A load still refuses what it refused before rows became columns:
/// a slot the schema rejects, a posting on a live row holding another
/// key, and a shard holding rows its key does not route to — each with
/// the same error value.
#[test]
fn loaded_parts_are_still_validated() {
    let loaded = Snapshot::from_bytes(&Snapshot::Indexed(fixture_indexed()).to_bytes())
        .unwrap()
        .into_indexed()
        .unwrap();
    let schema = loaded.schema().clone();
    let slots: Vec<Option<Vec<Value>>> = loaded.slots().map(|s| s.map(RowRef::to_vec)).collect();
    let entries: Vec<IndexEntries> = loaded
        .indexed_columns()
        .into_iter()
        .map(|col| {
            let mut entries = IndexEntries::new(col);
            for (key, posting) in loaded.index_postings(col).unwrap() {
                entries.push(key, posting);
            }
            entries
        })
        .collect();
    assert!(IndexedRelation::from_parts(schema.clone(), slots.clone(), entries.clone()).is_ok());

    let mut mistyped = slots.clone();
    mistyped[1].as_mut().unwrap()[0] = Value::str("0");
    assert_eq!(
        IndexedRelation::from_parts(schema.clone(), mistyped, entries.clone()).unwrap_err(),
        IndexedError::RowRejected("type mismatch in column \"id\": value \"0\"".into())
    );

    // Key -3 posts row 0; point it at row 1, which is live and holds 0.
    let mut misposted = entries.clone();
    assert_eq!(
        (&misposted[0].keys[0], misposted[0].ids[0]),
        (&Value::Int(-3), 0)
    );
    misposted[0].ids[0] = 1;
    assert_eq!(
        IndexedRelation::from_parts(schema, slots, misposted).unwrap_err(),
        IndexedError::DanglingPosting { col: 0, id: 1 }
    );

    let sharded = Snapshot::from_bytes(&Snapshot::Sharded(fixture_sharded()).to_bytes())
        .unwrap()
        .into_sharded()
        .unwrap();
    let (schema, shard_by, mut shards, global_ids, locations) = sharded.into_parts();
    shards.swap(0, 1);
    let err =
        ShardedRelation::from_parts(schema, shard_by, shards, global_ids, locations).unwrap_err();
    assert!(
        matches!(&err, EngineError::InconsistentSnapshot(why) if why.contains("routes to shard")),
        "{err}"
    );
}
