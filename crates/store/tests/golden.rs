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

use pitract_engine::{PooledExecutor, QueryBatch, ShardBy, ShardedRelation};
use pitract_relation::indexed::IndexedRelation;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
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
