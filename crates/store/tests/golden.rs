//! Golden-fixture tests: the on-disk format may not drift silently.
//!
//! A small snapshot of each relation is committed under
//! `tests/fixtures/` in every format version this binary reads. These
//! tests assert that (a) today's writer still produces the current
//! version's bytes **byte-for-byte**, (b) the committed bytes of every
//! version still load and answer queries, and (c) files of one state in
//! versions 1 to 5 load to the same relation. An intentional format
//! change must bump [`pitract_store::FORMAT_VERSION`] and pin new
//! fixtures; the current version's fixtures, and only those, are
//! regenerated in one run with
//!
//! ```text
//! PITRACT_REGEN_FIXTURES=1 cargo test -p pitract-store --test golden
//! ```
//!
//! (the first fixture read writes them all, before any test reads one).
//!
//! Versions 1 to 4 are read-compat versions: the `*_v1.snap` to
//! `*_v4.snap` fixtures were written by writers that no longer exist
//! (version 4 also wrote a standalone relation as kind 1, version 3
//! also wrote every global id's location in section 7, version 2 wrote
//! a body row by row under an FNV-1a checksum, version 1 also wrote
//! postings). Nothing rewrites them:
//! [`frozen_fixtures_keep_their_length_and_checksum`] pins each one's
//! length and XXH64, and CI checks every fixture stays byte-identical to
//! the commit. This file keeps a writer for each old layout
//! ([`v4_bytes`], [`v3_bytes`], [`v2_bytes`], [`v1_bytes`]), each made
//! from the one after it and checked byte for byte against those
//! fixtures, so a file of any state can be made in any version. Version
//! 5 writes one kind, so the standalone relation has no `indexed_v5`
//! fixture: the `indexed_*` files load as one-shard relations.

use pitract_core::cost::Meter;
use pitract_core::hash::xxh64;
use pitract_engine::{
    EngineError, IdMap, LiveRelation, PooledExecutor, QueryBatch, ShardBy, ShardedRelation,
};
use pitract_relation::indexed::IndexedRelation;
use pitract_relation::{ColType, Columns, IndexedError, Relation, Schema, SelectionQuery, Value};
use pitract_store::codec::{Reader, Writer};
use pitract_store::snapshot::checksum;
use pitract_store::{Snapshot, StoreError, FORMAT_VERSION, MAGIC};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::{Arc, Once};

/// Section tags, as the `pitract_store::snapshot` module docs list them.
const SEC_SCHEMA: u32 = 1;
const SEC_BODY: u32 = 2;
const SEC_V1_INDEXES: u32 = 3;
const SEC_SHARDS: u32 = 5;
const SEC_GLOBAL_IDS: u32 = 6;
const SEC_V3_LOCATIONS: u32 = 7;
const SEC_INDEXED_COLS: u32 = 14;

/// The two relation kinds versions 1 to 4 wrote, by their codes: a
/// standalone `IndexedRelation` and a `ShardedRelation`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Indexed = 1,
    Sharded = 2,
}

const KINDS: [Kind; 2] = [Kind::Indexed, Kind::Sharded];

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The committed bytes of fixture `name`. Under
/// `PITRACT_REGEN_FIXTURES=1` the first call, from whichever test runs
/// first, rewrites every current-version fixture before any is read, so
/// no test reads one while it is being written.
fn read_fixture(name: &str) -> Vec<u8> {
    static REGENERATE: Once = Once::new();
    if std::env::var("PITRACT_REGEN_FIXTURES").is_ok() {
        REGENERATE.call_once(|| {
            for (name, bytes) in current_fixtures() {
                let path = fixture_path(&name);
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, bytes).unwrap();
            }
        });
    }
    std::fs::read(fixture_path(name))
        .unwrap_or_else(|e| panic!("fixture {name} missing ({e}); see module docs"))
}

/// Every fixture of the current format version, with the bytes today's
/// writer makes of it.
fn current_fixtures() -> [(String, Vec<u8>); 1] {
    [(
        format!("sharded_v{FORMAT_VERSION}.snap"),
        Snapshot::from(fixture_sharded()).to_bytes(),
    )]
}

/// The committed fixture of `kind` in format `version`.
fn fixture(kind: Kind, version: u16) -> Vec<u8> {
    let name = match kind {
        Kind::Indexed => "indexed",
        Kind::Sharded => "sharded",
    };
    read_fixture(&format!("{name}_v{version}.snap"))
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
    let live = LiveRelation::build(
        &fixture_relation(),
        ShardBy::Range {
            col: 0,
            splits: vec![Value::Int(7)],
        },
        2,
        &[0, 1],
    )
    .unwrap();
    live.delete(4).unwrap();
    live.to_sharded()
}

/// `ir` as a kind-1 file loads: one shard, hashed on column 0, each
/// slot's global id its slot number.
fn one_shard(ir: IndexedRelation) -> ShardedRelation {
    let slots = ir.slot_count();
    let ids = IdMap::from_parts(vec![(0..slots).collect()], slots).unwrap();
    ShardedRelation::from_parts(ir.schema().clone(), ShardBy::Hash { col: 0 }, vec![ir], ids)
        .unwrap()
}

/// The state each kind's fixtures hold.
fn built(kind: Kind) -> ShardedRelation {
    match kind {
        Kind::Indexed => one_shard(fixture_indexed()),
        Kind::Sharded => fixture_sharded(),
    }
}

/// Load a file holding a relation with no mark.
fn load(bytes: &[u8]) -> ShardedRelation {
    let snapshot = Snapshot::from_bytes(bytes).unwrap();
    assert_eq!(snapshot.mark, None, "a plain relation has no mark");
    snapshot.state
}

/// Compare one fixture of the current format version with `bytes`
/// (under `PITRACT_REGEN_FIXTURES=1`, [`read_fixture`] has rewritten it
/// from [`current_fixtures`] first).
fn assert_golden(name: &str, bytes: &[u8]) -> Vec<u8> {
    assert!(
        name.ends_with(&format!("_v{FORMAT_VERSION}.snap")),
        "only the current version's fixtures are written: {name}"
    );
    let on_disk = read_fixture(name);
    assert_eq!(
        on_disk, bytes,
        "snapshot encoding for {name} drifted from the committed fixture: \
         either revert the encoding change or bump FORMAT_VERSION and pin new fixtures"
    );
    on_disk
}

/// The `(tag, payload)` sections of a snapshot file, in table order.
fn sections(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let mut r = Reader::new(&bytes[12..bytes.len() - 8]);
    let count = r.u32().unwrap();
    let table: Vec<(u32, usize)> = (0..count)
        .map(|_| (r.u32().unwrap(), r.usize().unwrap()))
        .collect();
    let payloads = table
        .into_iter()
        .map(|(tag, len)| (tag, r.take(len).unwrap().to_vec()))
        .collect();
    assert!(r.is_exhausted());
    payloads
}

/// A file of format `version` and structure `kind` holding `sections`,
/// with its checksum.
fn frame(version: u16, kind: u16, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(&MAGIC);
    w.u16(version);
    w.u16(kind);
    w.u32(sections.len() as u32);
    for (tag, payload) in sections {
        w.u32(*tag);
        w.u64(payload.len() as u64);
    }
    for (_, payload) in sections {
        w.raw(payload);
    }
    let mut bytes = w.into_bytes();
    let sum = checksum(version, &bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// A file of `like`'s version and kind holding `sections`.
fn reframe(like: &[u8], sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let version = u16::from_le_bytes([like[8], like[9]]);
    frame(version, u16::from_le_bytes([like[10], like[11]]), sections)
}

/// Payload of section `tag`.
fn section_mut(sections: &mut [(u32, Vec<u8>)], tag: u32) -> &mut Vec<u8> {
    &mut sections
        .iter_mut()
        .find(|(t, _)| *t == tag)
        .unwrap_or_else(|| panic!("no section {tag}"))
        .1
}

/// `sr` laid out as the version-4 writer laid out a file of `kind`: a
/// `Sharded` file has the version-5 sections under kind 2; an `Indexed`
/// file, of a one-shard relation, has the schema (1), the shard's body
/// alone (2) and the indexed columns (14) under kind 1. Checked against
/// the committed v4 fixtures.
fn v4_bytes(sr: &ShardedRelation, kind: Kind) -> Vec<u8> {
    let mut sections = sections(&Snapshot::from(sr.clone()).to_bytes());
    if kind == Kind::Indexed {
        assert_eq!(sr.shard_count(), 1, "a kind-1 file holds one relation");
        let shards = section_mut(&mut sections, SEC_SHARDS).split_off(8);
        sections.retain(|(tag, _)| matches!(*tag, SEC_SCHEMA | SEC_INDEXED_COLS));
        sections.insert(1, (SEC_BODY, shards));
    }
    frame(4, kind as u16, &sections)
}

/// `sr` laid out as the version-3 writer laid it out: section 6
/// without the next global id, and after it section 7, the id count and
/// then per global id a tag (0 dead, 1 live) and a live id's shard and
/// local; every other section as version 4 writes it. Checked against
/// the committed v3 fixtures.
fn v3_bytes(sr: &ShardedRelation, kind: Kind) -> Vec<u8> {
    let mut sections = sections(&v4_bytes(sr, kind));
    if kind == Kind::Sharded {
        let maps = section_mut(&mut sections, SEC_GLOBAL_IDS);
        maps.truncate(maps.len() - 8);
        let ids = sr.id_map();
        let mut w = Writer::new();
        w.usize(ids.next_gid());
        for gid in 0..ids.next_gid() {
            match ids.location(gid).filter(|_| sr.row(gid).is_some()) {
                None => w.u8(0),
                Some((shard, local)) => {
                    w.u8(1);
                    w.usize(shard);
                    w.usize(local);
                }
            }
        }
        let at = sections
            .iter()
            .position(|(tag, _)| *tag == SEC_GLOBAL_IDS)
            .unwrap();
        sections.insert(at + 1, (SEC_V3_LOCATIONS, w.into_bytes()));
    }
    frame(3, kind as u16, &sections)
}

/// A version-1 index body for `ir`: per indexed column, every key with
/// the ascending ids of the live rows holding it — what the v1 writer
/// copied out of a tree that agreed with its rows.
fn write_v1_postings(w: &mut Writer, ir: &IndexedRelation) {
    let cols = ir.indexed_columns();
    w.usize(cols.len());
    for col in cols {
        let mut postings: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        for (id, slot) in ir.slots().enumerate() {
            if let Some(row) = slot {
                postings
                    .entry(row.get(col).to_value())
                    .or_default()
                    .push(id);
            }
        }
        w.usize(col);
        w.usize(postings.len());
        for (key, ids) in &postings {
            w.value(key);
            w.usize_seq(ids);
        }
    }
}

/// A version-2 relation body: the slot count, then each slot row by
/// row (tag 0 dead; tag 1 live, then the row's tagged values). Version 1
/// wrote rows the same way.
fn write_slots(w: &mut Writer, ir: &IndexedRelation) {
    w.usize(ir.slot_count());
    for slot in ir.slots() {
        w.opt_row(slot);
    }
}

/// `sr` laid out as the version-2 writer laid it out: each body row by
/// row, under an FNV-1a checksum; every other section as version 3
/// writes it. Checked against the committed v2 fixtures.
fn v2_bytes(sr: &ShardedRelation, kind: Kind) -> Vec<u8> {
    let mut sections = sections(&v3_bytes(sr, kind));
    let mut w = Writer::new();
    match kind {
        Kind::Indexed => {
            write_slots(&mut w, &sr.shards()[0]);
            *section_mut(&mut sections, SEC_BODY) = w.into_bytes();
        }
        Kind::Sharded => {
            w.usize(sr.shard_count());
            for shard in sr.shards() {
                write_slots(&mut w, shard);
            }
            *section_mut(&mut sections, SEC_SHARDS) = w.into_bytes();
        }
    }
    frame(2, kind as u16, &sections)
}

/// `sr` laid out as the version-1 writer laid it out: each body's rows
/// followed by its postings, and no section 14. Checked against the
/// committed v1 fixtures, so a v1 file of any state can be made.
fn v1_bytes(sr: &ShardedRelation, kind: Kind) -> Vec<u8> {
    let mut sections = sections(&v2_bytes(sr, kind));
    sections.retain(|(tag, _)| *tag != SEC_INDEXED_COLS);
    let mut w = Writer::new();
    match kind {
        Kind::Indexed => {
            write_v1_postings(&mut w, &sr.shards()[0]);
            sections.push((SEC_V1_INDEXES, w.into_bytes()));
        }
        Kind::Sharded => {
            w.usize(sr.shard_count());
            for shard in sr.shards() {
                write_slots(&mut w, shard);
                write_v1_postings(&mut w, shard);
            }
            *section_mut(&mut sections, SEC_SHARDS) = w.into_bytes();
        }
    }
    frame(1, kind as u16, &sections)
}

/// Queries over both columns: hits, misses, deleted keys, the
/// placeholder values, ranges, conjunctions driven either way, and a
/// mistyped probe.
fn queries() -> Vec<SelectionQuery> {
    vec![
        SelectionQuery::point(0, -3i64),
        SelectionQuery::point(0, 0i64),
        SelectionQuery::point(0, 7i64),
        SelectionQuery::point(0, 42i64),
        SelectionQuery::point(0, 5i64),
        SelectionQuery::point(1, "alpha"),
        SelectionQuery::point(1, "Σ*"),
        SelectionQuery::point(1, ""),
        SelectionQuery::point(1, 7i64),
        SelectionQuery::range_closed(0, -1i64, 100i64),
        SelectionQuery::range_closed(1, "a", "z"),
        SelectionQuery::and(
            SelectionQuery::point(1, "alpha"),
            SelectionQuery::range_closed(0, 0i64, 10i64),
        ),
        SelectionQuery::and(
            SelectionQuery::range_closed(0, -5i64, 7i64),
            SelectionQuery::range_closed(0, 7i64, 1000i64),
        ),
    ]
}

/// Per query: the Boolean answer and its metered steps, then the
/// matching ids and theirs.
fn metered_answers(ir: &IndexedRelation) -> Vec<(bool, u64, Vec<usize>, u64)> {
    let meter = Meter::new();
    queries()
        .iter()
        .map(|q| {
            let answer = ir.answer_metered(q, &meter);
            let answer_steps = meter.take();
            let ids = ir.matching_ids_metered(q, &meter);
            (answer, answer_steps, ids, meter.take())
        })
        .collect()
}

/// Every standalone-relation fixture, versions 1 to 4, loads as a
/// one-shard relation hashed on column 0 with each slot's global id its
/// slot number, and its shard answers as `fixture_indexed()` does: the
/// same Booleans, row ids and metered steps, the tombstone kept.
#[test]
fn indexed_fixture_is_byte_stable_and_loads() {
    let want = fixture_indexed();
    for version in 1..=4 {
        let loaded = load(&fixture(Kind::Indexed, version));
        assert_eq!(loaded.shard_by(), &ShardBy::Hash { col: 0 });
        assert_eq!(loaded.id_map(), built(Kind::Indexed).id_map(), "v{version}");
        assert_eq!(loaded.shard_count(), 1);
        let shard = &loaded.shards()[0];
        assert_eq!(shard.indexed_columns(), want.indexed_columns());
        assert_eq!(metered_answers(shard), metered_answers(&want), "v{version}");
        assert!(
            shard.slots().eq(want.slots()),
            "the same rows and tombstone"
        );
        assert_eq!(loaded.len(), 5);
        assert!(loaded.row(2).is_none(), "tombstoned row stays deleted");
        assert_eq!(
            loaded.matching_ids(&SelectionQuery::point(0, 7i64)),
            vec![3],
            "row ids survive byte-for-byte"
        );
    }
}

#[test]
fn sharded_fixture_is_byte_stable_and_loads() {
    let bytes = assert_golden(
        "sharded_v5.snap",
        &Snapshot::from(fixture_sharded()).to_bytes(),
    );
    let loaded = load(&bytes);
    assert_eq!(loaded.shard_count(), 2);
    assert_eq!(loaded.len(), 5);
    let batch = QueryBatch::new([
        SelectionQuery::point(0, -3i64),
        SelectionQuery::point(0, 42i64), // deleted
        SelectionQuery::point(1, "alpha"),
    ]);
    let result = PooledExecutor::with_default_pool(Arc::new(LiveRelation::from_sharded(loaded)))
        .execute(&batch)
        .unwrap();
    assert_eq!(result.answers, vec![true, false, true]);
}

/// `old` and `new` are one relation: the same id map, found locations
/// and rows, and per shard the same slots, indexed columns, Booleans,
/// row ids and metered steps per query — the trees a load sorts out of
/// the rows are the same trees whatever version the rows came from.
fn assert_same(old: &ShardedRelation, new: &ShardedRelation) {
    assert_eq!(old.shard_by(), new.shard_by());
    assert_eq!(old.id_map(), new.id_map());
    for gid in 0..=new.id_map().next_gid() {
        assert_eq!(old.id_map().location(gid), new.id_map().location(gid));
        assert_eq!(old.row(gid), new.row(gid), "global id {gid}");
    }
    assert_eq!(old.shard_count(), new.shard_count());
    for (a, b) in old.shards().iter().zip(new.shards()) {
        assert_eq!(a.indexed_columns(), b.indexed_columns());
        assert_eq!(metered_answers(a), metered_answers(b));
        assert!(a.slots().eq(b.slots()), "the same rows and tombstones");
    }
    for q in queries() {
        assert_eq!(old.matching_ids(&q), new.matching_ids(&q), "{q:?}");
    }
}

/// The v1 fixtures still load, and answer exactly as the v2 fixtures of
/// the same state do — the trees a load sorts out of the rows are the
/// trees the v1 loader bulk-loaded from the postings.
#[test]
fn v1_fixtures_load_like_their_v2_twins() {
    for kind in KINDS {
        let v1 = fixture(kind, 1);
        assert_eq!(
            v1_bytes(&built(kind), kind),
            v1,
            "the test's v1 writer reproduces the v1 writer's {kind:?} bytes"
        );
        assert_same(&load(&v1), &load(&fixture(kind, 2)));
    }
}

/// The v2 fixtures still load, and answer exactly as the v3 fixtures of
/// the same state do.
#[test]
fn v2_fixtures_load_like_their_v3_twins() {
    for kind in KINDS {
        let v2 = fixture(kind, 2);
        assert_eq!(
            v2_bytes(&built(kind), kind),
            v2,
            "the test's v2 writer reproduces the v2 writer's {kind:?} bytes"
        );
        assert_same(&load(&v2), &load(&fixture(kind, 3)));
    }
}

/// The v3 fixtures still load, and answer exactly as the v4 fixtures of
/// the same state do: section 7 is checked and dropped, and the maps
/// and live bits give it back.
#[test]
fn v3_fixtures_load_like_their_v4_twins() {
    for kind in KINDS {
        let v3 = fixture(kind, 3);
        assert_eq!(
            v3_bytes(&built(kind), kind),
            v3,
            "the test's v3 writer reproduces the v3 writer's {kind:?} bytes"
        );
        assert_same(&load(&v3), &load(&fixture(kind, 4)));
    }
}

/// The v4 fixtures still load, and answer exactly as the same state
/// written by this binary does: a kind-2 file as its v5 twin, a kind-1
/// file as the one-shard relation it maps to.
#[test]
fn v4_fixtures_load_like_their_v5_twins() {
    for kind in KINDS {
        let v4 = fixture(kind, 4);
        assert_eq!(
            v4_bytes(&built(kind), kind),
            v4,
            "the test's v4 writer reproduces the v4 writer's {kind:?} bytes"
        );
        let v5 = Snapshot::from(built(kind)).to_bytes();
        assert_same(&load(&v4), &load(&v5));
    }
    assert_eq!(
        Snapshot::from(built(Kind::Sharded)).to_bytes(),
        read_fixture("sharded_v5.snap")
    );
}

/// The fixtures no writer makes any more, pinned by length and XXH64:
/// a regeneration or an edit of one fails here, not only in CI's
/// comparison with the commit.
#[test]
fn frozen_fixtures_keep_their_length_and_checksum() {
    for (name, len, hash) in FROZEN {
        let bytes = read_fixture(name);
        assert_eq!(
            (bytes.len(), xxh64(&bytes, 0)),
            (len, hash),
            "{name} changed: a frozen fixture is never rewritten"
        );
    }
}

/// The older versions' reader past its checksum: every frozen fixture
/// with each body byte flipped under five masks, and cut at each
/// length, the checksum recomputed for the file's own version each
/// time, loads or is refused typed — never a panic, and never as a
/// checksum mismatch while the version bytes stand.
#[test]
fn flipped_and_cut_frozen_fixtures_never_panic_past_their_checksum() {
    let forged = |version: u16, mut body: Vec<u8>| {
        let sum = checksum(version, &body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    };
    let (mut loaded, mut refused) = (0, 0);
    let mut load = |bytes: &[u8], version_intact: bool| match Snapshot::from_bytes(bytes) {
        Ok(_) => loaded += 1,
        Err(StoreError::ChecksumMismatch) if version_intact => {
            panic!("a forged checksum was refused")
        }
        Err(_) => refused += 1,
    };
    for (name, ..) in FROZEN {
        let file = read_fixture(name);
        let version = u16::from_le_bytes([file[8], file[9]]);
        let body = &file[..file.len() - 8];
        for at in 0..body.len() {
            for mask in [0x01, 0x10, 0x7F, 0x80, 0xFF] {
                let mut flipped = body.to_vec();
                flipped[at] ^= mask;
                load(&forged(version, flipped), !(8..10).contains(&at));
            }
        }
        for cut in 0..body.len() {
            load(&forged(version, body[..cut].to_vec()), true);
        }
    }
    assert!(
        loaded > 0 && refused > 0,
        "{loaded} loaded, {refused} refused"
    );
}

/// Every read-compat fixture: name, length, XXH64 (seed 0) of the whole
/// file.
const FROZEN: [(&str, usize, u64); 8] = [
    ("indexed_v1.snap", 554, 0x1cba_1bd2_b090_4f3e),
    ("indexed_v2.snap", 285, 0x9f86_6a7b_7a36_3045),
    ("indexed_v3.snap", 269, 0x3750_417c_6976_aa11),
    ("indexed_v4.snap", 269, 0xac3c_69c2_3274_a2f5),
    ("sharded_v1.snap", 819, 0x52ab_cd52_e426_dc67),
    ("sharded_v2.snap", 523, 0x24ed_7cf1_3b3f_f832),
    ("sharded_v3.snap", 547, 0x263b_eda9_b2df_eded),
    ("sharded_v4.snap", 449, 0x25ff_817b_ba56_40f3),
];

/// A v1 posting that points key -3 at row 1 (live, holding 0) was
/// refused as a dangling posting while postings were loaded. Now they
/// are skipped unread: the file loads and answers from its rows. A
/// posting list that overruns its section is still a typed error — the
/// skip is bounds-checked.
#[test]
fn a_corrupt_v1_posting_is_skipped_and_the_rows_answer() {
    let v1 = read_fixture("indexed_v1.snap");
    let mut corrupt = sections(&v1);
    let postings = section_mut(&mut corrupt, SEC_V1_INDEXES);
    // count, col 0, key count, then key -3 (tag + i64), its id count 1
    // and its one id, 0.
    let (len_at, id_at) = (8 + 8 + 8 + 1 + 8, 8 + 8 + 8 + 1 + 8 + 8);
    assert_eq!(postings[len_at..id_at], 1u64.to_le_bytes());
    assert_eq!(postings[id_at..id_at + 8], 0u64.to_le_bytes());
    postings[id_at..id_at + 8].copy_from_slice(&1u64.to_le_bytes());
    let loaded = load(&reframe(&v1, &corrupt));
    for (key, ids) in [(-3i64, vec![0]), (0, vec![1])] {
        let q = SelectionQuery::point(0, key);
        assert_eq!(loaded.matching_ids(&q), ids, "{q:?}");
    }

    let mut overrun = sections(&v1);
    section_mut(&mut overrun, SEC_V1_INDEXES)[len_at..id_at]
        .copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        Snapshot::from_bytes(&reframe(&v1, &overrun)),
        Err(StoreError::Truncated)
    ));
}

/// A v2-or-later file naming an indexed column its schema lacks is
/// refused with the relation layer's typed error, standalone or sharded.
#[test]
fn an_out_of_range_indexed_column_is_refused() {
    for name in [
        "indexed_v2.snap",
        "sharded_v2.snap",
        "indexed_v3.snap",
        "sharded_v3.snap",
        "indexed_v4.snap",
        "sharded_v4.snap",
        "sharded_v5.snap",
    ] {
        let file = read_fixture(name);
        let mut bad = sections(&file);
        let mut cols = Writer::new();
        cols.usize_seq(&[0, 5]);
        *section_mut(&mut bad, SEC_INDEXED_COLS) = cols.into_bytes();
        match Snapshot::from_bytes(&reframe(&file, &bad)) {
            Err(StoreError::Indexed(IndexedError::ColumnOutOfRange { col: 5, arity: 2 })) => {}
            other => panic!("{name}: expected ColumnOutOfRange, got {other:?}"),
        }
    }
}

#[test]
fn bumped_version_is_rejected_with_version_mismatch() {
    let mut bytes = read_fixture("sharded_v5.snap");
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
/// bitmap — writes back exactly what was read, for one shard and for
/// several.
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
    let live = LiveRelation::build(&relation, ShardBy::Hash { col: 1 }, 3, &[0, 1]).unwrap();
    for id in (0..300).step_by(7) {
        ir.delete(id).unwrap();
        live.delete(id).unwrap().unwrap();
    }
    for i in 300..340 {
        let (id, gid) = (ir.insert(row(i)).unwrap(), live.insert(row(i)).unwrap());
        if i % 11 == 0 {
            ir.delete(id).unwrap();
            live.delete(gid).unwrap().unwrap();
        }
    }
    for (i, state) in [
        built(Kind::Indexed),
        one_shard(ir),
        fixture_sharded(),
        live.to_sharded(),
    ]
    .into_iter()
    .enumerate()
    {
        let saved = Snapshot::from(state).to_bytes();
        let resaved = Snapshot::from_bytes(&saved).unwrap().to_bytes();
        assert!(
            resaved == saved,
            "{i} changed bytes across save → load → save"
        );
    }
}

/// A load still refuses what it refused before the postings left the
/// file: a slot the schema rejects, an indexed column the schema lacks,
/// and a shard holding rows its key does not route to — each with the
/// same error value.
#[test]
fn loaded_parts_are_still_validated() {
    let loaded = load(&Snapshot::from(built(Kind::Indexed)).to_bytes());
    let loaded = &loaded.shards()[0];
    let mut rows = Columns::new(loaded.schema().clone());
    assert_eq!(
        rows.push_slot(Some(&[Value::str("0"), Value::str("héllo")]))
            .unwrap_err(),
        IndexedError::RowRejected("type mismatch in column \"id\": value \"0\"".into())
    );
    for slot in loaded.slots() {
        rows.push_slot(slot.map(|row| row.to_vec()).as_deref())
            .unwrap();
    }
    assert_eq!(
        IndexedRelation::from_columns(rows, &[0, 2]).unwrap_err(),
        IndexedError::ColumnOutOfRange { col: 2, arity: 2 }
    );

    let sharded = load(&Snapshot::from(fixture_sharded()).to_bytes());
    let (schema, shard_by, mut shards, ids) = sharded.into_parts();
    shards.swap(0, 1);
    let err = ShardedRelation::from_parts(schema, shard_by, shards, ids).unwrap_err();
    assert!(
        matches!(&err, EngineError::InconsistentSnapshot(why) if why.contains("routes to shard")),
        "{err}"
    );
}

/// The load path's own failure mode: a tombstone is stored as `0` / `""`
/// placeholder cells, and a rebuild that posted them would find deleted
/// rows. Tombstone the only row holding `Int 0` and the only one holding
/// `""`, save and load in every format, standalone and sharded: neither
/// value is found, a range over 0 yields no dead id, and a row holding
/// both that arrives later is found.
#[test]
fn tombstone_placeholders_are_never_posted_after_a_load() {
    let zero = SelectionQuery::point(0, 0i64);
    let empty = SelectionQuery::point(1, "");
    let around_zero = SelectionQuery::range_closed(0, -1i64, 1i64);
    let up_to_empty = SelectionQuery::Range {
        col: 1,
        lo: Bound::Unbounded,
        hi: Bound::Included(Value::str("")),
    };
    let probes = [&zero, &empty, &around_zero, &up_to_empty];
    let newcomer = || vec![Value::Int(0), Value::str("")];

    let mut ir = IndexedRelation::build(&fixture_relation(), &[0, 1]).unwrap();
    ir.delete(1).unwrap(); // (0, "héllo")
    ir.delete(5).unwrap(); // (1000, "")
    let live = LiveRelation::build(
        &fixture_relation(),
        ShardBy::Range {
            col: 0,
            splits: vec![Value::Int(7)],
        },
        2,
        &[0, 1],
    )
    .unwrap();
    live.delete(1).unwrap().unwrap();
    live.delete(5).unwrap().unwrap();
    for (kind, sr) in [
        (Kind::Indexed, one_shard(ir)),
        (Kind::Sharded, live.to_sharded()),
    ] {
        for bytes in [
            v1_bytes(&sr, kind),
            v2_bytes(&sr, kind),
            v3_bytes(&sr, kind),
            v4_bytes(&sr, kind),
            Snapshot::from(sr.clone()).to_bytes(),
        ] {
            let loaded = LiveRelation::from_sharded(load(&bytes));
            for q in probes {
                assert!(!loaded.answer(q), "{kind:?} {q:?}");
                assert!(loaded.matching_ids(q).is_empty(), "{kind:?} {q:?}");
            }
            let gid = loaded.insert(newcomer()).unwrap();
            for q in probes {
                assert_eq!(loaded.matching_ids(q), vec![gid], "{kind:?} {q:?}");
            }
        }
    }
}

/// A version-3 relation body written field by field: the slot count,
/// the bitmap's word count and words, then an `Int` column and a `Str`
/// column (arena, cell count, end offsets), each count taken from its
/// slice.
fn v3_body(slots: u64, bits: &[u64], ints: &[i64], arena: &[u8], ends: &[u64]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(slots);
    w.usize(bits.len());
    w.u64_run(bits);
    w.usize(ints.len());
    w.i64_run(ints);
    w.usize(arena.len());
    w.raw(arena);
    w.usize(ends.len());
    w.u64_run(ends);
    w.into_bytes()
}

/// Every v3 section refuses bad input with a typed error, never a panic:
/// a short `i64` run, end offsets that decrease, overrun the arena or
/// land inside a character, an arena that is not UTF-8, and a bitmap
/// with the wrong word count, a bit past the slot count, or a popcount
/// the columns disagree with — in a standalone body and in a shard's.
#[test]
fn every_v3_section_refuses_bad_input_typed() {
    // The fixture: slots 0, 1, 3, 4 and 5 live; "héllo" and "日本語"
    // hold multi-byte characters.
    let arena = "alphahélloalpha日本語".as_bytes();
    let (ints, ends) = ([-3, 0, 7, 42, 1000], [5, 11, 16, 25, 25]);
    let good = v3_body(6, &[0b11_1011], &ints, arena, &ends);
    let v3 = read_fixture("indexed_v3.snap");
    assert_eq!(
        *section_mut(&mut sections(&v3), SEC_BODY),
        good,
        "the field-by-field body is the writer's"
    );
    let load = |body: Vec<u8>| {
        let mut parts = sections(&v3);
        *section_mut(&mut parts, SEC_BODY) = body;
        Snapshot::from_bytes(&reframe(&v3, &parts))
    };
    let refused = |body: Vec<u8>, why: &str| match load(body) {
        Err(StoreError::Indexed(IndexedError::BadColumns(got))) => {
            assert!(got.contains(why), "{got}")
        }
        other => panic!("expected BadColumns({why}), got {other:?}"),
    };
    assert!(load(good.clone()).is_ok());

    // A short i64 run: cut inside it, or a count past the section.
    let int_run = 8 * 4;
    assert!(matches!(
        load(good[..int_run + 8 * 3 + 4].to_vec()),
        Err(StoreError::Truncated)
    ));
    let mut overlong = good.clone();
    overlong[8 * 3..8 * 4].copy_from_slice(&1000u64.to_le_bytes());
    assert!(matches!(load(overlong), Err(StoreError::Truncated)));

    // End offsets.
    refused(
        v3_body(6, &[0b11_1011], &ints, arena, &[5, 11, 10, 25, 25]),
        "below",
    );
    refused(
        v3_body(6, &[0b11_1011], &ints, arena, &[5, 11, 16, 25, 26]),
        "overruns",
    );
    refused(
        v3_body(6, &[0b11_1011], &ints, arena, &[5, 7, 16, 25, 25]),
        "splits",
    );
    refused(
        v3_body(6, &[0b11_1011], &ints, arena, &[5, 11, 16, 18, 25]),
        "splits",
    );
    refused(
        v3_body(6, &[0b11_1011], &ints, arena, &[5, 11, 16, 25, 16]),
        "below",
    );

    // An arena that is not UTF-8.
    let mut bad_utf8 = arena.to_vec();
    bad_utf8[6] = 0xFF;
    assert!(matches!(
        load(v3_body(6, &[0b11_1011], &ints, &bad_utf8, &ends)),
        Err(StoreError::Corrupt(why)) if why.contains("UTF-8")
    ));

    // The bitmap.
    refused(
        v3_body(6, &[0b11_1011, 0], &ints, arena, &ends),
        "2 words for 6 slots",
    );
    refused(v3_body(6, &[], &ints, arena, &ends), "0 words for 6 slots");
    refused(
        v3_body(6, &[0b1_0001_1011], &ints, arena, &ends),
        "past slot count 6",
    );
    refused(
        v3_body(6, &[0b11_1111], &ints, arena, &ends),
        "for 6 live slots",
    );
    refused(
        v3_body(6, &[0b11_1010], &ints, arena, &ends),
        "for 4 live slots",
    );

    // A shard's body goes through the same checks.
    let v3 = read_fixture("sharded_v3.snap");
    let mut parts = sections(&v3);
    let shards = section_mut(&mut parts, SEC_SHARDS);
    let first = &mut shards[8 + 8 + 8..8 + 8 + 8 + 8];
    first[0] ^= 1 << 7; // a live bit past the first shard's slot count
    assert!(matches!(
        Snapshot::from_bytes(&reframe(&v3, &parts)),
        Err(StoreError::Indexed(IndexedError::BadColumns(why))) if why.contains("past slot count")
    ));
}

/// A version-4 section 6 written field by field: the map count, each
/// map as a count and its ids, then the next global id if there is one,
/// then `extra`.
fn v4_id_map(maps: &[&[u64]], next_gid: Option<u64>, extra: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(maps.len());
    for map in maps {
        w.usize(map.len());
        w.u64_run(map);
    }
    if let Some(next_gid) = next_gid {
        w.u64(next_gid);
    }
    w.raw(extra);
    w.into_bytes()
}

/// Section 6 of a v4 or v5 file refuses bad input with a typed error,
/// never a panic: a global id in two shards' maps, a mapped id at or
/// past the next one, and a next global id past `isize::MAX`, cut off,
/// or followed by bytes.
#[test]
fn every_v4_id_map_refusal_is_typed() {
    for name in ["sharded_v4.snap", "sharded_v5.snap"] {
        id_map_refusals_are_typed(&read_fixture(name));
    }
}

/// [`every_v4_id_map_refusal_is_typed`] on one sharded fixture.
fn id_map_refusals_are_typed(file: &[u8]) {
    // The fixture: shard 0 holds ids 0 and 1, shard 1 ids 2 to 5 (4
    // deleted); the next id is 6.
    let (zero, one): (&[u64], &[u64]) = (&[0, 1], &[2, 3, 4, 5]);
    assert_eq!(
        *section_mut(&mut sections(file), SEC_GLOBAL_IDS),
        v4_id_map(&[zero, one], Some(6), &[]),
        "the field-by-field section is the writer's"
    );
    let load = |ids: Vec<u8>| {
        let mut parts = sections(file);
        *section_mut(&mut parts, SEC_GLOBAL_IDS) = ids;
        Snapshot::from_bytes(&reframe(file, &parts))
    };
    let inconsistent = |ids: Vec<u8>, why: &str| match load(ids) {
        Err(StoreError::Engine(EngineError::InconsistentSnapshot(got))) => {
            assert!(got.contains(why), "{got}")
        }
        other => panic!("expected InconsistentSnapshot({why}), got {other:?}"),
    };
    assert!(load(v4_id_map(&[zero, one], Some(6), &[])).is_ok());
    assert!(
        load(v4_id_map(&[zero, one], Some(9), &[])).is_ok(),
        "ids burned past the maps"
    );

    // A global id in two shards' maps, each map the length of its shard.
    inconsistent(
        v4_id_map(&[&[0, 2], one], Some(6), &[]),
        "global id 2 is mapped by shards 0 and 1",
    );
    inconsistent(
        v4_id_map(&[&[0, 5], one], Some(6), &[]),
        "global id 5 is mapped by shards 0 and 1",
    );

    // A mapped id at or past the next one.
    inconsistent(
        v4_id_map(&[zero, one], Some(5), &[]),
        "global id 5, at or past the next id 5",
    );
    inconsistent(
        v4_id_map(&[zero, &[2, 3, 4, 7]], Some(6), &[]),
        "global id 7, at or past the next id 6",
    );

    // A next global id too far to count on from.
    inconsistent(
        v4_id_map(&[zero, one], Some(u64::MAX), &[]),
        "past isize::MAX",
    );

    // The next global id cut off, whole or in part, or followed by bytes.
    let good = v4_id_map(&[zero, one], Some(6), &[]);
    for cut in 1..=8 {
        assert!(
            matches!(
                load(good[..good.len() - cut].to_vec()),
                Err(StoreError::Truncated)
            ),
            "cut {cut}"
        );
    }
    for extra in [&[0u8][..], &[0; 8]] {
        assert!(matches!(
            load(v4_id_map(&[zero, one], Some(6), extra)),
            Err(StoreError::Corrupt(why)) if why.contains("trailing bytes")
        ));
    }
}

/// The XXH64 checksum (from version 3) covers every byte: a flip
/// anywhere before the trailer, including in the header and section
/// table, fails it.
#[test]
fn the_v3_checksum_covers_every_byte() {
    for name in ["sharded_v3.snap", "sharded_v4.snap", "sharded_v5.snap"] {
        let file = read_fixture(name);
        for at in (0..file.len() - 8).filter(|&at| !(8..10).contains(&at)) {
            let mut flipped = file.clone();
            flipped[at] ^= 0x10;
            assert!(
                Snapshot::from_bytes(&flipped).is_err(),
                "{name}: flip at {at}"
            );
            if at >= 12 {
                assert!(
                    matches!(
                        Snapshot::from_bytes(&flipped),
                        Err(StoreError::ChecksumMismatch)
                    ),
                    "{name}: flip at {at}"
                );
            }
        }
    }
}
