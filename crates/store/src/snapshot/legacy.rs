//! The reader of snapshot format versions 1 to 4: everything that exists
//! only so that files this binary no longer writes still load. Its one
//! entry point, [`decode`], takes a whole older-version file whose frame
//! the caller has checked — magic, a readable version, and that
//! version's checksum ([`super::checksum`]: FNV-1a 64 for versions 1
//! and 2, XXH64 from version 3) — and returns a [`Snapshot`]. It shares
//! the current reader's encodings where a version kept them: the
//! section table, the schema, the partitioning, the columnar body of
//! versions 3 and 4, and section 6's maps.
//!
//! # Revisions
//!
//! - **Revision 4** wrote the sections of version 5 under kind 2 (a
//!   relation) or kind 5 (a checkpoint), and a standalone relation as
//!   kind 1. A kind-5 file was always a checkpoint.
//! - **Revision 3** also wrote every global id's location (section 7),
//!   and no next global id in section 6.
//! - **Revision 2** wrote each relation body row by row, under an
//!   FNV-1a checksum.
//! - **Revision 1** also wrote every index's postings after a body's
//!   rows, and no section 14.
//!
//! All four still load, with the locations checked and the postings
//! skipped unread.
//!
//! # Kinds
//!
//! Versions 1 to 4 wrote five kinds. This reader loads the three that
//! held a relation as the one kind version 5 writes, and refuses the
//! other two:
//!
//! | kind | versions 1–4 | loads as |
//! |---|---|---|
//! | 1 | an `IndexedRelation`: schema (1), relation body (2), indexed columns (14) | one shard, hashed on column 0, each slot's global id its slot number, so every row id is kept; no mark |
//! | 2 | a `ShardedRelation`: sections 1, 4, 5, 6 and 14 | the relation, no mark |
//! | 3 | 2-hop labels: `L_out` (8), `L_in` (9), hub ranks (10) | refused, [`StoreError::UnknownKind`] |
//! | 4 | an in-memory update log (11) | refused, [`StoreError::UnknownKind`] |
//! | 5 | a checkpoint: the kind-2 sections, WAL mark (12), cut epoch (13) | the relation and its mark; no section 13 is epoch 0 |
//!
//! A kind-1 file of a relation with no column cannot be hashed on
//! column 0 and is refused typed, as
//! [`pitract_engine::EngineError::ShardColumnOutOfRange`]. The cut-epoch
//! section (13) was appended to kind 5 without a version bump, as
//! sections are located by tag: a checkpoint written before it existed
//! loads with epoch 0.
//!
//! # Section 7
//!
//! Versions 1 to 3 wrote no next global id in section 6, and a section
//! 7 instead: an id count, then per global id a tag (0 dead, 1 live)
//! and a live id's `u64` shard and local. Every entry follows from the
//! maps and the live bits. A load of such a file takes the id count as
//! the next global id, checks each entry against the location the maps
//! give and its shard's live bit ([`check_locations`]), and then drops
//! the section.
//!
//! # Row bodies and postings
//!
//! Versions 1 and 2 wrote a body row by row: a slot count, then per slot
//! a tag (0 dead, 1 live) and a live row's tagged values. Each row goes
//! through `Columns::push_slot`, which admits it. A v1 body also
//! follows its rows with its index postings (section 3 of a kind-1
//! file; after each shard's rows in section 5), which the reader steps
//! over with the bounds-checked codec, keeping each index's column
//! number as the columns to index and never looking at a posting.

use super::*;
use pitract_engine::EngineError;

/// A standalone `IndexedRelation`.
pub(super) const KIND_V4_INDEXED: u16 = 1;
/// A `ShardedRelation` with no mark.
const KIND_V4_SHARDED: u16 = 2;

/// A kind-1 file's relation body.
pub(super) const SEC_BODY: u32 = 2;
/// Version 1 only: a standalone relation's index postings.
const SEC_V1_INDEXES: u32 = 3;
/// Versions 1–3: every global id's location.
const SEC_LOCATIONS: u32 = 7;

/// Decode `body`, a file of format `version` (1 to 4) and structure
/// `kind` less its checked checksum.
pub(super) fn decode(version: u16, kind: u16, body: &[u8]) -> Result<Snapshot, StoreError> {
    if !matches!(kind, KIND_V4_INDEXED | KIND_V4_SHARDED | KIND_RELATION) {
        return Err(StoreError::UnknownKind(kind));
    }
    let sections = Sections::locate(body)?;
    let state = match (kind, version) {
        (KIND_V4_INDEXED, _) => decode_indexed(version, &sections)?,
        // Version 4 wrote a relation's sections as version 5 does.
        (_, 4) => decode_sharded(&sections)?,
        _ => decode_v1_to_v3(version, &sections)?,
    };
    if kind != KIND_RELATION {
        return Ok(Snapshot::from(state));
    }
    // Kind 5 was always a checkpoint; one written before section 13
    // existed has the cut epoch 0.
    let wal_lsn = finish(sections.get(SEC_WAL_MARK)?, Reader::u64)?;
    let epoch = sections.find(SEC_EPOCH).map(|r| finish(r, Reader::u64));
    let mark = Some((wal_lsn, Epoch::new(epoch.transpose()?.unwrap_or(0))));
    Ok(Snapshot { state, mark })
}

/// Decode one relation body of format `version` into column storage for
/// `schema`.
fn read_body(version: u16, r: &mut Reader<'_>, schema: &Schema) -> Result<Columns, StoreError> {
    match version {
        1 | 2 => read_slots(r, schema),
        _ => read_columns(r, schema),
    }
}

/// A version-1 or -2 body: the slots row by row, decoded straight into
/// column storage for `schema` through one reused row buffer, each live
/// row admitted as it is appended.
fn read_slots(r: &mut Reader<'_>, schema: &Schema) -> Result<Columns, StoreError> {
    let n = r.count(1)?;
    let mut rows = Columns::new(schema.clone());
    let mut row = Vec::with_capacity(schema.arity());
    for _ in 0..n {
        let live = r.opt_row_into(&mut row)?;
        rows.push_slot(live.then_some(&row[..]))?;
    }
    Ok(rows)
}

/// Step over a version-1 body's index postings, keeping each index's
/// column number: the columns to rebuild. Every read is bounds-checked,
/// but no posting is kept or validated — the trees come from the rows.
fn skip_v1_indexes(r: &mut Reader<'_>) -> Result<Vec<usize>, StoreError> {
    let n = r.count(1)?;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        cols.push(r.usize()?);
        for _ in 0..r.count(1)? {
            r.value()?;
            // `count(8)` has checked that `ids` u64s remain.
            let ids = r.count(8)?;
            r.take(ids * 8)?;
        }
    }
    Ok(cols)
}

/// A version 1–3 id map: section 6's maps, with section 7's id count as
/// the next global id, checked by [`IdMap::from_parts`]. The reader of
/// the locations after the count is returned for [`check_locations`].
pub(super) fn read_id_map<'a>(
    global_ids: Reader<'_>,
    mut locations: Reader<'a>,
) -> Result<(IdMap, Reader<'a>), StoreError> {
    let maps = finish(global_ids, read_maps)?;
    let next_gid = locations.count(1)?;
    Ok((IdMap::from_parts(maps, next_gid)?, locations))
}

/// Check a version 1–3 file's section 7 against the relation it
/// loaded, then drop it: per global id below the next one, in id order,
/// a tag (0 dead, 1 live) and a live id's `u64` shard and local, which
/// must be exactly the id's location in the maps if its shard's live
/// bit is set, and dead otherwise. One cursor per shard follows the
/// maps in id order, so each id costs one look at each cursor. A bad
/// tag, a cut-off entry and bytes past the last one are refused as
/// before; an entry the maps and bits do not give is
/// [`EngineError::InconsistentSnapshot`].
pub(super) fn check_locations(sr: &ShardedRelation, mut r: Reader<'_>) -> Result<(), StoreError> {
    let ids = sr.id_map();
    let mut cursors = vec![0usize; ids.shard_count()];
    for gid in 0..ids.next_gid() {
        let stored = match r.u8()? {
            0 => None,
            1 => Some((r.usize()?, r.usize()?)),
            tag => return Err(StoreError::Corrupt(format!("bad location tag {tag}"))),
        };
        let found = (0..cursors.len())
            .find(|&s| ids.global_ids(s).get(cursors[s]) == Some(&gid))
            .map(|s| {
                cursors[s] += 1;
                (s, cursors[s] - 1)
            });
        let derived = found.filter(|&(s, local)| sr.shards()[s].row(local).is_some());
        if stored != derived {
            return Err(StoreError::Engine(EngineError::InconsistentSnapshot(
                format!("global id {gid} is stored at {stored:?}; the maps and live bits place it at {derived:?}"),
            )));
        }
    }
    if !r.is_exhausted() {
        return Err(StoreError::Corrupt("trailing bytes in section".into()));
    }
    Ok(())
}

/// Decode a `ShardedRelation` of format `version`, 1 to 3, from its
/// sections 1, 4, 5, 6 and 7, and 14 from version 2; a v1 shard's body
/// follows its rows with its postings.
fn decode_v1_to_v3(version: u16, sections: &Sections<'_>) -> Result<ShardedRelation, StoreError> {
    let schema = finish(sections.get(SEC_SCHEMA)?, Reader::schema)?;
    let shard_by = finish(sections.get(SEC_SHARD_BY)?, read_shard_by)?;
    let shared_cols = match version {
        1 => None,
        _ => Some(finish(sections.get(SEC_INDEXED_COLS)?, Reader::usize_seq)?),
    };
    let shards = read_shards(sections.get(SEC_SHARDS)?, |r| {
        let rows = read_body(version, r, &schema)?;
        let cols = match &shared_cols {
            Some(cols) => cols.clone(),
            None => skip_v1_indexes(r)?,
        };
        Ok(IndexedRelation::from_columns(rows, &cols)?)
    })?;
    let (ids, locations) =
        read_id_map(sections.get(SEC_GLOBAL_IDS)?, sections.get(SEC_LOCATIONS)?)?;
    let sr = ShardedRelation::from_parts(schema, shard_by, shards, ids)?;
    check_locations(&sr, locations)?;
    Ok(sr)
}

/// Decode a kind-1 file, a standalone `IndexedRelation` (sections 1, 2,
/// and 14 or, in version 1, 3), as a one-shard relation: hashed on
/// column 0, and each slot's global id its slot number, so every row id
/// is kept and the ids burned past the last slot are none.
fn decode_indexed(version: u16, sections: &Sections<'_>) -> Result<ShardedRelation, StoreError> {
    let schema = finish(sections.get(SEC_SCHEMA)?, Reader::schema)?;
    let rows = finish(sections.get(SEC_BODY)?, |r| read_body(version, r, &schema))?;
    let cols = match version {
        1 => finish(sections.get(SEC_V1_INDEXES)?, skip_v1_indexes)?,
        _ => finish(sections.get(SEC_INDEXED_COLS)?, Reader::usize_seq)?,
    };
    let shard = IndexedRelation::from_columns(rows, &cols)?;
    let slots = shard.slot_count();
    let ids = IdMap::from_parts(vec![(0..slots).collect()], slots)?;
    let (shard_by, shards) = (ShardBy::Hash { col: 0 }, vec![shard]);
    Ok(ShardedRelation::from_parts(schema, shard_by, shards, ids)?)
}
