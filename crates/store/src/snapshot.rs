//! The versioned snapshot file format: [`Snapshot::to_bytes`] and
//! [`Snapshot::from_bytes`]. Files reach storage through
//! [`crate::SnapshotCatalog`].
//!
//! # On-disk layout (format version 5)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//! 0       8     magic tag, the ASCII bytes "PITRSNAP"
//! 8       2     format version, u16 LE (currently 5)
//! 10      2     structure kind, u16 LE (always 5)
//! 12      4     section count k, u32 LE
//! 16      12*k  section table: k entries of (tag: u32 LE, len: u64 LE);
//!               payloads follow in table order
//! ...     Σlen  the k section payloads, concatenated
//! end-8   8     checksum over every preceding byte, u64 LE
//! ```
//!
//! The checksum is XXH64 with seed 0 ([`pitract_core::hash::xxh64`]),
//! which reads eight bytes at a time in four lanes, at memory speed.
//!
//! # One kind
//!
//! A file holds one sharded relation ([`ShardedRelation`]), with a WAL
//! mark when it is a checkpoint: what a node serves and what it
//! recovers from. Every file is kind 5, and its sections are, in file
//! order:
//!
//! | tag | section |
//! |---|---|
//! | 1 | schema |
//! | 4 | shard_by |
//! | 5 | shard count, then one relation body per shard |
//! | 6 | global-id maps and the next global id |
//! | 14 | indexed columns |
//! | 12 | WAL mark: the LSN of the first record not in the state (checkpoints only) |
//! | 13 | cut epoch: the epoch the state was read at (checkpoints only) |
//!
//! Sections 12 and 13 are written together or not at all; a file with
//! one and not the other is refused as [`StoreError::Corrupt`]. A file
//! of any other kind is refused as [`StoreError::UnknownKind`]. Kind
//! codes 1 to 4 and tags 2, 3 and 7 to 11 were used by versions 1 to 4
//! and are not reused.
//!
//! # Older versions
//!
//! This module reads only the current version. A file of versions 1 to
//! 4 passes the same frame checks — magic, version, its version's
//! checksum ([`checksum`]), section table — and is then decoded, whole,
//! by the private `snapshot/legacy.rs`, whose module docs hold those
//! layouts and how each loads. A format bump moves the current reader
//! there as one more case.
//!
//! # Writing a file
//!
//! A save streams. The section table is declared before the first
//! payload, so each section's encoder runs twice: into a counting
//! [`Writer`], which sizes the payload (a run of cells costs one add),
//! and then into the file after the header and the table, where a
//! payload whose tag or length differs from its declaration is refused
//! as [`std::io::ErrorKind::InvalidData`]. Nothing is backpatched. The
//! file writer holds one chunk ([`crate::codec::CHUNK`], 1 MiB); each
//! time it fills, a streaming XXH64 ([`pitract_core::hash::Xxh64`])
//! absorbs it and it is appended to the temp file, and the last chunk
//! carries the checksum. So a save holds one chunk of its file,
//! whatever the file's size. A checkpoint encodes each shard at its
//! pinned epoch under that shard's read lock, in both passes, so a
//! shard's chunks reach the file (the page cache, never a flush) inside
//! that lock. [`Snapshot::to_bytes`] is the same frame written to
//! memory. One encoder writes a relation's sections, whether its parts
//! are read off a [`ShardedRelation`] or lent by a [`PinnedRead`].
//!
//! # A relation body
//!
//! A relation body is columnar: the row store ([`Columns`]) as it lies
//! in memory, less its dead cells.
//!
//! ```text
//! field                      encoding
//! -------------------------  ---------------------------------------------
//! slot count n               u64
//! live bitmap                u64 word count w = ⌈n/64⌉, then w u64 words;
//!                            bit id%64 of word id/64 set iff slot id is live
//! per schema column, in order:
//!   Int                      u64 cell count, then that many i64 LE
//!   Str                      arena (u64 byte length, UTF-8 bytes), then
//!                            u64 cell count and that many u64 end offsets
//! ```
//!
//! *The dead-cell rule:* a column holds only the cells of live slots, in
//! slot order, so a cell count must equal the bitmap's popcount and a
//! deleted row's cells never reach the disk. A load puts the placeholder
//! `0` or `""` at each dead slot, as a tombstone holds in memory. With
//! no dead slot an `Int` column is one `i64` run and a `Str` column its
//! arena and end offsets, each written and read in one call.
//!
//! # The id map
//!
//! Section 6 is a map count, then per shard its local → global map (a
//! `u64` count and one `u64` run, strictly increasing), then the next
//! global id as a `u64`. That last is the one fact of the id map the
//! maps cannot give: ids burned past the last mapped one name no row.
//! Nothing is stored per global id. A load finds an id's location by
//! searching the maps, and its shard's live bit says whether its row is
//! live.
//!
//! A relation is stored as `D`, not as `Π(D)`: its rows and the list of
//! columns it indexes, never a posting. A load rebuilds every tree by
//! sort through [`IndexedRelation::from_columns`], and leaves no index
//! on disk that could disagree with its rows.
//!
//! Readers locate sections by tag, so a version may append new sections
//! without breaking old payload parsing. Any change to an existing
//! section's encoding must bump the format version; a version this
//! binary never wrote is refused with [`StoreError::VersionMismatch`].
//! Corruption is caught in layers: the checksum rejects bit rot and
//! truncation, the bounds-checked codec rejects structurally impossible
//! payloads (a run shorter than its count is [`StoreError::Truncated`],
//! an arena that is not UTF-8 is [`StoreError::Corrupt`]), and the
//! constructors reject decodable-but-inconsistent parts:
//! [`Columns::from_live_cells`] checks the bitmap against the slot
//! count and each column's length against its popcount, and each end
//! offset against its arena, `from_columns` refuses an indexed column
//! the schema lacks, `IdMap::from_parts` refuses a local → global map
//! that does not increase, a global id at or past the next one, and an
//! id two shards' maps both hold (the invariant a location search
//! relies on), and `ShardedRelation::from_parts` checks routing and
//! that the maps agree with the shards. Golden fixture tests pin the
//! byte-level format so accidental encoding drift fails CI.

mod legacy;

use crate::codec::{Reader, Writer};
use crate::error::StoreError;
use pitract_core::epoch::Epoch;
use pitract_core::hash::{fnv1a64, xxh64};
use pitract_engine::{IdMap, IdMapView, LiveRelation, PinnedRead, ShardBy, ShardedRelation};
use pitract_relation::indexed::IndexedRelation;
use pitract_relation::{CellRun, ColType, Columns, ColumnsView, LiveCells, Schema};
use std::borrow::Cow;
use std::io;

/// The 8-byte magic tag opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"PITRSNAP";

/// The format version this binary writes — the revision of
/// [`Snapshot`]'s bytes. It reads this one and every earlier one.
pub const FORMAT_VERSION: u16 = 5;

/// The kind every file of [`FORMAT_VERSION`] declares: a sharded
/// relation, with a WAL mark or without.
const KIND_RELATION: u16 = 5;

const SEC_SCHEMA: u32 = 1;
const SEC_SHARD_BY: u32 = 4;
const SEC_SHARDS: u32 = 5;
const SEC_GLOBAL_IDS: u32 = 6;
const SEC_WAL_MARK: u32 = 12;
const SEC_EPOCH: u32 = 13;
const SEC_INDEXED_COLS: u32 = 14;

/// A relation ready to persist, or freshly loaded, and the WAL mark it
/// covers if it is a checkpoint.
///
/// **Revision 5** ([`FORMAT_VERSION`]): one kind. A relation is written
/// as its columns — the live bitmap and each column's live cells as
/// runs — and its list of indexed columns (section 14), with no
/// postings, under an XXH64 checksum; a load rebuilds the trees by
/// sort. Its id map is its local → global maps and the next global id,
/// nothing per id. Files of revisions 1 to 4 still load, through the
/// private `snapshot/legacy.rs`, which documents them.
#[derive(Debug)]
pub struct Snapshot {
    /// The relation.
    pub state: ShardedRelation,
    /// A checkpoint's WAL mark: the log sequence number of the first
    /// record *not* contained in `state` — where recovery starts
    /// replaying the write-ahead log — and the MVCC epoch `state` was
    /// read at, the live relation's epoch clock then, so recovery can
    /// resume the clock exactly. `None` for a plain save. A live
    /// relation's checkpoint is encoded in place
    /// ([`crate::SnapshotCatalog::save_checkpoint`]), to the bytes this
    /// struct writes for its state at that epoch.
    pub mark: Option<(u64, Epoch)>,
}

impl From<ShardedRelation> for Snapshot {
    fn from(state: ShardedRelation) -> Self {
        Snapshot { state, mark: None }
    }
}

impl Snapshot {
    /// Unwrap a checkpoint into `(state, wal_lsn, epoch)`, or report
    /// [`StoreError::NotACheckpoint`] for a snapshot with no WAL mark.
    pub fn into_checkpoint(self) -> Result<(ShardedRelation, u64, Epoch), StoreError> {
        match self.mark {
            Some((wal_lsn, epoch)) => Ok((self.state, wal_lsn, epoch)),
            None => Err(StoreError::NotACheckpoint),
        }
    }

    /// Serialize to the snapshot byte format (deterministic: equal
    /// structures produce equal bytes): the frame a save streams to its
    /// file, written to memory.
    pub fn to_bytes(&self) -> Vec<u8> {
        let framed = write_frame(Writer::new(), |frame| self.encode(frame));
        // An in-memory writer cannot fail, and a snapshot's encoders read
        // one immutable structure, so both passes write the same lengths.
        #[allow(clippy::expect_used)]
        // lint:allow(no-unwrap-in-serving): memory cannot fail, and an immutable snapshot encodes alike twice
        framed.expect("an immutable snapshot frames").into_bytes()
    }

    /// Stream this snapshot's file into `out` ([`write_frame`]).
    pub(crate) fn write_to(&self, out: Writer) -> io::Result<()> {
        write_frame(out, |frame| self.encode(frame)).map(drop)
    }

    /// Every section of this snapshot, in file order.
    fn encode(&self, frame: &mut Frame) {
        write_relation(&mut &self.state, frame);
        if let Some((wal_lsn, epoch)) = self.mark {
            write_mark(wal_lsn, epoch, frame);
        }
    }

    /// Stream a checkpoint of `live` at a freshly pinned epoch `e` into
    /// `out`, encoded in place, and return `e`: what
    /// [`crate::SnapshotCatalog::save_checkpoint`] writes. The bytes are
    /// those a [`Snapshot`] of the state at `e` with the mark
    /// `(wal_lsn(e), e)` writes. Both passes of the frame read at `e`,
    /// each shard under its own read lock, so a shard's chunks are
    /// appended under that lock. The pin is released when this returns,
    /// before the file is flushed.
    pub(crate) fn write_checkpoint(
        live: &LiveRelation,
        wal_lsn: impl FnOnce(Epoch) -> u64,
        out: Writer,
    ) -> io::Result<Epoch> {
        let mut pinned = live.pin_read();
        let epoch = pinned.epoch();
        let mark = wal_lsn(epoch);
        write_frame(out, |frame| {
            write_relation(&mut pinned, frame);
            write_mark(mark, epoch, frame);
        })?;
        Ok(epoch)
    }

    /// Parse a snapshot from bytes, validating magic, version, checksum,
    /// kind, section table, payloads, and structural invariants — in
    /// that order. A file of an older version is decoded by the legacy
    /// reader after the checksum. Arbitrary input yields a typed
    /// [`StoreError`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        // Header + checksum trailer are the minimum possible file.
        if bytes.len() < 16 + 8 {
            return Err(StoreError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let mut header = Reader::new(&bytes[8..12]);
        let version = readable(header.u16()?)?;
        let body = &bytes[..bytes.len() - 8];
        let stored = Reader::new(&bytes[bytes.len() - 8..]).u64()?;
        if checksum(version, body) != stored {
            return Err(StoreError::ChecksumMismatch);
        }
        let kind = header.u16()?;
        if version < FORMAT_VERSION {
            return legacy::decode(version, kind, body);
        }
        if kind != KIND_RELATION {
            return Err(StoreError::UnknownKind(kind));
        }
        let sections = Sections::locate(body)?;
        let state = decode_sharded(&sections)?;
        let mark = read_mark(&sections)?;
        Ok(Snapshot { state, mark })
    }
}

/// `version`, if this binary reads it: every version it ever wrote,
/// 1 through [`FORMAT_VERSION`].
fn readable(version: u16) -> Result<u16, StoreError> {
    let expected = FORMAT_VERSION;
    match version {
        1..=FORMAT_VERSION => Ok(version),
        found => Err(StoreError::VersionMismatch { found, expected }),
    }
}

/// The checksum a file of format `version` ends with, over every byte
/// before it: FNV-1a 64 for versions 1 and 2, XXH64 with seed 0 from
/// version 3.
pub fn checksum(version: u16, body: &[u8]) -> u64 {
    match version {
        1 | 2 => fnv1a64(body),
        _ => xxh64(body, 0),
    }
}

/// The sections of one snapshot file as an encoder declares them, then
/// writes them: see [`write_frame`].
struct Frame {
    w: Writer,
    /// Each section's tag and payload length, in file order.
    table: Vec<(u32, u64)>,
    /// `None` while the table is declared; then the sections written.
    written: Option<usize>,
    /// Why the payloads did not match the table, once they did not.
    mismatch: Option<String>,
}

impl Frame {
    /// Append one section: `write` encodes its payload. While the table
    /// is declared, its tag and length are recorded; after, they must
    /// be the next entry's.
    fn section(&mut self, tag: u32, write: impl FnOnce(&mut Writer)) {
        let start = self.w.len();
        write(&mut self.w);
        let len = (self.w.len() - start) as u64;
        let Some(written) = &mut self.written else {
            self.table.push((tag, len));
            return;
        };
        let declared = self.table.get(*written).copied();
        if declared != Some((tag, len)) && self.mismatch.is_none() {
            self.mismatch = Some(format!(
                "section {written} wrote tag {tag} in {len} bytes; the table declared {declared:?}"
            ));
        }
        *written += 1;
    }
}

/// Write the snapshot file `encode` describes to `out`, in two passes of
/// `encode`. The first runs into a counting writer and declares each
/// section's tag and length; the header and that table are written
/// first, then the second pass writes the payloads after them, each of
/// which must match its declaration, then the checksum. A payload that
/// does not match is refused as [`io::ErrorKind::InvalidData`]: the
/// table on disk would not describe the file. Nothing is backpatched, so
/// a file writer holds one chunk, never the file.
fn write_frame(mut out: Writer, mut encode: impl FnMut(&mut Frame)) -> io::Result<Writer> {
    let mut plan = Frame {
        w: Writer::counting(),
        table: Vec::new(),
        written: None,
        mismatch: None,
    };
    encode(&mut plan);
    out.raw(&MAGIC);
    out.u16(FORMAT_VERSION);
    out.u16(KIND_RELATION);
    out.u32(plan.table.len() as u32);
    for &(tag, len) in &plan.table {
        out.u32(tag);
        out.u64(len);
    }
    let mut frame = Frame {
        w: out,
        written: Some(0),
        ..plan
    };
    encode(&mut frame);
    let written = frame.written.unwrap_or_default();
    if written < frame.table.len() {
        let declared = frame.table.len();
        let short = format!("{written} sections written; the table declared {declared}");
        frame.mismatch.get_or_insert(short);
    }
    if let Some(why) = frame.mismatch {
        return Err(io::Error::new(io::ErrorKind::InvalidData, why));
    }
    frame.w.seal()?;
    Ok(frame.w)
}

/// Run `read` on a section reader and require it to consume the whole
/// section.
fn finish<'a, T>(
    mut r: Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let out = read(&mut r)?;
    if !r.is_exhausted() {
        return Err(StoreError::Corrupt("trailing bytes in section".into()));
    }
    Ok(out)
}

// --- section encoders -----------------------------------------------------

/// What [`write_relation`] encodes a relation from: its layout, then
/// each shard's rows and the id map, lent one at a time — read straight
/// off a [`ShardedRelation`], or by a [`PinnedRead`] at its epoch, each
/// shard under that shard's read lock alone and the id map under its
/// own.
trait Lend {
    /// The schema, the partitioning, the shard count and the indexed
    /// columns.
    fn layout(&self) -> (&Schema, &ShardBy, usize, Vec<usize>);
    /// Lend shard `shard`'s rows to `read`.
    fn shard(&mut self, shard: usize, read: impl FnOnce(&ColumnsView<'_>));
    /// Lend the id map to `read`.
    fn ids(&mut self, read: impl FnOnce(&IdMapView<'_>));
}

impl Lend for &ShardedRelation {
    fn layout(&self) -> (&Schema, &ShardBy, usize, Vec<usize>) {
        let indexed = self
            .shards()
            .first()
            .map_or_else(Vec::new, IndexedRelation::indexed_columns);
        (self.schema(), self.shard_by(), self.shard_count(), indexed)
    }

    fn shard(&mut self, shard: usize, read: impl FnOnce(&ColumnsView<'_>)) {
        read(&self.shards()[shard].columns().view());
    }

    fn ids(&mut self, read: impl FnOnce(&IdMapView<'_>)) {
        read(&self.id_map().view_at(self.id_map().next_gid()));
    }
}

impl Lend for PinnedRead<'_> {
    fn layout(&self) -> (&Schema, &ShardBy, usize, Vec<usize>) {
        let live = self.relation();
        let indexed = live.indexed_columns().to_vec();
        (live.schema(), live.shard_by(), live.shard_count(), indexed)
    }

    fn shard(&mut self, shard: usize, read: impl FnOnce(&ColumnsView<'_>)) {
        self.read_shard(shard, read);
    }

    fn ids(&mut self, read: impl FnOnce(&IdMapView<'_>)) {
        self.read_ids(read);
    }
}

/// A relation's sections, in file order: the schema (1), the
/// partitioning (4), one body per shard (5), the id map (6) and the
/// indexed columns (14). The schema and the indexed columns, which
/// every shard shares, are written once for the whole relation. This is
/// the one list of what a relation writes, whatever lends its parts.
fn write_relation(parts: &mut impl Lend, frame: &mut Frame) {
    let (schema, shard_by, shards, indexed) = parts.layout();
    frame.section(SEC_SCHEMA, |w| w.schema(schema));
    frame.section(SEC_SHARD_BY, |w| match shard_by {
        ShardBy::Hash { col } => {
            w.u8(0);
            w.usize(*col);
        }
        ShardBy::Range { col, splits } => {
            w.u8(1);
            w.usize(*col);
            w.usize(splits.len());
            for s in splits {
                w.value(s);
            }
        }
    });
    frame.section(SEC_SHARDS, |w| {
        w.usize(shards);
        for shard in 0..shards {
            parts.shard(shard, |rows| write_body(rows, w));
        }
    });
    parts.ids(|ids| frame.section(SEC_GLOBAL_IDS, |w| write_id_map(ids, w)));
    frame.section(SEC_INDEXED_COLS, |w| w.usize_seq(&indexed));
}

/// One relation body at [`FORMAT_VERSION`]: the slot count, the live
/// bitmap, and each column's live cells — one shard's part of section
/// 5. The cells are written run by run of live slots as they lie, so a
/// body with no dead slot is one run per column, and no column is
/// staged.
fn write_body(rows: &ColumnsView<'_>, w: &mut Writer) {
    w.usize(rows.slot_count());
    let bits = rows.live_bits();
    w.usize(bits.len());
    w.u64_run(bits);
    for col in 0..rows.schema().arity() {
        match rows.schema().col_type(col) {
            ColType::Int => {
                w.usize(rows.live());
                for run in rows.cell_runs(col) {
                    if let CellRun::Int(ints) = run {
                        w.i64_run(ints);
                    }
                }
            }
            ColType::Str => {
                // The arena as a length-prefixed string, then the end
                // offsets rebased onto it: the live cells end to end.
                let str_run = |run| match run {
                    CellRun::Str { arena, ends, start } => Some((arena, ends, start)),
                    CellRun::Int(_) => None,
                };
                let runs = || rows.cell_runs(col).filter_map(str_run);
                w.usize(runs().map(|(arena, _, _)| arena.len()).sum());
                for (arena, _, _) in runs() {
                    w.raw(arena.as_bytes());
                }
                w.usize(rows.live());
                let mut base = 0;
                for (arena, ends, start) in runs() {
                    w.usize_iter(ends.iter().map(|end| end - start + base));
                    base += arena.len();
                }
            }
        }
    }
}

/// The id map, section 6: a map count, per shard its local → global
/// map as one `u64` sequence, then the next global id as a `u64`.
/// [`read_id_map`] is its inverse.
fn write_id_map(ids: &IdMapView<'_>, w: &mut Writer) {
    w.usize(ids.shard_count());
    for shard in 0..ids.shard_count() {
        w.usize_seq(ids.global_ids(shard));
    }
    w.usize(ids.next_gid());
}

/// A checkpoint's WAL mark (12) and cut epoch (13).
fn write_mark(wal_lsn: u64, epoch: Epoch, frame: &mut Frame) {
    frame.section(SEC_WAL_MARK, |w| w.u64(wal_lsn));
    frame.section(SEC_EPOCH, |w| w.u64(epoch.get()));
}

// --- section decoders -----------------------------------------------------

/// A file's section payloads, located by tag through its section table.
struct Sections<'a>(Vec<(u32, &'a [u8])>);

impl<'a> Sections<'a> {
    /// Read the section table of `body`, a whole file less its checksum,
    /// and locate each payload: every tag comes once, and the payloads,
    /// in table order, span the rest of the file exactly.
    fn locate(body: &'a [u8]) -> Result<Self, StoreError> {
        let count = Reader::new(&body[12..16]).u32()? as usize;
        let table_end = 16usize
            .checked_add(count.checked_mul(12).ok_or(StoreError::Truncated)?)
            .ok_or(StoreError::Truncated)?;
        if table_end > body.len() {
            return Err(StoreError::Truncated);
        }
        let mut table = Reader::new(&body[16..table_end]);
        let mut sections: Vec<(u32, usize)> = Vec::with_capacity(count);
        for _ in 0..count {
            let tag = table.u32()?;
            let len = table.usize()?;
            if sections.iter().any(|(t, _)| *t == tag) {
                return Err(StoreError::Corrupt(format!("duplicate section tag {tag}")));
            }
            sections.push((tag, len));
        }
        let payload_len = sections
            .iter()
            .try_fold(0usize, |sum, (_, len)| sum.checked_add(*len));
        if table_end.checked_add(payload_len.ok_or(StoreError::Truncated)?) != Some(body.len()) {
            return Err(StoreError::Corrupt(
                "section table does not span the file".into(),
            ));
        }
        // The payloads span the file, so each one is there.
        let mut payloads = Reader::new(&body[table_end..]);
        let located = sections
            .into_iter()
            .map(|(tag, len)| Ok((tag, payloads.take(len)?)));
        Ok(Sections(located.collect::<Result<_, StoreError>>()?))
    }

    /// A reader of section `tag`, if the file has it.
    fn find(&self, tag: u32) -> Option<Reader<'a>> {
        let (_, payload) = self.0.iter().find(|(t, _)| *t == tag)?;
        Some(Reader::new(payload))
    }

    /// A reader of section `tag`, which the file must have.
    fn get(&self, tag: u32) -> Result<Reader<'a>, StoreError> {
        self.find(tag)
            .ok_or_else(|| StoreError::Corrupt(format!("missing section {tag}")))
    }
}

/// A file's WAL mark, from its sections 12 and 13, which come together
/// or not at all.
fn read_mark(sections: &Sections<'_>) -> Result<Option<(u64, Epoch)>, StoreError> {
    let wal_lsn = sections.find(SEC_WAL_MARK).map(|r| finish(r, Reader::u64));
    let epoch = sections.find(SEC_EPOCH).map(|r| finish(r, Reader::u64));
    match (wal_lsn.transpose()?, epoch.transpose()?) {
        (Some(wal_lsn), Some(epoch)) => Ok(Some((wal_lsn, Epoch::new(epoch)))),
        (None, None) => Ok(None),
        _ => Err(StoreError::Corrupt(
            "the WAL mark (section 12) and the cut epoch (section 13) come together".into(),
        )),
    }
}

/// Decode one relation body into column storage for `schema`: every
/// run is length-checked by the codec, and
/// [`Columns::from_live_cells`] checks the bitmap, the cell counts and
/// the end offsets before it allocates a slot. No `Value` is built.
fn read_columns(r: &mut Reader<'_>, schema: &Schema) -> Result<Columns, StoreError> {
    let slots = r.usize()?;
    let words = r.count(8)?;
    let bits = r.u64_run(words)?;
    let mut cells = Vec::with_capacity(schema.arity());
    for col in 0..schema.arity() {
        cells.push(match schema.col_type(col) {
            ColType::Int => {
                let n = r.count(8)?;
                LiveCells::Int(Cow::Owned(r.i64_run(n)?))
            }
            ColType::Str => {
                let arena = r.str_ref()?;
                let n = r.count(8)?;
                LiveCells::Str {
                    arena: Cow::Borrowed(arena),
                    ends: Cow::Owned(r.usize_run(n)?),
                }
            }
        });
    }
    let columns = Columns::from_live_cells(schema.clone(), slots, bits, cells)?;
    Ok(columns)
}

/// Section 5: a shard count, then each shard as `read` decodes it from
/// its body, with no byte past the last.
fn read_shards<'a>(
    mut r: Reader<'a>,
    mut read: impl FnMut(&mut Reader<'a>) -> Result<IndexedRelation, StoreError>,
) -> Result<Vec<IndexedRelation>, StoreError> {
    let shards = (0..r.count(2)?)
        .map(|_| read(&mut r))
        .collect::<Result<Vec<_>, _>>()?;
    if !r.is_exhausted() {
        return Err(StoreError::Corrupt("trailing bytes in shards".into()));
    }
    Ok(shards)
}

/// Section 6's local → global maps: a map count, then each map as one
/// `u64` sequence.
fn read_maps(r: &mut Reader<'_>) -> Result<Vec<Vec<usize>>, StoreError> {
    (0..r.count(8)?).map(|_| r.usize_seq()).collect()
}

/// The id map, section 6 — the maps, then the next global id — checked
/// by [`IdMap::from_parts`]. [`write_id_map`] is its inverse.
fn read_id_map(r: Reader<'_>) -> Result<IdMap, StoreError> {
    let (maps, next_gid) = finish(r, |r| Ok((read_maps(r)?, r.usize()?)))?;
    Ok(IdMap::from_parts(maps, next_gid)?)
}

/// Decode the relation of a file from its sections 1, 4, 14, 5 and 6.
fn decode_sharded(sections: &Sections<'_>) -> Result<ShardedRelation, StoreError> {
    let schema = finish(sections.get(SEC_SCHEMA)?, Reader::schema)?;
    let shard_by = finish(sections.get(SEC_SHARD_BY)?, read_shard_by)?;
    let cols = finish(sections.get(SEC_INDEXED_COLS)?, Reader::usize_seq)?;
    let shards = read_shards(sections.get(SEC_SHARDS)?, |r| {
        let rows = read_columns(r, &schema)?;
        Ok(IndexedRelation::from_columns(rows, &cols)?)
    })?;
    let ids = read_id_map(sections.get(SEC_GLOBAL_IDS)?)?;
    Ok(ShardedRelation::from_parts(schema, shard_by, shards, ids)?)
}

fn read_shard_by(r: &mut Reader<'_>) -> Result<ShardBy, StoreError> {
    match r.u8()? {
        0 => Ok(ShardBy::Hash { col: r.usize()? }),
        1 => {
            let col = r.usize()?;
            let n = r.count(1)?;
            let splits = (0..n).map(|_| r.value()).collect::<Result<Vec<_>, _>>()?;
            Ok(ShardBy::Range { col, splits })
        }
        tag => Err(StoreError::Corrupt(format!("bad shard_by tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::legacy::{check_locations, read_id_map, KIND_V4_INDEXED, SEC_BODY};
    use super::*;
    use crate::codec::CHUNK;
    use pitract_engine::{EngineError, PooledExecutor, QueryBatch};
    use pitract_relation::{Relation, SelectionQuery, Value};
    use std::sync::Arc;

    fn relation(n: i64) -> Relation {
        let schema = Schema::new(&[("id", ColType::Int), ("city", ColType::Str)]);
        let rows = (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("city{}", i % 10))])
            .collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    fn queries() -> Vec<SelectionQuery> {
        vec![
            SelectionQuery::point(0, 17i64),
            SelectionQuery::point(0, 9_999i64),
            SelectionQuery::point(1, "city3"),
            SelectionQuery::range_closed(0, 20i64, 35i64),
            SelectionQuery::and(
                SelectionQuery::point(1, "city4"),
                SelectionQuery::range_closed(0, 0i64, 50i64),
            ),
        ]
    }

    /// `bytes` as a file of format `version` and structure `kind`, its
    /// checksum recomputed for that version.
    fn reversioned(bytes: &[u8], version: u16, kind: u16) -> Vec<u8> {
        let mut bytes = bytes.to_vec();
        bytes[8..10].copy_from_slice(&version.to_le_bytes());
        bytes[10..12].copy_from_slice(&kind.to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = checksum(version, &bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// An unsharded relation is stored as a one-shard relation, and
    /// comes back with its tombstone and its row ids.
    #[test]
    fn indexed_roundtrip_answers_identically() {
        let live =
            LiveRelation::build(&relation(120), ShardBy::Hash { col: 0 }, 1, &[0, 1]).unwrap();
        live.delete(17).unwrap();
        live.insert(vec![Value::Int(500), Value::str("new")])
            .unwrap();
        let bytes = Snapshot::from(live.to_sharded()).to_bytes();
        let loaded = Snapshot::from_bytes(&bytes).unwrap().state;
        let oracle = IndexedRelation::build(&loaded.to_relation(), &[0, 1]).unwrap();
        for q in queries() {
            assert_eq!(loaded.answer(&q), oracle.answer(&q), "{q:?}");
        }
        assert_eq!(loaded.len(), 120);
        assert!(loaded.row(17).is_none(), "tombstone survives the roundtrip");
        assert_eq!(loaded.row(120).unwrap().get(1), Value::str("new"));
    }

    #[test]
    fn sharded_roundtrip_preserves_global_ids_and_batches() {
        for shard_by in [
            ShardBy::Hash { col: 0 },
            ShardBy::Range {
                col: 0,
                splits: vec![Value::Int(40), Value::Int(80)],
            },
        ] {
            let orig = LiveRelation::build(&relation(120), shard_by, 3, &[0, 1]).unwrap();
            orig.delete(7).unwrap();
            orig.insert(vec![Value::Int(555), Value::str("late")])
                .unwrap();

            let bytes = Snapshot::from(orig.to_sharded()).to_bytes();
            let loaded = Snapshot::from_bytes(&bytes).unwrap();
            assert_eq!(loaded.mark, None, "a plain save has no mark");
            let loaded = loaded.state;

            let batch = QueryBatch::new(queries());
            assert!(loaded.row(7).is_none());
            assert_eq!(loaded.row(120).unwrap().get(1), Value::str("late"));
            let rows = |lr| {
                PooledExecutor::with_default_pool(Arc::new(lr))
                    .execute_rows(&batch)
                    .unwrap()
                    .rows
            };
            let loaded = LiveRelation::from_sharded(loaded);
            assert_eq!(rows(orig), rows(loaded), "global row ids preserved");
        }
    }

    #[test]
    fn checkpoint_roundtrip_preserves_state_wal_mark_and_epoch() {
        let live =
            LiveRelation::build(&relation(80), ShardBy::Hash { col: 0 }, 3, &[0, 1]).unwrap();
        live.delete(12).unwrap();
        let bytes = Snapshot {
            state: live.to_sharded(),
            mark: Some((123_456_789, Epoch::new(777))),
        }
        .to_bytes();
        let (state, wal_lsn, epoch) = Snapshot::from_bytes(&bytes)
            .unwrap()
            .into_checkpoint()
            .unwrap();
        assert_eq!(wal_lsn, 123_456_789, "the mark travels with the state");
        assert_eq!(epoch, Epoch::new(777), "the cut epoch travels too");
        assert_eq!(state.len(), 79);
        assert!(state.row(12).is_none());
        assert!(state.answer(&SelectionQuery::point(0, 42i64)));
        // An unmarked snapshot of the same state is not a checkpoint.
        assert!(matches!(
            Snapshot::from(state).into_checkpoint(),
            Err(StoreError::NotACheckpoint)
        ));
    }

    /// A pinned read that lets `write` land between the parts it lends:
    /// after each shard (`Some(shard)`) and before the id map (`None`).
    struct Racing<'a, W> {
        pinned: PinnedRead<'a>,
        write: W,
    }

    impl<W: FnMut(Option<usize>)> Lend for Racing<'_, W> {
        fn layout(&self) -> (&Schema, &ShardBy, usize, Vec<usize>) {
            self.pinned.layout()
        }

        fn shard(&mut self, shard: usize, read: impl FnOnce(&ColumnsView<'_>)) {
            self.pinned.shard(shard, read);
            (self.write)(Some(shard));
        }

        fn ids(&mut self, read: impl FnOnce(&IdMapView<'_>)) {
            (self.write)(None);
            self.pinned.ids(read);
        }
    }

    /// A checkpoint encoded in place at a pinned epoch is byte for byte
    /// the checkpoint of a copy of the state at that epoch: quiescent,
    /// and with inserts, deletes of rows live at the pin and inserts
    /// deleted again landing between the pin and the encoding — on every
    /// shard, some before and some after it is read, and one as the id
    /// map is read.
    #[test]
    fn a_pinned_checkpoint_is_the_bytes_of_the_state_at_its_epoch() {
        let live =
            LiveRelation::build(&relation(300), ShardBy::Hash { col: 0 }, 4, &[0, 1]).unwrap();
        for gid in (0..300).step_by(7) {
            live.delete(gid).unwrap();
        }
        let copied = |epoch| {
            Snapshot {
                state: live.to_sharded(),
                mark: Some((40 + epoch, Epoch::new(epoch))),
            }
            .to_bytes()
        };
        let (bytes, epoch) = streamed(&live, CHUNK, |e| 40 + e.get());
        assert_eq!(epoch, live.current_epoch());
        assert_eq!(bytes, copied(epoch.get()), "quiescent");

        let pinned = live.pin_read();
        let want = copied(pinned.epoch().get());
        let write = |round: i64| {
            for i in 0..12 {
                let gid = live
                    .insert(vec![Value::Int(1_000 * round + i), Value::str("late")])
                    .unwrap();
                live.delete((round * 31 + i * 5 + 1) as usize).unwrap();
                if i % 4 == 0 {
                    live.delete(gid).unwrap().unwrap();
                }
            }
        };
        write(1);
        // Both passes of the frame read at the pin while writes land
        // between one shard's read and the next, so the payloads the
        // second pass writes match the lengths the first declared.
        let epoch = pinned.epoch();
        let mut racing = Racing {
            pinned,
            write: |part: Option<usize>| match part {
                Some(shard) => write(2 + shard as i64),
                None => {
                    live.insert(vec![Value::Int(10_000), Value::str("late")])
                        .unwrap();
                }
            },
        };
        let framed = write_frame(Writer::new(), |frame| {
            write_relation(&mut racing, frame);
            write_mark(40 + epoch.get(), epoch, frame);
        });
        assert_eq!(
            framed.unwrap().into_bytes(),
            want,
            "writes raced the encoding"
        );
    }

    /// Stream a checkpoint of `live` through a chunk of `chunk` bytes to
    /// a file on a fresh in-memory volume; the file's bytes and the
    /// pinned epoch.
    fn streamed(
        live: &LiveRelation,
        chunk: usize,
        wal_lsn: impl FnOnce(Epoch) -> u64,
    ) -> (Vec<u8>, Epoch) {
        let dir = crate::Dir::memory();
        let file = dir.storage().create(&dir.path().join("ckpt")).unwrap();
        let out = Writer::to_file_in_chunks(file, chunk);
        let epoch = Snapshot::write_checkpoint(live, wal_lsn, out).unwrap();
        (dir.read("ckpt", 0).unwrap(), epoch)
    }

    /// Each section's `(offset, length)` in a well-formed file, from its
    /// table.
    fn section_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut r = Reader::new(&bytes[12..]);
        let count = r.u32().unwrap() as usize;
        let mut offset = 16 + 12 * count;
        (0..count)
            .map(|_| {
                r.u32().unwrap();
                let len = r.usize().unwrap();
                offset += len;
                (offset - len, len)
            })
            .collect()
    }

    /// A checkpoint streamed through a chunk of any size is the bytes
    /// the in-memory frame writes for a copy of the state. At 7 bytes a
    /// chunk boundary falls inside every section and cuts words in two;
    /// at 1 every byte is its own append.
    #[test]
    fn a_streamed_checkpoint_equals_the_in_memory_bytes_at_every_chunk_size() {
        let live =
            LiveRelation::build(&relation(200), ShardBy::Hash { col: 0 }, 3, &[0, 1]).unwrap();
        for gid in (0..200).step_by(9) {
            live.delete(gid).unwrap();
        }
        live.insert(vec![Value::Int(900), Value::str("late")])
            .unwrap();
        let want = Snapshot {
            state: live.to_sharded(),
            mark: Some((77, live.current_epoch())),
        }
        .to_bytes();
        let spans = section_spans(&want);
        assert_eq!(spans.len(), 7);
        for (start, len) in spans {
            let boundary = (start / 7 + 1) * 7;
            assert!(
                boundary < start + len,
                "a 7-byte chunk ends inside {start}+{len}"
            );
        }
        for chunk in [1, 7, 8, 64, 4_096, CHUNK] {
            let (bytes, epoch) = streamed(&live, chunk, |_| 77);
            assert_eq!(epoch, live.current_epoch());
            assert_eq!(bytes, want, "chunk {chunk}");
        }
    }

    /// Every snapshot a catalog saves — one shard or several, with a
    /// mark or without — streams to the bytes [`Snapshot::to_bytes`]
    /// writes, through small chunks and the real one.
    #[test]
    fn every_kind_streams_to_its_in_memory_bytes() {
        let one = LiveRelation::build(&relation(90), ShardBy::Hash { col: 0 }, 1, &[0, 1]).unwrap();
        one.delete(4).unwrap();
        let two = LiveRelation::build(&relation(90), ShardBy::Hash { col: 1 }, 2, &[0]).unwrap();
        let snapshots = [
            Snapshot::from(one.to_sharded()),
            Snapshot::from(two.to_sharded()),
            Snapshot {
                state: two.to_sharded(),
                mark: Some((3, Epoch::new(5))),
            },
        ];
        let dir = crate::Dir::memory();
        for (i, snap) in snapshots.iter().enumerate() {
            let want = snap.to_bytes();
            for chunk in [7, 4_096] {
                let file = dir.storage().create(&dir.path().join("s")).unwrap();
                snap.write_to(Writer::to_file_in_chunks(file, chunk))
                    .unwrap();
                assert_eq!(dir.read("s", 0).unwrap(), want, "{i} at {chunk}");
            }
            let catalog = crate::SnapshotCatalog::open(&dir).unwrap();
            catalog.save("whole", snap).unwrap();
            assert_eq!(dir.read("whole.snap", 0).unwrap(), want);
        }
    }

    /// The table is written before the payloads, so a payload that does
    /// not match its declaration — longer, shorter, another tag, a
    /// section too many or too few — is refused typed, and a save of it
    /// leaves no file and keeps the one it would have replaced.
    #[test]
    fn a_payload_unlike_its_declaration_is_refused() {
        type Encoder = fn(&mut Frame, usize);
        let cases: [(&str, Encoder); 5] = [
            ("longer", |f, pass| {
                f.section(1, |w| w.raw(&vec![0; 3 + pass]))
            }),
            ("shorter", |f, pass| {
                f.section(1, |w| w.raw(&vec![0; 9 - pass]))
            }),
            ("retagged", |f, pass| {
                f.section(1 + pass as u32, |w| w.u8(0))
            }),
            ("one too many", |f, pass| {
                (0..pass).for_each(|_| f.section(1, |w| w.u8(0)));
            }),
            ("one too few", |f, pass| {
                (pass..3).for_each(|_| f.section(1, |w| w.u8(0)));
            }),
        ];
        let dir = crate::Dir::memory();
        dir.write_atomic("old", b"old bytes").unwrap();
        for (case, encode) in cases {
            let mut pass = 0;
            let framed = write_frame(Writer::new(), |f| {
                pass += 1;
                encode(f, pass);
            });
            let err = framed.map(drop).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
            let saved = dir.write_atomic_with("old", |file| {
                let mut pass = 0;
                let out = Writer::to_file_in_chunks(Arc::clone(file), 4);
                write_frame(out, |f| {
                    pass += 1;
                    encode(f, pass);
                })
                .map(drop)
            });
            assert_eq!(saved.unwrap_err().kind(), io::ErrorKind::InvalidData);
            assert_eq!(dir.list().unwrap(), ["old"], "{case}: no temp file left");
            assert_eq!(dir.read("old", 0).unwrap(), b"old bytes");
        }
    }

    /// A version-5 file is kind 5, and its mark is sections 12 and 13
    /// together or neither: any other kind, and either section alone, is
    /// refused typed.
    #[test]
    fn a_v5_file_is_one_kind_with_a_whole_mark_or_none() {
        let sr =
            ShardedRelation::build(&relation(20), ShardBy::Hash { col: 0 }, 2, &[0, 1]).unwrap();
        let with = |tags: &[u32]| {
            let framed = write_frame(Writer::new(), |frame| {
                write_relation(&mut &sr, frame);
                for &tag in tags {
                    frame.section(tag, |w| w.u64(9));
                }
            });
            framed.unwrap().into_bytes()
        };
        let plain = with(&[]);
        assert_eq!(Snapshot::from_bytes(&plain).unwrap().mark, None);
        for kind in [0, 1, 2, 3, 4, 6, 99] {
            assert!(
                matches!(
                    Snapshot::from_bytes(&reversioned(&plain, FORMAT_VERSION, kind)),
                    Err(StoreError::UnknownKind(k)) if k == kind
                ),
                "kind {kind}"
            );
        }
        for half in [SEC_WAL_MARK, SEC_EPOCH] {
            assert!(
                matches!(
                    Snapshot::from_bytes(&with(&[half])),
                    Err(StoreError::Corrupt(why)) if why.contains("come together")
                ),
                "section {half} alone"
            );
        }
        let loaded = Snapshot::from_bytes(&with(&[SEC_WAL_MARK, SEC_EPOCH])).unwrap();
        assert_eq!(loaded.mark, Some((9, Epoch::new(9))));
    }

    #[test]
    fn serialization_is_deterministic() {
        let build = || {
            let sr = ShardedRelation::build(&relation(50), ShardBy::Hash { col: 0 }, 1, &[0, 1]);
            Snapshot::from(sr.unwrap()).to_bytes()
        };
        assert_eq!(build(), build(), "equal structures, equal bytes");
    }

    #[test]
    fn header_validation_is_layered() {
        let sr = ShardedRelation::build(&relation(10), ShardBy::Hash { col: 0 }, 1, &[0]).unwrap();
        let good = Snapshot::from(sr).to_bytes();

        assert!(matches!(
            Snapshot::from_bytes(&[]),
            Err(StoreError::Truncated)
        ));
        assert!(matches!(
            Snapshot::from_bytes(b"NOTASNAPxxxxxxxxxxxxxxxxxxx"),
            Err(StoreError::BadMagic)
        ));

        // A version this binary never wrote — the next one, or 0 — is
        // rejected *as a version mismatch*, before the (now stale)
        // checksum gets a chance to confuse the report.
        for found in [FORMAT_VERSION + 1, 0] {
            let mut bumped = good.clone();
            bumped[8..10].copy_from_slice(&found.to_le_bytes());
            assert!(matches!(
                Snapshot::from_bytes(&bumped),
                Err(StoreError::VersionMismatch { found: f, expected: FORMAT_VERSION }) if f == found
            ));
        }

        // A flipped payload byte fails the checksum.
        let mut corrupt = good.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&corrupt),
            Err(StoreError::ChecksumMismatch)
        ));

        // Truncation anywhere fails with a typed error, never a panic.
        for cut in [10, 16, 20, good.len() / 2, good.len() - 1] {
            assert!(Snapshot::from_bytes(&good[..cut]).is_err(), "cut at {cut}");
        }

        // An unknown kind (with a recomputed checksum) is typed.
        let mut unknown = good.clone();
        unknown[10] = 99;
        let body_len = unknown.len() - 8;
        let sum = checksum(FORMAT_VERSION, &unknown[..body_len]);
        unknown[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&unknown),
            Err(StoreError::UnknownKind(99))
        ));

        // The pristine bytes still load.
        assert!(Snapshot::from_bytes(&good).is_ok());
    }

    /// A plain snapshot, saved and loaded, holds no mark, and asking it
    /// for a checkpoint is a typed error.
    #[test]
    fn wrong_kind_unwraps_are_typed() {
        let sr = ShardedRelation::build(&relation(5), ShardBy::Hash { col: 0 }, 1, &[0]).unwrap();
        let snap = Snapshot::from_bytes(&Snapshot::from(sr).to_bytes()).unwrap();
        assert_eq!(snap.mark, None);
        assert!(matches!(
            snap.into_checkpoint(),
            Err(StoreError::NotACheckpoint)
        ));
    }

    #[test]
    fn missing_file_is_io() {
        let catalog = crate::SnapshotCatalog::open(crate::Dir::memory()).unwrap();
        assert!(matches!(catalog.load("here"), Err(StoreError::Io(_))));
    }

    // --- files of versions 1 to 4 (`legacy.rs`) ---

    /// A version-4 checkpoint written before the epoch section existed:
    /// the sharded sections plus the WAL mark, with no section 13.
    #[test]
    fn checkpoint_without_epoch_section_loads_as_epoch_zero() {
        let sr =
            ShardedRelation::build(&relation(20), ShardBy::Hash { col: 0 }, 2, &[0, 1]).unwrap();
        let framed = write_frame(Writer::new(), |frame| {
            write_relation(&mut &sr, frame);
            frame.section(SEC_WAL_MARK, |w| w.u64(9));
        });
        let bytes = reversioned(&framed.unwrap().into_bytes(), 4, KIND_RELATION);

        let (state, wal_lsn, epoch) = Snapshot::from_bytes(&bytes)
            .unwrap()
            .into_checkpoint()
            .unwrap();
        assert_eq!(wal_lsn, 9);
        assert_eq!(epoch, Epoch::ZERO, "legacy files default to epoch 0");
        assert_eq!(state.len(), 20);
    }

    /// A version 1–4 standalone relation loads as one shard hashed on
    /// column 0, so one with no column is refused typed.
    #[test]
    fn a_v4_indexed_file_with_no_column_is_refused_typed() {
        let rows = Columns::new(Schema::new(&[]));
        let framed = write_frame(Writer::new(), |frame| {
            frame.section(SEC_SCHEMA, |w| w.schema(rows.schema()));
            frame.section(SEC_BODY, |w| write_body(&rows.view(), w));
            frame.section(SEC_INDEXED_COLS, |w| w.usize_seq(&[]));
        });
        let bytes = reversioned(&framed.unwrap().into_bytes(), 4, KIND_V4_INDEXED);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(StoreError::Engine(EngineError::ShardColumnOutOfRange {
                col: 0,
                arity: 0
            }))
        ));
    }

    /// Kind 3 held 2-hop labels (sections 8 to 10) and kind 4 an
    /// in-memory update log (section 11 and an end epoch, 13). Neither
    /// is a relation: a file of either, in any version, is refused
    /// typed, not misread.
    #[test]
    fn update_log_files_are_refused_as_unknown_kind() {
        let framed = write_frame(Writer::new(), |frame| {
            frame.section(11, |w| {
                w.usize(2);
                w.update_entry(&pitract_engine::UpdateEntry::Insert {
                    gid: 7,
                    row: vec![Value::Int(1), Value::str("x")],
                });
                w.update_entry(&pitract_engine::UpdateEntry::Delete { gid: 3 });
            });
            frame.section(SEC_EPOCH, |w| w.u64(2));
        });
        let log = framed.unwrap().into_bytes();
        // Two nodes, 0 → 1: L_out(0) = {0}, L_in(1) = {0}, ranks 0 and 1.
        let framed = write_frame(Writer::new(), |frame| {
            for (tag, lists) in [(8, [&[0u32][..], &[]]), (9, [&[], &[0]])] {
                frame.section(tag, |w| {
                    w.usize(2);
                    for list in lists {
                        w.usize(list.len());
                        list.iter().for_each(|&hub| w.u32(hub));
                    }
                });
            }
            frame.section(10, |w| {
                w.usize(2);
                w.u32(0);
                w.u32(1);
            });
        });
        let hop = framed.unwrap().into_bytes();
        for (kind, bytes) in [(3, &hop), (4, &log)] {
            for version in 1..=FORMAT_VERSION {
                assert!(
                    matches!(
                        Snapshot::from_bytes(&reversioned(bytes, version, kind)),
                        Err(StoreError::UnknownKind(k)) if k == kind
                    ),
                    "kind {kind} at version {version}"
                );
            }
        }
    }

    /// Section 7 of a version 1–3 file is checked entry by entry
    /// against the maps and the shards' live bits as it is decoded, and
    /// every way it can be wrong is refused typed: a bad tag, a cut-off
    /// location, bytes past the last one, an id count below a mapped id,
    /// and a location the maps and bits do not give — a shard past the
    /// count, a live id stored dead, a dead one stored live.
    #[test]
    fn locations_refuse_bad_input_typed_as_they_stream() {
        let live = LiveRelation::build(&relation(3), ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
        live.delete(2).unwrap();
        let sr = live.to_sharded();
        let ids = sr.id_map();
        let mut maps = Writer::new();
        maps.usize(2);
        for s in 0..2 {
            maps.usize_seq(ids.global_ids(s));
        }
        let maps = maps.into_bytes();
        let locations = |tags: &[(u8, usize, usize)], extra: &[u8]| {
            let mut w = Writer::new();
            w.usize(tags.len());
            for &(tag, shard, local) in tags {
                w.u8(tag);
                if tag == 1 {
                    w.usize(shard);
                    w.usize(local);
                }
            }
            w.raw(extra);
            w.into_bytes()
        };
        let read = |loc: Vec<u8>| {
            let (map, rest) = read_id_map(Reader::new(&maps), Reader::new(&loc))?;
            assert_eq!(map.next_gid(), 3, "the id count is the next id");
            check_locations(&sr, rest)
        };
        let at = |gid| ids.location(gid).unwrap();
        let ((s0, l0), (s1, l1), (s2, l2)) = (at(0), at(1), at(2));
        let good = [(1, s0, l0), (1, s1, l1), (0, 0, 0)];
        read(locations(&good, &[])).unwrap();
        assert!(matches!(
            read(locations(&[(1, s0, l0), (2, 0, 0), (0, 0, 0)], &[])),
            Err(StoreError::Corrupt(why)) if why.contains("bad location tag 2")
        ));
        let mut cut = locations(&good, &[]);
        cut.truncate(cut.len() - 1 - 8);
        assert!(matches!(read(cut), Err(StoreError::Truncated)));
        assert!(matches!(
            read(locations(&good, &[0])),
            Err(StoreError::Corrupt(why)) if why.contains("trailing bytes")
        ));
        let short = locations(&good[..2], &[]);
        assert!(matches!(
            read_id_map(Reader::new(&maps), Reader::new(&short)),
            Err(StoreError::Engine(EngineError::InconsistentSnapshot(why))) if why.contains("at or past the next id 2")
        ));
        for bad in [
            [(1, s0, l0), (1, 2, 0), (0, 0, 0)],
            [(1, s0, l0), (0, 0, 0), (0, 0, 0)],
            [(1, s0, l0), (1, s1, l1), (1, s2, l2)],
            [(1, s1, l1), (1, s0, l0), (0, 0, 0)],
        ] {
            assert!(
                matches!(
                    read(locations(&bad, &[])),
                    Err(StoreError::Engine(EngineError::InconsistentSnapshot(why))) if why.contains("the maps and live bits place it")
                ),
                "{bad:?}"
            );
        }
    }
}
