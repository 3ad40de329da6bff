//! The versioned snapshot file format: [`Snapshot::to_bytes`] and
//! [`Snapshot::from_bytes`]. Files reach storage through
//! [`crate::SnapshotCatalog`].
//!
//! # On-disk layout (format version 4)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//! 0       8     magic tag, the ASCII bytes "PITRSNAP"
//! 8       2     format version, u16 LE (currently 4)
//! 10      2     structure kind, u16 LE (see [`SnapshotKind`])
//! 12      4     section count k, u32 LE
//! 16      12*k  section table: k entries of (tag: u32 LE, len: u64 LE);
//!               payloads follow in table order
//! ...     Σlen  the k section payloads, concatenated
//! end-8   8     checksum over every preceding byte, u64 LE
//! ```
//!
//! The checksum ([`checksum`]) depends on the version: FNV-1a 64 for
//! versions 1 and 2, XXH64 with seed 0 from version 3 (both in
//! [`pitract_core::hash`]). FNV-1a takes one multiply per byte; XXH64
//! reads eight bytes at a time in four lanes, at memory speed.
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
//! memory.
//!
//! Section payloads use the [`crate::codec`] conventions. The tags per
//! structure kind:
//!
//! | kind | sections (tag) |
//! |---|---|
//! | `IndexedRelation` | schema (1), relation body (2), indexed columns (14) |
//! | `ShardedRelation` | schema (1), shard_by (4), shard count + one relation body per shard (5), global-id maps and the next global id (6), indexed columns (14) |
//! | `HopLabels` | `L_out` (8), `L_in` (9), hub ranks (10) |
//! | `Checkpoint` | the `ShardedRelation` sections, WAL mark (12), cut epoch (13) |
//!
//! Kind codes are 1 `IndexedRelation`, 2 `ShardedRelation`, 3
//! `HopLabels` and 5 `Checkpoint`. Kind 4 held an in-memory update log
//! (section 11); the WAL is the one update log now, so a kind-4 file is
//! refused as [`StoreError::UnknownKind`], and codes 4 and 11 are not
//! reused. Nor is tag 7, which held every global id's location up to
//! version 3.
//!
//! # A relation body
//!
//! From version 3 a relation body is columnar: the row store
//! ([`Columns`]) as it lies in memory, less its dead cells.
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
//! Versions 1 to 3 wrote no next global id in section 6, and a section
//! 7 instead: an id count, then per global id a tag (0 dead, 1 live)
//! and a live id's `u64` shard and local. Every entry follows from the
//! maps and the live bits. A load of such a file takes the id count as
//! the next global id, checks each entry against the location the maps
//! give and its shard's live bit, and then drops the section.
//!
//! Versions 1 and 2 wrote a body row by row: a slot count, then per slot
//! a tag (0 dead, 1 live) and a live row's tagged values. They still
//! load; a v1 body also follows its rows with its index postings (section
//! 3 of an `IndexedRelation`; after each shard's rows in section 5),
//! which the reader steps over with the bounds-checked codec, keeping
//! each index's column number as the columns to index and never looking
//! at a posting.
//!
//! A relation is stored as `D`, not as `Π(D)`: its rows and the list of
//! columns it indexes, never a posting. A load rebuilds every tree by
//! sort through [`IndexedRelation::from_columns`], and leaves no index
//! on disk that could disagree with its rows. `HopLabels` keep their
//! labels: 2-hop labelling is costly PTIME preprocessing, not a sort.
//!
//! Readers locate sections by tag, so a future version may append new
//! sections without breaking old payload parsing — the cut-epoch
//! section (13) is exactly such an append: files written before it
//! existed load with epoch 0. Any change to an
//! existing section's encoding must bump the format version; this
//! reader accepts every version it ever wrote and rejects any other
//! with [`StoreError::VersionMismatch`]. Corruption is
//! caught in layers: the checksum rejects bit rot and truncation, the
//! bounds-checked codec rejects structurally impossible payloads (a run
//! shorter than its count is [`StoreError::Truncated`], an arena that
//! is not UTF-8 is [`StoreError::Corrupt`]), and the constructors
//! reject decodable-but-inconsistent parts:
//! [`Columns::from_live_cells`] checks the bitmap against the slot
//! count and each column's length against its popcount, and each end
//! offset against its arena (a v1/v2 body goes through
//! `Columns::push_slot`, which admits each decoded row),
//! `from_columns` refuses an indexed column the schema lacks,
//! `IdMap::from_parts` refuses a local → global map that does not
//! increase, a global id at or past the next one, and an id two shards'
//! maps both hold (the invariant a location search relies on),
//! `ShardedRelation::from_parts` checks routing and that the maps agree
//! with the shards, and a version 1–3 location the maps and live bits
//! do not give is refused. Golden
//! fixture tests pin the byte-level format so accidental encoding drift
//! fails CI.

use crate::codec::{Reader, Writer};
use crate::error::StoreError;
use pitract_core::epoch::Epoch;
use pitract_core::hash::{fnv1a64, xxh64};
use pitract_engine::{
    EngineError, IdMap, IdMapView, LiveRelation, PinnedRead, ShardBy, ShardedRelation,
};
use pitract_graph::hop::HopLabels;
use pitract_relation::indexed::IndexedRelation;
use pitract_relation::{CellRun, ColType, Columns, ColumnsView, LiveCells, Schema};
use std::borrow::Cow;
use std::fmt;
use std::io;

/// The 8-byte magic tag opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"PITRSNAP";

/// The format version this binary writes — the revision of
/// [`Snapshot`]'s bytes. It reads this one and every earlier one.
pub const FORMAT_VERSION: u16 = 4;

const SEC_SCHEMA: u32 = 1;
const SEC_BODY: u32 = 2;
/// Version 1 only: a standalone relation's index postings.
const SEC_V1_INDEXES: u32 = 3;
const SEC_SHARD_BY: u32 = 4;
const SEC_SHARDS: u32 = 5;
const SEC_GLOBAL_IDS: u32 = 6;
/// Versions 1–3 only: every global id's location.
const SEC_LOCATIONS: u32 = 7;
const SEC_LOUT: u32 = 8;
const SEC_LIN: u32 = 9;
const SEC_RANK: u32 = 10;
const SEC_WAL_MARK: u32 = 12;
const SEC_EPOCH: u32 = 13;
const SEC_INDEXED_COLS: u32 = 14;

/// Which preprocessed structure a snapshot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A [`pitract_relation::indexed::IndexedRelation`].
    IndexedRelation,
    /// A [`pitract_engine::ShardedRelation`].
    ShardedRelation,
    /// [`pitract_graph::hop::HopLabels`].
    HopLabels,
    /// A live checkpoint: a [`pitract_engine::ShardedRelation`] state
    /// *plus* the write-ahead-log position it covers, persisted as one
    /// atomic file so the state and its WAL mark can never be observed
    /// out of sync (a crash between "snapshot saved" and "mark updated"
    /// was exactly the window a two-file scheme would leave open).
    Checkpoint,
}

impl SnapshotKind {
    fn code(self) -> u16 {
        match self {
            SnapshotKind::IndexedRelation => 1,
            SnapshotKind::ShardedRelation => 2,
            SnapshotKind::HopLabels => 3,
            SnapshotKind::Checkpoint => 5,
        }
    }

    fn from_code(code: u16) -> Result<Self, StoreError> {
        match code {
            1 => Ok(SnapshotKind::IndexedRelation),
            2 => Ok(SnapshotKind::ShardedRelation),
            3 => Ok(SnapshotKind::HopLabels),
            5 => Ok(SnapshotKind::Checkpoint),
            other => Err(StoreError::UnknownKind(other)),
        }
    }
}

impl fmt::Display for SnapshotKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotKind::IndexedRelation => write!(f, "IndexedRelation"),
            SnapshotKind::ShardedRelation => write!(f, "ShardedRelation"),
            SnapshotKind::HopLabels => write!(f, "HopLabels"),
            SnapshotKind::Checkpoint => write!(f, "Checkpoint"),
        }
    }
}

/// A preprocessed structure ready to persist, or freshly loaded.
///
/// **Revision 4** ([`FORMAT_VERSION`]): a relation is written as its
/// columns — the live bitmap and each column's live cells as runs — and
/// its list of indexed columns (section 14), with no postings, under an
/// XXH64 checksum; a load rebuilds the trees by sort. A sharded
/// relation's id map is its local → global maps and the next global id,
/// nothing per id. Revision 3 also wrote every global id's location
/// (section 7), revision 2 wrote bodies row by row under FNV-1a, and
/// revision 1 also wrote every index's postings after its rows; all
/// still load, with the locations checked and the postings skipped
/// unread.
#[derive(Debug)]
pub enum Snapshot {
    /// A per-column-indexed relation.
    Indexed(IndexedRelation),
    /// A sharded, indexed relation.
    Sharded(ShardedRelation),
    /// Pruned 2-hop reachability labels.
    Hop(HopLabels),
    /// A live checkpoint: a sharded state at one epoch together with the
    /// WAL position it covers — `wal_lsn` is the log sequence number of
    /// the first record *not* contained in `state`, i.e. where recovery
    /// must start replaying the write-ahead log. A live relation's
    /// checkpoint is encoded in place
    /// ([`crate::SnapshotCatalog::save_checkpoint`]), to the bytes this
    /// variant writes for its state at that epoch.
    Checkpoint {
        /// The state at the checkpoint's epoch.
        state: ShardedRelation,
        /// LSN of the first WAL record not covered by `state`.
        wal_lsn: u64,
        /// The MVCC epoch `state` was read at — the live relation's
        /// epoch clock then, persisted so recovery can resume the clock
        /// exactly. Files written before the epoch section existed load
        /// as [`Epoch::ZERO`].
        epoch: Epoch,
    },
}

impl From<IndexedRelation> for Snapshot {
    fn from(ir: IndexedRelation) -> Self {
        Snapshot::Indexed(ir)
    }
}

impl From<ShardedRelation> for Snapshot {
    fn from(sr: ShardedRelation) -> Self {
        Snapshot::Sharded(sr)
    }
}

impl From<HopLabels> for Snapshot {
    fn from(h: HopLabels) -> Self {
        Snapshot::Hop(h)
    }
}

impl Snapshot {
    /// Which structure this snapshot holds.
    pub fn kind(&self) -> SnapshotKind {
        match self {
            Snapshot::Indexed(_) => SnapshotKind::IndexedRelation,
            Snapshot::Sharded(_) => SnapshotKind::ShardedRelation,
            Snapshot::Hop(_) => SnapshotKind::HopLabels,
            Snapshot::Checkpoint { .. } => SnapshotKind::Checkpoint,
        }
    }

    /// Unwrap an [`IndexedRelation`], or report the kind actually stored.
    pub fn into_indexed(self) -> Result<IndexedRelation, StoreError> {
        match self {
            Snapshot::Indexed(ir) => Ok(ir),
            other => Err(StoreError::WrongKind {
                expected: SnapshotKind::IndexedRelation,
                found: other.kind(),
            }),
        }
    }

    /// Unwrap a [`ShardedRelation`], or report the kind actually stored.
    pub fn into_sharded(self) -> Result<ShardedRelation, StoreError> {
        match self {
            Snapshot::Sharded(sr) => Ok(sr),
            other => Err(StoreError::WrongKind {
                expected: SnapshotKind::ShardedRelation,
                found: other.kind(),
            }),
        }
    }

    /// Unwrap [`HopLabels`], or report the kind actually stored.
    pub fn into_hop(self) -> Result<HopLabels, StoreError> {
        match self {
            Snapshot::Hop(h) => Ok(h),
            other => Err(StoreError::WrongKind {
                expected: SnapshotKind::HopLabels,
                found: other.kind(),
            }),
        }
    }

    /// Unwrap a live checkpoint into `(state, wal_lsn, epoch)`, or
    /// report the kind actually stored.
    pub fn into_checkpoint(self) -> Result<(ShardedRelation, u64, Epoch), StoreError> {
        match self {
            Snapshot::Checkpoint {
                state,
                wal_lsn,
                epoch,
            } => Ok((state, wal_lsn, epoch)),
            other => Err(StoreError::WrongKind {
                expected: SnapshotKind::Checkpoint,
                found: other.kind(),
            }),
        }
    }

    /// Serialize to the snapshot byte format (deterministic: equal
    /// structures produce equal bytes): the frame a save streams to its
    /// file, written to memory.
    pub fn to_bytes(&self) -> Vec<u8> {
        let framed = write_frame(self.kind(), Writer::new(), |frame| self.encode(frame));
        // An in-memory writer cannot fail, and a snapshot's encoders read
        // one immutable structure, so both passes write the same lengths.
        #[allow(clippy::expect_used)]
        // lint:allow(no-unwrap-in-serving): memory cannot fail, and an immutable snapshot encodes alike twice
        framed.expect("an immutable snapshot frames").into_bytes()
    }

    /// Stream this snapshot's file into `out` ([`write_frame`]).
    pub(crate) fn write_to(&self, out: Writer) -> io::Result<()> {
        write_frame(self.kind(), out, |frame| self.encode(frame)).map(drop)
    }

    /// Every section of this snapshot, in file order.
    fn encode(&self, frame: &mut Frame) {
        match self {
            Snapshot::Indexed(ir) => write_indexed(ir, frame),
            Snapshot::Sharded(sr) => write_sharded(sr, frame),
            Snapshot::Hop(h) => write_hop(h, frame),
            Snapshot::Checkpoint {
                state,
                wal_lsn,
                epoch,
            } => {
                write_sharded(state, frame);
                write_mark(*wal_lsn, *epoch, frame);
            }
        }
    }

    /// Stream a checkpoint of `live` at a freshly pinned epoch `e` into
    /// `out`, encoded in place, and return `e`: what
    /// [`crate::SnapshotCatalog::save_checkpoint`] writes. The bytes are
    /// those [`Snapshot::Checkpoint`] writes for the state at `e`. Both
    /// passes of the frame read at `e`, each shard under its own read
    /// lock, so a shard's chunks are appended under that lock. The pin
    /// is released when this returns, before the file is flushed.
    pub(crate) fn write_checkpoint(
        live: &LiveRelation,
        wal_lsn: impl FnOnce(Epoch) -> u64,
        out: Writer,
    ) -> io::Result<Epoch> {
        let mut pinned = live.pin_read();
        let epoch = pinned.epoch();
        let mark = wal_lsn(epoch);
        write_frame(SnapshotKind::Checkpoint, out, |frame| {
            write_pinned(&mut pinned, frame);
            write_mark(mark, epoch, frame);
        })?;
        Ok(epoch)
    }

    /// Parse a snapshot from bytes, validating magic, version, checksum,
    /// section table, payloads, and structural invariants — in that
    /// order. Arbitrary input yields a typed [`StoreError`], never a
    /// panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        // Header + checksum trailer are the minimum possible file.
        if bytes.len() < 16 + 8 {
            return Err(StoreError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let mut header = Reader::new(&bytes[8..16]);
        let version = readable(header.u16()?)?;
        let body = &bytes[..bytes.len() - 8];
        let stored = Reader::new(&bytes[bytes.len() - 8..]).u64()?;
        if checksum(version, body) != stored {
            return Err(StoreError::ChecksumMismatch);
        }
        let kind = SnapshotKind::from_code(header.u16()?)?;
        let count = header.u32()? as usize;

        // Section table, then payload slices located by tag.
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
        let payload_len: usize = sections
            .iter()
            .try_fold(0usize, |acc, (_, len)| acc.checked_add(*len))
            .ok_or(StoreError::Truncated)?;
        if table_end.checked_add(payload_len) != Some(body.len()) {
            return Err(StoreError::Corrupt(
                "section table does not span the file".into(),
            ));
        }
        let mut offset = table_end;
        let located: Vec<(u32, &[u8])> = sections
            .into_iter()
            .map(|(tag, len)| {
                let slice = &body[offset..offset + len];
                offset += len;
                (tag, slice)
            })
            .collect();
        let section = |tag: u32| -> Result<Reader<'_>, StoreError> {
            located
                .iter()
                .find(|(t, _)| *t == tag)
                .map(|(_, s)| Reader::new(s))
                .ok_or_else(|| StoreError::Corrupt(format!("missing section {tag}")))
        };

        match kind {
            SnapshotKind::IndexedRelation => {
                let schema = finish(section(SEC_SCHEMA)?, Reader::schema)?;
                let rows = finish(section(SEC_BODY)?, |r| read_body(version, r, &schema))?;
                let cols = match version {
                    1 => finish(section(SEC_V1_INDEXES)?, skip_v1_indexes)?,
                    _ => finish(section(SEC_INDEXED_COLS)?, Reader::usize_seq)?,
                };
                Ok(Snapshot::Indexed(IndexedRelation::from_columns(
                    rows, &cols,
                )?))
            }
            SnapshotKind::ShardedRelation => {
                decode_sharded(version, &section).map(Snapshot::Sharded)
            }
            SnapshotKind::Checkpoint => {
                let state = decode_sharded(version, &section)?;
                let wal_lsn = finish(section(SEC_WAL_MARK)?, Reader::u64)?;
                // The epoch section was appended to the format later;
                // checkpoints written before it carry an implicit 0.
                let epoch = match located.iter().find(|(t, _)| *t == SEC_EPOCH) {
                    Some((_, s)) => Epoch::new(finish(Reader::new(s), Reader::u64)?),
                    None => Epoch::ZERO,
                };
                Ok(Snapshot::Checkpoint {
                    state,
                    wal_lsn,
                    epoch,
                })
            }
            SnapshotKind::HopLabels => {
                let lout = finish(section(SEC_LOUT)?, read_label_lists)?;
                let lin = finish(section(SEC_LIN)?, read_label_lists)?;
                let rank = finish(section(SEC_RANK)?, Reader::u32_seq)?;
                HopLabels::from_parts(lout, lin, rank)
                    .map(Snapshot::Hop)
                    .map_err(|e| StoreError::Corrupt(e.to_string()))
            }
        }
    }
}

/// `version`, if this binary reads it: every version it ever wrote,
/// 1 through [`FORMAT_VERSION`].
fn readable(version: u16) -> Result<u16, StoreError> {
    if (1..=FORMAT_VERSION).contains(&version) {
        Ok(version)
    } else {
        Err(StoreError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        })
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
fn write_frame(
    kind: SnapshotKind,
    mut out: Writer,
    mut encode: impl FnMut(&mut Frame),
) -> io::Result<Writer> {
    let mut plan = Frame {
        w: Writer::counting(),
        table: Vec::new(),
        written: None,
        mismatch: None,
    };
    encode(&mut plan);
    out.raw(&MAGIC);
    out.u16(FORMAT_VERSION);
    out.u16(kind.code());
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

fn write_indexed(ir: &IndexedRelation, frame: &mut Frame) {
    frame.section(SEC_SCHEMA, |w| w.schema(ir.schema()));
    frame.section(SEC_BODY, |w| write_body(&ir.columns().view(), w));
    frame.section(SEC_INDEXED_COLS, |w| w.usize_seq(&ir.indexed_columns()));
}

/// One relation body at [`FORMAT_VERSION`]: the slot count, the live
/// bitmap, and each column's live cells — the body shared by a
/// standalone snapshot's section 2 and by each shard in section 5. The
/// cells are written run by run of live slots as they lie, so a body
/// with no dead slot is one run per column, and no column is staged.
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

/// Decode one relation body of format `version` into column storage for
/// `schema`.
fn read_body(version: u16, r: &mut Reader<'_>, schema: &Schema) -> Result<Columns, StoreError> {
    match version {
        1 | 2 => read_slots(r, schema),
        _ => read_columns(r, schema),
    }
}

/// A body of version 3 or later: every run is length-checked by the
/// codec, and
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
    Ok(Columns::from_live_cells(
        schema.clone(),
        slots,
        bits,
        cells,
    )?)
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

fn write_sharded(sr: &ShardedRelation, frame: &mut Frame) {
    write_layout(sr.schema(), sr.shard_by(), frame);
    // One body per shard; the schema and the indexed columns, which
    // every shard shares, are written once for the whole relation.
    frame.section(SEC_SHARDS, |w| {
        w.usize(sr.shard_count());
        for shard in sr.shards() {
            write_body(&shard.columns().view(), w);
        }
    });
    write_id_map(&sr.id_map().view_at(sr.id_map().next_gid()), frame);
    frame.section(SEC_INDEXED_COLS, |w| {
        w.usize_seq(
            &sr.shards()
                .first()
                .map_or_else(Vec::new, IndexedRelation::indexed_columns),
        );
    });
}

/// The same sections as [`write_sharded`], read from a live relation at
/// a pinned epoch: each shard's body encoded under that shard's read
/// lock alone, then the id map under its own. The bytes are those of
/// the relation's state at the pinned epoch written by
/// [`write_sharded`].
fn write_pinned(pinned: &mut PinnedRead<'_>, frame: &mut Frame) {
    let live = pinned.relation();
    write_layout(live.schema(), live.shard_by(), frame);
    frame.section(SEC_SHARDS, |w| {
        w.usize(live.shard_count());
        for shard in 0..live.shard_count() {
            pinned.read_shard(shard, |rows| write_body(rows, w));
        }
    });
    pinned.read_ids(|ids| write_id_map(ids, frame));
    frame.section(SEC_INDEXED_COLS, |w| w.usize_seq(live.indexed_columns()));
}

/// The schema (1) and the partitioning (4) sections.
fn write_layout(schema: &Schema, shard_by: &ShardBy, frame: &mut Frame) {
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
}

/// A checkpoint's WAL mark (12) and cut epoch (13).
fn write_mark(wal_lsn: u64, epoch: Epoch, frame: &mut Frame) {
    frame.section(SEC_WAL_MARK, |w| w.u64(wal_lsn));
    frame.section(SEC_EPOCH, |w| w.u64(epoch.get()));
}

/// The id map, section 6: a map count, per shard its local → global
/// map as one `u64` sequence, then the next global id as a `u64`.
/// [`read_id_map`] is its inverse.
fn write_id_map(ids: &IdMapView<'_>, frame: &mut Frame) {
    frame.section(SEC_GLOBAL_IDS, |w| {
        w.usize(ids.shard_count());
        for shard in 0..ids.shard_count() {
            w.usize_seq(ids.global_ids(shard));
        }
        w.usize(ids.next_gid());
    });
}

/// Decode the id map of a file of format `version`, checked by
/// [`IdMap::from_parts`]. From version 4 the next global id ends
/// section 6. Before, it is section 7's id count, and the reader of
/// the locations after it is returned for [`check_locations`].
fn read_id_map<'a>(
    version: u16,
    mut global_ids: Reader<'a>,
    locations: impl FnOnce() -> Result<Reader<'a>, StoreError>,
) -> Result<(IdMap, Option<Reader<'a>>), StoreError> {
    let r = &mut global_ids;
    let n = r.count(8)?;
    let maps = (0..n)
        .map(|_| r.usize_seq())
        .collect::<Result<Vec<_>, _>>()?;
    let (next_gid, locations) = match version {
        1..=3 => {
            let mut locations = locations()?;
            (locations.count(1)?, Some(locations))
        }
        _ => (r.usize()?, None),
    };
    if !global_ids.is_exhausted() {
        return Err(StoreError::Corrupt("trailing bytes in section".into()));
    }
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
/// [`pitract_engine::EngineError::InconsistentSnapshot`].
fn check_locations(sr: &ShardedRelation, mut r: Reader<'_>) -> Result<(), StoreError> {
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

/// Decode a `ShardedRelation` of format `version` from its sections,
/// located by `section` — shared by the plain `ShardedRelation` kind and
/// the `Checkpoint` kind (which carries the same state plus a WAL
/// mark).
fn decode_sharded<'a>(
    version: u16,
    section: &impl Fn(u32) -> Result<Reader<'a>, StoreError>,
) -> Result<ShardedRelation, StoreError> {
    let schema = finish(section(SEC_SCHEMA)?, Reader::schema)?;
    let shard_by = finish(section(SEC_SHARD_BY)?, read_shard_by)?;
    let shared_cols = match version {
        1 => None,
        _ => Some(finish(section(SEC_INDEXED_COLS)?, Reader::usize_seq)?),
    };
    let mut shards_r = section(SEC_SHARDS)?;
    let shard_count = shards_r.count(2)?;
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        // Per-shard body: the same encoding as a standalone
        // IndexedRelation's, sharing one schema.
        let rows = read_body(version, &mut shards_r, &schema)?;
        let cols = match &shared_cols {
            Some(cols) => cols.clone(),
            // A v1 body follows its rows with that shard's postings.
            None => skip_v1_indexes(&mut shards_r)?,
        };
        shards.push(IndexedRelation::from_columns(rows, &cols)?);
    }
    if !shards_r.is_exhausted() {
        return Err(StoreError::Corrupt("trailing bytes in shards".into()));
    }
    let (ids, locations) =
        read_id_map(version, section(SEC_GLOBAL_IDS)?, || section(SEC_LOCATIONS))?;
    let sr = ShardedRelation::from_parts(schema, shard_by, shards, ids)?;
    if let Some(locations) = locations {
        check_locations(&sr, locations)?;
    }
    Ok(sr)
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

fn write_hop(h: &HopLabels, frame: &mut Frame) {
    frame.section(SEC_LOUT, |w| write_label_lists(h.out_labels(), w));
    frame.section(SEC_LIN, |w| write_label_lists(h.in_labels(), w));
    frame.section(SEC_RANK, |w| w.u32_seq(h.hub_ranks()));
}

fn write_label_lists(lists: &[Vec<u32>], w: &mut Writer) {
    w.usize(lists.len());
    for l in lists {
        w.u32_seq(l);
    }
}

fn read_label_lists(r: &mut Reader<'_>) -> Result<Vec<Vec<u32>>, StoreError> {
    let n = r.count(8)?;
    (0..n).map(|_| r.u32_seq()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CHUNK;
    use pitract_engine::{EngineError, PooledExecutor, QueryBatch};
    use pitract_graph::generate;
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

    #[test]
    fn indexed_roundtrip_answers_identically() {
        let mut ir = IndexedRelation::build(&relation(120), &[0, 1]).unwrap();
        ir.delete(17);
        ir.insert(vec![Value::Int(500), Value::str("new")]).unwrap();
        let bytes = Snapshot::Indexed(ir).to_bytes();
        let loaded = Snapshot::from_bytes(&bytes)
            .unwrap()
            .into_indexed()
            .unwrap();
        let oracle = IndexedRelation::build(&loaded.to_relation(), &[0, 1]).unwrap();
        for q in queries() {
            assert_eq!(loaded.answer(&q), oracle.answer(&q), "{q:?}");
        }
        assert_eq!(loaded.len(), 120);
        assert!(loaded.row(17).is_none(), "tombstone survives the roundtrip");
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

            let bytes = Snapshot::Sharded(orig.to_sharded()).to_bytes();
            let loaded = Snapshot::from_bytes(&bytes)
                .unwrap()
                .into_sharded()
                .unwrap();

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
    fn hop_roundtrip_queries_identically() {
        let g = generate::random_dag(80, 200, 11);
        let labels = HopLabels::build(&g).unwrap();
        let bytes = Snapshot::Hop(labels.clone()).to_bytes();
        let loaded = Snapshot::from_bytes(&bytes).unwrap().into_hop().unwrap();
        for u in (0..80).step_by(3) {
            for v in (0..80).step_by(5) {
                assert_eq!(loaded.query(u, v), labels.query(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip_preserves_state_wal_mark_and_epoch() {
        let live =
            LiveRelation::build(&relation(80), ShardBy::Hash { col: 0 }, 3, &[0, 1]).unwrap();
        live.delete(12).unwrap();
        let bytes = Snapshot::Checkpoint {
            state: live.to_sharded(),
            wal_lsn: 123_456_789,
            epoch: Epoch::new(777),
        }
        .to_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.kind(), SnapshotKind::Checkpoint);
        let (state, wal_lsn, epoch) = snap.into_checkpoint().unwrap();
        assert_eq!(wal_lsn, 123_456_789, "the mark travels with the state");
        assert_eq!(epoch, Epoch::new(777), "the cut epoch travels too");
        assert_eq!(state.len(), 79);
        assert!(state.row(12).is_none());
        assert!(state.answer(&SelectionQuery::point(0, 42i64)));
        // The wrong-kind unwraps stay typed in both directions.
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert!(matches!(
            snap.into_sharded(),
            Err(StoreError::WrongKind {
                expected: SnapshotKind::ShardedRelation,
                found: SnapshotKind::Checkpoint,
            })
        ));
        let ir = IndexedRelation::build(&relation(5), &[0]).unwrap();
        assert!(matches!(
            Snapshot::Indexed(ir).into_checkpoint(),
            Err(StoreError::WrongKind {
                expected: SnapshotKind::Checkpoint,
                found: SnapshotKind::IndexedRelation,
            })
        ));
    }

    /// A checkpoint encoded in place at a pinned epoch is byte for byte
    /// the checkpoint of a copy of the state at that epoch: quiescent,
    /// and with inserts, deletes of rows live at the pin, inserts deleted
    /// again and burned ids landing between the pin and the encoding —
    /// on every shard, some before and some after it is read.
    #[test]
    fn a_pinned_checkpoint_is_the_bytes_of_the_state_at_its_epoch() {
        let live =
            LiveRelation::build(&relation(300), ShardBy::Hash { col: 0 }, 4, &[0, 1]).unwrap();
        for gid in (0..300).step_by(7) {
            live.delete(gid).unwrap();
        }
        let copied = |epoch| {
            let state = live.to_sharded();
            Snapshot::Checkpoint {
                state,
                wal_lsn: 40 + epoch,
                epoch: Epoch::new(epoch),
            }
            .to_bytes()
        };
        let (bytes, epoch) = streamed(&live, CHUNK, |e| 40 + e.get());
        assert_eq!(epoch, live.current_epoch());
        assert_eq!(bytes, copied(epoch.get()), "quiescent");

        let mut pinned = live.pin_read();
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
        let layout = live.shard_count();
        let epoch = pinned.epoch();
        let framed = write_frame(SnapshotKind::Checkpoint, Writer::new(), |frame| {
            write_layout(live.schema(), live.shard_by(), frame);
            frame.section(SEC_SHARDS, |w| {
                w.usize(layout);
                for shard in 0..layout {
                    pinned.read_shard(shard, |rows| write_body(rows, w));
                    write(2 + shard as i64);
                }
            });
            live.burn_gids_to(10_000);
            pinned.read_ids(|ids| write_id_map(ids, frame));
            frame.section(SEC_INDEXED_COLS, |w| w.usize_seq(live.indexed_columns()));
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
        let want = Snapshot::Checkpoint {
            state: live.to_sharded(),
            wal_lsn: 77,
            epoch: live.current_epoch(),
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

    /// Every kind a catalog saves streams to the bytes
    /// [`Snapshot::to_bytes`] writes, through small chunks and the real
    /// one.
    #[test]
    fn every_kind_streams_to_its_in_memory_bytes() {
        let mut ir = IndexedRelation::build(&relation(90), &[0, 1]).unwrap();
        ir.delete(4);
        let sharded =
            LiveRelation::build(&relation(90), ShardBy::Hash { col: 1 }, 2, &[0]).unwrap();
        let snapshots = [
            Snapshot::Indexed(ir),
            Snapshot::Sharded(sharded.to_sharded()),
            Snapshot::Hop(HopLabels::build(&generate::random_dag(40, 90, 3)).unwrap()),
        ];
        let dir = crate::Dir::memory();
        for snap in &snapshots {
            let want = snap.to_bytes();
            for chunk in [7, 4_096] {
                let file = dir.storage().create(&dir.path().join("s")).unwrap();
                snap.write_to(Writer::to_file_in_chunks(file, chunk))
                    .unwrap();
                assert_eq!(
                    dir.read("s", 0).unwrap(),
                    want,
                    "{} at {chunk}",
                    snap.kind()
                );
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
            let framed = write_frame(SnapshotKind::HopLabels, Writer::new(), |f| {
                pass += 1;
                encode(f, pass);
            });
            let err = framed.map(drop).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
            let saved = dir.write_atomic_with("old", |file| {
                let mut pass = 0;
                let out = Writer::to_file_in_chunks(Arc::clone(file), 4);
                write_frame(SnapshotKind::HopLabels, out, |f| {
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

    #[test]
    fn checkpoint_without_epoch_section_loads_as_epoch_zero() {
        // Hand-assemble a pre-epoch checkpoint file: the sharded
        // sections plus the WAL mark, with no SEC_EPOCH — exactly what
        // this binary wrote before the epoch section existed.
        let sr =
            ShardedRelation::build(&relation(20), ShardBy::Hash { col: 0 }, 2, &[0, 1]).unwrap();
        let framed = write_frame(SnapshotKind::Checkpoint, Writer::new(), |frame| {
            write_sharded(&sr, frame);
            frame.section(SEC_WAL_MARK, |w| w.u64(9));
        });
        let bytes = framed.unwrap().into_bytes();

        let (state, wal_lsn, epoch) = Snapshot::from_bytes(&bytes)
            .unwrap()
            .into_checkpoint()
            .unwrap();
        assert_eq!(wal_lsn, 9);
        assert_eq!(epoch, Epoch::ZERO, "legacy files default to epoch 0");
        assert_eq!(state.len(), 20);
    }

    /// Kind 4 held an in-memory update log, written as its entries
    /// (section 11) and end epoch (section 13). The WAL is the one update
    /// log now: such a file is refused typed, not misread.
    #[test]
    fn update_log_files_are_refused_as_unknown_kind() {
        let framed = write_frame(SnapshotKind::Checkpoint, Writer::new(), |frame| {
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
        let mut bytes = framed.unwrap().into_bytes();
        bytes[10..12].copy_from_slice(&4u16.to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = checksum(FORMAT_VERSION, &bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(StoreError::UnknownKind(4))
        ));
    }

    #[test]
    fn serialization_is_deterministic() {
        let ir = IndexedRelation::build(&relation(50), &[0, 1]).unwrap();
        let a = Snapshot::Indexed(ir).to_bytes();
        let ir = IndexedRelation::build(&relation(50), &[0, 1]).unwrap();
        let b = Snapshot::Indexed(ir).to_bytes();
        assert_eq!(a, b, "equal structures, equal bytes");
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
            let (map, rest) = read_id_map(3, Reader::new(&maps), || Ok(Reader::new(&loc)))?;
            assert_eq!(map.next_gid(), 3, "the id count is the next id");
            check_locations(&sr, rest.expect("a v3 map leaves section 7"))
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
            read_id_map(3, Reader::new(&maps), || Ok(Reader::new(&short))),
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

    #[test]
    fn header_validation_is_layered() {
        let ir = IndexedRelation::build(&relation(10), &[0]).unwrap();
        let good = Snapshot::Indexed(ir).to_bytes();

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

    #[test]
    fn wrong_kind_unwraps_are_typed() {
        let ir = IndexedRelation::build(&relation(5), &[0]).unwrap();
        let snap = Snapshot::from_bytes(&Snapshot::Indexed(ir).to_bytes()).unwrap();
        assert_eq!(snap.kind(), SnapshotKind::IndexedRelation);
        assert!(matches!(
            snap.into_sharded(),
            Err(StoreError::WrongKind {
                expected: SnapshotKind::ShardedRelation,
                found: SnapshotKind::IndexedRelation,
            })
        ));
    }

    #[test]
    fn missing_file_is_io() {
        let catalog = crate::SnapshotCatalog::open(crate::Dir::memory()).unwrap();
        assert!(matches!(catalog.load("here"), Err(StoreError::Io(_))));
    }
}
