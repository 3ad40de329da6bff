//! The primary side: publish WAL segments as a polled tail subscription.
//!
//! A [`SegmentPublisher`] wraps the primary's
//! [`DurableLiveRelation`] and serves two jobs:
//!
//! * **Shipping.** [`SegmentPublisher::poll`] returns every record in
//!   `[from, durable)` as a [`Shipment`] — the raw record frames, byte
//!   for byte as they sit in the segment files (length + LSN +
//!   store-codec payload + FNV-1a-64 checksum), each validated by
//!   [`scan_frames`] on the way out and capped at the primary's durable
//!   frontier. A follower re-validates a shipment with the same frame
//!   scanner.
//! * **Retention.** Attached followers register their applied LSN in
//!   the publisher's subscription table; the minimum across the table
//!   is the [retention watermark](SegmentPublisher::retention_watermark)
//!   that [`SegmentPublisher::compact_primary`] hands the WAL
//!   compactor, so a compaction pass can never remove a segment an
//!   attached follower has yet to fetch.
//!
//! # What a poll costs
//!
//! A poll reads and checksums only bytes **at or past the cursor**: its
//! cost follows the delta it ships, not the size of the segment the
//! delta sits in. The publisher keeps a small in-memory *tail index* of
//! anchors — `(segment, lsn, offset)`: "the frame of record `lsn` starts
//! at byte `offset` of that segment" — one pushed per poll at the last
//! frame the poll validated below the durable frontier. The next poll
//! from a cursor past an anchor opens that one segment, seeks to the
//! anchor, and reads to the end of the file (then walks on through any
//! newer segments from their headers).
//!
//! The index is a cache, never a source of truth:
//!
//! * it is **bounded** (`TAIL_INDEX_CAP` anchors, oldest evicted);
//! * an anchor lives exactly as long as its segment file: compaction
//!   removes whole segments and never rewrites one, so an anchor into a
//!   segment that exists points at the bytes it was taken from, and an
//!   anchor whose segment file is gone is dropped by the next poll that
//!   looks for it;
//! * it is **verified on every use**, because those bytes are read from
//!   disk again: the read starts *at* the anchor frame, which must
//!   validate and carry exactly the anchored LSN. Any other outcome
//!   (garbage, a different record, a validation failure anywhere in the
//!   tail) discards the hinted read and scans that segment from its
//!   header, which is therefore the only poll that can report
//!   [`pitract_wal::WalError::Corrupt`].
//!
//! What the contract gives up: damage *below* the cursor in a segment
//! read through an anchor is not noticed by that poll. Recovery and a
//! poll that scans the segment from its header still report it;
//! compaction reads no segment byte and does not. (ROADMAP item 2(b2)
//! plans a background scrub that would.)
//!
//! The subscription table and the tail index sit behind one
//! `FollowerCatchup`-ranked lock (see the `pitract-core` lockdep
//! table): it is held across the compaction pass — a directory listing
//! and file removals — and never across anything that re-enters the
//! engine. A poll takes its anchor *out* under the lock and does all
//! of its flushing and reading with the lock released.

use crate::ReplError;
use pitract_core::lockdep::{LockRank, OrderedMutex};
use pitract_obs::Counter;
use pitract_store::Dir;
use pitract_wal::compactor::CompactionReport;
use pitract_wal::segment::{list_segments, scan_frames, scan_segment, Frame};
use pitract_wal::DurableLiveRelation;
use std::collections::VecDeque;
use std::sync::Arc;

/// Anchors the tail index holds at most. One anchor is pushed per poll,
/// so this covers that many followers polling in turn at different
/// cursors; a follower whose anchor was evicted pays one from-the-header
/// scan of its segment and is then indexed again.
const TAIL_INDEX_CAP: usize = 8;

/// A handle naming one attached follower in the publisher's
/// subscription table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(u64);

/// One polled run of the primary's log: record frames for every WAL
/// record in `[base, end)`, in the on-disk segment wire format. A log
/// thinned by an older compactor lacks the insert+delete pairs it
/// cancelled; the follower's replay bridges those LSN and gid gaps.
#[derive(Debug)]
pub struct Shipment {
    base: u64,
    end: u64,
    frames: Vec<u8>,
    records: usize,
    segments_read: usize,
}

impl Shipment {
    /// Reassemble a shipment on the receive side of a transport (the
    /// publisher hands out whole `Shipment`s in-process; a network
    /// transport moves the four parts and rebuilds one here). The
    /// follower's apply path re-validates everything — frame checksums,
    /// LSN monotonicity, and that exactly `records` frames arrived — so
    /// a reassembled shipment is no more trusted than a polled one.
    pub fn from_parts(base: u64, end: u64, records: usize, frames: Vec<u8>) -> Self {
        Shipment {
            base,
            end,
            frames,
            records,
            segments_read: 0,
        }
    }

    /// The LSN this shipment was fetched from (its records all sit at
    /// or above it).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The LSN after the last position this shipment covers: applying
    /// it advances the follower's cursor here. Past the last record's
    /// LSN + 1 only where the log has no record for the LSNs in between
    /// (a gap an older compactor left).
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The raw record frames, back to back — exactly the bytes a
    /// segment file holds after its header.
    pub fn frames(&self) -> &[u8] {
        &self.frames
    }

    /// Number of record frames shipped.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Number of segment files the poll read frames out of.
    pub fn segments_read(&self) -> usize {
        self.segments_read
    }

    /// Does this shipment advance the follower at all?
    pub fn is_empty(&self) -> bool {
        self.end <= self.base
    }
}

/// The subscription table: who is attached, and how far each has
/// applied. Small (one row per follower), so linear scans suffice.
#[derive(Debug, Default)]
struct SubTable {
    next_id: u64,
    /// `(id, applied_lsn)` per attached follower.
    rows: Vec<(u64, u64)>,
    /// Effective floor of the last compaction routed through this
    /// publisher: records below it may be gone, so fetches must start
    /// at or above it.
    compaction_floor: u64,
    /// The tail index: where recent polls stopped reading, oldest
    /// first. Advisory — see the module docs.
    tail: VecDeque<TailAnchor>,
}

/// "The frame of record `lsn` starts at byte `offset` of the segment
/// based at `base`" — true when recorded (the publisher had just
/// validated that frame, below the durable frontier), re-checked on
/// every use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TailAnchor {
    base: u64,
    lsn: u64,
    offset: u64,
}

impl SubTable {
    /// The anchor closest below `from`: every record at or above `from`
    /// sits after it (in its segment or a newer one).
    fn anchor_below(&self, from: u64) -> Option<TailAnchor> {
        self.tail
            .iter()
            .filter(|a| a.lsn < from)
            .max_by_key(|a| a.lsn)
            .copied()
    }

    fn remember(&mut self, anchor: TailAnchor) {
        if self.tail.contains(&anchor) {
            return;
        }
        if self.tail.len() == TAIL_INDEX_CAP {
            self.tail.pop_front();
        }
        self.tail.push_back(anchor);
    }
}

/// One poll's accumulating result, filled segment by segment.
struct TailRead {
    from: u64,
    durable: u64,
    max_bytes: usize,
    frames: Vec<u8>,
    records: usize,
    segments_read: usize,
    bytes_read: u64,
    /// The byte budget stopped the poll at `anchor`'s frame.
    capped: bool,
    /// The last frame validated below the durable frontier (shipped, or
    /// skipped as below the cursor).
    anchor: Option<TailAnchor>,
}

impl TailRead {
    fn new(from: u64, durable: u64, max_bytes: usize) -> Self {
        TailRead {
            from,
            durable,
            max_bytes,
            frames: Vec::new(),
            records: 0,
            segments_read: 0,
            bytes_read: 0,
            capped: false,
            anchor: None,
        }
    }

    /// Read one segment file of `dir`: from `anchor` to the end of the
    /// file when the anchor checks out, from the header otherwise.
    /// Returns whether the poll is complete.
    fn read_segment(
        &mut self,
        dir: &Dir,
        name: &str,
        base: u64,
        last: bool,
        anchor: Option<TailAnchor>,
    ) -> Result<bool, ReplError> {
        // The active segment may be mid-append under us: a read snapshot can
        // end inside a frame, which the scanner treats as a torn tail
        // (`last = true`). Those unconfirmed bytes are above the durable
        // frontier anyway.
        if let Some(anchor) = anchor {
            let bytes = dir.read(name, anchor.offset)?;
            self.bytes_read += bytes.len() as u64;
            // The anchor frame itself is the first thing read: only the
            // anchored record, valid, at the anchored offset vouches for the
            // position. A failure anywhere in the hinted read is not
            // reported from here — the from-the-header scan below decides
            // whether the segment or merely the hint was bad.
            if let Ok(scan) = scan_frames(&bytes, anchor.lsn, last, name) {
                if scan.frames.first().is_some_and(|f| f.lsn == anchor.lsn) {
                    return Ok(self.ship(base, anchor.offset, &bytes, &scan.frames));
                }
            }
        }
        let bytes = dir.read(name, 0)?;
        self.bytes_read += bytes.len() as u64;
        let scan = scan_segment(&bytes, base, last, name)?;
        Ok(self.ship(base, 0, &bytes, &scan.frames))
    }

    /// Ship out of one segment's validated `frames` — borrowed from
    /// `bytes`, whose first byte sits at `file_offset` of the segment
    /// based at `base` — every record in `[from, durable)`, as one copy
    /// of the raw run. Returns whether the poll is complete (it reached
    /// the durable frontier or its byte budget).
    fn ship(&mut self, base: u64, file_offset: u64, bytes: &[u8], frames: &[Frame<'_>]) -> bool {
        let mut run: Option<(usize, usize)> = None;
        let mut complete = false;
        for frame in frames {
            if frame.lsn >= self.durable {
                complete = true;
                break;
            }
            self.anchor = Some(TailAnchor {
                base,
                lsn: frame.lsn,
                offset: file_offset + frame.offset as u64,
            });
            if frame.lsn < self.from {
                continue;
            }
            let start = run.map_or(frame.offset, |(start, _)| start);
            run = Some((start, frame.end()));
            self.records += 1;
            if self.frames.len() + (frame.end() - start) >= self.max_bytes {
                self.capped = true;
                complete = true;
                break;
            }
        }
        if let Some((start, end)) = run {
            self.frames.extend_from_slice(&bytes[start..end]);
            self.segments_read += 1;
        }
        complete
    }

    fn into_shipment(self) -> Shipment {
        // Uncapped, the shipment covers the whole range up to the
        // durable frontier even where the log holds no record for its
        // last LSNs — the follower bridges such a gap by advancing its
        // cursor (and epoch clock) without replaying anything.
        let end = match self.anchor {
            Some(stopped_at) if self.capped => stopped_at.lsn + 1,
            _ => self.durable.max(self.from),
        };
        Shipment {
            base: self.from,
            end,
            frames: self.frames,
            records: self.records,
            segments_read: self.segments_read,
        }
    }
}

/// Primary-side replication endpoint: a polled tail subscription over
/// the primary's WAL plus the follower retention table. See the module
/// docs.
#[derive(Debug)]
pub struct SegmentPublisher {
    primary: Arc<DurableLiveRelation>,
    subs: OrderedMutex<SubTable>,
    shipped_segments: Counter,
    poll_bytes_read: Counter,
}

impl SegmentPublisher {
    /// Publish `primary`'s WAL, counting into the primary's own recorder
    /// ([`pitract_engine::LiveRelation::recorder`], installed from its
    /// `WalConfig`, next to the `wal_*` series it already publishes
    /// there) the segment files frames were shipped out of as
    /// `repl_segments_shipped_total` and the bytes polls read from
    /// segment files to find them as `repl_poll_bytes_read_total`.
    pub fn new(primary: Arc<DurableLiveRelation>) -> Self {
        SegmentPublisher {
            shipped_segments: primary.recorder().counter("repl_segments_shipped_total"),
            poll_bytes_read: primary.recorder().counter("repl_poll_bytes_read_total"),
            primary,
            subs: OrderedMutex::new(LockRank::FollowerCatchup, SubTable::default()),
        }
    }

    /// The primary this publisher ships from.
    pub fn primary(&self) -> &Arc<DurableLiveRelation> {
        &self.primary
    }

    /// The primary's durable frontier: every record below it is fsynced
    /// and therefore shippable.
    pub fn durable_lsn(&self) -> u64 {
        self.primary.wal().durable_lsn()
    }

    /// Attach a follower whose applied cursor is `applied_lsn`. Until
    /// [`Self::detach`], compaction routed through this publisher
    /// retains every segment holding records at or above the follower's
    /// (monotonically advanced) cursor.
    pub fn attach(&self, applied_lsn: u64) -> SubscriptionId {
        let mut subs = self.subs.lock();
        let id = subs.next_id;
        subs.next_id += 1;
        subs.rows.push((id, applied_lsn));
        SubscriptionId(id)
    }

    /// Advance an attached follower's applied cursor (monotonic: a
    /// stale advance is ignored). Unknown ids are ignored — detaching
    /// twice or advancing after detach is harmless.
    pub fn advance(&self, sub: SubscriptionId, applied_lsn: u64) {
        let mut subs = self.subs.lock();
        if let Some(row) = subs.rows.iter_mut().find(|(id, _)| *id == sub.0) {
            row.1 = row.1.max(applied_lsn);
        }
    }

    /// Detach a follower: its cursor no longer holds retention.
    pub fn detach(&self, sub: SubscriptionId) {
        self.subs.lock().rows.retain(|(id, _)| *id != sub.0);
    }

    /// The retention watermark: the minimum applied LSN across attached
    /// followers, or `None` when nobody is attached (nothing extra to
    /// retain).
    pub fn retention_watermark(&self) -> Option<u64> {
        self.subs.lock().rows.iter().map(|(_, lsn)| *lsn).min()
    }

    /// The effective floor of the last compaction routed through this
    /// publisher. [`Self::poll`] refuses (typed) to fetch below it.
    pub fn compaction_floor(&self) -> u64 {
        self.subs.lock().compaction_floor
    }

    /// Compact the primary's WAL under the current retention watermark:
    /// segments holding records an attached follower still needs stay.
    /// The subscription table stays locked across the pass, so a
    /// follower cannot attach-then-fetch into a range the running pass
    /// is about to drop. The tail index is left as it is: an anchor into
    /// a removed segment is dropped by the next poll that finds the file
    /// gone. This is the *only* compaction entry point that preserves
    /// the publisher's shipping guarantee — compacting the primary
    /// directly bypasses the watermark.
    pub fn compact_primary(&self) -> Result<CompactionReport, ReplError> {
        let mut subs = self.subs.lock();
        let retention = subs.rows.iter().map(|(_, lsn)| *lsn).min();
        let report = self.primary.compact_wal_retaining(retention)?;
        let mark = self.primary.checkpoint_mark();
        let effective = retention.map_or(mark, |r| r.min(mark));
        subs.compaction_floor = subs.compaction_floor.max(effective);
        Ok(report)
    }

    /// Fetch every durable record in `[from, durable_frontier)`. Equivalent
    /// to [`Self::poll_bytes`] with no byte budget.
    pub fn poll(&self, from: u64) -> Result<Shipment, ReplError> {
        self.poll_bytes(from, usize::MAX)
    }

    /// Fetch durable records starting at `from`, stopping once the
    /// shipment holds at least `max_bytes` of frames (at least one
    /// record is always shipped when any is available). The fetch first
    /// flushes the primary's WAL — the shipment's cap *is* the durable
    /// frontier, so a follower can never apply a record the primary
    /// could still lose to a crash. It reads only bytes at or past the
    /// cursor wherever the tail index has an anchor below `from` (see
    /// the module docs).
    ///
    /// Fails typed with [`ReplError::Stale`] when `from` is below the
    /// publisher's compaction floor (the records may no longer exist;
    /// the follower must re-bootstrap).
    pub fn poll_bytes(&self, from: u64, max_bytes: usize) -> Result<Shipment, ReplError> {
        let floor = self.compaction_floor();
        if from < floor {
            return Err(ReplError::Stale { from, floor });
        }
        // Flush first: everything below the returned frontier is stable
        // on the primary, so shipping up to it never replicates an
        // unconfirmed suffix.
        let durable = self.primary.wal().sync()?;
        self.read_tail(from, durable, max_bytes)
    }

    /// Ship `[from, durable)` out of the segment files, `durable` being
    /// a frontier a real flush returned.
    fn read_tail(&self, from: u64, durable: u64, max_bytes: usize) -> Result<Shipment, ReplError> {
        let mut tail = TailRead::new(from, durable, max_bytes);
        if durable <= from {
            return Ok(tail.into_shipment());
        }
        // The anchor is taken *out* under the table lock: every file
        // read below runs with the lock released.
        let hint = self.subs.lock().anchor_below(from);

        // Segment i holds LSNs in [base_i, base_{i+1}), so files
        // entirely below `from` are skipped without being opened — and
        // an anchor below `from` sits in the first file that is not.
        let dir = self.primary.wal().dir();
        let files = list_segments(dir)?;
        for (i, (base, name)) in files.iter().enumerate() {
            let upper = files.get(i + 1).map_or(u64::MAX, |(b, _)| *b);
            if upper <= from || *base >= durable {
                continue;
            }
            let last = i + 1 == files.len();
            let anchor = hint.filter(|a| a.base == *base);
            if tail.read_segment(dir, name, *base, last, anchor)? {
                break;
            }
        }

        self.shipped_segments.add(tail.segments_read as u64);
        self.poll_bytes_read.add(tail.bytes_read);
        let hint_file_gone = hint.filter(|a| files.iter().all(|(base, _)| *base != a.base));
        if tail.anchor.is_some() || hint_file_gone.is_some() {
            let mut subs = self.subs.lock();
            if let Some(gone) = hint_file_gone {
                subs.tail.retain(|a| a.base != gone.base);
            }
            if let Some(anchor) = tail.anchor {
                subs.remember(anchor);
            }
        }
        Ok(tail.into_shipment())
    }
}

/// The reference poll — every segment holding the range read whole,
/// scanned from its header, its records re-encoded one by one — kept as
/// the oracle the tail-indexed poll is checked against, plus the suites
/// that do the checking.
#[cfg(test)]
mod oracle {
    use super::*;
    use pitract_engine::{LiveRelation, ShardBy, UpdateOp};
    use pitract_obs::Recorder;
    use pitract_relation::{ColType, Relation, Schema, Value};
    use pitract_store::SnapshotCatalog;
    use pitract_wal::segment::{encode_record, SEGMENT_HEADER_LEN};
    use pitract_wal::{SyncPolicy, WalConfig, WalError};
    use proptest::prelude::*;

    impl SegmentPublisher {
        /// What [`Self::read_tail`] must return, computed the way polls
        /// worked before the tail index existed.
        fn read_tail_oracle(
            &self,
            from: u64,
            durable: u64,
            max_bytes: usize,
        ) -> Result<Shipment, ReplError> {
            if durable <= from {
                return Ok(Shipment::from_parts(from, from, 0, Vec::new()));
            }
            let dir = self.primary.wal().dir();
            let files = list_segments(dir)?;
            let mut frames = Vec::new();
            let mut records = 0usize;
            let mut last_shipped: Option<u64> = None;
            let mut capped = false;
            'files: for (i, (base, name)) in files.iter().enumerate() {
                let upper = files.get(i + 1).map(|(b, _)| *b).unwrap_or(u64::MAX);
                if upper <= from || *base >= durable {
                    continue;
                }
                let last = i + 1 == files.len();
                let bytes = dir.read(name, 0)?;
                let scan = scan_segment(&bytes, *base, last, name)?;
                for frame in &scan.frames {
                    if frame.lsn < from {
                        continue;
                    }
                    if frame.lsn >= durable {
                        break 'files;
                    }
                    frames.extend_from_slice(&encode_record(frame.lsn, frame.payload()));
                    records += 1;
                    last_shipped = Some(frame.lsn);
                    if frames.len() >= max_bytes {
                        capped = true;
                        break 'files;
                    }
                }
            }
            let end = if capped {
                last_shipped.map_or(from, |l| l + 1)
            } else {
                durable
            };
            Ok(Shipment::from_parts(from, end, records, frames))
        }
    }

    struct Node {
        node: Arc<DurableLiveRelation>,
        catalog: SnapshotCatalog,
        publisher: SegmentPublisher,
        recorder: Recorder,
        live_gids: Vec<usize>,
    }

    impl Node {
        /// An empty one-column primary with `segment_bytes` segments and an
        /// observed publisher. Every record frame is the same size.
        fn new(segment_bytes: u64) -> Node {
            let root = Dir::memory();
            let rel = Relation::from_rows(Schema::new(&[("id", ColType::Int)]), vec![]).unwrap();
            let live = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
            let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
            let recorder = Recorder::new();
            let config = WalConfig {
                segment_bytes,
                sync: SyncPolicy::GroupCommit,
                recorder: recorder.clone(),
            };
            let node = Arc::new(
                DurableLiveRelation::create(live, &catalog, "node", root.join("wal"), config)
                    .unwrap(),
            );
            let publisher = SegmentPublisher::new(Arc::clone(&node));
            Node {
                node,
                catalog,
                publisher,
                recorder,
                live_gids: Vec::new(),
            }
        }

        fn insert(&mut self, key: u64) {
            let gid = self.node.insert(vec![Value::Int(key as i64)]).unwrap();
            self.live_gids.push(gid);
        }

        fn delete(&mut self, pick: u64) {
            if !self.live_gids.is_empty() {
                let gid = self
                    .live_gids
                    .swap_remove(pick as usize % self.live_gids.len());
                self.node.delete(gid).unwrap();
            }
        }

        /// One durable batch: `inserts` fresh rows, and a delete of a row
        /// that was live before the batch for every second one.
        fn batch(&mut self, inserts: u64) {
            let mut ops = Vec::new();
            for i in 0..inserts {
                ops.push(UpdateOp::Insert(vec![Value::Int(i as i64)]));
                if i % 2 == 1 && !self.live_gids.is_empty() {
                    ops.push(UpdateOp::Delete(self.live_gids.swap_remove(0)));
                }
            }
            for applied in self.node.apply_batch(ops).unwrap() {
                if let pitract_engine::Applied::Inserted(gid) = applied {
                    self.live_gids.push(gid);
                }
            }
        }

        fn checkpoint(&self) {
            self.node.checkpoint(&self.catalog, "node").unwrap();
        }

        fn bytes_read(&self) -> u64 {
            self.recorder
                .snapshot()
                .counter("repl_poll_bytes_read_total")
                .unwrap_or(0)
        }

        /// The name of the newest segment file.
        fn active_segment(&self) -> String {
            let files = list_segments(self.node.wal().dir()).unwrap();
            files.last().unwrap().1.clone()
        }

        /// Bytes in the segment file `name`.
        fn segment_len(&self, name: &str) -> u64 {
            self.node.wal().dir().read(name, 0).unwrap().len() as u64
        }

        /// Poll `[from, min(durable, cap))` both ways and require the same
        /// outcome: the same shipment byte for byte, or the same error.
        /// Returns the shipment (`None` when both failed).
        fn agree(&self, from: u64, cap: u64, max_bytes: usize, tag: &str) -> Option<Shipment> {
            let durable = self.node.wal().sync().unwrap().min(cap);
            let want = self.publisher.read_tail_oracle(from, durable, max_bytes);
            let got = self.publisher.read_tail(from, durable, max_bytes);
            match (want, got) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(got.base(), want.base(), "{tag}: base");
                    assert_eq!(got.end(), want.end(), "{tag}: end");
                    assert_eq!(got.records(), want.records(), "{tag}: records");
                    assert_eq!(got.frames(), want.frames(), "{tag}: frames");
                    Some(got)
                }
                (Err(want), Err(got)) => {
                    assert_eq!(got.to_string(), want.to_string(), "{tag}: error");
                    None
                }
                (want, got) => panic!("{tag}: oracle {want:?} but poll {got:?}"),
            }
        }
    }

    /// Bytes of one record frame in a [`Node`]'s WAL.
    fn frame_len(n: &mut Node) -> u64 {
        let before = n.segment_len(&n.active_segment());
        n.insert(0);
        n.segment_len(&n.active_segment()) - before
    }

    proptest! {
        /// The tail-indexed poll against the full-scan oracle under every
        /// interleaving the index has to survive: single appends and
        /// batches, rotations (tiny segments, and forced), checkpoint +
        /// compaction through the publisher, compaction behind its back,
        /// and polls from two followers' cursors and from arbitrary
        /// positions, under arbitrary byte budgets and durable frontiers.
        #[test]
        fn every_poll_equals_the_full_scan_oracle(
            segment_bytes in 100u64..900,
            script in prop::collection::vec((0u8..16, 0u64..1_000, 0u64..1_000), 20..90)
        ) {
            let mut n = Node::new(segment_bytes);
            let mut cursors = [0u64; 2];
            let subs = [n.publisher.attach(0), n.publisher.attach(0)];
            for (step, &(op, a, b)) in script.iter().enumerate() {
                let tag = format!("step {step} op {op} a {a} b {b}");
                match op {
                    0..=2 => n.insert(a),
                    3 => n.delete(a),
                    4 | 5 => n.batch(1 + a % 8),
                    6 => n.node.wal().rotate_now().unwrap(),
                    7 => {
                        n.checkpoint();
                        let tail = n.publisher.subs.lock().tail.clone();
                        n.publisher.compact_primary().unwrap();
                        prop_assert_eq!(&n.publisher.subs.lock().tail, &tail);
                    }
                    8 => n.checkpoint(),
                    // Behind the publisher's back: no retention, no floor.
                    9 => drop(n.node.compact_wal().unwrap()),
                    10..=13 => {
                        // A follower's poll from its cursor.
                        let who = (op % 2) as usize;
                        let budget = if a % 3 == 0 { usize::MAX } else { (b % 300) as usize };
                        if let Some(ship) = n.agree(cursors[who], u64::MAX, budget, &tag) {
                            prop_assert!(ship.end() >= cursors[who]);
                            cursors[who] = ship.end();
                            n.publisher.advance(subs[who], ship.end());
                        }
                    }
                    _ => {
                        // Anywhere: at, behind, and ahead of the index, up
                        // to an arbitrary (earlier) durable frontier.
                        let next = n.node.wal().next_lsn();
                        let from = a % (next + 2);
                        let cap = if b % 4 == 0 { u64::MAX } else { from + b % 40 };
                        let budget = if b % 3 == 0 { usize::MAX } else { (a % 500) as usize };
                        n.agree(from, cap, budget, &tag);
                    }
                }
                prop_assert!(n.publisher.subs.lock().tail.len() <= TAIL_INDEX_CAP);
            }
            // Drain both followers through the public entry point.
            for (who, cursor) in cursors.iter_mut().enumerate() {
                loop {
                    let want = n.agree(*cursor, u64::MAX, 128, "drain").unwrap();
                    if want.is_empty() {
                        break;
                    }
                    *cursor = want.end();
                }
                let ship = n.publisher.poll_bytes(*cursor, usize::MAX).unwrap();
                prop_assert!(ship.is_empty(), "follower {who} drained");
                prop_assert_eq!(*cursor, n.node.wal().durable_lsn());
            }
        }
    }

    /// The cost contract as a count, not a timing: K polls, each after one
    /// batch into a single growing segment, read the segment about once in
    /// total — every poll starts at its anchor, one frame before the bytes
    /// it ships — where reading the segment from its header each time would
    /// read it K/2 times over.
    #[test]
    fn bytes_read_by_polls_grow_with_the_bytes_shipped_not_the_segment() {
        let mut n = Node::new(u64::MAX);
        let frame = frame_len(&mut n);
        let mut cursor = 0;
        let mut shipped = 0;
        const POLLS: u64 = 40;
        for _ in 0..POLLS {
            n.batch(43); // 64 records
            let ship = n.agree(cursor, u64::MAX, usize::MAX, "cost").unwrap();
            assert_eq!(ship.segments_read(), 1);
            shipped += ship.frames().len() as u64;
            cursor = ship.end();
        }
        let segment = n.segment_len(&n.active_segment());
        assert_eq!(shipped, segment - SEGMENT_HEADER_LEN as u64);
        let read = n.bytes_read();
        assert!(
            read <= segment + POLLS * frame,
            "{POLLS} polls of a {segment}-byte segment read {read} bytes"
        );
        assert!(read >= shipped, "every shipped byte was read");
        // An empty poll reads nothing at all.
        let ship = n.publisher.poll(cursor).unwrap();
        assert!(ship.is_empty());
        assert_eq!(n.bytes_read(), read);
    }

    /// An anchor whose segment file compaction removed is dropped, and the
    /// poll carries on from the segments that exist.
    #[test]
    fn an_anchor_into_a_removed_segment_is_dropped() {
        let mut n = Node::new(u64::MAX);
        for key in 0..5 {
            n.insert(key);
        }
        let ship = n.agree(0, u64::MAX, usize::MAX, "before").unwrap();
        assert_eq!(ship.end(), 5);
        n.node.wal().rotate_now().unwrap();
        n.checkpoint();
        assert_eq!(n.node.compact_wal().unwrap().segments_removed, 1);
        n.insert(5);
        assert_eq!(n.publisher.subs.lock().tail.len(), 1);
        let ship = n.agree(5, u64::MAX, usize::MAX, "after").unwrap();
        assert_eq!(ship.records(), 1);
        let tail: Vec<TailAnchor> = n.publisher.subs.lock().tail.iter().copied().collect();
        assert_eq!(tail.len(), 1, "the dead anchor went, the new one came");
        assert_eq!((tail[0].base, tail[0].lsn), (5, 5));
    }

    /// A flipped byte at or past the anchor is corruption, reported exactly
    /// as the header scan reports it. A flipped byte *below* the anchor is
    /// outside what a poll reads — the stated price of reading only the
    /// tail — and the whole-segment readers still see it.
    #[test]
    fn damage_past_the_anchor_is_corrupt_and_damage_below_it_is_not_this_polls_to_find() {
        let mut n = Node::new(u64::MAX);
        let frame = frame_len(&mut n) as usize;
        for key in 1..8 {
            n.insert(key);
        }
        let ship = n.agree(0, u64::MAX, usize::MAX, "clean").unwrap();
        assert_eq!(ship.end(), 8);
        for key in 8..12 {
            n.insert(key);
        }
        let dir = n.node.wal().dir().clone();
        let name = n.active_segment();
        let pristine = dir.read(&name, 0).unwrap();
        // Rewrite the file in place, under the writer's open handle.
        let overwrite = |bytes: &[u8]| {
            let file = dir.open(&name).unwrap();
            file.truncate(0).unwrap();
            file.append(bytes).unwrap();
        };
        let flip = |at: usize| {
            let mut bytes = pristine.clone();
            bytes[at] ^= 0x10;
            overwrite(&bytes);
        };

        // In record 9's payload: past the anchor (record 7).
        flip(SEGMENT_HEADER_LEN + 9 * frame + 14);
        assert!(n.agree(8, u64::MAX, usize::MAX, "past").is_none());
        let err = n.publisher.poll(8).unwrap_err();
        assert!(
            matches!(err, ReplError::Wal(WalError::Corrupt { offset, ref reason, .. })
                if offset == (SEGMENT_HEADER_LEN + 9 * frame) as u64 && reason.contains("checksum")),
            "{err}"
        );
        // In the anchor frame itself: the hint is refused, the header scan
        // finds the damage.
        flip(SEGMENT_HEADER_LEN + 7 * frame + 14);
        assert!(n.agree(8, u64::MAX, usize::MAX, "anchor").is_none());

        // In record 2: below the anchor. The poll ships 8..12 untouched;
        // a from-the-header read of the same range says corrupt.
        flip(SEGMENT_HEADER_LEN + 2 * frame + 14);
        let durable = n.node.wal().sync().unwrap();
        let ship = n.publisher.read_tail(8, durable, usize::MAX).unwrap();
        assert_eq!((ship.records(), ship.end()), (4, 12));
        assert!(n
            .publisher
            .read_tail_oracle(8, durable, usize::MAX)
            .is_err());
        assert!(n.publisher.read_tail(0, durable, usize::MAX).is_err());
        overwrite(&pristine);
    }

    /// More followers at distinct cursors than the index has room for: the
    /// index stays at its cap, and an evicted follower's poll is still
    /// right (one header scan, then it is indexed again).
    #[test]
    fn the_tail_index_is_bounded_and_eviction_only_costs_a_header_scan() {
        let mut n = Node::new(u64::MAX);
        let followers = TAIL_INDEX_CAP + 3;
        for key in 0..(followers as u64 * 4) {
            n.insert(key);
        }
        // Follower i stops at cursor 4 * (i + 1).
        for i in 0..followers {
            let ship = n
                .agree(0, 4 * (i as u64 + 1), usize::MAX, "spread")
                .unwrap();
            assert_eq!(ship.end(), 4 * (i as u64 + 1));
            assert!(n.publisher.subs.lock().tail.len() <= TAIL_INDEX_CAP);
        }
        assert_eq!(n.publisher.subs.lock().tail.len(), TAIL_INDEX_CAP);
        // Follower 0's anchor (record 3) was evicted.
        assert!(n.publisher.subs.lock().anchor_below(4).is_none());
        let before = n.bytes_read();
        let ship = n.agree(4, u64::MAX, usize::MAX, "evicted").unwrap();
        assert_eq!(ship.records(), followers * 4 - 4);
        let segment = n.segment_len(&n.active_segment());
        assert_eq!(n.bytes_read() - before, segment, "one read from the header");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitract_engine::LiveRelation;
    use pitract_engine::ShardBy;
    use pitract_relation::{ColType, Relation, Schema, Value};
    use pitract_store::SnapshotCatalog;
    use pitract_wal::{SyncPolicy, WalConfig};

    /// A primary on a fresh in-memory volume, its snapshots and WAL
    /// under `snaps` and `wal`.
    fn primary(rows: i64) -> (Dir, Arc<DurableLiveRelation>) {
        let root = Dir::memory();
        let schema = Schema::new(&[("id", ColType::Int)]);
        let data: Vec<Vec<Value>> = (0..rows).map(|i| vec![Value::Int(i)]).collect();
        let rel = Relation::from_rows(schema, data).unwrap();
        let live = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let config = WalConfig {
            segment_bytes: 160,
            sync: SyncPolicy::GroupCommit,
            ..WalConfig::default()
        };
        let node = DurableLiveRelation::create(live, &catalog, "node", root.join("wal"), config);
        (root, Arc::new(node.unwrap()))
    }

    #[test]
    fn poll_ships_exactly_the_durable_tail_in_wire_format() {
        let (_, node) = primary(4);
        for i in 0..10i64 {
            node.insert(vec![Value::Int(100 + i)]).unwrap();
        }
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        let ship = publisher.poll(0).unwrap();
        assert_eq!(ship.base(), 0);
        assert_eq!(ship.end(), 10);
        assert_eq!(ship.records(), 10);
        assert!(ship.segments_read() > 1, "tiny segments force rotation");
        // The frames parse with the on-disk frame scanner.
        let scan = scan_frames(ship.frames(), 0, false, "shipment").unwrap();
        assert_eq!(scan.frames.len(), 10);
        assert_eq!(scan.frames.first().unwrap().lsn, 0);
        assert_eq!(scan.frames.last().unwrap().lsn, 9);
        // Re-polling from the end is empty, not an error.
        let again = publisher.poll(ship.end()).unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn byte_budget_caps_a_shipment_without_losing_records() {
        let (_, node) = primary(0);
        for i in 0..20i64 {
            node.insert(vec![Value::Int(i)]).unwrap();
        }
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        let mut from = 0u64;
        let mut total = 0usize;
        let mut polls = 0usize;
        while polls < 100 {
            let ship = publisher.poll_bytes(from, 64).unwrap();
            if ship.is_empty() {
                break;
            }
            total += ship.records();
            from = ship.end();
            polls += 1;
        }
        assert_eq!(total, 20, "every record arrives across capped polls");
        assert!(polls > 1, "the budget actually split the stream");
    }

    #[test]
    fn retention_watermark_tracks_the_slowest_attached_follower() {
        let (_, node) = primary(0);
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        assert_eq!(publisher.retention_watermark(), None);
        let slow = publisher.attach(3);
        let fast = publisher.attach(17);
        assert_eq!(publisher.retention_watermark(), Some(3));
        publisher.advance(slow, 11);
        assert_eq!(publisher.retention_watermark(), Some(11));
        // Advances are monotonic; a stale advance cannot move it back.
        publisher.advance(slow, 5);
        assert_eq!(publisher.retention_watermark(), Some(11));
        publisher.detach(slow);
        assert_eq!(publisher.retention_watermark(), Some(17));
        publisher.detach(fast);
        assert_eq!(publisher.retention_watermark(), None);
    }

    #[test]
    fn polling_below_the_compaction_floor_is_stale_typed() {
        let (root, node) = primary(0);
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        for i in 0..30i64 {
            node.insert(vec![Value::Int(i)]).unwrap();
        }
        node.checkpoint(&catalog, "node").unwrap();
        node.wal().rotate_now().unwrap();
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        // Nobody attached: compaction drops everything below the mark.
        publisher.compact_primary().unwrap();
        let err = publisher.poll(0).unwrap_err();
        assert!(matches!(err, ReplError::Stale { from: 0, .. }), "{err}");
        // At or above the floor still serves.
        let floor = publisher.compaction_floor();
        assert!(floor > 0);
        assert!(publisher.poll(floor).is_ok());
    }
}
