//! Concurrent live serving: queries answered *while* updates land.
//!
//! [`crate::shard::ShardedRelation`] parallelizes query answering but
//! serializes the whole workload around `&mut self`: every insert or
//! delete needs exclusive access to the entire relation, so a live
//! deployment would stall all readers for every writer. [`LiveRelation`]
//! is the serving wrapper that removes that seam:
//!
//! * **Per-shard read/write locks.** Each shard is an
//!   [`IndexedRelation`] behind its own rank-checked [`OrderedRwLock`].
//!   Batch fan-out takes a *read* lock on only the shards a query
//!   routes to, so queries on
//!   different shards — and any number of queries on the same shard —
//!   proceed concurrently. An update takes a *write* lock on only the one
//!   shard its key routes to (the pinned FNV-1a routing of
//!   [`crate::shard::ShardedRelation::shard_of`], so lock scope never
//!   moves); the other `S - 1` shards keep serving.
//! * **Global ids behind their own lock.** The global-id and location
//!   maps live in a separate `OrderedRwLock`, acquired after the shard
//!   lock (one fixed order — checked at runtime by
//!   [`pitract_core::lockdep`] in debug builds — so the layer cannot
//!   deadlock). Per-shard
//!   local→global maps are append-only, which lets readers translate
//!   row ids *after* releasing the shard lock.
//! * **`|CHANGED|`-bounded maintenance accounting.** Every applied update
//!   pushes a [`pitract_incremental::bounded::UpdateRecord`] reporting
//!   `(|ΔD|, |ΔO|, work)` — Section 4(7)'s contract that maintenance is
//!   charged against the change, not `|D|` (up to the B⁺-tree's O(log n)
//!   descent, which the record reports honestly). The aggregated
//!   [`BoundednessReport`] is available from the serving node at any
//!   time.
//! * **Checkpoint + replayable update log.** Every applied update is
//!   also appended to an in-memory [`UpdateLog`]. [`LiveRelation::freeze`]
//!   atomically exports the current state as a [`ShardedRelation`] (for
//!   the `pitract-store` snapshot layer) together with the log position
//!   it covers; replaying the remaining suffix onto the loaded snapshot
//!   ([`LiveRelation::replay`]) reproduces the live state bit-identically
//!   — same answers *and* same global row ids.
//!
//! Consistency model: **epoch-pinned snapshot reads (MVCC)**. A global
//! [`Epoch`] clock ticks once per applied update, inside the same
//! critical section that orders the update log — so epoch `E` names
//! exactly the state after the first `E` updates, on every shard at
//! once. A batch *pins* the current epoch before it fans out
//! ([`LiveRelation::pin`]); writers that land mid-batch append an O(1)
//! epoch-stamped **undo record** (row-granular copy-on-write: the local
//! id of an insert, the removed row of a delete) to a small per-shard
//! ring, and the batch's per-shard reads resolve `shard@epoch` by
//! evaluating the current version and rolling back exactly the writes
//! stamped after the pin. The result: a multi-shard batch observes one
//! database instance — the paper's "answer `Q` against `D`" contract —
//! while writers never copy a shard and never wait on a pin (they pay
//! one ring append per update, only while some pin is live). Retired
//! undo records are reclaimed as soon as no in-flight pin can reach
//! them (watermark = oldest pinned epoch), and the retention cost is
//! surfaced in the same `|CHANGED|` currency as update maintenance
//! ([`LiveRelation::version_report`]). Single queries
//! ([`LiveRelation::answer`]) stay read-committed: they touch one state
//! per shard and need no cut.

use crate::batch::{eval_assigned, route_batch, OutputMode, Routing, WorkerResults};
use crate::error::EngineError;
use crate::planner::AccessPath;
use crate::pool::BatchServe;
use crate::shard::{relevant_shards_for, route_shard, ShardBy, ShardedRelation};
use pitract_core::cost::{log2_floor, Meter};
use pitract_core::epoch::Epoch;
use pitract_core::lockdep::{
    LockRank, OrderedMutex, OrderedMutexGuard, OrderedRwLock, OrderedRwLockReadGuard,
    OrderedRwLockWriteGuard,
};
use pitract_incremental::bounded::{BoundednessReport, UpdateRecord};
use pitract_obs::{Counter, Gauge, Histogram, Recorder};
use pitract_relation::indexed::IndexedRelation;
use pitract_relation::{IndexedError, Relation, RowRef, Schema, SelectionQuery, Value};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A durable write-ahead sink for the update stream of a
/// [`LiveRelation`].
///
/// Installed with [`LiveRelation::set_wal_sink`], the sink sees every
/// update in two phases mirroring how real logs group-commit:
///
/// 1. [`WalSink::stage`] runs **inside the global-id critical section**,
///    before the update becomes visible to any reader. Because the
///    critical section serializes all writers, staged records land in the
///    sink in exactly global-id order — the property that makes a
///    persisted log replayable ([`LiveRelation::replay`] verifies every
///    insert reproduces its logged id). A failed stage aborts the update
///    before anything was applied: the caller gets the error and the
///    relation is untouched.
/// 2. [`WalSink::commit`] runs **after every lock is released**, with the
///    ticket `stage` returned. It blocks until the staged record is
///    durable, so a slow `fsync` never stalls the shard or the id maps —
///    concurrent committers can share one flush (group commit). If
///    `commit` fails the update *was* applied in memory and *is* staged
///    in the sink (memory and log agree); only its durability is
///    unconfirmed, which the caller learns from the returned error.
pub trait WalSink: Send + Sync + std::fmt::Debug {
    /// Stage one update record. Called inside the gid critical section;
    /// must be fast (no fsync unless the sink explicitly trades
    /// throughput for simplicity). Returns a ticket for [`Self::commit`].
    fn stage(&self, entry: &UpdateEntry) -> Result<u64, EngineError>;

    /// Block until the record behind `ticket` is durable. Called outside
    /// all locks. Tickets are handed out in staging order and a commit
    /// must cover every record staged before its ticket as well (a WAL
    /// flush is a prefix flush) — the property
    /// [`LiveRelation::apply_batch`] relies on to make a whole batch
    /// durable with one commit of the last ticket.
    fn commit(&self, ticket: u64) -> Result<(), EngineError>;
}

/// One replayable update, as recorded by the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateEntry {
    /// A row inserted under a specific global id.
    Insert {
        /// The global row id the insert was assigned.
        gid: usize,
        /// The inserted tuple.
        row: Vec<Value>,
    },
    /// A delete of a live global id.
    Delete {
        /// The deleted global row id.
        gid: usize,
    },
}

/// One update in a [`LiveRelation::apply_batch`] request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert a tuple (the batch twin of [`LiveRelation::insert`]).
    Insert(Vec<Value>),
    /// Delete a live global row id (the batch twin of
    /// [`LiveRelation::delete`]).
    Delete(usize),
}

/// The per-op outcome of a [`LiveRelation::apply_batch`], in op order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applied {
    /// The global row id an insert was assigned.
    Inserted(usize),
    /// The removed tuple, or `None` if the id was already gone (same
    /// no-op semantics as [`LiveRelation::delete`]).
    Deleted(Option<Vec<Value>>),
}

/// An ordered, replayable log of updates applied to a [`LiveRelation`]
/// since its last checkpoint.
///
/// Entries are appended inside the global-id critical section, so log
/// order equals global-id assignment order even under concurrent writers
/// — which is what makes replay deterministic: applying the entries in
/// order onto the checkpoint state reassigns exactly the logged ids.
/// The log is truncated on checkpoint ([`LiveRelation::freeze`] marks
/// the covered prefix). `pitract-store` can persist a log as its own
/// catalog entry kind.
///
/// Besides its entries the log carries [`Self::end_epoch`] — the
/// absolute [`Epoch`] of the state after applying every entry, i.e. the
/// epoch clock of the node the log was captured from. The end survives
/// operations that change the entry count without changing the final
/// state ([`Self::compact`], [`Self::drain_prefix`]), which is what lets
/// recovery resume the clock exactly even when the log it replays is a
/// compacted remnant with fewer entries than the history had ticks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateLog {
    entries: Vec<UpdateEntry>,
    end_epoch: u64,
}

impl UpdateLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A log from pre-recorded entries describing a *fresh* history
    /// (first entry applies onto epoch 0): the end epoch is the entry
    /// count. For a log captured mid-history use
    /// [`Self::from_entries_ending`].
    pub fn from_entries(entries: Vec<UpdateEntry>) -> Self {
        let end_epoch = entries.len() as u64;
        UpdateLog { entries, end_epoch }
    }

    /// A log from pre-recorded entries whose final state has the given
    /// absolute epoch (the store's decode path for logs persisted with
    /// an epoch section).
    pub fn from_entries_ending(entries: Vec<UpdateEntry>, end: Epoch) -> Self {
        UpdateLog {
            entries,
            end_epoch: end.get(),
        }
    }

    /// The absolute epoch of the state after applying every entry — the
    /// epoch clock of the node this log was captured from.
    pub fn end_epoch(&self) -> Epoch {
        Epoch::new(self.end_epoch)
    }

    /// Advance the end epoch (monotonic max) without touching the
    /// entries. Recovery uses this to re-stamp a replayed log with the
    /// crashed node's clock, which ran ahead of the entry count when the
    /// replay was compacted.
    pub fn advance_end_to(&mut self, end: Epoch) {
        self.end_epoch = self.end_epoch.max(end.get());
    }

    /// Append one entry: the final state is one update later.
    pub fn push(&mut self, entry: UpdateEntry) {
        self.entries.push(entry);
        self.end_epoch += 1;
    }

    /// Number of logged entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, oldest first.
    pub fn entries(&self) -> &[UpdateEntry] {
        &self.entries
    }

    /// Drop the first `n` entries (they are covered by a checkpoint).
    /// The final state — and therefore [`Self::end_epoch`] — is
    /// unchanged.
    pub fn drain_prefix(&mut self, n: usize) {
        self.entries.drain(..n.min(self.entries.len()));
    }

    /// One past the highest global id this log's inserts assign — the
    /// position the id allocator must reach after a replay, even when
    /// [`Self::compact`] cancelled the trailing inserts (recovery pairs
    /// this with [`LiveRelation::burn_gids_to`], so a recovered node
    /// assigns *future* ids exactly like the crashed node would have).
    /// `None` when the log holds no inserts.
    pub fn next_gid_watermark(&self) -> Option<usize> {
        self.entries
            .iter()
            .filter_map(|e| match e {
                UpdateEntry::Insert { gid, .. } => Some(gid + 1),
                UpdateEntry::Delete { .. } => None,
            })
            .max()
    }

    /// Cancel insert+delete pairs: an [`UpdateEntry::Insert`] whose
    /// global id is deleted *later in the same log* contributes nothing
    /// to the final state, so both entries are dropped. Survivors keep
    /// their relative order, which keeps the compacted log replayable
    /// ([`LiveRelation::replay_compacted`] burns the cancelled ids so
    /// every surviving insert still lands on its recorded gid).
    ///
    /// One refinement keeps compaction lossless under composition: the
    /// cancelled pair with the **highest** global id is retained unless
    /// some surviving insert carries a higher id. A trailing run of
    /// pairs would otherwise leave no entry recording how far the id
    /// allocator had advanced, and a node recovered from the compacted
    /// log would reassign those ids — diverging from the history on the
    /// *next* insert. Keeping the one watermark-bearing pair (at most
    /// two extra entries, whatever the churn) pins the allocator
    /// exactly.
    ///
    /// Deletes of rows that pre-date the log (their insert lives in the
    /// checkpoint, not here) always survive. The result's length is
    /// bounded by the *net* change of the logged history plus one pair,
    /// which is what bounds recovery work under churn: a million inserts
    /// each followed by their delete compact to a single pair.
    pub fn compact(&self) -> UpdateLog {
        let mut cancelled = vec![false; self.entries.len()];
        let mut open_inserts: HashMap<usize, usize> = HashMap::new();
        for (i, entry) in self.entries.iter().enumerate() {
            match entry {
                UpdateEntry::Insert { gid, .. } => {
                    open_inserts.insert(*gid, i);
                }
                UpdateEntry::Delete { gid } => {
                    if let Some(at) = open_inserts.remove(gid) {
                        cancelled[at] = true;
                        cancelled[i] = true;
                    }
                }
            }
        }
        // The watermark rule: if the highest inserted gid belongs to a
        // cancelled pair, resurrect that pair so the compacted log still
        // records how far the allocator went.
        let max_surviving = self
            .entries
            .iter()
            .zip(&cancelled)
            .filter(|(_, &dead)| !dead)
            .filter_map(|(e, _)| match e {
                UpdateEntry::Insert { gid, .. } => Some(*gid),
                UpdateEntry::Delete { .. } => None,
            })
            .max();
        let max_cancelled = self
            .entries
            .iter()
            .zip(&cancelled)
            .filter(|(_, &dead)| dead)
            .filter_map(|(e, _)| match e {
                UpdateEntry::Insert { gid, .. } => Some(*gid),
                UpdateEntry::Delete { .. } => None,
            })
            .max();
        if let Some(watermark_gid) = max_cancelled {
            if max_surviving.is_none_or(|s| s < watermark_gid) {
                for (i, entry) in self.entries.iter().enumerate() {
                    match entry {
                        UpdateEntry::Insert { gid, .. } | UpdateEntry::Delete { gid }
                            if *gid == watermark_gid =>
                        {
                            cancelled[i] = false;
                        }
                        _ => {}
                    }
                }
            }
        }
        UpdateLog {
            entries: self
                .entries
                .iter()
                .zip(&cancelled)
                .filter(|(_, &dead)| !dead)
                .map(|(e, _)| e.clone())
                .collect(),
            // Cancelling a pair drops entries, not history: the final
            // state (and its epoch) is the same one the full log reaches.
            end_epoch: self.end_epoch,
        }
    }
}

/// The pending update log plus the absolute position of its first
/// entry. `base` counts the entries already truncated by confirmed
/// checkpoints, so a checkpoint mark from [`LiveRelation::freeze`] is an
/// absolute log position — two racing checkpoints can each confirm
/// without the second one draining entries its snapshot never covered
/// (a count-based truncation had exactly that bug).
#[derive(Debug, Default)]
struct LogState {
    base: usize,
    log: UpdateLog,
}

/// The global-id bookkeeping, guarded by one lock separate from the
/// shard locks.
#[derive(Debug)]
struct IdMaps {
    /// Per shard: local row id → global row id. Append-only.
    global_ids: Vec<Vec<usize>>,
    /// Global row id → (shard, local id); tombstoned on delete.
    locations: Vec<Option<(usize, usize)>>,
    live: usize,
}

/// How to un-apply one write from a shard's current version. Shard
/// locals are never reused ([`IndexedRelation`] ids are append-only and
/// deletes tombstone), so a local appears in at most one `Insert` and at
/// most one `Delete` record — plain set membership reconstructs any
/// retained epoch, no ordering replay needed.
#[derive(Debug)]
enum UndoOp {
    /// The write inserted shard-local row `local`: un-apply by hiding it.
    Insert { local: usize },
    /// The write deleted `local`, which held `row`: un-apply by
    /// restoring the row — the only row-granular copy MVCC retains.
    Delete { local: usize, row: Vec<Value> },
}

/// One entry in a shard's undo ring, stamped with the epoch its write
/// produced (epoch `E` names the state after `E` updates, so the write
/// that ticked the clock to `E` is *included* in epoch `E`'s view).
#[derive(Debug)]
struct UndoEntry {
    stamp: u64,
    op: UndoOp,
}

/// One shard's interior: the current [`IndexedRelation`] plus a small
/// ring of epoch-stamped undo records, retained only while some
/// in-flight batch has an epoch pinned that still needs them. A pinned
/// reader reconstructs `shard@epoch` by evaluating `current` and
/// rolling back the few writes stamped after its pin — O(1) writer
/// bookkeeping per update instead of a full shard clone.
#[derive(Debug)]
struct ShardSlot {
    current: IndexedRelation,
    /// Epoch of the last write applied to `current` (the relation's
    /// birth epoch if none). `current` serves every epoch `>= stamp`
    /// as-is.
    stamp: u64,
    /// Undo records for recent writes, ascending by stamp (append at
    /// the back, reclaim at the front).
    ring: VecDeque<UndoEntry>,
}

impl ShardSlot {
    fn new(current: IndexedRelation) -> Self {
        ShardSlot {
            current,
            stamp: 0,
            ring: VecDeque::new(),
        }
    }

    /// The correction a reader at epoch `at` applies on top of
    /// `current`, or `None` when `current` serves `at` as-is (the
    /// common case: no write has landed past the pin). Walks only the
    /// ring suffix stamped after `at`; a local both inserted and
    /// deleted there was not alive at `at`, so its restore is dropped.
    /// The surviving restored rows are re-indexed on the same columns
    /// as the shard, so the per-query correction probes stay
    /// logarithmic no matter how much churn landed during the batch —
    /// the build is paid once per shard slice, not once per query.
    fn rollback_at(&self, at: Epoch, schema: &Schema, indexed_cols: &[usize]) -> Option<Rollback> {
        if at.get() >= self.stamp {
            return None;
        }
        // Shard locals are assigned sequentially and never reused, so
        // the locals inserted after `at` are exactly the contiguous id
        // suffix starting at the smallest one — visibility is a single
        // threshold compare, not a set lookup.
        let mut hidden_from = usize::MAX;
        let mut restored: Vec<(usize, &Vec<Value>)> = Vec::new();
        let mut entries = 0usize;
        for entry in self.ring.iter().rev() {
            if entry.stamp <= at.get() {
                break;
            }
            entries += 1;
            match &entry.op {
                UndoOp::Insert { local } => hidden_from = hidden_from.min(*local),
                UndoOp::Delete { local, row } => restored.push((*local, row)),
            }
        }
        // A local both inserted and deleted after `at` was not alive at
        // the pin; the oldest post-pin insert is seen last, so the
        // filter runs after the walk.
        restored.retain(|(local, _)| *local < hidden_from);
        let restored_locals: Vec<usize> = restored.iter().map(|(local, _)| *local).collect();
        let rows: Vec<Vec<Value>> = restored.iter().map(|(_, row)| (*row).clone()).collect();
        #[allow(clippy::expect_used)]
        let restored = IndexedRelation::build_from_rows(schema.clone(), rows, indexed_cols)
            // lint:allow(no-unwrap-in-serving): restored rows came out of this relation, built on these columns
            .expect("rows and indexed columns were validated when the relation was built");
        Some(Rollback {
            hidden_from,
            restored,
            restored_locals,
            entries,
        })
    }

    /// Drop every undo record no pinned epoch can reach: the record
    /// stamped `s` is only needed by readers at epochs `< s`, so once
    /// the watermark (the oldest pinned epoch, or the current epoch
    /// when nothing is pinned) reaches `s` it is garbage. Returns how
    /// many records were dropped.
    fn trim(&mut self, watermark: u64) -> usize {
        let mut dropped = 0;
        while self.ring.front().is_some_and(|e| e.stamp <= watermark) {
            self.ring.pop_front();
            dropped += 1;
        }
        dropped
    }
}

/// The per-shard rollback for one pinned epoch
/// ([`ShardSlot::rollback_at`]): the visibility horizon below which
/// current locals are visible (everything inserted after the pin sits
/// at or above it) and an indexed mini-relation of the rows to restore
/// (deleted after the pin). Built and consumed under the shard's read
/// lock.
pub(crate) struct Rollback {
    /// First shard-local id invisible at the pin (`usize::MAX` when no
    /// insert landed past it).
    hidden_from: usize,
    /// The restored rows, indexed like the shard so correction probes
    /// cost a tree descent, not a scan of the churn.
    restored: IndexedRelation,
    /// Restored row id (in `restored`, dense) → shard-local id.
    restored_locals: Vec<usize>,
    /// Undo-ring entries walked to build this rollback (the
    /// `mvcc_rollback_entries` histogram sample).
    entries: usize,
}

impl Rollback {
    /// Boolean answer at the pinned epoch: any restored row matching
    /// the query, or any current match below the visibility horizon —
    /// both probes short-circuit on the first witness.
    pub(crate) fn answer(
        &self,
        shard: &IndexedRelation,
        q: &SelectionQuery,
        meter: &Meter,
    ) -> bool {
        self.restored.answer_metered(q, meter)
            || shard.answer_metered_below(q, meter, self.hidden_from)
    }

    /// Matching locals at the pinned epoch. Unsorted — every batch
    /// caller sorts after global-id translation.
    pub(crate) fn matching_ids(
        &self,
        shard: &IndexedRelation,
        q: &SelectionQuery,
        meter: &Meter,
    ) -> Vec<usize> {
        let mut ids: Vec<usize> = shard
            .matching_ids_metered(q, meter)
            .into_iter()
            .filter(|l| *l < self.hidden_from)
            .collect();
        ids.extend(
            self.restored
                .matching_ids_metered(q, meter)
                .into_iter()
                .map(|i| self.restored_locals[i]),
        );
        ids
    }
}

/// The global epoch clock plus the registry of pinned epochs — one
/// mutex, so a reader's pin and a writer's bump are atomic with respect
/// to each other.
#[derive(Debug, Default)]
struct EpochState {
    current: u64,
    /// Pinned epoch → number of in-flight pins on it.
    pins: BTreeMap<u64, usize>,
}

impl EpochState {
    fn watermark(&self) -> u64 {
        self.pins.keys().next().copied().unwrap_or(self.current)
    }
}

/// An RAII pin on one epoch of a [`LiveRelation`]: while the pin lives,
/// every shard read resolved at [`EpochPin::epoch`] sees exactly the
/// state after that many updates, and writers retain undo records
/// instead of destroying it. Dropping the pin releases the epoch for
/// reclamation.
#[derive(Debug)]
pub struct EpochPin<'a> {
    live: &'a LiveRelation,
    epoch: Epoch,
}

impl EpochPin<'_> {
    /// The pinned epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        self.live.release_pin(self.epoch);
    }
}

/// A point-in-time export of a [`LiveRelation`]: the state, the
/// **absolute** log position it covers, and the epoch of the cut — all
/// three taken under one consistent set of locks, so
/// `epoch - birth epoch == covered` always holds.
#[derive(Debug)]
pub struct Frozen {
    /// The exported state (every update up to `covered` applied).
    pub state: ShardedRelation,
    /// Absolute log position the state covers (entries ever logged,
    /// including already-truncated ones).
    pub covered: usize,
    /// The epoch of the cut: the epoch clock's value when the state was
    /// frozen.
    pub epoch: Epoch,
}

/// A point-in-time summary of the MVCC version retention of a
/// [`LiveRelation`] — how much extra memory the version rings hold and
/// why ([`LiveRelation::version_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionStats {
    /// The epoch clock now.
    pub current_epoch: Epoch,
    /// The reclamation watermark: the oldest pinned epoch, or the
    /// current epoch when nothing is pinned. Versions older than every
    /// pin are reclaimed.
    pub watermark: Epoch,
    /// In-flight pins (counting multiplicity).
    pub pins: usize,
    /// Retained undo records across all shard rings (one per update
    /// applied while some epoch was pinned, until reclaimed).
    pub retained_versions: usize,
    /// Rows kept alive only by those records — each retained delete
    /// holds one copied row — i.e. the memory overhead of MVCC in the
    /// same unit as [`ShardedRelation`] slots.
    pub retained_slots: usize,
}

impl VersionStats {
    /// Publish this summary into a recorder's registry (`mvcc_*`
    /// family), so version retention shows up in the same
    /// `MetricsSnapshot` as every live series.
    pub fn publish(&self, recorder: &Recorder) {
        recorder
            .gauge("mvcc_current_epoch")
            .set(i64::try_from(self.current_epoch.get()).unwrap_or(i64::MAX));
        recorder
            .gauge("mvcc_watermark")
            .set(i64::try_from(self.watermark.get()).unwrap_or(i64::MAX));
        recorder.gauge("mvcc_pins").set(self.pins as i64);
        recorder
            .gauge("mvcc_retained_versions")
            .set(self.retained_versions as i64);
        recorder
            .gauge("mvcc_retained_slots")
            .set(self.retained_slots as i64);
    }
}

/// A concurrently servable, incrementally maintained, checkpointable
/// relation — the live tier over [`ShardedRelation`]. See the module
/// docs for the locking design.
#[derive(Debug)]
pub struct LiveRelation {
    schema: Schema,
    shard_by: ShardBy,
    indexed_cols: Vec<usize>,
    shards: Vec<OrderedRwLock<ShardSlot>>,
    ids: OrderedRwLock<IdMaps>,
    /// The epoch clock and pinned-epoch registry. Writers bump it inside
    /// the gid critical section (one tick per applied update), readers
    /// pin under the same mutex — acquired after `ids`, before `log`,
    /// in the fixed lock order.
    epochs: OrderedMutex<EpochState>,
    /// Retained undo records across all shard rings — a cheap gate so
    /// releasing a pin only sweeps the rings when something is actually
    /// retained.
    retained: AtomicUsize,
    /// Updates since the last checkpoint, in global-id order, with the
    /// absolute position of the oldest pending entry.
    log: OrderedMutex<LogState>,
    /// One record per applied update, in the same order as the log.
    maintenance: Mutex<BoundednessReport>,
    /// One record per retained undo record, charged in the same
    /// `|CHANGED|` currency as update maintenance.
    version_maintenance: Mutex<BoundednessReport>,
    /// Optional durable write-ahead sink; staged inside the gid critical
    /// section so sink order ≡ log order ≡ gid order.
    sink: Option<Arc<dyn WalSink>>,
    /// The observability handle ([`LiveRelation::set_recorder`]);
    /// disabled by default, in which case every instrument below is a
    /// single-branch no-op.
    recorder: Recorder,
    /// Interned `engine_*` / `mvcc_*` instrument handles.
    instruments: LiveInstruments,
}

/// Interned instrument handles for one [`LiveRelation`]. All default to
/// no-op handles.
#[derive(Debug, Clone, Default)]
struct LiveInstruments {
    /// `engine_updates_total`: applied inserts + deletes (each is
    /// `|ΔD| = 1`, so this is also the cumulative |ΔD|).
    updates: Counter,
    /// `engine_apply_batch_ops`: ops per [`LiveRelation::apply_batch`]
    /// call — the |ΔD| distribution of batched write traffic.
    apply_batch_ops: Histogram,
    /// `engine_plans_total{path=…}`: access path chosen per routed
    /// query, indexed by [`AccessPath::index`].
    plans: [Counter; AccessPath::COUNT],
    /// `mvcc_pins`: epoch pins currently registered.
    pins: Gauge,
    /// `mvcc_retained_versions`: undo records retained across all shard
    /// rings right now.
    retained: Gauge,
    /// `mvcc_rollback_entries`: undo records rolled back per pinned
    /// shard evaluation that needed a correction.
    rollback_entries: Histogram,
}

impl LiveInstruments {
    fn new(recorder: &Recorder) -> Self {
        LiveInstruments {
            updates: recorder.counter("engine_updates_total"),
            apply_batch_ops: recorder.histogram("engine_apply_batch_ops"),
            plans: AccessPath::LABELS
                .map(|path| recorder.counter(&format!("engine_plans_total{{path=\"{path}\"}}"))),
            pins: recorder.gauge("mvcc_pins"),
            retained: recorder.gauge("mvcc_retained_versions"),
            rollback_entries: recorder.histogram("mvcc_rollback_entries"),
        }
    }
}

/// The maintenance cost record for one routed update: `|ΔD| = 1` (one
/// tuple), `|ΔO| = 1 + k` (the tuple plus one posting edit per indexed
/// column), and work `1 + k·⌈log₂ n_s⌉` for the per-index B⁺-tree
/// descents on the routed shard of `n_s` rows. Deterministic in the
/// shard's pre-update size, so a replayed update reproduces the record
/// exactly.
fn maintenance_record(indexed_cols: usize, shard_len_before: usize) -> UpdateRecord {
    let descent = u64::from(log2_floor(shard_len_before.max(2) as u64)).max(1);
    UpdateRecord {
        delta_input: 1,
        delta_output: 1 + indexed_cols as u64,
        work: 1 + indexed_cols as u64 * descent,
    }
}

impl LiveRelation {
    /// Build from a relation: partition into `shard_count` shards and
    /// index `cols` on each, exactly like
    /// [`ShardedRelation::build`], then wrap for live serving.
    pub fn build(
        relation: &Relation,
        shard_by: ShardBy,
        shard_count: usize,
        cols: &[usize],
    ) -> Result<Self, EngineError> {
        Ok(Self::from_sharded(ShardedRelation::build(
            relation,
            shard_by,
            shard_count,
            cols,
        )?))
    }

    /// Wrap an existing [`ShardedRelation`] (e.g. one loaded from a
    /// snapshot) for live serving. Starts with an empty update log and an
    /// empty maintenance report.
    pub fn from_sharded(relation: ShardedRelation) -> Self {
        let (schema, shard_by, shards, global_ids, locations) = relation.into_parts();
        let indexed_cols = shards[0].indexed_columns();
        let live = locations.iter().flatten().count();
        LiveRelation {
            schema,
            shard_by,
            indexed_cols,
            shards: shards
                .into_iter()
                .enumerate()
                .map(|(i, s)| {
                    OrderedRwLock::with_sub_order(LockRank::Shard, i as u32, ShardSlot::new(s))
                })
                .collect(),
            ids: OrderedRwLock::new(
                LockRank::Gid,
                IdMaps {
                    global_ids,
                    locations,
                    live,
                },
            ),
            epochs: OrderedMutex::new(LockRank::Epoch, EpochState::default()),
            retained: AtomicUsize::new(0),
            log: OrderedMutex::new(LockRank::Log, LogState::default()),
            maintenance: Mutex::new(BoundednessReport::new()),
            version_maintenance: Mutex::new(BoundednessReport::new()),
            sink: None,
            recorder: Recorder::default(),
            instruments: LiveInstruments::default(),
        }
    }

    /// Install (or remove) a durable write-ahead sink. Every subsequent
    /// insert/delete is staged to the sink inside the gid critical
    /// section and committed after the locks drop — see [`WalSink`] for
    /// the exact contract. Takes `&mut self` so a sink can only be
    /// swapped while no concurrent writer can race the transition
    /// (typically right after construction or recovery, before the
    /// relation is shared).
    pub fn set_wal_sink(&mut self, sink: Option<Arc<dyn WalSink>>) {
        self.sink = sink;
    }

    /// Is a durable write-ahead sink installed?
    pub fn has_wal_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Install an observability recorder: interns the `engine_*` write /
    /// plan instruments and the `mvcc_*` pin / retention instruments.
    /// Takes `&mut self` for the same reason as [`Self::set_wal_sink`] —
    /// swapped only before the relation is shared. The default (disabled)
    /// recorder leaves every hot-path update a single branch.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
        self.instruments = LiveInstruments::new(recorder);
    }

    /// The installed recorder (disabled unless [`Self::set_recorder`]
    /// was called).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Publish the slow-moving stats surfaces into the recorder's
    /// registry so one `MetricsSnapshot` carries everything: the
    /// [`VersionStats`] gauges (`mvcc_*`) and the two
    /// [`BoundednessReport`] totals (`engine_maintenance_*` for update
    /// maintenance, `mvcc_retention_*` for version retention). No-op
    /// with a disabled recorder.
    pub fn publish_metrics(&self) {
        if !self.recorder.is_enabled() {
            return;
        }
        self.version_stats().publish(&self.recorder);
        self.boundedness_report()
            .publish(&self.recorder, "engine_maintenance");
        self.version_report()
            .publish(&self.recorder, "mvcc_retention");
        publish_lockdep(&self.recorder);
    }

    /// Schema of the logical relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The partitioning function.
    pub fn shard_by(&self) -> &ShardBy {
        &self.shard_by
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which columns are indexed on every shard.
    pub fn indexed_columns(&self) -> &[usize] {
        &self.indexed_cols
    }

    /// Total live tuples.
    pub fn len(&self) -> usize {
        self.read_ids().live
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total row slots ever assigned (live + tombstones) across all
    /// shards — what the planner estimates scans against.
    pub fn slot_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| read_lock(s).current.slot_count())
            .sum()
    }

    // --- lock helpers ------------------------------------------------------
    //
    // Lock poisoning is deliberately ignored (the ordered wrappers
    // absorb it): every critical section below upholds the structure
    // invariants before any call that could panic, and a serving tier
    // must keep answering after one worker died mid-request. The one
    // fixed acquisition order — shard locks (ascending), then `ids`,
    // then `epochs`, then `log` — makes deadlock impossible, and the
    // [`pitract_core::lockdep`] ranks carried by each lock turn any
    // future violation of that order into a debug-build panic instead
    // of a production hang. `maintenance`/`version_maintenance` stay
    // plain leaf mutexes: nothing is ever acquired while they are held.

    fn read_shard(&self, s: usize) -> OrderedRwLockReadGuard<'_, ShardSlot> {
        self.shards[s].read()
    }

    fn write_shard(&self, s: usize) -> OrderedRwLockWriteGuard<'_, ShardSlot> {
        self.shards[s].write()
    }

    fn lock_epochs(&self) -> OrderedMutexGuard<'_, EpochState> {
        self.epochs.lock()
    }

    fn read_ids(&self) -> OrderedRwLockReadGuard<'_, IdMaps> {
        self.ids.read()
    }

    fn write_ids(&self) -> OrderedRwLockWriteGuard<'_, IdMaps> {
        self.ids.write()
    }

    fn lock_log(&self) -> OrderedMutexGuard<'_, LogState> {
        self.log.lock()
    }

    fn lock_maintenance(&self) -> MutexGuard<'_, BoundednessReport> {
        self.maintenance
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    // --- epochs & version retention ----------------------------------------

    /// The epoch clock now: the number of updates ever applied (plus any
    /// recovery advance — see [`Self::advance_epoch_to`]).
    pub fn current_epoch(&self) -> Epoch {
        Epoch::new(self.lock_epochs().current)
    }

    /// Pin the current epoch: until the returned [`EpochPin`] drops,
    /// every read resolved at that epoch — the
    /// [`crate::pool::PooledExecutor`] does this per batch — sees
    /// exactly the pinned instance, and writers record
    /// undo entries around it instead of blocking or being blocked.
    pub fn pin(&self) -> EpochPin<'_> {
        EpochPin {
            live: self,
            epoch: self.register_pin(),
        }
    }

    /// Register a pin on the current epoch (the raw half of
    /// [`Self::pin`], for callers that cannot hold a borrow — the
    /// executor's trait surface). Every `register_pin` must be
    /// paired with exactly one [`Self::release_pin`].
    pub(crate) fn register_pin(&self) -> Epoch {
        let mut epochs = self.lock_epochs();
        let epoch = epochs.current;
        *epochs.pins.entry(epoch).or_insert(0) += 1;
        self.instruments.pins.inc();
        Epoch::new(epoch)
    }

    /// Release one pin and reclaim every version no remaining pin can
    /// reach.
    pub(crate) fn release_pin(&self, epoch: Epoch) {
        let watermark = {
            let mut epochs = self.lock_epochs();
            match epochs.pins.get_mut(&epoch.get()) {
                Some(n) if *n > 1 => *n -= 1,
                Some(_) => {
                    epochs.pins.remove(&epoch.get());
                }
                None => debug_assert!(false, "released an unregistered pin"),
            }
            epochs.watermark()
        };
        self.instruments.pins.dec();
        // Sweep the rings only when something is retained. The watermark
        // is a safe lower bound even if pins land concurrently: a new
        // pin is at the current epoch, which no reclaimable undo
        // record's stamp can exceed. The sweep must NOT queue on a
        // contended shard: that would park the just-finished batch
        // behind the writer convoy (costing it a scheduler round-trip
        // per shard), and a busy shard reclaims its own ring at the
        // very next write's trim anyway — only quiescent shards need
        // the release-time sweep, and `try_write` on a quiescent shard
        // is free.
        if self.retained.load(Ordering::Acquire) > 0 {
            let mut dropped = 0;
            for slot in &self.shards {
                let Some(mut guard) = slot.try_write() else {
                    continue;
                };
                dropped += guard.trim(watermark);
            }
            if dropped > 0 {
                self.retained.fetch_sub(dropped, Ordering::AcqRel);
                self.instruments.retained.add(-(dropped as i64));
            }
        }
    }

    /// Advance the epoch clock to `epoch` without applying updates —
    /// the clock twin of [`Self::burn_gids_to`]. Recovery calls this
    /// after a *compacted* replay, which applies fewer updates than the
    /// history it reproduces: the recovered node must stamp its next
    /// update with the same epoch the crashed node would have. No-op if
    /// the clock is already there.
    pub fn advance_epoch_to(&self, epoch: Epoch) {
        let current = {
            let mut epochs = self.lock_epochs();
            epochs.current = epochs.current.max(epoch.get());
            epochs.current
        };
        // Keep the pending log's end stamp on the same clock, so a log
        // captured from this node — even one whose entries are a
        // compacted remnant of a longer history — still names the epoch
        // its final state has ([`UpdateLog::end_epoch`]); a second
        // recovery resumes from there instead of undercounting.
        self.lock_log().log.advance_end_to(Epoch::new(current));
    }

    /// How much memory the MVCC version rings hold right now, and why.
    pub fn version_stats(&self) -> VersionStats {
        // Shard locks strictly before the epochs mutex (the fixed
        // order); the two sections race benignly — stats are a sample.
        let (retained_versions, retained_slots) = self
            .shards
            .iter()
            .map(|s| {
                let slot = read_lock(s);
                (
                    slot.ring.len(),
                    slot.ring
                        .iter()
                        .filter(|e| matches!(e.op, UndoOp::Delete { .. }))
                        .count(),
                )
            })
            .fold((0, 0), |(v, r), (dv, dr)| (v + dv, r + dr));
        let epochs = self.lock_epochs();
        VersionStats {
            current_epoch: Epoch::new(epochs.current),
            watermark: Epoch::new(epochs.watermark()),
            pins: epochs.pins.values().sum(),
            retained_versions,
            retained_slots,
        }
    }

    /// The `|CHANGED|` accounting of version retention: one
    /// [`UpdateRecord`] per retained undo record, charging the rows the
    /// record keeps alive as `|ΔO|` (1 for a delete's saved row, 0 for
    /// an insert) against the single update that triggered it
    /// (`|ΔD| = 1`, work 1 — the ring append is O(1)). Kept separate
    /// from [`Self::boundedness_report`] so replay determinism is
    /// untouched — whether a record is retained depends on reader
    /// timing, never on the update history.
    pub fn version_report(&self) -> BoundednessReport {
        self.version_maintenance
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Record how to un-apply the write just stamped onto `slot`, iff
    /// any epoch is pinned (every pin is below the just-ticked clock,
    /// so every pin needs the rollback; with no pins the record could
    /// never be read before the next watermark sweep reclaims it).
    /// Called with the epochs mutex held, *after* the clock tick — pin
    /// registration and the retention decision cannot race. `op` is a
    /// closure so the delete path only copies its row when a pin
    /// actually retains it.
    fn record_undo(&self, slot: &mut ShardSlot, epochs: &EpochState, op: impl FnOnce() -> UndoOp) {
        if epochs.pins.is_empty() {
            return;
        }
        let op = op();
        let held = u64::from(matches!(op, UndoOp::Delete { .. }));
        slot.ring.push_back(UndoEntry {
            stamp: epochs.current,
            op,
        });
        self.retained.fetch_add(1, Ordering::AcqRel);
        self.instruments.retained.inc();
        self.version_maintenance
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(UpdateRecord {
                delta_input: 1,
                delta_output: held,
                work: 1,
            });
    }

    // --- updates -----------------------------------------------------------

    /// Insert a tuple, write-locking only the shard its key routes to.
    /// Returns the stable global row id. Concurrent queries on other
    /// shards are unaffected; queries on the routed shard wait only for
    /// the O(log n) index maintenance.
    ///
    /// With a [`WalSink`] installed the record is staged to the sink
    /// before the insert becomes visible (a failed stage applies
    /// nothing) and committed durable after the locks drop; a commit
    /// failure means the insert *is* applied and staged but its
    /// durability is unconfirmed.
    pub fn insert(&self, row: Vec<Value>) -> Result<usize, EngineError> {
        let (gid, ticket) = self.insert_staged(row)?;
        self.commit_ticket(ticket)?;
        Ok(gid)
    }

    /// The staged half of [`Self::insert`]: apply the insert and stage
    /// it to the sink, but leave the sink commit (the possible fsync
    /// wait) to the caller — [`Self::apply_batch`] commits once for a
    /// whole run of staged ops.
    fn insert_staged(&self, row: Vec<Value>) -> Result<(usize, Option<u64>), EngineError> {
        self.schema
            .admits(&row)
            .map_err(|e| EngineError::Indexed(IndexedError::RowRejected(e)))?;
        let shard = route_shard(
            &self.shard_by,
            self.shards.len(),
            row[self.shard_by.col()].as_ref(),
        );
        let (gid, ticket) = {
            let mut guard = self.write_shard(shard);
            let len_before = guard.current.len();
            // The id maps are updated while the shard lock is still held
            // so `global_ids[shard]` stays aligned with the shard's local
            // ids, and the sink/log/record appends happen inside the gid
            // critical section so WAL order equals log order equals gid
            // order (replay determinism).
            let mut ids = self.write_ids();
            let gid = ids.locations.len();
            let ticket = match &self.sink {
                // Staged before anything is applied: a rejected stage
                // leaves the relation untouched.
                Some(sink) => Some(sink.stage(&UpdateEntry::Insert {
                    gid,
                    row: row.clone(),
                })?),
                None => None,
            };
            // The epochs mutex is held across apply → bump → record so
            // a reader cannot pin between the clock tick and the
            // undo-retention decision (a pin taken after the mutex
            // drops is at the new epoch and needs no rollback for this
            // write); writers lose nothing — they are already
            // serialized by the ids write lock held above.
            let mut epochs = self.lock_epochs();
            let local = match guard.current.insert(row.clone()) {
                Ok(local) => local,
                Err(e) => return Err(EngineError::Indexed(e)),
            };
            // The clock ticks only after the update actually applied:
            // epoch ≡ absolute log position, with no gaps.
            epochs.current += 1;
            guard.stamp = epochs.current;
            self.record_undo(&mut guard, &epochs, || UndoOp::Insert { local });
            let watermark = epochs.watermark();
            drop(epochs);
            let dropped = guard.trim(watermark);
            if dropped > 0 {
                self.retained.fetch_sub(dropped, Ordering::AcqRel);
                self.instruments.retained.add(-(dropped as i64));
            }
            debug_assert_eq!(local, ids.global_ids[shard].len());
            ids.global_ids[shard].push(gid);
            ids.locations.push(Some((shard, local)));
            ids.live += 1;
            self.lock_log().log.push(UpdateEntry::Insert { gid, row });
            self.lock_maintenance()
                .push(maintenance_record(self.indexed_cols.len(), len_before));
            self.instruments.updates.inc();
            (gid, ticket)
        };
        Ok((gid, ticket))
    }

    /// Delete by global row id, write-locking only the owning shard.
    /// Returns the removed tuple, or `Ok(None)` if the id was already
    /// deleted or never assigned (including a concurrent delete that won
    /// the race). An `Err` is only possible with a [`WalSink`]
    /// installed, with the same staged/commit semantics as
    /// [`Self::insert`].
    pub fn delete(&self, gid: usize) -> Result<Option<Vec<Value>>, EngineError> {
        let (row, ticket) = self.delete_staged(gid)?;
        self.commit_ticket(ticket)?;
        Ok(row)
    }

    /// The staged half of [`Self::delete`] — see [`Self::insert_staged`].
    fn delete_staged(&self, gid: usize) -> Result<(Option<Vec<Value>>, Option<u64>), EngineError> {
        // Find the owning shard first (ids read lock, released), then
        // re-acquire in the canonical shard → ids order. A location is
        // written once and only ever transitions Some → None, so if it is
        // still live after re-locking it is the same (shard, local).
        let Some((shard, local)) = ({
            let ids = self.read_ids();
            ids.locations.get(gid).copied().flatten()
        }) else {
            return Ok((None, None));
        };
        let (row, ticket) = {
            let mut guard = self.write_shard(shard);
            let mut ids = self.write_ids();
            if ids.locations[gid].is_none() {
                // A concurrent delete won the race.
                return Ok((None, None));
            }
            let ticket = match &self.sink {
                Some(sink) => Some(sink.stage(&UpdateEntry::Delete { gid })?),
                None => None,
            };
            ids.locations[gid] = None;
            ids.live -= 1;
            let len_before = guard.current.len();
            // Same epoch protocol as `insert_staged`: apply, tick the
            // clock, stamp, record the undo, trim.
            let mut epochs = self.lock_epochs();
            #[allow(clippy::expect_used)]
            let row = guard
                .current
                .delete(local)
                // lint:allow(no-unwrap-in-serving): the location map just said this row is live
                .expect("location map and shard agree on live rows");
            epochs.current += 1;
            guard.stamp = epochs.current;
            self.record_undo(&mut guard, &epochs, || UndoOp::Delete {
                local,
                row: row.clone(),
            });
            let watermark = epochs.watermark();
            drop(epochs);
            let dropped = guard.trim(watermark);
            if dropped > 0 {
                self.retained.fetch_sub(dropped, Ordering::AcqRel);
                self.instruments.retained.add(-(dropped as i64));
            }
            self.lock_log().log.push(UpdateEntry::Delete { gid });
            self.lock_maintenance()
                .push(maintenance_record(self.indexed_cols.len(), len_before));
            self.instruments.updates.inc();
            (row, ticket)
        };
        Ok((Some(row), ticket))
    }

    /// Commit one staged sink ticket, outside all locks.
    fn commit_ticket(&self, ticket: Option<u64>) -> Result<(), EngineError> {
        if let (Some(sink), Some(ticket)) = (&self.sink, ticket) {
            sink.commit(ticket)?;
        }
        Ok(())
    }

    /// Apply a run of updates with **one sink commit for the whole
    /// batch**: every op is applied and staged exactly like
    /// [`Self::insert`] / [`Self::delete`] (same locking, same gid ≡ log
    /// ≡ WAL order, same `|CHANGED|` accounting), but only the *last*
    /// staged ticket is committed — under a group-commit WAL that is one
    /// fsync covering every record in the batch, instead of one fsync
    /// race per op. Sink tickets are monotone and a commit covers every
    /// record staged before it (the [`WalSink`] contract), so committing
    /// the last ticket makes the whole batch durable.
    ///
    /// Returns one [`Applied`] per op, in op order. Ops are applied
    /// sequentially from the calling thread; concurrent writers may
    /// interleave *between* (not inside) the individual ops, exactly as
    /// they could between individual `insert`/`delete` calls.
    ///
    /// On a mid-batch failure (schema rejection, failed stage) the
    /// already-applied prefix stays applied — the same contract as
    /// issuing the ops one by one — and its staged records are committed
    /// durable before the error returns, so no confirmed-in-memory op is
    /// left with unconfirmed durability silently.
    pub fn apply_batch(
        &self,
        ops: impl IntoIterator<Item = UpdateOp>,
    ) -> Result<Vec<Applied>, EngineError> {
        let mut applied = Vec::new();
        let mut last_ticket = None;
        for op in ops {
            let staged = match op {
                UpdateOp::Insert(row) => self
                    .insert_staged(row)
                    .map(|(gid, t)| (Applied::Inserted(gid), t)),
                UpdateOp::Delete(gid) => self
                    .delete_staged(gid)
                    .map(|(row, t)| (Applied::Deleted(row), t)),
            };
            match staged {
                Ok((outcome, ticket)) => {
                    if ticket.is_some() {
                        last_ticket = ticket;
                    }
                    applied.push(outcome);
                }
                Err(e) => {
                    // Flush the applied prefix before surfacing the
                    // error; its durability failure (if any) would
                    // otherwise be unreported.
                    self.instruments
                        .apply_batch_ops
                        .record(applied.len() as u64);
                    self.commit_ticket(last_ticket)?;
                    return Err(e);
                }
            }
        }
        // The batch's |ΔD| (each op is one tuple changed).
        self.instruments
            .apply_batch_ops
            .record(applied.len() as u64);
        self.commit_ticket(last_ticket)?;
        Ok(applied)
    }

    // --- queries -----------------------------------------------------------

    /// The live tuple under a global row id (cloned out of the shard so
    /// no lock outlives the call).
    pub fn row(&self, gid: usize) -> Option<Vec<Value>> {
        let (shard, local) = {
            let ids = self.read_ids();
            (*ids.locations.get(gid)?)?
        };
        self.read_shard(shard)
            .current
            .row(local)
            .map(RowRef::to_vec)
    }

    /// Boolean answer, read-locking only the relevant shards (in turn).
    /// Read-committed: a single query needs no cross-shard cut.
    pub fn answer(&self, q: &SelectionQuery) -> bool {
        let meter = Meter::new();
        relevant_shards_for(&self.shard_by, self.shards.len(), q)
            .any(|s| self.read_shard(s).current.answer_metered(q, &meter))
    }

    /// Global ids (ascending) of all live rows matching `q`, read-locking
    /// only the relevant shards. Read-committed, like [`Self::answer`].
    pub fn matching_ids(&self, q: &SelectionQuery) -> Vec<usize> {
        let meter = Meter::new();
        let locals: Vec<(usize, Vec<usize>)> =
            relevant_shards_for(&self.shard_by, self.shards.len(), q)
                .map(|s| {
                    (
                        s,
                        self.read_shard(s).current.matching_ids_metered(q, &meter),
                    )
                })
                .collect();
        // Translation happens after the shard locks are released: the
        // local→global maps are append-only, and every local id seen
        // above was mapped before its row became visible.
        let ids = self.read_ids();
        let mut out: Vec<usize> = locals
            .into_iter()
            .flat_map(|(s, ls)| {
                let map = &ids.global_ids[s];
                ls.into_iter().map(|l| map[l]).collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable();
        out
    }

    // --- maintenance accounting -------------------------------------------

    /// The `|CHANGED|` accounting of every update applied since this
    /// relation was wrapped (or recovered): one
    /// [`UpdateRecord`] per insert/delete, in apply order.
    pub fn boundedness_report(&self) -> BoundednessReport {
        self.lock_maintenance().clone()
    }

    // --- checkpoint & recovery --------------------------------------------

    /// Updates applied since the last confirmed checkpoint, oldest
    /// first.
    pub fn pending_log(&self) -> UpdateLog {
        self.lock_log().log.clone()
    }

    /// Atomically export the current state as a [`ShardedRelation`]
    /// together with the **absolute** log position it covers (entries
    /// ever logged, including already-truncated ones) and the epoch of
    /// the cut.
    ///
    /// All shard locks are held (read) only while the shards are cloned,
    /// so the returned state is a true point-in-time snapshot — every
    /// update is either fully inside it or fully after the returned mark
    /// — but writers resume as soon as the copy exists; the O(n)
    /// reassembly validation runs on the private clone afterwards. The
    /// log is *not* truncated here — call [`Self::confirm_checkpoint`]
    /// with the mark once the snapshot is durably persisted, so a failed
    /// save never loses replayability. Holding every shard read lock
    /// excludes every writer's critical section, so the epoch read here
    /// is exactly the epoch of the exported state.
    pub fn freeze(&self) -> Frozen {
        let (schema, shard_by, shards, global_ids, locations, covered, epoch) = {
            let guards: Vec<OrderedRwLockReadGuard<'_, ShardSlot>> =
                self.shards.iter().map(read_lock).collect();
            let ids = self.read_ids();
            let epoch = self.lock_epochs().current;
            let log = self.lock_log();
            let covered = log.base + log.log.len();
            (
                self.schema.clone(),
                self.shard_by.clone(),
                guards.iter().map(|g| g.current.clone()).collect::<Vec<_>>(),
                ids.global_ids.clone(),
                ids.locations.clone(),
                covered,
                epoch,
            )
            // All guards drop here: writers proceed while we validate.
        };
        #[allow(clippy::expect_used)]
        let state = ShardedRelation::from_parts(schema, shard_by, shards, global_ids, locations)
            // lint:allow(no-unwrap-in-serving): the live maps uphold the sharded invariants
            .expect("live state upholds the sharded invariants");
        Frozen {
            state,
            covered,
            epoch: Epoch::new(epoch),
        }
    }

    /// Export the current state alone (a freeze whose log position the
    /// caller does not need).
    pub fn to_sharded(&self) -> ShardedRelation {
        self.freeze().state
    }

    /// Truncate every log entry at or before the absolute position
    /// `covered` once its snapshot has been durably persisted (the
    /// second half of a checkpoint; `covered` comes from
    /// [`Self::freeze`]). Positions are absolute, so two checkpoints
    /// confirming in any order each truncate only what their own
    /// snapshot covers — never a racing checkpoint's uncovered suffix.
    pub fn confirm_checkpoint(&self, covered: usize) {
        let mut state = self.lock_log();
        let drain = covered.saturating_sub(state.base).min(state.log.len());
        state.log.drain_prefix(drain);
        state.base += drain;
    }

    /// Replay a log onto this relation (typically fresh from a
    /// snapshot): re-applies every entry in order and verifies each
    /// insert reproduces the logged global id. On success the relation's
    /// state — answers *and* global row ids — equals the state the log
    /// was recorded from.
    pub fn replay(&self, log: &UpdateLog) -> Result<usize, EngineError> {
        self.replay_inner(log.entries(), false)
    }

    /// Replay a log produced by [`UpdateLog::compact`]: like
    /// [`Self::replay`], except that a *forward gap* in the global-id
    /// sequence — the ids of an insert+delete pair the compaction
    /// cancelled — is burned as permanent tombstones, so every surviving
    /// insert still lands on exactly its recorded gid. Burned ids are
    /// indistinguishable from deleted ones (both read back as `None`),
    /// which is what makes compacted and uncompacted replay produce the
    /// same answers and the same live global row ids.
    ///
    /// A *backward* id (an insert recording a gid this relation already
    /// assigned) is still rejected typed: compaction only ever removes
    /// entries, so it can explain missing ids, never reused ones.
    pub fn replay_compacted(&self, log: &UpdateLog) -> Result<usize, EngineError> {
        self.replay_inner(log.entries(), true)
    }

    /// Replay a bare entry slice with [`Self::replay_compacted`]
    /// semantics (forward gid gaps burn as tombstones, backward gids
    /// fail typed). This is the follower-replication apply path: a
    /// `pitract-repl` follower streams already-compacted WAL records
    /// from its primary — the stream may carry gid gaps wherever the
    /// primary's compactor cancelled an insert+delete pair — and
    /// re-applies them here, which is what keeps a replica's answers
    /// *and* global row ids bit-identical to the primary's prefix.
    pub fn replay_entries(&self, entries: &[UpdateEntry]) -> Result<usize, EngineError> {
        self.replay_inner(entries, true)
    }

    /// Advance the global-id allocator to `next_gid` without inserting:
    /// the skipped ids are burned as permanent tombstones (they read
    /// back as deleted). No-op if the allocator is already there.
    ///
    /// Recovery calls this with [`UpdateLog::next_gid_watermark`] after
    /// replaying a compacted log: a *trailing* insert+delete pair leaves
    /// no surviving entry to carry its ids, yet the crashed node had
    /// assigned them — burning keeps the recovered node's future id
    /// assignments bit-identical to the history the log records.
    pub fn burn_gids_to(&self, next_gid: usize) {
        let mut ids = self.write_ids();
        while ids.locations.len() < next_gid {
            ids.locations.push(None);
        }
    }

    fn replay_inner(&self, entries: &[UpdateEntry], burn_gaps: bool) -> Result<usize, EngineError> {
        for entry in entries {
            match entry {
                UpdateEntry::Insert { gid, row } => {
                    if burn_gaps {
                        let mut ids = self.write_ids();
                        while ids.locations.len() < *gid {
                            ids.locations.push(None);
                        }
                    }
                    let got = self.insert(row.clone())?;
                    if got != *gid {
                        return Err(EngineError::ReplayGidMismatch {
                            expected: *gid,
                            found: got,
                        });
                    }
                }
                UpdateEntry::Delete { gid } => {
                    self.delete(*gid)?
                        .ok_or(EngineError::ReplayMissingRow { gid: *gid })?;
                }
            }
        }
        Ok(entries.len())
    }
}

/// Serve a live relation from the [`crate::pool::PooledExecutor`]: one
/// epoch pin per batch, per-shard read locks, and the undo-ring
/// rollback wherever writes landed past the pin.
impl BatchServe for LiveRelation {
    fn route_shards(&self, queries: &[SelectionQuery]) -> Result<Routing, EngineError> {
        let routing = route_batch(
            queries,
            &self.schema,
            &self.indexed_cols,
            self.slot_count(),
            &self.shard_by,
            self.shards.len(),
        )?;
        // `engine_plans_total{path=…}` rises by one per routed query:
        // counted per path here, then one `add` per path.
        let mut per_path = [0u64; AccessPath::COUNT];
        for plan in &routing.plans {
            per_path[plan.path.index()] += 1;
        }
        for (counter, routed) in self.instruments.plans.iter().zip(per_path) {
            counter.add(routed);
        }
        Ok(routing)
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn pin_epoch(&self) -> Option<Epoch> {
        Some(self.register_pin())
    }

    fn unpin_epoch(&self, epoch: Epoch) {
        self.release_pin(epoch);
    }

    /// The current version under the shard's read lock, with the
    /// undo-ring rollback applied when writes landed past the pin. The
    /// rollback sets are built once per shard slice, not per query.
    fn eval_shard<M: OutputMode>(
        &self,
        shard: usize,
        at: Epoch,
        queries: &[SelectionQuery],
        assigned: &[usize],
    ) -> WorkerResults<M::Out> {
        let guard = self.read_shard(shard);
        match guard.rollback_at(at, &self.schema, &self.indexed_cols) {
            None => eval_assigned(queries, &guard.current, assigned, M::current),
            Some(rb) => {
                self.instruments.rollback_entries.record(rb.entries as u64);
                eval_assigned(queries, &guard.current, assigned, |sh, q, m| {
                    M::rolled_back(&rb, sh, q, m)
                })
            }
        }
    }

    /// Safe after the shard lock has been released: the per-shard
    /// local→global maps are append-only, and every local id a reader
    /// holds was mapped before its row became visible.
    fn id_map<T>(&self, shard: usize, read: impl FnOnce(&[usize]) -> T) -> T {
        read(&self.read_ids().global_ids[shard])
    }
}

fn read_lock(lock: &OrderedRwLock<ShardSlot>) -> OrderedRwLockReadGuard<'_, ShardSlot> {
    lock.read()
}

/// Publish the process-wide [`pitract_core::lockdep`] totals into
/// `recorder` as `lockdep_checks_total` / `lockdep_violations_total`.
/// The lockdep counters are global (every ordered lock in the process
/// feeds them), so the publish is monotonic (`raise_to`) — republishing
/// from several relations or pools never double-counts. In release
/// builds the checks are compiled out and both totals stay 0.
pub fn publish_lockdep(recorder: &Recorder) {
    let stats = pitract_core::lockdep::stats();
    recorder
        .counter("lockdep_checks_total")
        .raise_to(stats.checks);
    recorder
        .counter("lockdep_violations_total")
        .raise_to(stats.violations);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::QueryBatch;
    use crate::pool::PooledExecutor;
    use pitract_relation::ColType;

    fn schema() -> Schema {
        Schema::new(&[("id", ColType::Int), ("city", ColType::Str)])
    }

    fn relation(n: i64) -> Relation {
        let rows = (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("city{}", i % 10))])
            .collect();
        Relation::from_rows(schema(), rows).unwrap()
    }

    fn live(n: i64, shards: usize) -> LiveRelation {
        LiveRelation::build(&relation(n), ShardBy::Hash { col: 0 }, shards, &[0, 1]).unwrap()
    }

    #[test]
    fn serves_like_a_sharded_relation() {
        let rel = relation(200);
        let lr = live(200, 4);
        for q in [
            SelectionQuery::point(0, 123i64),
            SelectionQuery::point(0, 999i64),
            SelectionQuery::point(1, "city7"),
            SelectionQuery::range_closed(0, 40i64, 55i64),
            SelectionQuery::and(
                SelectionQuery::point(1, "city3"),
                SelectionQuery::range_closed(0, 100i64, 160i64),
            ),
        ] {
            assert_eq!(lr.answer(&q), rel.eval_scan(&q), "{q:?}");
        }
        assert_eq!(lr.len(), 200);
        assert_eq!(
            lr.matching_ids(&SelectionQuery::point(1, "city2"))[..2],
            [2, 12]
        );
    }

    #[test]
    fn updates_through_shared_reference() {
        let lr = live(20, 4);
        let gid = lr.insert(vec![Value::Int(100), Value::str("new")]).unwrap();
        assert_eq!(gid, 20);
        assert_eq!(lr.row(gid).unwrap()[1], Value::str("new"));
        assert!(lr.answer(&SelectionQuery::point(0, 100i64)));

        let removed = lr.delete(5).unwrap().expect("gid 5 live");
        assert_eq!(removed[0], Value::Int(5));
        assert!(lr.delete(5).unwrap().is_none(), "double delete is a no-op");
        assert!(!lr.answer(&SelectionQuery::point(0, 5i64)));
        assert_eq!(lr.len(), 20);
        assert!(lr.row(5).is_none());
        assert_eq!(lr.row(6).unwrap()[0], Value::Int(6));
    }

    #[test]
    fn batches_execute_under_read_locks() {
        let rel = relation(300);
        let exec = PooledExecutor::with_default_pool(Arc::new(live(300, 4)));
        let batch = QueryBatch::new((0..40i64).map(|k| match k % 2 {
            0 => SelectionQuery::point(0, k * 9),
            _ => SelectionQuery::range_closed(0, k * 5, k * 5 + 12),
        }));
        let got = exec.execute(&batch).unwrap();
        for (q, &ans) in batch.queries().iter().zip(&got.answers) {
            assert_eq!(ans, rel.eval_scan(q), "{q:?}");
        }
        assert!(got.report.total_steps > 0);
        let rows = exec.execute_rows(&batch).unwrap();
        for (q, ids) in batch.queries().iter().zip(&rows.rows) {
            assert_eq!(ids.len(), rel.count_where(q), "{q:?}");
        }
    }

    #[test]
    fn update_log_records_in_gid_order() {
        let lr = live(4, 2);
        let g1 = lr.insert(vec![Value::Int(50), Value::str("a")]).unwrap();
        lr.delete(0).unwrap().unwrap();
        let g2 = lr.insert(vec![Value::Int(51), Value::str("b")]).unwrap();
        let log = lr.pending_log();
        assert_eq!(log.len(), 3);
        assert!(matches!(log.entries()[0], UpdateEntry::Insert { gid, .. } if gid == g1));
        assert!(matches!(log.entries()[1], UpdateEntry::Delete { gid } if gid == 0));
        assert!(matches!(log.entries()[2], UpdateEntry::Insert { gid, .. } if gid == g2));
    }

    #[test]
    fn freeze_replay_reproduces_state_and_ids() {
        let lr = live(50, 3);
        lr.delete(7).unwrap();
        lr.insert(vec![Value::Int(500), Value::str("mid")]).unwrap();

        // Checkpoint: freeze the state, confirm, then keep writing.
        let frozen = lr.freeze();
        assert_eq!(
            frozen.epoch,
            Epoch::new(frozen.covered as u64),
            "epoch ≡ absolute log position from birth"
        );
        let (state, covered) = (frozen.state, frozen.covered);
        lr.confirm_checkpoint(covered);
        lr.insert(vec![Value::Int(501), Value::str("late")])
            .unwrap();
        lr.delete(3).unwrap();

        // Recover: wrap the frozen state, replay the pending suffix.
        let recovered = LiveRelation::from_sharded(state);
        recovered.replay(&lr.pending_log()).unwrap();

        assert_eq!(recovered.len(), lr.len());
        for gid in 0..53 {
            assert_eq!(recovered.row(gid), lr.row(gid), "gid {gid}");
        }
        for q in [
            SelectionQuery::point(0, 500i64),
            SelectionQuery::point(0, 501i64),
            SelectionQuery::point(0, 3i64),
            SelectionQuery::range_closed(0, 0i64, 600i64),
        ] {
            assert_eq!(recovered.matching_ids(&q), lr.matching_ids(&q), "{q:?}");
        }
    }

    /// Regression: `confirm_checkpoint` used to truncate by *count*, so
    /// two checkpoints racing on the same state would each drain one
    /// prefix — the second one swallowing entries its snapshot never
    /// covered. Marks are absolute log positions now: confirming the
    /// same mark twice is idempotent and never touches newer entries.
    #[test]
    fn racing_checkpoint_confirms_never_drop_uncovered_entries() {
        let lr = live(4, 2);
        lr.insert(vec![Value::Int(50), Value::str("a")]).unwrap();
        lr.insert(vec![Value::Int(51), Value::str("b")]).unwrap();
        // Two concurrent checkpoints freeze the same state.
        let (m1, m2) = (lr.freeze().covered, lr.freeze().covered);
        assert_eq!(m1, m2, "same state, same absolute mark");
        // A post-freeze update covered by neither snapshot.
        lr.insert(vec![Value::Int(52), Value::str("c")]).unwrap();
        lr.confirm_checkpoint(m1);
        lr.confirm_checkpoint(m2); // second confirm must be a no-op
        assert_eq!(
            lr.pending_log().len(),
            1,
            "the uncovered entry survives both confirms"
        );
        assert!(matches!(
            lr.pending_log().entries()[0],
            UpdateEntry::Insert { gid: 6, .. }
        ));
    }

    #[test]
    fn replay_rejects_histories_that_do_not_match() {
        let lr = live(10, 2);
        // A log recorded against a different state: gid 99 was never live.
        let log = UpdateLog::from_entries(vec![UpdateEntry::Delete { gid: 99 }]);
        assert_eq!(
            lr.replay(&log).unwrap_err(),
            EngineError::ReplayMissingRow { gid: 99 }
        );
        // An insert logged under a gid the replay cannot reproduce.
        let log = UpdateLog::from_entries(vec![UpdateEntry::Insert {
            gid: 77,
            row: vec![Value::Int(1), Value::str("x")],
        }]);
        assert_eq!(
            lr.replay(&log).unwrap_err(),
            EngineError::ReplayGidMismatch {
                expected: 77,
                found: 10
            }
        );
    }

    #[test]
    fn maintenance_is_changed_bounded_up_to_the_descent() {
        let lr = live(0, 2);
        for i in 0..200i64 {
            lr.insert(vec![Value::Int(i), Value::str("x")]).unwrap();
        }
        for gid in (0..200).step_by(2) {
            lr.delete(gid).unwrap().unwrap();
        }
        let report = lr.boundedness_report();
        assert_eq!(report.len(), 300, "one record per applied update");
        assert_eq!(report.total_changed(), 300 * 4, "|ΔD|=1, |ΔO|=3 each");
        // Bounded by |CHANGED| times the B⁺-tree descent factor.
        let c = f64::from(log2_floor(200).max(1));
        assert!(
            report.is_per_update_bounded(c),
            "worst {}",
            report.worst_ratio()
        );
        // And decidedly not free: the work is real.
        assert!(report.total_work() > 0);
    }

    #[test]
    fn invalid_rows_are_rejected_typed() {
        let lr = live(5, 2);
        let err = lr.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(
            matches!(err, EngineError::Indexed(IndexedError::RowRejected(_))),
            "{err}"
        );
        assert_eq!(lr.len(), 5, "nothing was applied");
        assert!(lr.pending_log().is_empty(), "nothing was logged");
    }

    #[test]
    fn concurrent_inserts_assign_unique_gids() {
        let lr = live(0, 4);
        let gids: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let lr = &lr;
                    scope.spawn(move || {
                        (0..50i64)
                            .map(|i| {
                                lr.insert(vec![
                                    Value::Int(t * 1000 + i),
                                    Value::str(format!("w{t}")),
                                ])
                                .unwrap()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut sorted = gids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 200, "no gid assigned twice");
        assert_eq!(lr.len(), 200);
        // The log replays to the same state.
        let fresh =
            LiveRelation::build(&relation(0), ShardBy::Hash { col: 0 }, 4, &[0, 1]).unwrap();
        fresh.replay(&lr.pending_log()).unwrap();
        assert_eq!(fresh.len(), 200);
        for gid in 0..200 {
            assert_eq!(fresh.row(gid), lr.row(gid), "gid {gid}");
        }
    }

    #[test]
    fn compact_cancels_pairs_and_keeps_survivor_order() {
        let lr = live(3, 2);
        let a = lr.insert(vec![Value::Int(100), Value::str("a")]).unwrap();
        let b = lr.insert(vec![Value::Int(101), Value::str("b")]).unwrap();
        lr.delete(0).unwrap().unwrap(); // pre-log row: delete must survive
        lr.delete(a).unwrap().unwrap(); // cancels with a's insert
        let c = lr.insert(vec![Value::Int(102), Value::str("c")]).unwrap();
        let compacted = lr.pending_log().compact();
        assert_eq!(
            compacted.entries(),
            &[
                UpdateEntry::Insert {
                    gid: b,
                    row: vec![Value::Int(101), Value::str("b")]
                },
                UpdateEntry::Delete { gid: 0 },
                UpdateEntry::Insert {
                    gid: c,
                    row: vec![Value::Int(102), Value::str("c")]
                },
            ],
            "pair (insert {a}, delete {a}) cancelled, survivors in order"
        );
        // A fully cancelling history compacts to the single
        // watermark-bearing pair: the highest-gid pair survives so a
        // recovery still advances the id allocator to where the history
        // left it (19 insert+delete pairs vanish; one stays).
        let lr = live(0, 2);
        for i in 0..20i64 {
            let gid = lr.insert(vec![Value::Int(i), Value::str("x")]).unwrap();
            lr.delete(gid).unwrap().unwrap();
        }
        assert_eq!(lr.pending_log().len(), 40);
        let compacted = lr.pending_log().compact();
        assert_eq!(
            compacted.entries(),
            &[
                UpdateEntry::Insert {
                    gid: 19,
                    row: vec![Value::Int(19), Value::str("x")]
                },
                UpdateEntry::Delete { gid: 19 },
            ],
            "only the watermark pair survives total churn"
        );
        assert_eq!(compacted.next_gid_watermark(), Some(20));
        // Replaying the compacted log reproduces the allocator exactly:
        // the next insert gets the same gid the original node would give.
        let replayed = live(0, 2);
        replayed.replay_compacted(&compacted).unwrap();
        assert_eq!(
            replayed
                .insert(vec![Value::Int(9), Value::str("y")])
                .unwrap(),
            lr.insert(vec![Value::Int(9), Value::str("y")]).unwrap(),
            "future gid assignment is preserved through compaction"
        );
    }

    #[test]
    fn compacted_replay_matches_uncompacted_on_answers_and_gids() {
        // A churny history with pairs scattered through it.
        let lr = live(10, 3);
        let mut hot = Vec::new();
        for i in 0..30i64 {
            let gid = lr
                .insert(vec![Value::Int(500 + i), Value::str("hot")])
                .unwrap();
            if i % 3 != 0 {
                hot.push(gid);
            }
        }
        for gid in [10, 13, 16, 19, 22, 25] {
            if !hot.contains(&gid) {
                lr.delete(gid).unwrap();
            }
        }
        lr.delete(4).unwrap().unwrap(); // pre-log delete survives compaction
        let log = lr.pending_log();
        let compacted = log.compact();
        assert!(compacted.len() < log.len(), "something was cancelled");

        let plain = live(10, 3);
        plain.replay(&log).unwrap();
        let short = live(10, 3);
        short.replay_compacted(&compacted).unwrap();

        assert_eq!(plain.len(), short.len());
        for gid in 0..45 {
            assert_eq!(plain.row(gid), short.row(gid), "gid {gid}");
        }
        for q in [
            SelectionQuery::range_closed(0, 0i64, 600i64),
            SelectionQuery::point(1, "hot"),
            SelectionQuery::point(0, 4i64),
        ] {
            assert_eq!(plain.matching_ids(&q), short.matching_ids(&q), "{q:?}");
        }
        // Replay work was bounded by the net change, not the history.
        assert_eq!(short.boundedness_report().len(), compacted.len());
    }

    #[test]
    fn strict_replay_still_rejects_gid_gaps() {
        let lr = live(5, 2);
        let log = UpdateLog::from_entries(vec![UpdateEntry::Insert {
            gid: 9,
            row: vec![Value::Int(1), Value::str("x")],
        }]);
        assert_eq!(
            lr.replay(&log).unwrap_err(),
            EngineError::ReplayGidMismatch {
                expected: 9,
                found: 5
            }
        );
        // The tolerant twin burns the gap instead…
        let lr = live(5, 2);
        lr.replay_compacted(&log).unwrap();
        assert_eq!(lr.row(9).unwrap()[0], Value::Int(1));
        assert!(lr.row(7).is_none(), "burned ids read as deleted");
        // …but still rejects an id that runs backwards.
        let lr = live(5, 2);
        let log = UpdateLog::from_entries(vec![UpdateEntry::Insert {
            gid: 2,
            row: vec![Value::Int(1), Value::str("x")],
        }]);
        assert_eq!(
            lr.replay_compacted(&log).unwrap_err(),
            EngineError::ReplayGidMismatch {
                expected: 2,
                found: 5
            }
        );
    }

    /// A sink that records the staged stream, for asserting the hook's
    /// ordering contract without any real I/O.
    #[derive(Debug, Default)]
    struct RecordingSink {
        staged: Mutex<Vec<UpdateEntry>>,
        committed: Mutex<Vec<u64>>,
        fail_stage: std::sync::atomic::AtomicBool,
    }

    impl WalSink for RecordingSink {
        fn stage(&self, entry: &UpdateEntry) -> Result<u64, EngineError> {
            if self.fail_stage.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(EngineError::WalSink {
                    message: "disk full".into(),
                });
            }
            let mut staged = self.staged.lock().unwrap();
            staged.push(entry.clone());
            Ok(staged.len() as u64 - 1)
        }

        fn commit(&self, ticket: u64) -> Result<(), EngineError> {
            self.committed.lock().unwrap().push(ticket);
            Ok(())
        }
    }

    #[test]
    fn wal_sink_stages_in_gid_order_even_under_racing_writers() {
        let sink = Arc::new(RecordingSink::default());
        let mut lr = live(0, 4);
        lr.set_wal_sink(Some(sink.clone() as Arc<dyn WalSink>));
        assert!(lr.has_wal_sink());
        std::thread::scope(|scope| {
            for t in 0..4i64 {
                let lr = &lr;
                scope.spawn(move || {
                    for i in 0..40i64 {
                        let gid = lr
                            .insert(vec![Value::Int(t * 1000 + i), Value::str("w")])
                            .unwrap();
                        if i % 2 == 0 {
                            lr.delete(gid).unwrap().unwrap();
                        }
                    }
                });
            }
        });
        // The staged stream is exactly the update log: same entries, same
        // order — the invariant a durable WAL replays by.
        let staged = sink.staged.lock().unwrap();
        assert_eq!(staged.as_slice(), lr.pending_log().entries());
        assert_eq!(
            sink.committed.lock().unwrap().len(),
            staged.len(),
            "every staged record was committed"
        );
    }

    #[test]
    fn apply_batch_matches_singleton_ops_and_commits_once() {
        let sink = Arc::new(RecordingSink::default());
        let mut lr = live(10, 3);
        lr.set_wal_sink(Some(sink.clone() as Arc<dyn WalSink>));
        let applied = lr
            .apply_batch([
                UpdateOp::Insert(vec![Value::Int(500), Value::str("a")]),
                UpdateOp::Insert(vec![Value::Int(501), Value::str("b")]),
                UpdateOp::Delete(3),
                UpdateOp::Delete(999), // unknown gid: a no-op, not an error
                UpdateOp::Delete(10),  // the row the first op inserted
            ])
            .unwrap();
        assert_eq!(applied.len(), 5);
        assert_eq!(applied[0], Applied::Inserted(10));
        assert_eq!(applied[1], Applied::Inserted(11));
        assert!(matches!(&applied[2], Applied::Deleted(Some(row)) if row[0] == Value::Int(3)));
        assert_eq!(applied[3], Applied::Deleted(None));
        assert!(matches!(&applied[4], Applied::Deleted(Some(row)) if row[0] == Value::Int(500)));
        // Same state as the singleton APIs would leave.
        assert_eq!(lr.len(), 10);
        assert!(lr.answer(&SelectionQuery::point(0, 501i64)));
        assert!(!lr.answer(&SelectionQuery::point(0, 3i64)));
        // The no-op delete staged nothing; the four real ops staged in
        // op order and were covered by exactly ONE commit — the whole
        // point of the batch API.
        assert_eq!(sink.staged.lock().unwrap().len(), 4);
        assert_eq!(
            sink.committed.lock().unwrap().as_slice(),
            &[3],
            "one commit, of the last staged ticket"
        );
        // The log replays to the same state (batching changes commit
        // cadence, never history).
        let fresh = live(10, 3);
        fresh.replay(&lr.pending_log()).unwrap();
        for gid in 0..12 {
            assert_eq!(fresh.row(gid), lr.row(gid), "gid {gid}");
        }
    }

    #[test]
    fn apply_batch_failure_keeps_and_commits_the_prefix() {
        let sink = Arc::new(RecordingSink::default());
        let mut lr = live(5, 2);
        lr.set_wal_sink(Some(sink.clone() as Arc<dyn WalSink>));
        let err = lr
            .apply_batch([
                UpdateOp::Insert(vec![Value::Int(100), Value::str("ok")]),
                UpdateOp::Insert(vec![Value::Int(1)]), // wrong arity: rejected
                UpdateOp::Insert(vec![Value::Int(101), Value::str("never")]),
            ])
            .unwrap_err();
        assert!(matches!(err, EngineError::Indexed(_)), "{err}");
        assert_eq!(lr.len(), 6, "the prefix op stays applied");
        assert!(lr.answer(&SelectionQuery::point(0, 100i64)));
        assert!(
            !lr.answer(&SelectionQuery::point(0, 101i64)),
            "suffix never ran"
        );
        assert_eq!(
            sink.committed.lock().unwrap().as_slice(),
            &[0],
            "the applied prefix was committed durable before the error"
        );
    }

    #[test]
    fn failed_stage_applies_and_logs_nothing() {
        let sink = Arc::new(RecordingSink::default());
        let mut lr = live(3, 2);
        lr.set_wal_sink(Some(sink.clone() as Arc<dyn WalSink>));
        sink.fail_stage
            .store(true, std::sync::atomic::Ordering::Relaxed);
        let err = lr.insert(vec![Value::Int(9), Value::str("x")]).unwrap_err();
        assert!(matches!(err, EngineError::WalSink { .. }), "{err}");
        let err = lr.delete(0).unwrap_err();
        assert!(matches!(err, EngineError::WalSink { .. }), "{err}");
        assert_eq!(lr.len(), 3, "nothing applied");
        assert!(lr.pending_log().is_empty(), "nothing logged");
        assert_eq!(lr.row(0).unwrap()[0], Value::Int(0), "row 0 still live");
        assert!(sink.committed.lock().unwrap().is_empty());
        // A failed stage also never ticked the epoch clock: epoch must
        // keep naming exactly the applied-update count.
        assert_eq!(lr.current_epoch(), Epoch::ZERO);
    }

    // --- MVCC epoch pinning -------------------------------------------------

    #[test]
    fn epoch_clock_ticks_once_per_applied_update() {
        let lr = live(10, 3);
        assert_eq!(lr.current_epoch(), Epoch::ZERO, "birth epoch");
        let gid = lr.insert(vec![Value::Int(100), Value::str("a")]).unwrap();
        assert_eq!(lr.current_epoch(), Epoch::new(1));
        lr.delete(gid).unwrap().unwrap();
        assert_eq!(lr.current_epoch(), Epoch::new(2));
        lr.delete(gid).unwrap(); // no-op delete: no tick
        assert_eq!(lr.current_epoch(), Epoch::new(2));
        assert_eq!(
            lr.current_epoch().get(),
            lr.pending_log().len() as u64,
            "epoch ≡ absolute log position"
        );
    }

    #[test]
    fn pinned_reads_see_the_pinned_instance_despite_writes() {
        let lr = live(50, 4);
        let pin = lr.pin();
        let at = pin.epoch();
        // Writes land on every shard after the pin.
        for i in 0..40i64 {
            lr.insert(vec![Value::Int(1000 + i), Value::str("post")])
                .unwrap();
        }
        for gid in [0, 1, 2, 3] {
            lr.delete(gid).unwrap().unwrap();
        }
        // Resolved at the pin, none of that is visible.
        let q_new = SelectionQuery::range_closed(0, 1000i64, 2000i64);
        let q_old = SelectionQuery::range_closed(0, 0i64, 3i64);
        for s in 0..lr.shard_count() {
            let hits = lr.eval_bool(s, at, std::slice::from_ref(&q_new), &[0]);
            assert!(!hits[0].1, "shard {s}: post-pin insert invisible at pin");
            let olds = lr.eval_rows(s, at, std::slice::from_ref(&q_old), &[0]);
            // Deleted rows are still present at the pinned epoch.
            let globals = lr.global_ids(s, &olds[0].1);
            for g in globals {
                assert!(g <= 3, "only the original rows");
            }
        }
        // The current epoch sees everything.
        assert!(lr.answer(&q_new));
        assert!(!lr.answer(&SelectionQuery::point(0, 0i64)));
        drop(pin);
    }

    #[test]
    fn undo_records_are_retained_per_pin_and_reclaimed_on_release() {
        let lr = live(40, 2);
        assert_eq!(lr.version_stats().retained_versions, 0);
        let pin = lr.pin();
        let gid = lr.insert(vec![Value::Int(100), Value::str("a")]).unwrap();
        lr.insert(vec![Value::Int(100), Value::str("b")]).unwrap();
        let stats = lr.version_stats();
        assert_eq!(
            stats.retained_versions, 2,
            "one undo record per pinned-over write"
        );
        assert_eq!(stats.retained_slots, 0, "insert undos copy no rows");
        assert_eq!(stats.pins, 1);
        assert_eq!(stats.watermark, pin.epoch());
        // A delete's undo is the one row-granular copy MVCC keeps.
        lr.delete(gid).unwrap().unwrap();
        let stats = lr.version_stats();
        assert_eq!(stats.retained_versions, 3);
        assert_eq!(
            stats.retained_slots, 1,
            "the delete undo keeps its dead row alive"
        );
        // The |CHANGED| accounting recorded every retention.
        assert_eq!(lr.version_report().len(), stats.retained_versions);
        drop(pin);
        let stats = lr.version_stats();
        assert_eq!(stats.retained_versions, 0, "released pin reclaims");
        assert_eq!(stats.retained_slots, 0);
        assert_eq!(stats.pins, 0);
        assert_eq!(stats.watermark, stats.current_epoch);
    }

    #[test]
    fn undo_records_are_o1_per_write_never_shard_clones() {
        let lr = live(0, 1);
        for i in 0..10i64 {
            lr.insert(vec![Value::Int(i), Value::str("x")]).unwrap();
        }
        assert_eq!(
            lr.version_stats().retained_versions,
            0,
            "no pins: writes retain nothing"
        );
        let pin = lr.pin();
        for i in 0..50i64 {
            lr.insert(vec![Value::Int(100 + i), Value::str("y")])
                .unwrap();
        }
        let stats = lr.version_stats();
        assert_eq!(
            stats.retained_versions, 50,
            "one O(1) undo record per pinned-over write"
        );
        assert_eq!(stats.retained_slots, 0, "no shard was ever cloned");
        let report = lr.version_report();
        assert_eq!(report.len(), 50);
        assert!(
            report.records().iter().all(|r| r.work == 1),
            "retention work is constant per write, independent of shard size"
        );
        drop(pin);
    }

    #[test]
    fn a_racing_batch_counts_exactly_the_pinned_prefix() {
        // Deterministic interleave: pin, write, then evaluate at the pin
        // shard by shard, holding our own pin via the executor-internal
        // surface.
        let lr = Arc::new(live(100, 4));
        let e = lr.register_pin();
        for i in 0..77i64 {
            lr.insert(vec![Value::Int(10_000 + i), Value::str("w")])
                .unwrap();
        }
        // A COUNT over everything, evaluated shard by shard at the pin.
        let q = SelectionQuery::range_closed(0, 0i64, 100_000i64);
        let mut count = 0;
        for s in 0..lr.shard_count() {
            count += lr.eval_rows(s, e, std::slice::from_ref(&q), &[0])[0]
                .1
                .len();
        }
        assert_eq!(count, 100, "the cut at the pin sees none of the 77 writes");
        lr.release_pin(e);
        assert_eq!(lr.version_stats().retained_versions, 0);
        // And a fresh pinned batch sees all of them.
        let batch = QueryBatch::new([q]);
        let got = PooledExecutor::with_default_pool(lr)
            .execute_rows(&batch)
            .unwrap();
        assert_eq!(got.rows[0].len(), 177);
        assert_eq!(got.report.epoch, Some(Epoch::new(77)));
    }

    #[test]
    fn advance_epoch_to_resumes_the_clock_monotonically() {
        let lr = live(5, 2);
        lr.advance_epoch_to(Epoch::new(40));
        assert_eq!(lr.current_epoch(), Epoch::new(40));
        lr.advance_epoch_to(Epoch::new(10)); // never backwards
        assert_eq!(lr.current_epoch(), Epoch::new(40));
        lr.insert(vec![Value::Int(9), Value::str("x")]).unwrap();
        assert_eq!(lr.current_epoch(), Epoch::new(41));
    }

    #[test]
    fn writers_are_never_blocked_by_a_reader_on_a_retired_version() {
        // A pin held across many writes must not make writers wait on
        // the pinned reader: a writer pays one O(1) ring append per
        // update, never a shard copy, no matter how far the reader's
        // pin trails. Exercise the full public path under real
        // concurrency and assert progress.
        let lr = Arc::new(live(100, 2));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            let reader = PooledExecutor::with_default_pool(Arc::clone(&lr));
            let reader_stop = Arc::clone(&stop);
            scope.spawn(move || {
                let batch = QueryBatch::new([SelectionQuery::range_closed(0, 0i64, 1_000_000i64)]);
                while !reader_stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let got = reader.execute_rows(&batch).unwrap();
                    let at = got.report.epoch.unwrap().get() as usize;
                    assert_eq!(
                        got.rows[0].len(),
                        100 + at,
                        "every batch equals the oracle at its own pinned epoch"
                    );
                }
            });
            for i in 0..300i64 {
                lr.insert(vec![Value::Int(10_000 + i), Value::str("w")])
                    .unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(lr.len(), 400);
        assert_eq!(lr.current_epoch(), Epoch::new(300));
        assert_eq!(
            lr.version_stats().retained_versions,
            0,
            "no pins left, nothing retained"
        );
    }
}
