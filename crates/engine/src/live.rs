//! Concurrent live serving: queries answered *while* updates land.
//!
//! [`crate::shard::ShardedRelation`] is the immutable `Π(D)` a build or
//! a snapshot load produces. [`LiveRelation`] takes it over
//! ([`LiveRelation::from_sharded`]) and is the one relation that serves
//! batches and takes updates, without stalling readers for writers:
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
//! * **Global ids behind their own lock.** The [`IdMap`] (local →
//!   global per shard, searched to find a global id's location) lives
//!   in a separate `OrderedRwLock`, acquired after the shard lock (one
//!   fixed order — checked at runtime by [`pitract_core::lockdep`] in
//!   debug builds — so the layer cannot deadlock). Per-shard
//!   local→global maps are append-only, which lets readers translate
//!   row ids *after* releasing the shard lock.
//! * **`|CHANGED|`-bounded maintenance accounting.** Every applied update
//!   folds a [`pitract_incremental::bounded::UpdateRecord`] reporting
//!   `(|ΔD|, |ΔO|, work)` into a [`BoundednessReport`] of running sums —
//!   Section 4(7)'s contract that maintenance is charged against the
//!   change, not `|D|` (up to the B⁺-tree's O(log n) descent, which the
//!   record reports honestly). The report is available from the serving
//!   node at any time and does not grow with the update count.
//! * **Checkpoint + replay, with the WAL as the one log.** Nothing
//!   per-update stays in memory: the update stream goes to the installed
//!   [`WalSink`] and nowhere else. A checkpoint is a pinned read
//!   ([`LiveRelation::pin_read`]): it pins epoch `e` the way a batch
//!   does — registered under the id-map read lock, so the next global id
//!   at `e` comes with it — and is lent the relation at `e` one part at
//!   a time. Each shard's rows come under that shard's read lock alone:
//!   slots inserted after `e` cut off, slots deleted after `e` live
//!   again (their cells stay in place; the pin keeps their undo
//!   records). The id map comes last, under its own read lock alone,
//!   with ids past `e` cut off. It holds no two locks at once and keeps
//!   nothing across its reads: no shard, tree, id map or bitmap is
//!   copied (a shard written since `e` lends its bitmap at `e`, rebuilt
//!   for that shard's read alone).
//!   Epoch `e` names exactly the updates the read covers; replaying the
//!   logged suffix onto the loaded snapshot
//!   ([`LiveRelation::replay_entries`]) reproduces the live state
//!   bit-identically — same answers *and* same global row ids.
//!
//! Consistency model: **epoch-pinned snapshot reads (MVCC)**. A global
//! [`Epoch`] clock ticks once per applied update, inside the same
//! critical section that orders the WAL — so epoch `E` names
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
//! (the `retention` totals of [`BatchServe::status`]). Single queries
//! ([`LiveRelation::answer`]) stay read-committed: they touch one state
//! per shard and need no cut.

use crate::batch::{eval_assigned, OutputMode, Routing, ShardResults};
use crate::error::EngineError;
use crate::idmap::{IdMap, IdMapView};
use crate::planner::{AccessPath, Planner};
use crate::pool::BatchServe;
use crate::shard::{relevant_shards_for, route_shard, ShardBy, ShardedRelation};
use crate::status::NodeStatus;
use pitract_core::cost::{log2_floor, Meter};
use pitract_core::epoch::Epoch;
use pitract_core::lockdep::{self, LockRank, OrderedMutex, OrderedRwLock, OrderedRwLockReadGuard};
use pitract_incremental::bounded::{BoundednessReport, UpdateRecord};
use pitract_obs::{Counter, Histogram, Recorder};
use pitract_relation::indexed::IndexedRelation;
use pitract_relation::{
    ColumnsView, IndexedError, Relation, RowRef, Schema, SelectionQuery, Value,
};
use std::collections::{BTreeMap, VecDeque};
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
///    persisted log replayable ([`LiveRelation::replay_entries`] verifies
///    every insert reproduces its logged id). A failed stage aborts the update
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

    /// What the writes stamped after `at` did, or `None` when none
    /// landed past it (the common case: `current` serves `at` as-is).
    /// Walks only the ring suffix stamped after `at`; a local both
    /// inserted and deleted there was not alive at `at`, so its restore
    /// is dropped.
    fn since(&self, at: Epoch) -> Option<Since<'_>> {
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
        Some(Since {
            hidden_from,
            restored,
            entries,
        })
    }

    /// The correction a reader at epoch `at` applies on top of
    /// `current`, or `None` when `current` serves `at` as-is. The
    /// restored rows are re-indexed on the same columns as the shard, so
    /// the per-query correction probes stay logarithmic no matter how
    /// much churn landed during the batch — the build is paid once per
    /// shard slice, not once per query.
    fn rollback_at(&self, at: Epoch, schema: &Schema, indexed_cols: &[usize]) -> Option<Rollback> {
        let since = self.since(at)?;
        let restored_locals: Vec<usize> = since.restored.iter().map(|(local, _)| *local).collect();
        let rows: Vec<Vec<Value>> = since
            .restored
            .iter()
            .map(|(_, row)| (*row).clone())
            .collect();
        #[allow(clippy::expect_used)]
        let restored = IndexedRelation::build_from_rows(schema.clone(), rows, indexed_cols)
            // lint:allow(no-unwrap-in-serving): restored rows came out of this relation, built on these columns
            .expect("rows and indexed columns were validated when the relation was built");
        Some(Rollback {
            hidden_from: since.hidden_from,
            restored,
            restored_locals,
            entries: since.entries,
        })
    }

    /// The shard's rows as they stood at epoch `at`, borrowed: the slots
    /// inserted after `at` cut off and the ones deleted after it live
    /// again. A delete leaves its cells in place, so nothing but the
    /// live bitmap is copied, and that only when a write landed past
    /// `at`.
    fn rows_at(&self, at: Epoch) -> ColumnsView<'_> {
        let rows = self.current.columns();
        match self.since(at) {
            None => rows.view(),
            Some(since) => {
                let revived: Vec<usize> = since.restored.iter().map(|(local, _)| *local).collect();
                rows.view_at(since.hidden_from, &revived)
            }
        }
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

    /// Append the locals matching `q` at the pinned epoch to `out`,
    /// ascending.
    pub(crate) fn matching_ids_into(
        &self,
        shard: &IndexedRelation,
        q: &SelectionQuery,
        meter: &Meter,
        out: &mut Vec<usize>,
    ) {
        let start = out.len();
        shard.matching_ids_into(q, meter, out);
        // The current matches are ascending, and every row inserted
        // past the pin sits at or above the horizon: they are a suffix.
        let visible = out[start..].partition_point(|&local| local < self.hidden_from);
        out.truncate(start + visible);
        let restored = out.len();
        self.restored.matching_ids_into(q, meter, out);
        if out.len() > restored {
            for id in &mut out[restored..] {
                *id = self.restored_locals[*id];
            }
            out[start..].sort_unstable();
        }
    }
}

/// The writes a shard's ring holds past one epoch ([`ShardSlot::since`]).
struct Since<'a> {
    /// First shard-local id inserted after the epoch (`usize::MAX` when
    /// none was).
    hidden_from: usize,
    /// The locals deleted after the epoch that were alive at it, with
    /// the rows their undo records copied.
    restored: Vec<(usize, &'a Vec<Value>)>,
    /// Undo-ring entries walked.
    entries: usize,
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
        self.live.unpin_epoch(self.epoch);
    }
}

/// A pinned read of a whole [`LiveRelation`], for a checkpoint
/// ([`LiveRelation::pin_read`]): one epoch pinned the way a batch pins
/// it, and the relation as it stood at that epoch lent one part at a
/// time — each shard's rows under that shard's read lock alone
/// ([`Self::read_shard`]), then the id map under its own read lock
/// ([`Self::read_ids`]). Nothing is copied: only a shard written since
/// the pin has its bitmap at the pin rebuilt, for its own read, and
/// freed after it. Writers keep going on every shard not being read;
/// the pin makes them record undo entries, which is what lets the rows
/// of a shard read late come out as they stood at the pin. Dropping
/// the read releases the pin.
#[derive(Debug)]
pub struct PinnedRead<'a> {
    pin: EpochPin<'a>,
    /// The next global id at the pin.
    next_gid: usize,
}

impl<'a> PinnedRead<'a> {
    /// The pinned epoch: the read covers exactly the first `epoch`
    /// updates, the position a WAL-backed checkpoint records as its mark.
    pub fn epoch(&self) -> Epoch {
        self.pin.epoch
    }

    /// The relation being read.
    pub fn relation(&self) -> &'a LiveRelation {
        self.pin.live
    }

    /// Lend shard `shard`'s rows as they stood at the pinned epoch to
    /// `read`, under that shard's read lock alone: the slots inserted
    /// since are cut off and the ones deleted since are live again (a
    /// delete leaves its cells in place). Only this shard's writers wait,
    /// and only while `read` runs. Panics when `shard` is out of range,
    /// like indexing.
    pub fn read_shard<T>(&mut self, shard: usize, read: impl FnOnce(&ColumnsView<'_>) -> T) -> T {
        let guard = self.pin.live.shards[shard].read();
        debug_assert_eq!(
            lockdep::held_of(LockRank::Shard),
            1,
            "a pinned read holds one shard lock at a time"
        );
        read(&guard.rows_at(self.pin.epoch))
    }

    /// Lend the id map as it stood at the pinned epoch to `read`, under
    /// the id-map read lock alone: the ids assigned since cut off. The
    /// ids deleted since keep their entries, as every deleted id does;
    /// which are live is each shard's bitmap, lent by
    /// [`Self::read_shard`].
    pub fn read_ids<T>(&self, read: impl FnOnce(&IdMapView<'_>) -> T) -> T {
        let ids = self.pin.live.ids.read();
        debug_assert_eq!(
            lockdep::held_of(LockRank::Shard),
            0,
            "the id map is read with no shard lock held"
        );
        read(&ids.view_at(self.next_gid))
    }
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

/// A concurrently servable, incrementally maintained, checkpointable
/// relation — the live tier over [`ShardedRelation`]. See the module
/// docs for the locking design.
#[derive(Debug)]
pub struct LiveRelation {
    schema: Schema,
    shard_by: ShardBy,
    indexed_cols: Vec<usize>,
    shards: Vec<OrderedRwLock<ShardSlot>>,
    ids: OrderedRwLock<IdMap>,
    /// The epoch clock and pinned-epoch registry. Writers bump it inside
    /// the gid critical section (one tick per applied update), readers
    /// pin under the same mutex — acquired after `ids` in the fixed lock
    /// order.
    epochs: OrderedMutex<EpochState>,
    /// Retained undo records across all shard rings — a cheap gate so
    /// releasing a pin only sweeps the rings when something is actually
    /// retained.
    retained: AtomicUsize,
    /// Running sums over one record per applied update.
    maintenance: Mutex<BoundednessReport>,
    /// Running sums over one record per retained undo record, charged in the same
    /// `|CHANGED|` currency as update maintenance — kept apart from it
    /// because retention depends on reader timing, not on the history.
    version_maintenance: Mutex<BoundednessReport>,
    /// Optional durable write-ahead sink; staged inside the gid critical
    /// section so sink order ≡ gid order ≡ epoch order.
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
    /// snapshot) for live serving. Starts at epoch 0 with an empty
    /// maintenance report and no WAL sink.
    pub fn from_sharded(relation: ShardedRelation) -> Self {
        let (schema, shard_by, shards, ids) = relation.into_parts();
        let indexed_cols = shards[0].indexed_columns();
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
            ids: OrderedRwLock::new(LockRank::Gid, ids),
            epochs: OrderedMutex::new(LockRank::Epoch, EpochState::default()),
            retained: AtomicUsize::new(0),
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
    /// plan instruments and the `mvcc_rollback_entries` histogram.
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
        self.ids.read().live()
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
            .map(|s| s.read().current.slot_count())
            .sum()
    }

    // --- lock helpers ------------------------------------------------------
    //
    // Lock poisoning is deliberately ignored (the ordered wrappers
    // absorb it): every critical section below upholds the structure
    // invariants before any call that could panic, and a serving tier
    // must keep answering after one worker died mid-request. The one
    // fixed acquisition order — shard locks (ascending), then `ids`,
    // then `epochs` — makes deadlock impossible, and the
    // [`pitract_core::lockdep`] ranks carried by each lock turn any
    // future violation of that order into a debug-build panic instead
    // of a production hang. `maintenance`/`version_maintenance` stay
    // plain leaf mutexes: nothing is ever acquired while they are held.

    /// Run `read` over shard `s` as of epoch `at`, under its read lock:
    /// the current version plus, when writes landed past `at`, the
    /// rollback that corrects it (built once, here).
    pub(crate) fn read_shard_at<T>(
        &self,
        s: usize,
        at: Epoch,
        read: impl FnOnce(&IndexedRelation, Option<&Rollback>) -> T,
    ) -> T {
        let guard = self.shards[s].read();
        let rollback = guard.rollback_at(at, &self.schema, &self.indexed_cols);
        if let Some(rollback) = &rollback {
            self.instruments
                .rollback_entries
                .record(rollback.entries as u64);
        }
        read(&guard.current, rollback.as_ref())
    }

    fn lock_maintenance(&self) -> MutexGuard<'_, BoundednessReport> {
        self.maintenance
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_version_maintenance(&self) -> MutexGuard<'_, BoundednessReport> {
        self.version_maintenance
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    // --- epochs & version retention ----------------------------------------

    /// The epoch clock now: the number of updates ever applied (plus any
    /// recovery advance — see [`Self::advance_epoch_to`]).
    pub fn current_epoch(&self) -> Epoch {
        Epoch::new(self.epochs.lock().current)
    }

    /// Pin the current epoch: until the returned [`EpochPin`] drops,
    /// every read resolved at that epoch — the
    /// [`crate::pool::PooledExecutor`] does this per batch — sees
    /// exactly the pinned instance, and writers record
    /// undo entries around it instead of blocking or being blocked.
    pub fn pin(&self) -> EpochPin<'_> {
        EpochPin {
            live: self,
            epoch: self.pin_epoch(),
        }
    }

    /// Advance the epoch clock to `epoch` without applying updates —
    /// the clock twin of [`Self::burn_gids_to`]. Recovery and the
    /// replication follower call this after a replay, which applies
    /// fewer updates than the history it reproduces when the log has
    /// LSN gaps (one thinned by an older compactor): the node must stamp
    /// its next update with the same epoch the log's writer would have.
    /// No-op if the clock is already there.
    pub fn advance_epoch_to(&self, epoch: Epoch) {
        let mut epochs = self.epochs.lock();
        epochs.current = epochs.current.max(epoch.get());
    }

    /// How much memory the MVCC version rings hold right now, and why.
    pub fn version_stats(&self) -> VersionStats {
        // Shard locks strictly before the epochs mutex (the fixed
        // order); the two sections race benignly — stats are a sample.
        let (retained_versions, retained_slots) = self
            .shards
            .iter()
            .map(|s| {
                let slot = s.read();
                (
                    slot.ring.len(),
                    slot.ring
                        .iter()
                        .filter(|e| matches!(e.op, UndoOp::Delete { .. }))
                        .count(),
                )
            })
            .fold((0, 0), |(v, r), (dv, dr)| (v + dv, r + dr));
        let epochs = self.epochs.lock();
        VersionStats {
            current_epoch: Epoch::new(epochs.current),
            watermark: Epoch::new(epochs.watermark()),
            pins: epochs.pins.values().sum(),
            retained_versions,
            retained_slots,
        }
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
        self.lock_version_maintenance().push(UpdateRecord {
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
            let mut guard = self.shards[shard].write();
            let len_before = guard.current.len();
            // The id maps are updated while the shard lock is still held
            // so `global_ids[shard]` stays aligned with the shard's local
            // ids, and the sink stage happens inside the gid critical
            // section so WAL order equals gid order (replay determinism).
            let mut ids = self.ids.write();
            // The id is read and staged before anything is applied: a
            // rejected stage leaves the relation untouched. The staged
            // entry then hands its row to the shard.
            let gid = ids.next_gid();
            let entry = UpdateEntry::Insert { gid, row };
            let ticket = self.stage(&entry)?;
            let UpdateEntry::Insert { row, .. } = entry else {
                // lint:allow(no-unwrap-in-serving): `entry` was built as an insert just above
                unreachable!("an insert entry")
            };
            // The epochs mutex is held across apply → bump → record so
            // a reader cannot pin between the clock tick and the
            // undo-retention decision (a pin taken after the mutex
            // drops is at the new epoch and needs no rollback for this
            // write); writers lose nothing — they are already
            // serialized by the ids write lock held above.
            let mut epochs = self.epochs.lock();
            let local = match guard.current.insert(row) {
                Ok(local) => local,
                Err(e) => return Err(EngineError::Indexed(e)),
            };
            // The clock ticks only after the update actually applied:
            // epoch ≡ updates applied, with no gaps.
            epochs.current += 1;
            guard.stamp = epochs.current;
            self.record_undo(&mut guard, &epochs, || UndoOp::Insert { local });
            let watermark = epochs.watermark();
            drop(epochs);
            let dropped = guard.trim(watermark);
            if dropped > 0 {
                self.retained.fetch_sub(dropped, Ordering::AcqRel);
            }
            debug_assert_eq!(local, ids.global_ids(shard).len());
            let committed = ids.commit(shard);
            debug_assert_eq!(committed, gid, "the ids write lock was held");
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
        // lock in the canonical shard → ids order. A global id keeps its
        // location from assignment on (the maps only grow), and whether
        // its row is live is the shard's own bit, read under the shard's
        // write lock: a row deleted before that lock — by a concurrent
        // delete that won the race, or long ago — is not deleted twice.
        let Some((shard, local)) = self.ids.read().location(gid) else {
            return Ok((None, None));
        };
        let (row, ticket) = {
            let mut guard = self.shards[shard].write();
            if guard.current.row(local).is_none() {
                return Ok((None, None));
            }
            let mut ids = self.ids.write();
            let ticket = self.stage(&UpdateEntry::Delete { gid })?;
            ids.tombstone();
            let len_before = guard.current.len();
            // Same epoch protocol as `insert_staged`: apply, tick the
            // clock, stamp, record the undo, trim.
            let mut epochs = self.epochs.lock();
            #[allow(clippy::expect_used)]
            let row = guard
                .current
                .delete(local)
                // lint:allow(no-unwrap-in-serving): the row was live under this same write lock
                .expect("a row live under the shard's write lock");
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
            }
            self.lock_maintenance()
                .push(maintenance_record(self.indexed_cols.len(), len_before));
            self.instruments.updates.inc();
            (row, ticket)
        };
        Ok((Some(row), ticket))
    }

    /// Stage one entry to the sink, if one is installed. Called inside
    /// the gid critical section.
    fn stage(&self, entry: &UpdateEntry) -> Result<Option<u64>, EngineError> {
        self.sink.as_ref().map(|sink| sink.stage(entry)).transpose()
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
    /// [`Self::insert`] / [`Self::delete`] (same locking, same gid ≡ WAL
    /// order, same `|CHANGED|` accounting), but only the *last*
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
    /// no lock outlives the call): its location is found in the id map,
    /// and the shard's live bit, under the shard's read lock, says
    /// whether it is live.
    pub fn row(&self, gid: usize) -> Option<Vec<Value>> {
        let (shard, local) = self.ids.read().location(gid)?;
        self.shards[shard]
            .read()
            .current
            .row(local)
            .map(RowRef::to_vec)
    }

    /// Boolean answer, read-locking only the relevant shards (in turn).
    /// Read-committed: a single query needs no cross-shard cut.
    pub fn answer(&self, q: &SelectionQuery) -> bool {
        let meter = Meter::new();
        relevant_shards_for(&self.shard_by, self.shards.len(), q)
            .any(|s| self.shards[s].read().current.answer_metered(q, &meter))
    }

    /// Global ids (ascending) of all live rows matching `q`, read-locking
    /// only the relevant shards. Read-committed, like [`Self::answer`].
    pub fn matching_ids(&self, q: &SelectionQuery) -> Vec<usize> {
        let meter = Meter::new();
        // Each shard's ids are translated after its lock is released:
        // the local→global maps are append-only, and every local id
        // read was mapped before its row became visible.
        let mut out: Vec<usize> = relevant_shards_for(&self.shard_by, self.shards.len(), q)
            .flat_map(|s| {
                let locals = self.shards[s]
                    .read()
                    .current
                    .matching_ids_metered(q, &meter);
                self.global_ids(s, &locals)
            })
            .collect();
        out.sort_unstable();
        out
    }

    // --- maintenance accounting -------------------------------------------

    /// The `|CHANGED|` accounting of every update applied since this
    /// relation was wrapped (or recovered): running sums over one
    /// [`UpdateRecord`] per insert/delete.
    pub fn boundedness_report(&self) -> BoundednessReport {
        self.lock_maintenance().clone()
    }

    // --- checkpoint & recovery --------------------------------------------

    /// Pin the current epoch for a read of the whole relation at it — a
    /// checkpoint's read ([`PinnedRead`]). The pin is registered under
    /// the id-map read lock, which every writer holds across its apply
    /// and clock tick, so the next global id read with it is the one at
    /// the pinned epoch.
    pub fn pin_read(&self) -> PinnedRead<'_> {
        let ids = self.ids.read();
        let pin = self.pin();
        PinnedRead {
            pin,
            next_gid: ids.next_gid(),
        }
    }

    /// Copy the current state out as an immutable [`ShardedRelation`],
    /// trees included: every shard read lock is held while the shards
    /// and the id map are cloned, so no writer runs until the copy
    /// exists. A checkpoint does not come through here; it reads the
    /// relation in place ([`Self::pin_read`]).
    pub fn to_sharded(&self) -> ShardedRelation {
        let guards: Vec<OrderedRwLockReadGuard<'_, ShardSlot>> =
            self.shards.iter().map(OrderedRwLock::read).collect();
        let ids = self.ids.read().clone();
        let shards = guards.iter().map(|g| g.current.clone()).collect();
        drop(guards);
        ShardedRelation::from_consistent(self.schema.clone(), self.shard_by.clone(), shards, ids)
    }

    /// Replay logged entries onto this relation (typically fresh from a
    /// snapshot), in order, taking each by value: every insert must
    /// reproduce its logged global id. On success the relation's state —
    /// answers *and* global row ids — equals the state the log was
    /// recorded from.
    ///
    /// A *forward gap* in the global-id sequence — the ids of an
    /// insert+delete pair that a log thinned by an older compactor no
    /// longer holds — is burned as permanent tombstones, so every insert
    /// still lands on exactly its recorded gid. Burned ids are
    /// indistinguishable from deleted ones (both read back as `None`),
    /// which is what makes a thinned and a whole log replay to the same
    /// answers and the same live global row ids. A *backward* id (an
    /// insert recording a gid this relation already assigned) is
    /// rejected typed: removing entries can explain missing ids, never
    /// reused ones. Recovery and the replication follower both apply
    /// WAL records through here, and the ids a log's inserts used are
    /// all the allocator needs: a replay ends one past the highest of
    /// them, as the log's writer did.
    pub fn replay_entries(&self, entries: Vec<UpdateEntry>) -> Result<usize, EngineError> {
        let replayed = entries.len();
        for entry in entries {
            match entry {
                UpdateEntry::Insert { gid, row } => {
                    self.burn_gids_to(gid);
                    let got = self.insert(row)?;
                    if got != gid {
                        return Err(EngineError::ReplayGidMismatch {
                            expected: gid,
                            found: got,
                        });
                    }
                }
                UpdateEntry::Delete { gid } => {
                    self.delete(gid)?
                        .ok_or(EngineError::ReplayMissingRow { gid })?;
                }
            }
        }
        Ok(replayed)
    }

    /// Advance the global-id allocator to `next_gid` without inserting:
    /// the skipped ids are burned (they read back as deleted, and cost
    /// nothing). No-op if the allocator is already there.
    ///
    /// [`Self::replay_entries`] calls this before each logged insert, so
    /// a forward gap in the log's ids burns and the insert lands on its
    /// recorded gid.
    pub fn burn_gids_to(&self, next_gid: usize) {
        self.ids.write().burn_to(next_gid);
    }
}

/// Serve a live relation from the [`crate::pool::PooledExecutor`]: one
/// epoch pin per batch, per-shard read locks, and the undo-ring
/// rollback wherever writes landed past the pin.
impl BatchServe for LiveRelation {
    /// One pass: each query validated, planned against the total slot
    /// count (live + tombstones — what a scan walks) and appended
    /// straight to the work list of every shard in its run (one run of
    /// consecutive shards: see [`crate::shard`]).
    fn route_shards(&self, queries: &[SelectionQuery]) -> Result<Routing, EngineError> {
        let slots = self.slot_count();
        let mut plans = Vec::with_capacity(queries.len());
        let mut shards_probed = Vec::with_capacity(queries.len());
        let mut work: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        // `engine_plans_total{path=…}` rises by one per routed query:
        // counted per path here, then one `add` per path.
        let mut per_path = [0u64; AccessPath::COUNT];
        for (qi, q) in queries.iter().enumerate() {
            q.validate(&self.schema)
                .map_err(|reason| EngineError::InvalidQuery { index: qi, reason })?;
            let plan = Planner::plan(&self.indexed_cols, slots, q);
            per_path[plan.path.index()] += 1;
            plans.push(plan);
            let run = relevant_shards_for(&self.shard_by, self.shards.len(), q);
            shards_probed.push(run.len());
            for assigned in &mut work[run] {
                assigned.push(qi);
            }
        }
        for (counter, routed) in self.instruments.plans.iter().zip(per_path) {
            counter.add(routed);
        }
        // Shards no query routes to get no job.
        let jobs = work
            .into_iter()
            .enumerate()
            .filter(|(_, assigned)| !assigned.is_empty())
            .collect();
        Ok(Routing {
            plans,
            jobs,
            shards_probed,
        })
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Register a pin on the current epoch (the raw half of
    /// [`LiveRelation::pin`], for callers that cannot hold a borrow).
    fn pin_epoch(&self) -> Epoch {
        let mut epochs = self.epochs.lock();
        let epoch = epochs.current;
        *epochs.pins.entry(epoch).or_insert(0) += 1;
        Epoch::new(epoch)
    }

    /// Release one pin and reclaim every version no remaining pin can
    /// reach.
    fn unpin_epoch(&self, epoch: Epoch) {
        let watermark = {
            let mut epochs = self.epochs.lock();
            match epochs.pins.get_mut(&epoch.get()) {
                Some(n) if *n > 1 => *n -= 1,
                Some(_) => {
                    epochs.pins.remove(&epoch.get());
                }
                None => debug_assert!(false, "released an unregistered pin"),
            }
            epochs.watermark()
        };
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
            }
        }
    }

    /// Versions, both `|CHANGED|` totals (summed in place) and lockdep.
    /// Each maintenance mutex is held only for its own fold, never both
    /// at once: writers take `maintenance` under their shard guard.
    fn status(&self) -> NodeStatus {
        let maintenance = self.lock_maintenance().totals();
        let retention = self.lock_version_maintenance().totals();
        NodeStatus {
            versions: Some(self.version_stats()),
            maintenance: Some(maintenance),
            retention: Some(retention),
            lockdep: Some(pitract_core::lockdep::stats()),
            ..NodeStatus::default()
        }
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
    ) -> ShardResults<M::Part> {
        self.read_shard_at(shard, at, |current, rollback| {
            eval_assigned::<M>(queries, current, assigned, rollback)
        })
    }

    /// Safe after the shard lock has been released: the per-shard
    /// local→global maps are append-only, and every local id a reader
    /// holds was mapped before its row became visible.
    fn id_map<T>(&self, shard: usize, read: impl FnOnce(&[usize]) -> T) -> T {
        read(self.ids.read().global_ids(shard))
    }
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

    /// A sink that records the staged stream: the relation's log, for
    /// asserting the hook's ordering contract and replaying histories
    /// without any real I/O.
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

    impl RecordingSink {
        /// The staged history, oldest first.
        fn entries(&self) -> Vec<UpdateEntry> {
            self.staged.lock().unwrap().clone()
        }
    }

    /// `live(n, shards)` with a recording sink installed.
    fn recorded(n: i64, shards: usize) -> (LiveRelation, Arc<RecordingSink>) {
        let sink = Arc::new(RecordingSink::default());
        let mut lr = live(n, shards);
        lr.set_wal_sink(Some(sink.clone() as Arc<dyn WalSink>));
        (lr, sink)
    }

    /// Each shard's local → global id map strictly increasing, which
    /// the row-id merge relies on; the maps themselves.
    fn increasing_id_maps(lr: &LiveRelation) -> Vec<Vec<usize>> {
        (0..lr.shard_count())
            .map(|s| {
                let map = lr.id_map(s, <[usize]>::to_vec);
                assert!(map.windows(2).all(|w| w[0] < w[1]), "shard {s}: {map:?}");
                map
            })
            .collect()
    }

    #[test]
    fn id_maps_increase_after_build_writes_replay_and_export() {
        let (lr, log) = recorded(200, 3);
        increasing_id_maps(&lr);
        for i in 0..60 {
            lr.insert(vec![Value::Int(1_000 + i), Value::str("new")])
                .unwrap();
            lr.delete((i * 7) as usize).unwrap();
        }
        let maps = increasing_id_maps(&lr);
        let replica = live(200, 3);
        replica.replay_entries(log.entries()).unwrap();
        assert_eq!(increasing_id_maps(&replica), maps, "replay");
        let exported = LiveRelation::from_sharded(lr.to_sharded());
        assert_eq!(increasing_id_maps(&exported), maps, "export");
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
        let (lr, sink) = recorded(4, 2);
        let g1 = lr.insert(vec![Value::Int(50), Value::str("a")]).unwrap();
        lr.delete(0).unwrap().unwrap();
        let g2 = lr.insert(vec![Value::Int(51), Value::str("b")]).unwrap();
        let log = sink.entries();
        assert_eq!(log.len(), 3);
        assert!(matches!(log[0], UpdateEntry::Insert { gid, .. } if gid == g1));
        assert!(matches!(log[1], UpdateEntry::Delete { gid } if gid == 0));
        assert!(matches!(log[2], UpdateEntry::Insert { gid, .. } if gid == g2));
    }

    #[test]
    fn export_then_replay_reproduces_state_and_ids() {
        let (lr, log) = recorded(50, 3);
        lr.delete(7).unwrap();
        lr.insert(vec![Value::Int(500), Value::str("mid")]).unwrap();

        // Checkpoint: copy the state out at the pinned epoch, then keep
        // writing.
        let epoch = lr.pin_read().epoch();
        assert_eq!(
            epoch,
            Epoch::new(log.entries().len() as u64),
            "epoch ≡ logged updates from birth"
        );
        let (state, covered) = (lr.to_sharded(), epoch.get() as usize);
        lr.insert(vec![Value::Int(501), Value::str("late")])
            .unwrap();
        lr.delete(3).unwrap();

        // Recover: wrap the exported state, replay the suffix past it.
        let recovered = LiveRelation::from_sharded(state);
        recovered
            .replay_entries(log.entries().split_off(covered))
            .unwrap();

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

    /// The engine half of checkpoint → recover: an exported state, wrapped
    /// again, with its clock set to the cut and the logged suffix
    /// replayed, is the lost node — rows, row ids, answers and the
    /// epoch clock.
    #[test]
    fn checkpoint_then_recover_is_bit_identical() {
        let (lr, log) = recorded(60, 3);
        lr.delete(10).unwrap().unwrap();
        lr.insert(vec![Value::Int(600), Value::str("pre")]).unwrap();
        let (state, epoch) = (lr.to_sharded(), lr.current_epoch());

        // Post-checkpoint traffic, covered only by the log.
        lr.insert(vec![Value::Int(601), Value::str("post")])
            .unwrap();
        lr.delete(20).unwrap().unwrap();

        let recovered = LiveRelation::from_sharded(state);
        recovered.advance_epoch_to(epoch);
        let tail = log.entries().split_off(epoch.get() as usize);
        assert_eq!(recovered.replay_entries(tail).unwrap(), 2);
        assert_eq!(
            recovered.current_epoch(),
            lr.current_epoch(),
            "the epoch clock resumes exactly where the lost node's stood"
        );
        assert_eq!(recovered.len(), lr.len());
        for gid in 0..62 {
            assert_eq!(recovered.row(gid), lr.row(gid), "gid {gid}");
        }
        for q in [
            SelectionQuery::point(0, 600i64),
            SelectionQuery::point(0, 601i64),
            SelectionQuery::point(0, 20i64),
            SelectionQuery::range_closed(0, 0i64, 700i64),
        ] {
            assert_eq!(recovered.matching_ids(&q), lr.matching_ids(&q), "{q:?}");
        }
    }

    /// Replaying a log recorded against some other history onto a
    /// checkpoint fails typed, never silently diverges.
    #[test]
    fn recover_with_foreign_log_fails_typed() {
        let base = live(10, 3).to_sharded();
        let (other, log) = recorded(50, 3);
        other.delete(40).unwrap().unwrap();
        let recovered = LiveRelation::from_sharded(base);
        assert_eq!(
            recovered.replay_entries(log.entries()).unwrap_err(),
            EngineError::ReplayMissingRow { gid: 40 }
        );
    }

    /// Regression: checkpoint marks once truncated by *count*, so two
    /// checkpoints racing on the same state would each drain one prefix
    /// — the second one swallowing entries its snapshot never covered.
    /// A mark is the pinned epoch, an absolute log position: two pinned
    /// reads of one state name the same mark, and an update neither
    /// covers sits past it.
    #[test]
    fn racing_checkpoint_confirms_never_drop_uncovered_entries() {
        let (lr, log) = recorded(4, 2);
        lr.insert(vec![Value::Int(50), Value::str("a")]).unwrap();
        lr.insert(vec![Value::Int(51), Value::str("b")]).unwrap();
        // Two concurrent checkpoints pin the same state.
        let (r1, r2) = (lr.pin_read(), lr.pin_read());
        let (m1, m2) = (r1.epoch(), r2.epoch());
        assert_eq!(m1, m2, "same state, same absolute mark");
        drop((r1, r2));
        // An update after both pins, covered by neither snapshot.
        lr.insert(vec![Value::Int(52), Value::str("c")]).unwrap();
        let uncovered = log.entries().split_off(m1.get() as usize);
        assert_eq!(
            uncovered.len(),
            1,
            "the uncovered entry sits past both marks"
        );
        assert!(matches!(uncovered[0], UpdateEntry::Insert { gid: 6, .. }));
    }

    /// A pinned read lends each shard and the id map exactly as they
    /// stood at its epoch, however the relation moved since — inserts
    /// cut off, deletes revived, an insert deleted again gone — and
    /// holds one shard lock at a time, and none while it lends the id
    /// map (recorded by lockdep in debug builds; release records none).
    #[test]
    fn a_pinned_read_lends_the_state_at_its_epoch_one_lock_at_a_time() {
        let lr = live(300, 4);
        for i in 0..40 {
            lr.delete(i * 5).unwrap();
            lr.insert(vec![Value::Int(1_000 + i as i64), Value::str("pre")])
                .unwrap();
        }
        let mut pinned = lr.pin_read();
        let oracle = lr.to_sharded();
        let epoch = pinned.epoch();
        // Writes on every shard after the pin, on rows live at it and not.
        for i in 0..40 {
            let gid = lr
                .insert(vec![Value::Int(2_000 + i as i64), Value::str("post")])
                .unwrap();
            lr.delete(i * 5 + 1).unwrap().unwrap();
            if i % 3 == 0 {
                lr.delete(gid).unwrap().unwrap();
            }
        }
        assert_eq!(pinned.epoch(), epoch);
        let one = usize::from(cfg!(debug_assertions));
        for (s, shard) in oracle.shards().iter().enumerate() {
            let want = shard.columns().view();
            pinned.read_shard(s, |rows| {
                assert_eq!(lockdep::held_of(LockRank::Shard), one, "shard {s}");
                assert_eq!(
                    (rows.slot_count(), rows.live(), rows.live_bits()),
                    (want.slot_count(), want.live(), want.live_bits()),
                    "shard {s}"
                );
                for col in 0..2 {
                    assert!(rows.cell_runs(col).eq(want.cell_runs(col)), "shard {s}");
                }
            });
        }
        let want = oracle.id_map();
        pinned.read_ids(|ids| {
            assert_eq!(lockdep::held_of(LockRank::Shard), 0);
            assert_eq!(lockdep::held_of(LockRank::Gid), one);
            assert_eq!(ids.next_gid(), want.next_gid());
            for s in 0..4 {
                assert_eq!(ids.global_ids(s), want.global_ids(s), "shard {s}");
            }
        });
        // The pin held the undo records the read needed; dropping it
        // releases them.
        assert!(lr.version_stats().retained_versions > 0);
        drop(pinned);
        assert_eq!(lr.version_stats().pins, 0);
        assert_eq!(lr.version_stats().retained_versions, 0);
    }

    /// An insert recorded at global id 2⁴⁰ — the ids below it burned by
    /// a compaction — lands on that id, and the id map's heap grows by
    /// no more than an insert at the next id makes it: a burned id costs
    /// nothing, however many there are.
    #[test]
    fn a_replayed_insert_far_past_the_next_id_costs_the_id_map_nothing() {
        let far = 1usize << 40;
        let row = || vec![Value::Int(77), Value::str("far")];
        let grown = |gid: usize| {
            let lr = live(50, 3);
            let before = lr.ids.read().heap_bytes();
            lr.replay_entries(vec![UpdateEntry::Insert { gid, row: row() }])
                .unwrap();
            assert_eq!(lr.row(gid), Some(row()), "the row lands on {gid}");
            let ids = lr.ids.read();
            assert_eq!(ids.next_gid(), gid + 1);
            ids.heap_bytes() - before
        };
        assert_eq!(grown(far), grown(50));
        let lr = live(50, 3);
        lr.burn_gids_to(far);
        assert_eq!((lr.row(far - 1), lr.delete(far - 1).unwrap()), (None, None));
        assert_eq!(lr.insert(row()).unwrap(), far);

        // No burn goes where the ids after it would wrap: an insert
        // logged there is refused, typed.
        let top = isize::MAX as usize;
        let log = vec![UpdateEntry::Insert {
            gid: usize::MAX,
            row: row(),
        }];
        assert_eq!(
            lr.replay_entries(log).unwrap_err(),
            EngineError::ReplayGidMismatch {
                expected: usize::MAX,
                found: top
            }
        );
        assert_eq!(lr.insert(row()).unwrap(), top + 1);
    }

    #[test]
    fn replay_rejects_histories_that_do_not_match() {
        let lr = live(10, 2);
        // A log recorded against a different state: gid 99 was never live.
        assert_eq!(
            lr.replay_entries(vec![UpdateEntry::Delete { gid: 99 }])
                .unwrap_err(),
            EngineError::ReplayMissingRow { gid: 99 }
        );
        // An insert logged under a gid the replay cannot reproduce.
        let log = vec![UpdateEntry::Insert {
            gid: 7,
            row: vec![Value::Int(1), Value::str("x")],
        }];
        assert_eq!(
            lr.replay_entries(log).unwrap_err(),
            EngineError::ReplayGidMismatch {
                expected: 7,
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
        let (lr, log) = recorded(5, 2);
        let err = lr.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(
            matches!(err, EngineError::Indexed(IndexedError::RowRejected(_))),
            "{err}"
        );
        assert_eq!(lr.len(), 5, "nothing was applied");
        assert!(log.entries().is_empty(), "nothing was logged");
    }

    #[test]
    fn concurrent_inserts_assign_unique_gids() {
        let (lr, log) = recorded(0, 4);
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
        fresh.replay_entries(log.entries()).unwrap();
        assert_eq!(fresh.len(), 200);
        for gid in 0..200 {
            assert_eq!(fresh.row(gid), lr.row(gid), "gid {gid}");
        }
    }

    #[test]
    fn compacted_replay_matches_uncompacted_on_answers_and_gids() {
        // A churny history with pairs scattered through it.
        let (lr, sink) = recorded(10, 3);
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
        let log = sink.entries();
        // Cancel every insert+delete pair, as an older compactor did;
        // the last insert survives, so it carries the allocator's
        // position.
        let deleted: Vec<usize> = log
            .iter()
            .filter_map(|e| match e {
                UpdateEntry::Delete { gid } => Some(*gid),
                UpdateEntry::Insert { .. } => None,
            })
            .collect();
        let compacted: Vec<UpdateEntry> = log
            .iter()
            .filter(|e| match e {
                UpdateEntry::Insert { gid, .. } => !deleted.contains(gid),
                UpdateEntry::Delete { gid } => *gid < 10,
            })
            .cloned()
            .collect();
        assert!(compacted.len() < log.len(), "something was cancelled");
        let compacted_len = compacted.len();

        let plain = live(10, 3);
        plain.replay_entries(log).unwrap();
        let short = live(10, 3);
        short.replay_entries(compacted).unwrap();

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
        // Replay applied only the thinned log's entries.
        assert_eq!(short.boundedness_report().len(), compacted_len);
    }

    #[test]
    fn replay_burns_forward_gid_gaps_and_rejects_backward_ids() {
        // A forward gap (a cancelled pair's ids) burns as tombstones…
        let lr = live(5, 2);
        let log = vec![UpdateEntry::Insert {
            gid: 9,
            row: vec![Value::Int(1), Value::str("x")],
        }];
        lr.replay_entries(log).unwrap();
        assert_eq!(lr.row(9).unwrap()[0], Value::Int(1));
        assert!(lr.row(7).is_none(), "burned ids read as deleted");
        // …but an id that runs backwards is rejected.
        let lr = live(5, 2);
        let log = vec![UpdateEntry::Insert {
            gid: 2,
            row: vec![Value::Int(1), Value::str("x")],
        }];
        assert_eq!(
            lr.replay_entries(log).unwrap_err(),
            EngineError::ReplayGidMismatch {
                expected: 2,
                found: 5
            }
        );
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
        // The staged stream is the update log: in gid order, so replaying
        // it reproduces every row under its gid — the invariant a
        // durable WAL replays by.
        let staged = sink.staged.lock().unwrap();
        let fresh = live(0, 4);
        fresh.replay_entries(staged.clone()).unwrap();
        assert_eq!(fresh.len(), lr.len());
        for gid in 0..160 {
            assert_eq!(fresh.row(gid), lr.row(gid), "gid {gid}");
        }
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
        fresh.replay_entries(sink.entries()).unwrap();
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
        assert!(sink.entries().is_empty(), "nothing logged");
        assert_eq!(lr.row(0).unwrap()[0], Value::Int(0), "row 0 still live");
        assert!(sink.committed.lock().unwrap().is_empty());
        // A failed stage also never ticked the epoch clock: epoch must
        // keep naming exactly the applied-update count.
        assert_eq!(lr.current_epoch(), Epoch::ZERO);
    }

    // --- MVCC epoch pinning -------------------------------------------------

    #[test]
    fn epoch_clock_ticks_once_per_applied_update() {
        let (lr, log) = recorded(10, 3);
        assert_eq!(lr.current_epoch(), Epoch::ZERO, "birth epoch");
        let gid = lr.insert(vec![Value::Int(100), Value::str("a")]).unwrap();
        assert_eq!(lr.current_epoch(), Epoch::new(1));
        lr.delete(gid).unwrap().unwrap();
        assert_eq!(lr.current_epoch(), Epoch::new(2));
        lr.delete(gid).unwrap(); // no-op delete: no tick
        assert_eq!(lr.current_epoch(), Epoch::new(2));
        assert_eq!(
            lr.current_epoch().get(),
            log.entries().len() as u64,
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
        let retention = lr.status().retention.unwrap();
        assert_eq!(retention.updates, stats.retained_versions as u64);
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
        let retention = lr.status().retention.unwrap();
        assert_eq!(retention.updates, 50);
        let retention = lr.lock_version_maintenance().clone();
        assert_eq!(
            (retention.min_work(), retention.max_work()),
            (1, 1),
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
        let e = lr.pin_epoch();
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
        lr.unpin_epoch(e);
        assert_eq!(lr.version_stats().retained_versions, 0);
        // And a fresh pinned batch sees all of them.
        let batch = QueryBatch::new([q]);
        let got = PooledExecutor::with_default_pool(lr)
            .execute_rows(&batch)
            .unwrap();
        assert_eq!(got.rows[0].len(), 177);
        assert_eq!(got.report.epoch, Epoch::new(77));
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
                    let at = got.report.epoch.get() as usize;
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
