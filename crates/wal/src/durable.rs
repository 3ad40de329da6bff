//! The durable serving tier: a [`LiveRelation`] whose every confirmed
//! update survives a crash at any instant.
//!
//! [`DurableLiveRelation`] wires a [`WalWriter`] into the engine's
//! [`WalSink`] hook: each insert/delete is staged to the WAL **inside
//! the global-id critical section** (so WAL order ≡ gid order ≡ epoch
//! order, even under racing writers) and committed durable after the
//! locks drop (so fsyncs batch across writers instead of stalling the
//! shard). The companion checkpoint persists the state at one epoch
//! *and* the WAL position it covers as one atomic
//! [`pitract_store::Snapshot`] file, its [`pitract_store::Snapshot::mark`]
//! set — there is no instant at which a crash can observe a state
//! without its mark, which is the classic lost-update window of two-file
//! schemes.
//!
//! # What a checkpoint holds, and which lock when
//!
//! A checkpoint file holds `D` at one epoch `e`: each shard's rows
//! (columnar bodies) and the id map, plus the WAL mark (`e`'s LSN) and
//! `e` itself — never an index, which a load rebuilds by sort. It is
//! written by a pinned read ([`LiveRelation::pin_read`],
//! [`SnapshotCatalog::save_checkpoint`]), in this order:
//!
//! 1. `e` is pinned the way a batch pins it, under the id-map read lock
//!    for an instant (which also fixes the next global id at `e`);
//! 2. the sections are sized by a first, counting pass at `e` — each
//!    shard under its read lock alone, the id map under its own — and
//!    the header and section table are written;
//! 3. each shard in turn is encoded at `e` under that shard's read lock
//!    alone — slots inserted after `e` cut off, slots deleted after `e`
//!    revived from the cells they left in place — into one fixed chunk
//!    that is appended to the temp file each time it fills, so that
//!    shard's chunks reach the page cache (never an fsync) inside its
//!    lock, and only its writers wait, only while it is encoded;
//! 4. the id map's two sections are encoded at `e` under the id-map
//!    read lock alone, which every writer briefly waits for;
//! 5. the last chunk and the checksum are appended and the pin is
//!    released; only then is the file synced and renamed, with no lock
//!    held.
//!
//! No shard, tree or id map is copied, and no buffer holds the file:
//! what the checkpoint holds beyond the relation is one chunk
//! ([`pitract_store::codec::CHUNK`], 1 MiB) and one live bitmap per
//! shard, plus the undo records writers keep for the pin while it
//! lasts.
//!
//! # The LSN ↔ epoch dictionary
//!
//! The WAL is the one update log; two clocks count it. The WAL counts
//! LSNs from the beginning of (durable) time; the MVCC epoch clock
//! counts applied updates from the relation's birth. Because the sink
//! appends exactly one WAL record per applied update and every applied
//! update ticks the epoch once, the two advance in lockstep:
//! `lsn = mark + (epoch - cut)`, anchored at the mark and cut epoch of
//! the checkpoint the node started from ([`EpochLsn`], which a
//! replication follower keeps too). A checkpoint's pinned epoch therefore
//! translates directly into the checkpoint's WAL mark
//! ([`DurableLiveRelation::lsn_of_epoch`]), and recovery inverts the
//! mapping: load the checkpoint, replay every WAL record at or after
//! the mark (one replayed update per logged one — compaction removes
//! only whole segments below the mark, so replay work is the tail since
//! the last checkpoint), resume appending at the recovered LSN, and
//! advance the epoch clock to the cut epoch plus the LSN span past the
//! mark. That span counts any LSN gap a log thinned by an older
//! compactor holds, as the crashed node's clock did, so the recovered
//! node stamps its next update with the same epoch the crashed node
//! would have ([`DurableLiveRelation::recovery_summary`]).

use crate::compactor::{CompactionReport, Compactor};
use crate::error::WalError;
use crate::reader::WalReader;
use crate::writer::{WalConfig, WalWriter};
use pitract_core::epoch::Epoch;
use pitract_engine::batch::{OutputMode, Routing, ShardResults};
use pitract_engine::{BatchServe, EngineError, LiveRelation, NodeStatus, UpdateEntry, WalSink};
use pitract_relation::SelectionQuery;
use pitract_store::{Dir, SnapshotCatalog};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The [`WalSink`] adapter staging a [`LiveRelation`]'s updates into a
/// [`WalWriter`]. Public so deployments composing their own recovery
/// flow can install it directly via
/// [`LiveRelation::set_wal_sink`].
#[derive(Debug)]
pub struct WalWriterSink {
    wal: Arc<WalWriter>,
}

impl WalWriterSink {
    /// Wrap a writer as a sink.
    pub fn new(wal: Arc<WalWriter>) -> Self {
        WalWriterSink { wal }
    }
}

impl WalSink for WalWriterSink {
    fn stage(&self, entry: &UpdateEntry) -> Result<u64, EngineError> {
        self.wal
            .append_entry(entry)
            .map_err(|e| EngineError::WalSink {
                message: e.to_string(),
            })
    }

    fn commit(&self, ticket: u64) -> Result<(), EngineError> {
        self.wal.commit(ticket).map_err(|e| EngineError::WalSink {
            message: e.to_string(),
        })
    }
}

/// The epoch ↔ LSN dictionary: a checkpoint's WAL mark and cut epoch,
/// the pair both clocks are anchored at. One applied update is one WAL
/// record and one epoch tick, so `lsn = mark + (epoch - cut)`; the
/// dictionary is fixed by the checkpoint alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochLsn {
    mark: u64,
    cut: Epoch,
}

impl EpochLsn {
    /// The dictionary of a checkpoint whose state, read at epoch
    /// `cut`, covers every WAL record below `mark`.
    pub fn new(mark: u64, cut: Epoch) -> Self {
        EpochLsn { mark, cut }
    }

    /// The anchoring checkpoint's WAL mark.
    pub fn mark(self) -> u64 {
        self.mark
    }

    /// LSN of the first WAL record *not* covered by `epoch`. Epochs
    /// before the cut clamp to the mark.
    pub fn lsn_of_epoch(self, epoch: Epoch) -> u64 {
        self.mark + epoch.get().saturating_sub(self.cut.get())
    }

    /// The epoch whose state covers exactly the WAL records below
    /// `lsn` — the inverse of [`Self::lsn_of_epoch`]. LSNs below the
    /// mark clamp to the cut.
    pub fn epoch_of_lsn(self, lsn: u64) -> Epoch {
        Epoch::new(self.cut.get() + lsn.saturating_sub(self.mark))
    }
}

/// What [`DurableLiveRelation::recover`] reconstructed: where the
/// recovered node's clocks resumed and how much replay it took to get
/// there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovered {
    /// The epoch clock after recovery — the checkpoint's cut epoch plus
    /// one tick per LSN past its mark, exactly where the lost node's
    /// clock stood. The next applied update is stamped `epoch + 1`.
    pub epoch: Epoch,
    /// The LSN the recovered node appends next.
    pub lsn: u64,
    /// Updates replayed: every record of the WAL tail at or after the
    /// checkpoint mark.
    pub replayed: usize,
}

/// A [`LiveRelation`] with a durable write-ahead log underneath: a crash
/// at any instant loses no confirmed update.
///
/// Derefs to [`LiveRelation`], so the whole serving API — `insert`,
/// `delete`, `answer`, `apply_batch`, `boundedness_report`, … — is available
/// unchanged; updates flow through the installed sink automatically.
#[derive(Debug)]
pub struct DurableLiveRelation {
    live: LiveRelation,
    wal: Arc<WalWriter>,
    /// The epoch ↔ LSN dictionary of the checkpoint this node started
    /// from (bootstrap or recovered).
    clock: EpochLsn,
    /// The latest durably confirmed checkpoint mark: the one truncation
    /// point. It moves only after a checkpoint's snapshot is saved, so
    /// compaction never drops a record a durable snapshot does not
    /// cover.
    last_mark: AtomicU64,
    /// What [`Self::recover`] reconstructed; `None` on a fresh
    /// [`Self::create`].
    recovered: Option<Recovered>,
}

impl std::ops::Deref for DurableLiveRelation {
    type Target = LiveRelation;

    fn deref(&self) -> &LiveRelation {
        &self.live
    }
}

impl DurableLiveRelation {
    /// Go durable: attach a WAL at `wal_dir` to `live` and write the
    /// bootstrap checkpoint under `name` — without it, a crash before
    /// the first explicit checkpoint would have no state to replay the
    /// log onto. Updates `live` applied before this call are inside the
    /// bootstrap checkpoint, and its cut epoch is theirs.
    ///
    /// `config.recorder` becomes the node's one observability handle:
    /// the WAL writer's `wal_*` series, the engine's `engine_*`/`mvcc_*`
    /// series, and the trace buffer all share it, so a single
    /// [`pitract_obs::MetricsSnapshot`] covers the node end to end. It
    /// **replaces** any recorder already installed on `live` (with the
    /// default config, the disabled one).
    pub fn create(
        mut live: LiveRelation,
        catalog: &SnapshotCatalog,
        name: &str,
        wal_dir: impl Into<Dir>,
        config: WalConfig,
    ) -> Result<Self, WalError> {
        live.set_recorder(&config.recorder);
        let wal = Arc::new(WalWriter::open(wal_dir, config)?);
        // Anything already in the directory (a reused path) is below the
        // bootstrap mark and therefore dead: the checkpoint covers it.
        let mark = wal.next_lsn();
        let (_, cut) = catalog.save_checkpoint(name, &live, |_| mark)?;
        live.set_wal_sink(Some(Arc::new(WalWriterSink::new(wal.clone()))));
        Ok(DurableLiveRelation {
            live,
            wal,
            clock: EpochLsn::new(mark, cut),
            last_mark: AtomicU64::new(mark),
            recovered: None,
        })
    }

    /// Recover after a crash (or a clean restart — the code path is the
    /// same, which is how it stays tested): load the checkpoint saved
    /// under `name`, truncate any torn WAL tail, replay the whole tail
    /// at or after the checkpoint's mark, and resume durable
    /// serving. The recovered node is bit-identical — answers and global
    /// row ids — to the crashed node's confirmed prefix.
    ///
    /// `config.recorder` is threaded through exactly as in
    /// [`Self::create`], and also hears what recovery itself found: a
    /// torn WAL tail truncated here is reported once, through
    /// [`WalReader::publish`].
    pub fn recover(
        catalog: &SnapshotCatalog,
        name: &str,
        wal_dir: impl Into<Dir>,
        config: WalConfig,
    ) -> Result<Self, WalError> {
        let (mut live, wal, clock, replayed) = recover_live(catalog, name, wal_dir, config)?;
        let wal = Arc::new(wal);
        live.set_wal_sink(Some(Arc::new(WalWriterSink::new(wal.clone()))));
        let recovered = Recovered {
            epoch: live.current_epoch(),
            lsn: wal.next_lsn(),
            replayed,
        };
        Ok(DurableLiveRelation {
            live,
            wal,
            clock,
            last_mark: AtomicU64::new(clock.mark()),
            recovered: Some(recovered),
        })
    }

    /// The underlying WAL writer (for `sync`, `rotate_now`, metrics).
    pub fn wal(&self) -> &Arc<WalWriter> {
        &self.wal
    }

    /// The WAL directory's path.
    pub fn wal_dir(&self) -> &Path {
        self.wal.dir().path()
    }

    /// The latest confirmed checkpoint mark.
    pub fn checkpoint_mark(&self) -> u64 {
        self.last_mark.load(Ordering::SeqCst)
    }

    /// What [`Self::recover`] reconstructed — the resumed epoch clock,
    /// the next LSN, and how many updates the replay applied.
    /// `None` for a node born via [`Self::create`].
    pub fn recovery_summary(&self) -> Option<Recovered> {
        self.recovered
    }

    /// LSN of the first WAL record *not* covered by `epoch`: the
    /// epoch ↔ LSN dictionary ([`EpochLsn::lsn_of_epoch`]) of the
    /// checkpoint this node started from. Earlier epochs clamp to that
    /// checkpoint's mark.
    pub fn lsn_of_epoch(&self, epoch: Epoch) -> u64 {
        self.clock.lsn_of_epoch(epoch)
    }

    /// The epoch whose state covers exactly the WAL records below
    /// `lsn` — the inverse of [`Self::lsn_of_epoch`]. LSNs below the
    /// starting checkpoint's mark clamp to its cut epoch.
    pub fn epoch_of_lsn(&self, lsn: u64) -> Epoch {
        self.clock.epoch_of_lsn(lsn)
    }

    /// Checkpoint: persist the live state at a pinned epoch with its WAL
    /// mark — that epoch's LSN — as one atomic snapshot, then confirm
    /// the mark. The state is read in place, one shard lock at a time
    /// (see the module docs), so writers keep going while it is encoded.
    /// After this returns, [`Self::compact_wal`] may drop every WAL
    /// record below the new mark. A failed save returns the error and
    /// leaves [`Self::checkpoint_mark`] where it was, so no record a
    /// durable snapshot does not cover is ever dropped.
    pub fn checkpoint(&self, catalog: &SnapshotCatalog, name: &str) -> Result<PathBuf, WalError> {
        // Make sure everything the snapshot will contain is also durable
        // in the log *before* the snapshot supersedes it — an unsynced
        // suffix must never be the only copy of a confirmed update.
        self.wal.sync()?;
        let (path, cut) = catalog.save_checkpoint(name, &self.live, |e| self.lsn_of_epoch(e))?;
        let mark = self.lsn_of_epoch(cut);
        // Racing checkpoints confirm in any order: the mark only rises.
        self.last_mark.fetch_max(mark, Ordering::SeqCst);
        Ok(path)
    }

    /// Compact the WAL against the latest confirmed checkpoint mark:
    /// remove the closed segments the checkpoint wholly covers, bounding
    /// the log on disk by the tail since that checkpoint plus at most the
    /// one segment that straddles its mark ([`Compactor`]). Call
    /// [`Self::checkpoint`] first for the mark to be meaningful; rotation
    /// ([`WalWriter::rotate_now`] or the size threshold) determines how
    /// much of the log is closed and therefore removable.
    pub fn compact_wal(&self) -> Result<CompactionReport, WalError> {
        self.compact_wal_retaining(None)
    }

    /// [`Self::compact_wal`] under a replication retention watermark:
    /// closed segments holding any LSN at or above `retention` stay, so
    /// an attached follower that has applied up to `retention` can
    /// still fetch everything it is owed after the pass. A `pitract-repl` `SegmentPublisher` computes the
    /// watermark as the minimum applied LSN across attached followers
    /// and routes compaction through here.
    pub fn compact_wal_retaining(
        &self,
        retention: Option<u64>,
    ) -> Result<CompactionReport, WalError> {
        Compactor::new(self.checkpoint_mark())
            .with_retention(retention)
            .compact_dir(self.wal.dir())
    }
}

/// The one recovery sequence, shared by [`DurableLiveRelation::recover`]
/// and a replication follower's bootstrap. It loads the checkpoint saved
/// under `name` and opens the WAL at `dir` for appending: the torn tail
/// is truncated and no LSN below the checkpoint's mark is handed out. It
/// reports what that one scan found into `config.recorder`
/// ([`WalReader::publish`]). It then replays every record of the tail at
/// or after the mark onto the checkpoint state
/// ([`LiveRelation::replay_entries`]), so future inserts get the gids
/// the log's writer would have assigned.
///
/// The replay ticks the epoch clock once per record; the clock then
/// advances to the cut epoch plus the LSN span past the mark, one tick
/// per update the log's writer applied — the LSN gaps of a log thinned
/// by an older compactor count, as the crashed node's clock did.
///
/// Returns `(live, wal, clock, replayed)`: the replayed relation
/// (recording into `config.recorder`), the positioned writer, the
/// checkpoint's epoch ↔ LSN dictionary, and how many entries the replay
/// applied.
pub fn recover_live(
    catalog: &SnapshotCatalog,
    name: &str,
    dir: impl Into<Dir>,
    config: WalConfig,
) -> Result<(LiveRelation, WalWriter, EpochLsn, usize), WalError> {
    let (state, mark, cut) = catalog.load(name)?.into_checkpoint()?;
    let clock = EpochLsn::new(mark, cut);
    // One directory scan serves both sides: the writer truncates the torn
    // tail and takes its append position from it, the reader decodes its
    // records for replay — the log is read and checksummed once. Only the
    // reader side reports the torn tail, so one recovery reports once.
    let recorder = config.recorder.clone();
    let (wal, scan) = WalWriter::open_scanned(dir, config, mark)?;
    let reader = WalReader::from_scan(&scan)?;
    reader.publish(&recorder);
    let mut live = LiveRelation::from_sharded(state);
    live.set_recorder(&recorder);
    let replayed = live.replay_entries(reader.into_tail(mark))?;
    live.advance_epoch_to(clock.epoch_of_lsn(wal.next_lsn()));
    Ok((live, wal, clock, replayed))
}

/// Serve a durable node from a
/// [`pitract_engine::PooledExecutor`] exactly like its inner live
/// relation: every method delegates, so an
/// `Arc<DurableLiveRelation>` drops straight into a pooled serving
/// session while updates (including [`LiveRelation::apply_batch`] — one
/// WAL fsync per batch) keep flowing through the WAL sink.
impl BatchServe for DurableLiveRelation {
    fn route_shards(&self, queries: &[SelectionQuery]) -> Result<Routing, EngineError> {
        self.live.route_shards(queries)
    }

    fn shard_count(&self) -> usize {
        BatchServe::shard_count(&self.live)
    }

    fn pin_epoch(&self) -> Epoch {
        BatchServe::pin_epoch(&self.live)
    }

    fn unpin_epoch(&self, epoch: Epoch) {
        BatchServe::unpin_epoch(&self.live, epoch);
    }

    fn status(&self) -> NodeStatus {
        NodeStatus {
            wal: Some(pitract_engine::WalStatus {
                durable_lsn: self.wal.durable_lsn(),
                checkpoint_mark: self.checkpoint_mark(),
            }),
            ..self.live.status()
        }
    }

    fn eval_shard<M: OutputMode>(
        &self,
        shard: usize,
        at: Epoch,
        queries: &[SelectionQuery],
        assigned: &[usize],
    ) -> ShardResults<M::Part> {
        self.live.eval_shard::<M>(shard, at, queries, assigned)
    }

    fn id_map<T>(&self, shard: usize, read: impl FnOnce(&[usize]) -> T) -> T {
        self.live.id_map(shard, read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::SyncPolicy;
    use pitract_engine::ShardBy;
    use pitract_obs::Recorder;
    use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
    use pitract_store::storage::{Effect, Fault, Op};
    use pitract_store::MemoryVolume;
    use std::io;

    fn schema() -> Schema {
        Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)])
    }

    fn live(n: i64) -> LiveRelation {
        let rows = (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 8))])
            .collect();
        let rel = Relation::from_rows(schema(), rows).unwrap();
        LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 3, &[0, 1]).unwrap()
    }

    fn config() -> WalConfig {
        WalConfig {
            segment_bytes: 256,
            sync: SyncPolicy::GroupCommit,
            ..WalConfig::default()
        }
    }

    fn observed(recorder: &Recorder) -> WalConfig {
        WalConfig {
            recorder: recorder.clone(),
            ..config()
        }
    }

    #[test]
    fn create_write_crash_recover_is_bit_identical() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let wal_dir = Dir::memory();
        let node =
            DurableLiveRelation::create(live(40), &catalog, "node", &wal_dir, config()).unwrap();
        let g = node
            .insert(vec![Value::Int(500), Value::str("new")])
            .unwrap();
        node.delete(3).unwrap().unwrap();
        node.delete(g).unwrap().unwrap();
        node.insert(vec![Value::Int(501), Value::str("kept")])
            .unwrap();

        // "Crash": drop the node without checkpointing; recover from the
        // bootstrap checkpoint + WAL alone.
        let expected_rows: Vec<Option<Vec<Value>>> = (0..45).map(|gid| node.row(gid)).collect();
        let expected_len = node.len();
        drop(node);
        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        assert_eq!(recovered.len(), expected_len);
        for (gid, expect) in expected_rows.iter().enumerate() {
            assert_eq!(&recovered.row(gid), expect, "gid {gid}");
        }
        assert!(recovered.answer(&SelectionQuery::point(0, 501i64)));
        assert!(!recovered.answer(&SelectionQuery::point(0, 500i64)));
    }

    /// The dictionary maps each epoch from the cut on to one LSN and
    /// back, and clamps what lies before its anchor.
    #[test]
    fn epoch_lsn_inverts_from_its_anchor_and_clamps_before_it() {
        let clock = EpochLsn::new(100, Epoch::new(40));
        assert_eq!(clock.mark(), 100);
        for tick in 0..5 {
            let epoch = Epoch::new(40 + tick);
            assert_eq!(clock.lsn_of_epoch(epoch), 100 + tick);
            assert_eq!(clock.epoch_of_lsn(clock.lsn_of_epoch(epoch)), epoch);
        }
        assert_eq!(clock.lsn_of_epoch(Epoch::new(3)), 100);
        assert_eq!(clock.epoch_of_lsn(7), Epoch::new(40));
    }

    /// A WAL has one writer: recovering a second node from the directory
    /// a live node still writes fails typed and appends nothing, the
    /// first node keeps writing, and once it drops its log recovers
    /// whole.
    #[test]
    fn recovering_a_log_its_node_still_writes_is_refused() {
        let volume = MemoryVolume::new();
        let catalog = SnapshotCatalog::open(volume.root().join("snaps")).unwrap();
        let wal_dir = volume.root().join("wal");
        let node =
            DurableLiveRelation::create(live(10), &catalog, "node", &wal_dir, config()).unwrap();
        node.insert(vec![Value::Int(100), Value::str("a")]).unwrap();
        match DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()) {
            Err(WalError::DirInUse { dir }) => assert_eq!(dir, "/wal"),
            other => panic!("expected DirInUse, got {other:?}"),
        }
        assert!(matches!(
            WalWriter::open(wal_dir.join("."), config()),
            Err(WalError::DirInUse { .. })
        ));
        node.insert(vec![Value::Int(101), Value::str("b")]).unwrap();
        node.delete(2).unwrap().unwrap();
        let lsns: Vec<u64> = WalReader::open(&wal_dir)
            .unwrap()
            .records()
            .iter()
            .map(|r| r.lsn)
            .collect();
        assert_eq!(lsns, vec![0, 1, 2], "one writer, one LSN sequence");
        let (rows, len) = (
            (0..12).map(|gid| node.row(gid)).collect::<Vec<_>>(),
            node.len(),
        );
        drop(node);

        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        assert_eq!(recovered.len(), len);
        for (gid, row) in rows.iter().enumerate() {
            assert_eq!(&recovered.row(gid), row, "gid {gid}");
        }
        assert_eq!(recovered.recovery_summary().unwrap().replayed, 3);
    }

    #[test]
    fn checkpoint_marks_advance_and_recovery_replays_only_the_tail() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let wal_dir = Dir::memory();
        let node =
            DurableLiveRelation::create(live(10), &catalog, "node", &wal_dir, config()).unwrap();
        for i in 0..20i64 {
            node.insert(vec![Value::Int(100 + i), Value::str("pre")])
                .unwrap();
        }
        node.checkpoint(&catalog, "node").unwrap();
        assert_eq!(node.checkpoint_mark(), 20);
        assert_eq!(
            node.checkpoint_mark(),
            node.lsn_of_epoch(node.current_epoch()),
            "the checkpoint covers every applied update"
        );
        for i in 0..5i64 {
            node.insert(vec![Value::Int(200 + i), Value::str("post")])
                .unwrap();
        }
        drop(node);
        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        assert_eq!(
            recovered.boundedness_report().len(),
            5,
            "only the post-checkpoint tail was replayed"
        );
        assert_eq!(recovered.len(), 35);
        // The recovered node continues the LSN sequence seamlessly: a
        // fresh update and another recovery still agree.
        recovered
            .insert(vec![Value::Int(999), Value::str("again")])
            .unwrap();
        drop(recovered);
        let again = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        assert!(again.answer(&SelectionQuery::point(0, 999i64)));
        assert_eq!(again.len(), 36);
    }

    /// Recovery holds only the tail it replays: with records below the
    /// checkpoint mark still in the directory (nothing compacted), the
    /// scan recovery opens with keeps none of them, yet positions the
    /// writer after the whole log and decodes the same tail a whole read
    /// does — and the node recovers to the same rows.
    #[test]
    fn recovery_keeps_only_the_tail_it_replays() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let wal_dir = Dir::memory();
        let node =
            DurableLiveRelation::create(live(10), &catalog, "node", &wal_dir, config()).unwrap();
        for i in 0..30i64 {
            node.insert(vec![Value::Int(100 + i), Value::str("pre")])
                .unwrap();
            if i % 3 == 0 {
                node.delete(i as usize).unwrap().unwrap();
            }
        }
        node.checkpoint(&catalog, "node").unwrap();
        let mark = node.checkpoint_mark();
        for i in 0..6i64 {
            node.insert(vec![Value::Int(200 + i), Value::str("post")])
                .unwrap();
        }
        node.delete(13).unwrap().unwrap();
        let (rows, len) = (
            (0..50).map(|gid| node.row(gid)).collect::<Vec<_>>(),
            node.len(),
        );
        drop(node);

        let whole = WalReader::open(&wal_dir).unwrap();
        assert!(
            whole.records().iter().any(|r| r.lsn < mark),
            "history below the mark"
        );
        let (wal, scan) = WalWriter::open_scanned(&wal_dir, config(), mark).unwrap();
        let kept: Vec<u64> = scan.records().map(|(lsn, _)| *lsn).collect();
        let tail: Vec<u64> = (mark..mark + 7).collect();
        assert_eq!(kept, tail, "no record below the mark is kept");
        assert_eq!(
            (scan.next_lsn, wal.next_lsn()),
            (whole.next_lsn(), mark + 7)
        );
        assert_eq!(
            WalReader::from_scan(&scan).unwrap().into_tail(mark),
            whole.into_tail(mark)
        );
        drop(wal);

        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        assert_eq!(recovered.recovery_summary().unwrap().replayed, 7);
        assert_eq!(recovered.len(), len);
        for (gid, row) in rows.iter().enumerate() {
            assert_eq!(&recovered.row(gid), row, "gid {gid}");
        }
    }

    #[test]
    fn compaction_after_checkpoint_never_changes_recovered_state() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let wal_dir = Dir::memory();
        let node =
            DurableLiveRelation::create(live(8), &catalog, "node", &wal_dir, config()).unwrap();
        // Churn: lots of insert+delete pairs, few survivors.
        for i in 0..40i64 {
            let gid = node
                .insert(vec![Value::Int(300 + i), Value::str("churn")])
                .unwrap();
            if i % 5 != 0 {
                node.delete(gid).unwrap().unwrap();
            }
        }
        node.checkpoint(&catalog, "ckpt").unwrap();
        for i in 0..10i64 {
            let gid = node
                .insert(vec![Value::Int(400 + i), Value::str("tail")])
                .unwrap();
            if i % 2 == 0 {
                node.delete(gid).unwrap().unwrap();
            }
        }
        node.wal().rotate_now().unwrap();
        let mark = node.checkpoint_mark();
        drop(node);

        // One writer at a time: each recovered node drops before the
        // next open, so its state is kept as data.
        let queries = [
            SelectionQuery::point(1, "churn"),
            SelectionQuery::point(1, "tail"),
            SelectionQuery::range_closed(0, 0i64, 500i64),
        ];
        let recovered_state = || {
            let node = DurableLiveRelation::recover(&catalog, "ckpt", &wal_dir, config()).unwrap();
            let rows: Vec<_> = (0..60).map(|gid| node.row(gid)).collect();
            let ids: Vec<_> = queries.iter().map(|q| node.matching_ids(q)).collect();
            (node.len(), rows, ids)
        };
        let before = recovered_state();
        let report = Compactor::new(mark).compact_dir(&wal_dir).unwrap();
        assert!(report.records_after < report.records_before, "{report:?}");
        assert_eq!(recovered_state(), before);
    }

    #[test]
    fn apply_batch_commits_once_is_durable_and_recovers() {
        use pitract_engine::{Applied, UpdateOp};
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let wal_dir = Dir::memory();
        let node =
            DurableLiveRelation::create(live(20), &catalog, "node", &wal_dir, config()).unwrap();
        let applied = node
            .apply_batch((0..50i64).map(|i| {
                if i % 5 == 4 {
                    UpdateOp::Delete(i as usize)
                } else {
                    UpdateOp::Insert(vec![Value::Int(700 + i), Value::str("batch")])
                }
            }))
            .unwrap();
        assert_eq!(applied.len(), 50);
        assert!(matches!(applied[0], Applied::Inserted(20)));
        // The whole batch is durable on return: under group commit the
        // single trailing commit's fsync covered every staged record.
        assert_eq!(node.wal().durable_lsn(), 50);
        let expected: Vec<Option<Vec<Value>>> = (0..65).map(|gid| node.row(gid)).collect();
        drop(node);
        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        for (gid, expect) in expected.iter().enumerate() {
            assert_eq!(&recovered.row(gid), expect, "gid {gid}");
        }
    }

    #[test]
    fn pooled_executor_serves_a_durable_node() {
        use pitract_engine::{PoolConfig, PooledExecutor, QueryBatch};
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let node = Arc::new(
            DurableLiveRelation::create(live(100), &catalog, "node", Dir::memory(), config())
                .unwrap(),
        );
        let exec = PooledExecutor::new(
            Arc::clone(&node),
            PoolConfig {
                workers: 2,
                max_inflight: 2,
                ..PoolConfig::default()
            },
        );
        let batch = QueryBatch::new((0..30i64).map(|k| SelectionQuery::point(0, k * 3)));
        // Queries on the pool interleave with durable updates.
        std::thread::scope(|scope| {
            let writer = Arc::clone(&node);
            scope.spawn(move || {
                for i in 0..40i64 {
                    writer
                        .insert(vec![Value::Int(5_000 + i), Value::str("w")])
                        .unwrap();
                }
            });
            for _ in 0..10 {
                let got = exec.execute(&batch).unwrap();
                assert!(got.answers.iter().all(|&a| a), "stable region hits");
            }
        });
        let rows = exec.execute_rows(&batch).unwrap();
        for (k, ids) in rows.rows.iter().enumerate() {
            assert_eq!(ids, &vec![k * 3], "gid of key {}", k * 3);
        }
    }

    /// Updates a relation took before going durable are inside the
    /// bootstrap checkpoint: its cut epoch is theirs, and they survive a
    /// power loss and recovery bit-identically.
    #[test]
    fn create_keeps_updates_applied_before_it_in_the_bootstrap_checkpoint() {
        let volume = MemoryVolume::new();
        let catalog = SnapshotCatalog::open(volume.root().join("snaps")).unwrap();
        let wal_dir = volume.root().join("wal");
        let lr = live(5);
        lr.insert(vec![Value::Int(99), Value::str("early")])
            .unwrap();
        lr.delete(2).unwrap().unwrap();
        let node = DurableLiveRelation::create(lr, &catalog, "node", &wal_dir, config()).unwrap();
        assert_eq!(node.current_epoch(), Epoch::new(2));
        assert_eq!(node.checkpoint_mark(), 0, "the WAL starts after them");
        node.insert(vec![Value::Int(100), Value::str("late")])
            .unwrap();
        let expected: Vec<Option<Vec<Value>>> = (0..8).map(|gid| node.row(gid)).collect();
        let epoch = node.current_epoch();
        volume.crash();
        drop(node);

        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        for (gid, expect) in expected.iter().enumerate() {
            assert_eq!(&recovered.row(gid), expect, "gid {gid}");
        }
        assert_eq!(recovered.len(), 6);
        assert!(recovered.answer(&SelectionQuery::point(0, 99i64)));
        assert!(!recovered.answer(&SelectionQuery::point(0, 2i64)));
        assert_eq!(recovered.current_epoch(), epoch);
        assert_eq!(recovered.recovery_summary().unwrap().replayed, 1);
    }

    /// Recovery replays the whole tail, cancelling nothing, and a tail
    /// that ends in a run of insert+delete pairs leaves no record of the
    /// ids those pairs used that outlives them: the replay itself takes
    /// the allocator past them, so the recovered node is bit-identical on
    /// answers, row ids and the epoch clock, and its next insert gets the
    /// gid the crashed node would have given.
    #[test]
    fn a_tail_ending_in_insert_delete_pairs_recovers_the_next_gid() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let wal_dir = Dir::memory();
        let node =
            DurableLiveRelation::create(live(20), &catalog, "base", &wal_dir, config()).unwrap();
        node.insert(vec![Value::Int(777), Value::str("kept")])
            .unwrap();
        node.delete(5).unwrap().unwrap();
        // The tail ends in 30 insert+delete pairs, gids 21 to 50.
        for i in 0..30i64 {
            let gid = node
                .insert(vec![Value::Int(900 + i), Value::str("churn")])
                .unwrap();
            node.delete(gid).unwrap().unwrap();
        }
        assert_eq!(node.wal().next_lsn(), 62);
        let queries = [
            SelectionQuery::point(0, 777i64),
            SelectionQuery::point(0, 5i64),
            SelectionQuery::point(1, "churn"),
            SelectionQuery::range_closed(0, 0i64, 1_000i64),
        ];
        let (epoch, len) = (node.current_epoch(), node.len());
        let rows: Vec<_> = (0..55).map(|gid| node.row(gid)).collect();
        let ids: Vec<_> = queries.iter().map(|q| node.matching_ids(q)).collect();
        drop(node);

        let recovered = DurableLiveRelation::recover(&catalog, "base", &wal_dir, config()).unwrap();
        assert_eq!(
            recovered.boundedness_report().len(),
            62,
            "every logged update was replayed"
        );
        let summary = recovered.recovery_summary().unwrap();
        assert_eq!((summary.replayed, summary.lsn), (62, 62));
        assert_eq!(recovered.current_epoch(), epoch);
        assert_eq!(recovered.len(), len);
        for (gid, row) in rows.iter().enumerate() {
            assert_eq!(&recovered.row(gid), row, "gid {gid}");
        }
        for (q, ids) in queries.iter().zip(&ids) {
            assert_eq!(&recovered.matching_ids(q), ids, "{q:?}");
        }
        let next = recovered
            .insert(vec![Value::Int(778), Value::str("next")])
            .unwrap();
        assert_eq!(next, 51, "20 base rows and 31 logged inserts came first");
    }

    /// A checksummed insert at the last global id, logged past a
    /// checkpoint, is refused typed by recovery in both profiles: one
    /// past it is no id, and the replay cannot land there.
    #[test]
    fn a_logged_insert_at_the_last_gid_is_refused_typed() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let wal_dir = Dir::memory();
        let node =
            DurableLiveRelation::create(live(10), &catalog, "node", &wal_dir, config()).unwrap();
        node.insert(vec![Value::Int(50), Value::str("pre")])
            .unwrap();
        node.checkpoint(&catalog, "node").unwrap();
        drop(node);
        let wal = WalWriter::open(&wal_dir, config()).unwrap();
        let lsn = wal
            .append_entry(&UpdateEntry::Insert {
                gid: usize::MAX,
                row: vec![Value::Int(51), Value::str("far")],
            })
            .unwrap();
        wal.commit(lsn).unwrap();
        drop(wal);
        match DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()) {
            Err(WalError::Engine(EngineError::ReplayGidMismatch { expected, .. })) => {
                assert_eq!(expected, usize::MAX);
            }
            Err(other) => panic!("expected ReplayGidMismatch, got {other}"),
            Ok(_) => panic!("an insert at usize::MAX replayed"),
        }
    }

    /// The mark moves only after a durable save. A checkpoint whose
    /// snapshot flush fails returns a typed error and leaves the mark
    /// where the last good checkpoint put it, so compaction keeps every
    /// record that snapshot does not cover: after a power loss the node
    /// recovers from the older snapshot to exactly the confirmed prefix.
    #[test]
    fn failed_checkpoint_keeps_the_log() {
        let volume = MemoryVolume::new();
        let catalog = SnapshotCatalog::open(volume.root().join("snaps")).unwrap();
        let wal_dir = volume.root().join("wal");
        let node =
            DurableLiveRelation::create(live(10), &catalog, "node", &wal_dir, config()).unwrap();
        for i in 0..20i64 {
            node.insert(vec![Value::Int(100 + i), Value::str("first")])
                .unwrap();
        }
        node.checkpoint(&catalog, "node").unwrap();
        let mark = node.checkpoint_mark();
        assert_eq!(mark, 20);
        for i in 0..15i64 {
            let gid = node
                .insert(vec![Value::Int(200 + i), Value::str("second")])
                .unwrap();
            if i % 3 == 0 {
                node.delete(gid).unwrap().unwrap();
            }
        }
        node.delete(4).unwrap().unwrap();

        // The snapshot's flush fails, as on a full or failing disk.
        volume.arm(Fault {
            op: Op::Sync,
            prefix: "/snaps".into(),
            nth: 1,
            effect: Effect::Fail(io::ErrorKind::Other),
        });
        let err = node.checkpoint(&catalog, "node").unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "{err}");
        assert_eq!(
            node.checkpoint_mark(),
            mark,
            "a failed save confirms nothing"
        );

        node.wal().rotate_now().unwrap();
        let report = node.compact_wal().unwrap();
        assert!(report.records_after < report.records_before, "{report:?}");
        let expected: Vec<Option<Vec<Value>>> = (0..45).map(|gid| node.row(gid)).collect();
        let epoch = node.current_epoch();
        volume.crash();
        drop(node);

        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        for (gid, expect) in expected.iter().enumerate() {
            assert_eq!(&recovered.row(gid), expect, "gid {gid}");
        }
        assert_eq!(recovered.len(), 39);
        assert_eq!(recovered.current_epoch(), epoch);
    }

    /// One recorder threaded through the whole durable stack: WAL,
    /// engine, and MVCC series all land in a single snapshot.
    #[test]
    fn observed_stack_publishes_wal_engine_and_mvcc_series() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let wal_dir = Dir::memory();
        let recorder = Recorder::new();
        let node =
            DurableLiveRelation::create(live(10), &catalog, "node", &wal_dir, observed(&recorder))
                .unwrap();
        for i in 0..8i64 {
            let gid = node
                .insert(vec![Value::Int(100 + i), Value::str("obs")])
                .unwrap();
            if i % 2 == 1 {
                node.delete(gid).unwrap().unwrap();
            }
        }
        node.answer(&SelectionQuery::point(0, 104i64));
        node.status().publish(&recorder);
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("wal_appends_total"), Some(12));
        assert!(snap.counter("wal_appended_bytes_total").unwrap() > 0);
        assert!(snap.histogram("wal_fsync_micros").unwrap().count > 0);
        assert!(snap.histogram("wal_group_commit_records").unwrap().count > 0);
        assert_eq!(snap.counter("engine_updates_total"), Some(12));
        assert!(snap.gauge("mvcc_current_epoch").unwrap() >= 12);
        assert_eq!(snap.gauge("wal_durable_lsn"), Some(12));
        assert_eq!(snap.gauge("wal_checkpoint_mark"), Some(0));
        drop(node);

        // Recovery threads the same handle; the replay's updates land in
        // the (fresh) recorder too.
        let recorder = Recorder::new();
        let node =
            DurableLiveRelation::recover(&catalog, "node", &wal_dir, observed(&recorder)).unwrap();
        let replayed = node.recovery_summary().unwrap().replayed as u64;
        let snap = recorder.snapshot();
        assert!(replayed > 0);
        assert_eq!(
            snap.counter("engine_updates_total"),
            Some(replayed),
            "one engine update per replayed entry"
        );
        assert_eq!(
            snap.counter("wal_recovery_truncations_total"),
            None,
            "clean shutdown"
        );
    }

    /// Recovery scans the log once for both the writer and the reader,
    /// and only the reader reports the torn tail: one recovery, one
    /// truncation. `create` also replaces whatever recorder `live` held.
    #[test]
    fn recovery_reports_a_torn_tail_exactly_once() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let wal_dir = Dir::memory();
        let stale = Recorder::new();
        let mut lr = live(10);
        lr.set_recorder(&stale);
        let node = DurableLiveRelation::create(lr, &catalog, "node", &wal_dir, config()).unwrap();
        for i in 0..6i64 {
            node.insert(vec![Value::Int(100 + i), Value::str("torn")])
                .unwrap();
        }
        drop(node);
        let stale_updates = stale.snapshot().counter("engine_updates_total");
        assert_eq!(stale_updates.unwrap_or(0), 0, "create replaced it");

        // A crash mid-append leaves half a frame at the tail.
        let tear = || {
            let seg = crate::segment::scan_dir(&wal_dir).unwrap().segments;
            wal_dir
                .open(&seg.last().unwrap().name)
                .unwrap()
                .append(&[64, 0, 0, 0, 0xAB, 0xAB, 0xAB, 0xAB, 0xAB])
                .unwrap();
        };
        tear();
        // The writer's scan alone truncates the tail silently.
        let writer_side = Recorder::new();
        let (wal, scan) = WalWriter::open_scanned(&wal_dir, observed(&writer_side), 0).unwrap();
        assert_eq!(scan.torn_bytes, 9);
        drop(wal);
        assert_eq!(
            writer_side
                .snapshot()
                .counter("wal_recovery_truncations_total"),
            None
        );
        assert!(writer_side.drain_trace().is_empty());

        tear();
        let recorder = Recorder::new();
        let node =
            DurableLiveRelation::recover(&catalog, "node", &wal_dir, observed(&recorder)).unwrap();
        assert_eq!(node.len(), 16, "every confirmed insert survived");
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("wal_recovery_truncations_total"), Some(1));
        assert_eq!(snap.counter("wal_recovery_torn_bytes_total"), Some(9));
        assert_eq!(snap.counter("wal_recovery_dropped_records_total"), Some(1));
        let torn_events = recorder
            .drain_trace()
            .iter()
            .filter(|e| e.name == "wal_torn_tail_truncated")
            .count();
        assert_eq!(torn_events, 1);
    }

    #[test]
    fn concurrent_writers_recover_consistently() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let wal_dir = Dir::memory();
        let node =
            DurableLiveRelation::create(live(0), &catalog, "node", &wal_dir, config()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4i64 {
                let node = &node;
                scope.spawn(move || {
                    for i in 0..30i64 {
                        let gid = node
                            .insert(vec![Value::Int(t * 1000 + i), Value::str("w")])
                            .unwrap();
                        if i % 3 == 0 {
                            node.delete(gid).unwrap().unwrap();
                        }
                    }
                });
            }
        });
        let expected: Vec<Option<Vec<Value>>> = (0..120).map(|gid| node.row(gid)).collect();
        drop(node);
        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        for (gid, expect) in expected.iter().enumerate() {
            assert_eq!(&recovered.row(gid), expect, "gid {gid}");
        }
    }
}
