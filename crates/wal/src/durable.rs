//! The durable serving tier: a [`LiveRelation`] whose every confirmed
//! update survives a crash at any instant.
//!
//! [`DurableLiveRelation`] wires a [`WalWriter`] into the engine's
//! [`WalSink`] hook: each insert/delete is staged to the WAL **inside
//! the global-id critical section** (so WAL order ≡ log order ≡ gid
//! order, even under racing writers) and committed durable after the
//! locks drop (so fsyncs batch across writers instead of stalling the
//! shard). The companion checkpoint persists the frozen state *and* the
//! WAL position it covers as one atomic [`Snapshot::Checkpoint`] file —
//! there is no instant at which a crash can observe a state without its
//! mark, which is the classic lost-update window of two-file schemes.
//!
//! # The LSN ↔ log-position ↔ epoch dictionary
//!
//! The engine's in-memory [`pitract_engine::UpdateLog`] counts absolute
//! positions from the moment the relation was wrapped; the WAL counts
//! LSNs from the beginning of (durable) time; the MVCC epoch clock
//! counts applied updates from the relation's birth. Because the sink
//! appends exactly one WAL record per logged entry and every applied
//! update ticks the epoch once, all three advance in lockstep:
//! `lsn = wal_base + position` and `epoch = epoch_base + position`,
//! where both bases are fixed at wrap time. A freeze's cut epoch
//! therefore translates directly into the checkpoint's WAL mark
//! ([`DurableLiveRelation::lsn_of_epoch`]), and recovery inverts the
//! mapping: load the checkpoint, replay the WAL tail at-or-after the
//! mark (compacted, so replay work is bounded by net change), resume
//! appending at the recovered LSN, and advance the epoch clock to the
//! cut epoch plus one tick per tail record — so the recovered node
//! stamps its next update with the same epoch the crashed node would
//! have ([`DurableLiveRelation::recovery_summary`]).

use crate::compactor::{CompactionReport, Compactor};
use crate::error::WalError;
use crate::reader::WalReader;
use crate::writer::{WalConfig, WalWriter};
use pitract_core::epoch::Epoch;
use pitract_engine::batch::{OutputMode, Routing, ShardResults};
use pitract_engine::{BatchServe, EngineError, LiveRelation, NodeStatus, UpdateEntry, WalSink};
use pitract_relation::SelectionQuery;
use pitract_store::{Dir, Recovered, Snapshot, SnapshotCatalog};
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
    /// WAL LSN corresponding to the live relation's log position 0.
    wal_base: u64,
    /// Epoch-clock value at the live relation's log position 0 — the
    /// other half of the epoch ↔ LSN dictionary.
    epoch_base: u64,
    /// The latest durably confirmed checkpoint mark (what compaction may
    /// drop below).
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
    /// log onto. `live` must have an empty pending log (freshly built or
    /// just checkpointed); updates that predate the WAL would otherwise
    /// silently sit outside the durability contract.
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
        let pending = live.pending_log().len();
        if pending > 0 {
            return Err(WalError::PendingUpdates { count: pending });
        }
        live.set_recorder(&config.recorder);
        let wal = Arc::new(WalWriter::open(wal_dir, config)?);
        // Anything already in the directory (a reused path) is below the
        // bootstrap mark and therefore dead: the checkpoint covers it.
        let mark = wal.next_lsn();
        let frozen = live.freeze();
        catalog.save(
            name,
            &Snapshot::Checkpoint {
                state: frozen.state,
                wal_lsn: mark,
                epoch: frozen.epoch,
            },
        )?;
        live.confirm_checkpoint(frozen.covered);
        live.set_wal_sink(Some(Arc::new(WalWriterSink::new(wal.clone()))));
        Ok(DurableLiveRelation {
            live,
            wal,
            wal_base: mark,
            epoch_base: frozen.epoch.get(),
            last_mark: AtomicU64::new(mark),
            recovered: None,
        })
    }

    /// Recover after a crash (or a clean restart — the code path is the
    /// same, which is how it stays tested): load the checkpoint saved
    /// under `name`, truncate any torn WAL tail, replay the compacted
    /// tail at-or-after the checkpoint's mark, and resume durable
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
        let (mut live, wal, mark, cut, tail, replayed) =
            recover_live(catalog, name, wal_dir, config)?;
        let wal = Arc::new(wal);
        // Replay logged `replayed` entries at positions 0..replayed, whose
        // WAL records all sit below next_lsn — so that position maps to
        // the next fresh LSN, pinning the dictionary.
        let wal_base = wal.next_lsn() - replayed as u64;
        // The epoch clock ticked once per *tail record* on the crashed
        // node, while the compacted replay ticked it only `replayed`
        // times — advance the difference so the next update is stamped
        // with the same epoch the crashed node would have used. (A
        // compacted WAL undercounts dropped churn; the clock stays
        // consistent with this node's own dictionary.)
        let epoch_end = Epoch::new(cut.get() + tail as u64);
        live.advance_epoch_to(epoch_end);
        let epoch_base = epoch_end.get() - replayed as u64;
        live.set_wal_sink(Some(Arc::new(WalWriterSink::new(wal.clone()))));
        let recovered = Recovered {
            epoch: epoch_end,
            lsn: Some(wal.next_lsn()),
            replayed,
        };
        Ok(DurableLiveRelation {
            live,
            wal,
            wal_base,
            epoch_base,
            last_mark: AtomicU64::new(mark),
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
    /// the next LSN, and how many updates the compacted replay applied.
    /// `None` for a node born via [`Self::create`].
    pub fn recovery_summary(&self) -> Option<Recovered> {
        self.recovered
    }

    /// LSN of the first WAL record *not* covered by `epoch`: the
    /// epoch ↔ LSN dictionary. Meaningful for epochs at or after this
    /// node's wrap/recovery point (`epoch_base`); earlier epochs clamp
    /// to the WAL base.
    pub fn lsn_of_epoch(&self, epoch: Epoch) -> u64 {
        self.wal_base + epoch.get().saturating_sub(self.epoch_base)
    }

    /// The epoch whose state covers exactly the WAL records below
    /// `lsn` — the inverse of [`Self::lsn_of_epoch`]. LSNs below the WAL
    /// base clamp to the base epoch.
    pub fn epoch_of_lsn(&self, lsn: u64) -> Epoch {
        Epoch::new(self.epoch_base + lsn.saturating_sub(self.wal_base))
    }

    /// Checkpoint: freeze the live state, persist it with its WAL mark
    /// as one atomic snapshot, then truncate the in-memory log. After
    /// this returns, [`Self::compact_wal`] may drop every WAL record
    /// below the new mark.
    pub fn checkpoint(&self, catalog: &SnapshotCatalog, name: &str) -> Result<PathBuf, WalError> {
        // Make sure everything the snapshot will contain is also durable
        // in the log *before* the snapshot supersedes it — an unsynced
        // suffix must never be the only copy of a confirmed update.
        self.wal.sync()?;
        let frozen = self.live.freeze();
        // Both halves of the dictionary name the same cut: the covered
        // log position and the cut epoch map to one WAL mark.
        let mark = self.wal_base + frozen.covered as u64;
        debug_assert_eq!(mark, self.lsn_of_epoch(frozen.epoch));
        let path = catalog.save(
            name,
            &Snapshot::Checkpoint {
                state: frozen.state,
                wal_lsn: mark,
                epoch: frozen.epoch,
            },
        )?;
        self.live.confirm_checkpoint(frozen.covered);
        self.last_mark.fetch_max(mark, Ordering::SeqCst);
        Ok(path)
    }

    /// Compact the WAL's closed segments against the latest confirmed
    /// checkpoint mark: drop records the checkpoint covers and
    /// insert+delete pairs that cancel, bounding recovery replay (and
    /// disk) by net change instead of churn. Call [`Self::checkpoint`]
    /// first for the mark to be meaningful; rotation
    /// ([`WalWriter::rotate_now`] or the size threshold) determines how
    /// much of the log is closed and therefore compactable.
    pub fn compact_wal(&self) -> Result<CompactionReport, WalError> {
        self.compact_wal_retaining(None)
    }

    /// [`Self::compact_wal`] under a replication retention watermark:
    /// closed segments holding any record at or above `retention` are
    /// left byte-for-byte untouched, so an attached follower that has
    /// applied up to `retention` can still fetch everything it is owed
    /// after the pass. A `pitract-repl` `SegmentPublisher` computes the
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
/// ([`WalReader::publish`]). It then replays the compacted tail
/// at-or-after the mark onto the checkpoint state and burns the gids a
/// trailing cancelled pair consumed, so future inserts get the gids the
/// log's writer would have assigned.
///
/// Returns `(live, wal, mark, cut, tail, replayed)`: the replayed
/// relation (recording into `config.recorder`), the positioned writer,
/// the checkpoint's WAL mark and cut epoch, and the tail's record count
/// before and after compaction. The epoch clock has ticked once per
/// replayed entry only: each caller advances it by its own rule.
pub fn recover_live(
    catalog: &SnapshotCatalog,
    name: &str,
    dir: impl Into<Dir>,
    config: WalConfig,
) -> Result<(LiveRelation, WalWriter, u64, Epoch, usize, usize), WalError> {
    let (state, mark, cut) = catalog.load(name)?.into_checkpoint()?;
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
    let tail = reader.tail_log(mark);
    let replayed = live.replay_compacted(&tail.compact())?;
    // Trailing cancelled pairs leave no entry to carry their ids.
    if let Some(watermark) = tail.next_gid_watermark() {
        live.burn_gids_to(watermark);
    }
    Ok((live, wal, mark, cut, tail.len(), replayed))
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

    fn pin_epoch(&self) -> Option<Epoch> {
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
        assert!(node.pending_log().is_empty());
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

        let before = DurableLiveRelation::recover(&catalog, "ckpt", &wal_dir, config()).unwrap();
        let report = node.compact_wal().unwrap();
        assert!(report.records_after < report.records_before, "{report:?}");
        let after = DurableLiveRelation::recover(&catalog, "ckpt", &wal_dir, config()).unwrap();
        assert_eq!(before.len(), after.len());
        for gid in 0..60 {
            assert_eq!(before.row(gid), after.row(gid), "gid {gid}");
        }
        for q in [
            SelectionQuery::point(1, "churn"),
            SelectionQuery::point(1, "tail"),
            SelectionQuery::range_closed(0, 0i64, 500i64),
        ] {
            assert_eq!(before.matching_ids(&q), after.matching_ids(&q), "{q:?}");
        }
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

    #[test]
    fn create_refuses_a_relation_with_pending_updates() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let lr = live(5);
        lr.insert(vec![Value::Int(99), Value::str("unlogged")])
            .unwrap();
        let err =
            DurableLiveRelation::create(lr, &catalog, "node", Dir::memory(), config()).unwrap_err();
        assert!(
            matches!(err, WalError::PendingUpdates { count: 1 }),
            "{err}"
        );
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
            "one engine update per compacted replay entry"
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
