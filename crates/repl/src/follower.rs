//! The follower side: bootstrap from a checkpoint, stream the primary's
//! log, serve epoch-pinned replica reads.
//!
//! A [`Follower`] is a read replica built from exactly the pieces a
//! crashed primary recovers from — which is why its guarantees are the
//! recovery guarantees:
//!
//! * **Bootstrap** runs the primary's own recovery sequence
//!   ([`pitract_wal::recover_live`]) over the primary's checkpoint
//!   snapshot (`(state, wal_lsn, epoch)`) and the *local* segment
//!   mirror, replaying whatever the mirror already holds past the mark
//!   (the restart path). It fixes the epoch ↔ LSN dictionary at the
//!   checkpoint cut: `epoch(lsn) = cut + (lsn − mark)`. The dictionary
//!   is derived from the checkpoint alone, so it survives follower
//!   restarts unchanged.
//! * **Catch-up** polls the publisher for durable record frames,
//!   validates them with the one frame scanner (torn or garbled
//!   shipments fail typed), persists the validated bytes to the local
//!   mirror *first* — the mirror is a [`WalWriter`]:
//!   [`WalWriter::append_frames`] writes one run per segment under the
//!   primary's partial-write rule, then [`WalWriter::commit`] flushes
//!   (durability before state, same as the primary's WAL-before-apply
//!   order) — then replays them into the live relation, so answers
//!   *and* global row ids stay bit-identical to the primary's prefix.
//!   A log thinned by an older compactor has gaps: its gid gaps burn as
//!   tombstones, and its LSN gaps advance the epoch clock without
//!   replaying, keeping the dictionary exact:
//!   `current_epoch == epoch_of_lsn(applied_lsn)` after every step.
//! * **Serving** implements [`BatchServe`] by delegating to the inner
//!   [`LiveRelation`], whose MVCC pin is taken at the current epoch —
//!   i.e. **the epoch of the last LSN this follower replayed**. Every
//!   served batch is a consistent cut that is a true prefix of the
//!   primary, and concurrent catch-up ticks never tear a pinned read.
//!
//! Locking: a follower takes no replication lock of its own. Its
//! mirror's appends are covered by the writer's own WAL ranks, and a
//! commit flushes through a cloned handle with no lock held. Catch-up
//! cycles are serialized by a lock-free turnstile
//! ([`ReplError::CatchUpInProgress`] when contended), so neither the
//! mirror write nor the replay — which re-enters the engine's ranks
//! 10–30 — runs under a replication lock.

use crate::publisher::{SegmentPublisher, Shipment, SubscriptionId};
use crate::{CatchUpReport, ReplError};
use pitract_core::epoch::Epoch;
use pitract_engine::batch::{OutputMode, Routing, ShardResults};
use pitract_engine::{BatchServe, EngineError, LiveRelation, NodeStatus, UpdateEntry};
use pitract_obs::Histogram;
use pitract_relation::{Schema, SelectionQuery, Value};
use pitract_store::{Dir, SnapshotCatalog};
use pitract_wal::segment::{decode_entry, scan_frames};
use pitract_wal::{recover_live, EpochLsn, WalConfig, WalError, WalWriter};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Lock-free catch-up turnstile: exactly one cycle may run at a time,
/// and replay must not happen under a replication lock — so exclusion
/// is an atomic claim, not a mutex.
struct Turn<'a>(&'a AtomicBool);

impl<'a> Turn<'a> {
    fn claim(flag: &'a AtomicBool) -> Result<Self, ReplError> {
        flag.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .map_err(|_| ReplError::CatchUpInProgress)?;
        Ok(Turn(flag))
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// A read replica: checkpoint-bootstrapped, log-shipped, serving
/// batches pinned to the epoch of the last LSN it replayed. See the
/// module docs for the full contract.
#[derive(Debug)]
pub struct Follower {
    live: LiveRelation,
    /// The local segment mirror: shipped frames, original primary LSNs
    /// kept, so a restart recovers exactly like a crashed primary.
    mirror: WalWriter,
    /// Serializes catch-up cycles without holding a lock across replay.
    applying: AtomicBool,
    /// The follower's cursor in the *primary's* LSN coordinate.
    applied: AtomicU64,
    /// The checkpoint's epoch ↔ LSN dictionary.
    clock: EpochLsn,
    /// The primary's durable frontier as the last catch-up poll saw it.
    primary_seen: AtomicU64,
    replay_micros: Histogram,
}

impl Follower {
    /// Bootstrap (or restart — same code path, same as the primary's
    /// recovery) a follower: load the checkpoint saved under `name` in
    /// `catalog`, replay whatever `mirror_dir` already holds past the
    /// checkpoint mark, and fix the epoch ↔ LSN dictionary at the
    /// checkpoint cut. The mirror is a [`WalWriter`] opened with
    /// `config`: `config.segment_bytes` sizes its segments, and
    /// `config.sync` has exactly [`pitract_wal::SyncPolicy`]'s meaning —
    /// under `Never` catch-up skips the per-shipment flush, trading
    /// replica rebuild-on-power-loss for speed, yet a rotation still
    /// seals the closing segment. `config.recorder` records the
    /// replica's events (`engine_*`, `repl_replay_micros`, the mirror's
    /// `wal_*`) and hears a torn mirror tail once, through
    /// [`pitract_wal::WalReader::publish`]; its lag is read by
    /// [`BatchServe::status`].
    pub fn bootstrap(
        catalog: &SnapshotCatalog,
        name: &str,
        mirror_dir: impl Into<Dir>,
        config: WalConfig,
    ) -> Result<Self, ReplError> {
        // Recovery leaves the clock at the epoch of the mirror's next LSN.
        // The dictionary is fixed by the checkpoint alone — mark ↔ cut —
        // so it is identical on every restart of this follower.
        let (live, mirror, clock, _) = recover_live(catalog, name, mirror_dir, config)?;
        let applied = mirror.next_lsn();
        Ok(Follower {
            replay_micros: mirror.config().recorder.histogram("repl_replay_micros"),
            live,
            mirror,
            applying: AtomicBool::new(false),
            applied: AtomicU64::new(applied),
            clock,
            primary_seen: AtomicU64::new(applied),
        })
    }

    /// The LSN after the last primary record this follower has applied.
    pub fn applied_lsn(&self) -> u64 {
        self.applied.load(Ordering::SeqCst)
    }

    /// The epoch of the follower's current consistent cut — the epoch
    /// of the last LSN it replayed, which is what served batches pin.
    pub fn applied_epoch(&self) -> Epoch {
        self.epoch_of_lsn(self.applied_lsn())
    }

    /// The follower's epoch ↔ LSN dictionary, fixed at the bootstrap
    /// checkpoint: the epoch whose state covers exactly the primary
    /// records below `lsn`.
    pub fn epoch_of_lsn(&self, lsn: u64) -> Epoch {
        self.clock.epoch_of_lsn(lsn)
    }

    /// Inverse of [`Self::epoch_of_lsn`]: the first primary LSN *not*
    /// covered by `epoch`.
    pub fn lsn_of_epoch(&self, epoch: Epoch) -> u64 {
        self.clock.lsn_of_epoch(epoch)
    }

    /// Register this follower in `publisher`'s retention table at its
    /// current cursor. Until detached, the primary's compactor (routed
    /// through the publisher) cannot drop a segment this follower has
    /// yet to fetch.
    pub fn attach(&self, publisher: &SegmentPublisher) -> SubscriptionId {
        publisher.attach(self.applied_lsn())
    }

    /// Catch up to the primary's durable frontier: poll, validate,
    /// persist, replay — repeating until a poll comes back empty. `sub`
    /// is advanced after every applied shipment, releasing retention as
    /// the follower progresses. Fails typed and applies nothing of a
    /// shipment that does not validate.
    pub fn catch_up(
        &self,
        publisher: &SegmentPublisher,
        sub: SubscriptionId,
    ) -> Result<CatchUpReport, ReplError> {
        let turn = Turn::claim(&self.applying)?;
        loop {
            let advanced = self.step(publisher, sub, usize::MAX)?;
            if !advanced {
                drop(turn);
                return Ok(self.report(publisher.durable_lsn()));
            }
        }
    }

    /// One bounded catch-up step: apply at most one shipment of roughly
    /// `max_bytes` of frames. Returns the post-step report; compare
    /// `applied_lsn` before and after (or check `lag`) to see whether
    /// the step advanced. This is the granularity crash tests and
    /// incremental pollers drive.
    pub fn catch_up_step(
        &self,
        publisher: &SegmentPublisher,
        sub: SubscriptionId,
        max_bytes: usize,
    ) -> Result<CatchUpReport, ReplError> {
        let _turn = Turn::claim(&self.applying)?;
        self.step(publisher, sub, max_bytes)?;
        Ok(self.report(publisher.durable_lsn()))
    }

    /// Where this follower stands against a primary at `primary_lsn`.
    fn report(&self, primary_lsn: u64) -> CatchUpReport {
        let applied_lsn = self.applied_lsn();
        let primary_lsn = primary_lsn.max(applied_lsn);
        CatchUpReport {
            applied_lsn,
            primary_lsn,
            lag: primary_lsn - applied_lsn,
        }
    }

    /// Poll + validate + persist + replay one shipment. Returns whether
    /// the cursor advanced. Caller holds the turnstile.
    fn step(
        &self,
        publisher: &SegmentPublisher,
        sub: SubscriptionId,
        max_bytes: usize,
    ) -> Result<bool, ReplError> {
        let from = self.applied_lsn();
        let ship = publisher.poll_bytes(from, max_bytes)?;
        self.primary_seen
            .fetch_max(publisher.durable_lsn(), Ordering::SeqCst);
        if ship.is_empty() {
            return Ok(false);
        }
        self.apply_locked(&ship)?;
        publisher.advance(sub, ship.end());
        Ok(true)
    }

    /// The receive half of the transport: validate and apply one
    /// [`Shipment`] — however it arrived — against this follower's
    /// cursor. In-process catch-up ([`Self::catch_up`]) uses this under
    /// the hood; a custom transport that moved the shipment over a wire
    /// calls it directly after [`Shipment::from_parts`]. All-or-nothing:
    /// a shipment that fails validation (torn, garbled, short a frame,
    /// misaligned with the cursor) is a typed error and changes nothing.
    pub fn apply_shipment(&self, ship: &Shipment) -> Result<(), ReplError> {
        let _turn = Turn::claim(&self.applying)?;
        if ship.is_empty() {
            return Ok(());
        }
        self.apply_locked(ship)
    }

    /// Validate + persist + replay one non-empty shipment. Caller holds
    /// the turnstile.
    fn apply_locked(&self, ship: &Shipment) -> Result<(), ReplError> {
        let from = self.applied_lsn();
        if ship.base() != from {
            return Err(ReplError::Misaligned {
                expected: from,
                found: ship.base(),
            });
        }

        // Validate the transfer with the frame scanner: a shipment is
        // a *closed* run of frames, so a tear (a frame cut short in
        // flight) is typed corruption here, never a silent prefix.
        let scan = scan_frames(ship.frames(), ship.base(), false, "shipment")?;
        // A truncation that lands exactly on a frame boundary scans as a
        // valid *shorter* run — the record count in the shipment header
        // is what catches it.
        if scan.frames.len() != ship.records() {
            return Err(ReplError::Wal(WalError::Corrupt {
                segment: "shipment".to_string(),
                offset: ship.frames().len() as u64,
                reason: format!(
                    "shipment claims {} records but {} frames arrived",
                    ship.records(),
                    scan.frames.len()
                ),
            }));
        }
        let mut entries: Vec<UpdateEntry> = Vec::with_capacity(scan.frames.len());
        for frame in &scan.frames {
            if frame.lsn < from || frame.lsn >= ship.end() {
                return Err(ReplError::Misaligned {
                    expected: from,
                    found: frame.lsn,
                });
            }
            let entry = decode_entry("shipment", frame.offset as u64, frame.lsn, frame.payload())?;
            entries.push(entry);
        }

        // Persist before apply — the same WAL-before-state order the
        // primary commits under.
        if let Some(last) = self.mirror.append_frames(ship.frames(), &scan.frames)? {
            self.mirror.commit(last)?;
        }

        // Replay with no replication lock held (replay re-enters the
        // engine's ranked tiers). A gid gap in a thinned log burns as
        // tombstones, so global row ids stay bit-identical.
        let started = std::time::Instant::now();
        self.live.replay_entries(entries)?;
        // LSN gaps advance the clock by their span: the dictionary
        // invariant `current_epoch == epoch_of_lsn(applied)` holds
        // after every step, whatever a thinned log lacks.
        self.live.advance_epoch_to(self.epoch_of_lsn(ship.end()));
        self.replay_micros.record_duration(started.elapsed());

        self.applied.store(ship.end(), Ordering::SeqCst);
        Ok(())
    }

    // --- read-only serving surface -----------------------------------

    /// The replica's schema.
    pub fn schema(&self) -> &Schema {
        self.live.schema()
    }

    /// Live rows currently visible at the replica's cut.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Is the replica empty at its current cut?
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Shards the replica serves from.
    pub fn shard_count(&self) -> usize {
        self.live.shard_count()
    }

    /// Boolean answer for one query at the replica's current cut.
    pub fn answer(&self, q: &SelectionQuery) -> bool {
        self.live.answer(q)
    }

    /// Matching global row ids for one query at the replica's current
    /// cut — the primary's gids, bit-identical.
    pub fn matching_ids(&self, q: &SelectionQuery) -> Vec<usize> {
        self.live.matching_ids(q)
    }

    /// Read one row by its (primary) global id.
    pub fn row(&self, gid: usize) -> Option<Vec<Value>> {
        self.live.row(gid)
    }

    /// The replica's current epoch (== the epoch of its applied LSN).
    pub fn current_epoch(&self) -> Epoch {
        self.live.current_epoch()
    }
}

/// Serve a follower from a [`pitract_engine::PooledExecutor`] exactly
/// like any other target: the pin taken per batch is the
/// replica's MVCC pin — the epoch of the last LSN it replayed — so
/// every pooled batch reads one consistent prefix of the primary even
/// while catch-up keeps applying.
impl BatchServe for Follower {
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

    /// The inner status plus the lag behind the last frontier polled.
    fn status(&self) -> NodeStatus {
        let primary_lsn = self.primary_seen.load(Ordering::SeqCst);
        NodeStatus {
            replica: Some(self.report(primary_lsn)),
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
    use pitract_engine::ShardBy;
    use pitract_obs::Recorder;
    use pitract_relation::{ColType, Relation};
    use pitract_wal::segment::{encode_record, scan_dir, segment_header};
    use pitract_wal::{DurableLiveRelation, SyncPolicy};
    use std::sync::Arc;

    fn config() -> WalConfig {
        WalConfig {
            segment_bytes: 160,
            sync: SyncPolicy::GroupCommit,
            ..WalConfig::default()
        }
    }

    /// A primary on a fresh in-memory volume, its snapshots and WAL
    /// under `snaps` and `wal`.
    fn primary(rows: i64) -> (Dir, Arc<DurableLiveRelation>, SnapshotCatalog) {
        let root = Dir::memory();
        let schema = Schema::new(&[("id", ColType::Int)]);
        let data: Vec<Vec<Value>> = (0..rows).map(|i| vec![Value::Int(i)]).collect();
        let rel = Relation::from_rows(schema, data).unwrap();
        let live = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let node = Arc::new(
            DurableLiveRelation::create(live, &catalog, "node", root.join("wal"), config())
                .unwrap(),
        );
        (root, node, catalog)
    }

    #[test]
    fn follower_catches_up_and_matches_the_primary_bit_for_bit() {
        let (root, node, catalog) = primary(5);
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        let follower =
            Follower::bootstrap(&catalog, "node", root.join("mirror"), config()).unwrap();
        let sub = follower.attach(&publisher);

        let mut deleted = Vec::new();
        for i in 0..40i64 {
            let gid = node.insert(vec![Value::Int(1000 + i)]).unwrap();
            if i % 3 == 0 {
                node.delete(gid).unwrap();
                deleted.push(gid);
            }
        }
        let report = follower.catch_up(&publisher, sub).unwrap();
        assert_eq!(report.lag, 0);
        assert_eq!(report.applied_lsn, node.wal().durable_lsn());
        assert_eq!(follower.len(), node.len());
        // Answers AND global row ids, bit-identical.
        for probe in [0i64, 3, 1000, 1001, 1003, 1039, 999_999] {
            let q = SelectionQuery::point(0, probe);
            assert_eq!(follower.answer(&q), node.answer(&q), "probe {probe}");
            assert_eq!(
                follower.matching_ids(&q),
                node.matching_ids(&q),
                "probe {probe}"
            );
        }
        for gid in deleted {
            assert_eq!(follower.row(gid), None);
        }
        // The pinned-epoch dictionary names the applied prefix.
        assert_eq!(
            follower.applied_epoch(),
            follower.current_epoch(),
            "current epoch is the applied cut"
        );
        assert_eq!(
            follower.lsn_of_epoch(follower.applied_epoch()),
            report.applied_lsn
        );
    }

    #[test]
    fn follower_restart_resumes_from_its_mirror() {
        let (root, node, catalog) = primary(0);
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        for i in 0..25i64 {
            node.insert(vec![Value::Int(i)]).unwrap();
        }
        let follower =
            Follower::bootstrap(&catalog, "node", root.join("mirror"), config()).unwrap();
        let sub = follower.attach(&publisher);
        follower.catch_up(&publisher, sub).unwrap();
        let applied = follower.applied_lsn();
        let epoch = follower.applied_epoch();
        drop(follower);

        // More primary traffic while the follower is down.
        for i in 25..31i64 {
            node.insert(vec![Value::Int(i)]).unwrap();
        }
        let back = Follower::bootstrap(&catalog, "node", root.join("mirror"), config()).unwrap();
        assert_eq!(back.applied_lsn(), applied, "mirror replayed");
        assert_eq!(back.applied_epoch(), epoch, "dictionary is stable");
        let sub = back.attach(&publisher);
        let report = back.catch_up(&publisher, sub).unwrap();
        assert_eq!(report.lag, 0);
        assert_eq!(back.len(), node.len());
        let q = SelectionQuery::point(0, 30);
        assert_eq!(back.matching_ids(&q), node.matching_ids(&q));
    }

    /// A torn mirror tail is truncated by the bootstrap that finds it
    /// and reported exactly once, through the config's recorder.
    #[test]
    fn bootstrap_reports_a_torn_mirror_tail_exactly_once() {
        let (root, node, catalog) = primary(0);
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        for i in 0..12i64 {
            node.insert(vec![Value::Int(i)]).unwrap();
        }
        let mirror = root.join("mirror");
        let follower = Follower::bootstrap(&catalog, "node", &mirror, config()).unwrap();
        let sub = follower.attach(&publisher);
        follower.catch_up(&publisher, sub).unwrap();
        let applied = follower.applied_lsn();
        drop(follower);
        // A crash mid-append leaves half a frame at the mirror's tail.
        let segments = scan_dir(&mirror).unwrap().segments;
        mirror
            .open(&segments.last().unwrap().name)
            .unwrap()
            .append(&[64, 0, 0, 0, 0xAB, 0xAB, 0xAB, 0xAB, 0xAB])
            .unwrap();
        let observed = |recorder: &Recorder| WalConfig {
            recorder: recorder.clone(),
            ..config()
        };

        let recorder = Recorder::new();
        let back = Follower::bootstrap(&catalog, "node", &mirror, observed(&recorder)).unwrap();
        assert_eq!(
            back.applied_lsn(),
            applied,
            "the torn frame was never applied"
        );
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
        drop(back);

        // That bootstrap healed the mirror: the next one reports nothing.
        let clean = Recorder::new();
        Follower::bootstrap(&catalog, "node", &mirror, observed(&clean)).unwrap();
        let truncations = clean.snapshot().counter("wal_recovery_truncations_total");
        assert_eq!(truncations, None);
    }

    /// A restart right after *any* shipment — most of them flushed by
    /// the per-shipment data flush alone, mid-segment, with no sealing
    /// rotation behind them — recovers exactly that shipment's cursor,
    /// epoch and rows from the mirror.
    #[test]
    fn follower_restart_after_every_flushed_shipment_loses_nothing() {
        let (root, node, catalog) = primary(0);
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        for i in 0..30i64 {
            node.insert(vec![Value::Int(i)]).unwrap();
        }
        let mirror = root.join("mirror");
        let mut applied = 0;
        let mut restarts = 0;
        loop {
            let follower = Follower::bootstrap(&catalog, "node", &mirror, config()).unwrap();
            assert_eq!(follower.applied_lsn(), applied, "restart {restarts}");
            assert_eq!(follower.current_epoch(), follower.applied_epoch());
            assert_eq!(follower.len() as u64, applied);
            let sub = follower.attach(&publisher);
            // One shipment of two or three records, then "crash".
            let report = follower.catch_up_step(&publisher, sub, 100).unwrap();
            publisher.detach(sub);
            if report.applied_lsn == applied {
                break;
            }
            applied = report.applied_lsn;
            restarts += 1;
        }
        assert_eq!(applied, 30);
        assert!(restarts >= 10, "shipments were small: {restarts} restarts");
    }

    /// One write per run of frames must leave the mirror byte-identical
    /// to one write per frame, and to the primary's own WAL: same
    /// segment files, rotated at the same records. Feeding a follower
    /// one record per shipment *is* one write per frame.
    #[test]
    fn a_shipment_written_in_runs_mirrors_exactly_like_frame_by_frame() {
        let (root, node, catalog) = primary(0);
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        for i in 0..23i64 {
            node.insert(vec![Value::Int(i)]).unwrap();
        }
        let whole = Follower::bootstrap(&catalog, "node", root.join("whole"), config()).unwrap();
        whole.apply_shipment(&publisher.poll(0).unwrap()).unwrap();
        let single = Follower::bootstrap(&catalog, "node", root.join("single"), config()).unwrap();
        while single.applied_lsn() < 23 {
            let ship = publisher.poll_bytes(single.applied_lsn(), 1).unwrap();
            assert_eq!(ship.records(), 1);
            single.apply_shipment(&ship).unwrap();
        }
        let files = |dir: &str| -> Vec<(String, Vec<u8>)> {
            let dir = root.join(dir);
            let mut files: Vec<_> = dir
                .list()
                .unwrap()
                .into_iter()
                .map(|name| {
                    let bytes = dir.read(&name, 0).unwrap();
                    (name, bytes)
                })
                .collect();
            files.sort();
            files
        };
        let (whole_files, single_files) = (files("whole"), files("single"));
        assert!(whole_files.len() > 3, "tiny segments rotated mid-shipment");
        assert_eq!(whole_files, single_files);
        // Both lay the log out exactly as the primary's own writer did.
        assert_eq!(whole_files, files("wal"));
        // And it is what the scanner expects of a WAL directory.
        let scan = scan_dir(&root.join("whole")).unwrap();
        assert_eq!(scan.next_lsn, 23);
        assert_eq!(scan.records().count(), 23);
    }

    /// A follower never checkpoints: its mirror, flushed before each
    /// replay, is its only log, and replay keeps nothing per update in
    /// memory. Across any number of shipments — some of them after a
    /// compaction pass — the replica stays bit-identical to the primary
    /// and on the primary's epoch clock.
    #[test]
    fn replica_stays_on_the_primary_clock_across_many_shipments() {
        let (root, node, catalog) = primary(4);
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        let follower =
            Follower::bootstrap(&catalog, "node", root.join("mirror"), config()).unwrap();
        let sub = follower.attach(&publisher);
        let mut shipments = 0;
        for round in 0..120i64 {
            let gid = node.insert(vec![Value::Int(1000 + round)]).unwrap();
            node.insert(vec![Value::Int(5000 + round)]).unwrap();
            if round % 3 == 0 {
                node.delete(gid).unwrap();
            }
            if round == 60 {
                // A compaction pass on the way.
                node.checkpoint(&catalog, "node").unwrap();
                publisher.compact_primary().unwrap();
            }
            let ship = publisher.poll(follower.applied_lsn()).unwrap();
            follower.apply_shipment(&ship).unwrap();
            publisher.advance(sub, ship.end());
            shipments += 1;
            assert_eq!(
                follower.current_epoch(),
                follower.applied_epoch(),
                "round {round}"
            );
            assert_eq!(
                follower.current_epoch(),
                node.current_epoch(),
                "round {round}: one clock on both sides"
            );
        }
        assert!(shipments >= 100);
        assert_eq!(follower.applied_lsn(), node.wal().durable_lsn());
        assert_eq!(follower.len(), node.len());
        for round in 0..120i64 {
            for key in [1000 + round, 5000 + round] {
                let q = SelectionQuery::point(0, key);
                assert_eq!(
                    follower.matching_ids(&q),
                    node.matching_ids(&q),
                    "key {key}"
                );
            }
        }
    }

    /// A log thinned by an older compactor — which cancelled
    /// insert+delete pairs inside a closed segment and kept the
    /// highest-gid pair to carry the id allocator — is still a valid
    /// log. Built here by hand with LSN gaps, gid gaps and that trailing
    /// kept pair, it recovers to the rows and next gid of the whole log,
    /// and a follower catching up over it stays on the primary's clock
    /// and assigns the primary's gids.
    #[test]
    fn catch_up_bridges_compaction_gaps_with_identical_gids() {
        let (root, node, catalog) = primary(3);
        // lsn 0: insert 3; 1, 2: pair 4; 3: insert 5; 4: delete 0;
        // 5, 6: pair 6; 7, 8: pair 7.
        for key in 10..14i64 {
            let gid = node.insert(vec![Value::Int(key)]).unwrap();
            if key % 2 == 1 {
                node.delete(gid).unwrap().unwrap();
            }
            if key == 12 {
                node.delete(0).unwrap().unwrap();
            }
        }
        let gid = node.insert(vec![Value::Int(14)]).unwrap();
        node.delete(gid).unwrap().unwrap();
        node.wal().rotate_now().unwrap();
        drop(node);

        // The thinned log, segment by segment: pairs 4 and 6 cancelled,
        // pair 7 kept, every file at its base.
        let (wal, thin) = (root.join("wal"), root.join("thin"));
        thin.create_dir_all().unwrap();
        for seg in scan_dir(&wal).unwrap().segments {
            let mut bytes = segment_header(seg.base_lsn);
            for (lsn, payload) in &seg.records {
                if ![1, 2, 5, 6].contains(lsn) {
                    bytes.extend_from_slice(&encode_record(*lsn, payload));
                }
            }
            thin.write_atomic(&seg.name, &bytes).unwrap();
        }
        let lsns: Vec<u64> = scan_dir(&thin)
            .unwrap()
            .records()
            .map(|(l, _)| *l)
            .collect();
        assert_eq!(lsns, [0, 3, 4, 7, 8]);

        // Recovery: the same rows, clock and next gid as the whole log.
        let recovered = |dir: &Dir| {
            let (live, _, _, replayed) = recover_live(&catalog, "node", dir, config()).unwrap();
            let rows: Vec<_> = (0..12).map(|gid| live.row(gid)).collect();
            let epoch = live.current_epoch();
            (
                rows,
                epoch,
                live.insert(vec![Value::Int(99)]).unwrap(),
                replayed,
            )
        };
        let (rows, epoch, next, replayed) = recovered(&wal);
        assert_eq!((next, replayed), (8, 9));
        assert_eq!(recovered(&thin), (rows, epoch, next, 5));

        // Replication: the thinned log's node is the primary.
        let node =
            Arc::new(DurableLiveRelation::recover(&catalog, "node", &thin, config()).unwrap());
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        let follower =
            Follower::bootstrap(&catalog, "node", root.join("mirror"), config()).unwrap();
        let sub = follower.attach(&publisher);
        let on_the_clock = |follower: &Follower| {
            assert_eq!(
                follower.current_epoch(),
                follower.epoch_of_lsn(follower.applied_lsn())
            );
            assert_eq!(follower.current_epoch(), node.current_epoch());
        };
        assert_eq!(follower.catch_up(&publisher, sub).unwrap().applied_lsn, 9);
        on_the_clock(&follower);
        for gid in 0..12 {
            assert_eq!(follower.row(gid), node.row(gid), "gid {gid}");
        }
        // New inserts on both sides keep assigning identical gids.
        let gid = node.insert(vec![Value::Int(777)]).unwrap();
        assert_eq!(gid, next);
        follower.catch_up(&publisher, sub).unwrap();
        on_the_clock(&follower);
        assert_eq!(
            follower.matching_ids(&SelectionQuery::point(0, 777)),
            vec![gid]
        );
    }

    #[test]
    fn garbled_shipment_fails_typed_and_applies_nothing() {
        let (root, node, catalog) = primary(0);
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        for i in 0..6i64 {
            node.insert(vec![Value::Int(i)]).unwrap();
        }
        let follower =
            Follower::bootstrap(&catalog, "node", root.join("mirror"), config()).unwrap();
        // Hand-garble a shipment the way a broken transport would:
        // flip a payload byte (checksum mismatch) and cut a frame short
        // (closed-run tear). Both must be typed, neither applied.
        let ship = publisher.poll(0).unwrap();
        let garbled =
            |frames: Vec<u8>| Shipment::from_parts(ship.base(), ship.end(), ship.records(), frames);
        let mut flipped = ship.frames().to_vec();
        let n = flipped.len();
        flipped[n - 10] ^= 0xFF;
        let err = follower.apply_shipment(&garbled(flipped)).unwrap_err();
        assert!(
            matches!(err, ReplError::Wal(WalError::Corrupt { ref reason, .. }) if reason.contains("checksum")),
            "{err}"
        );
        let torn = ship.frames()[..n - 3].to_vec();
        let err = follower.apply_shipment(&garbled(torn)).unwrap_err();
        assert!(
            matches!(err, ReplError::Wal(WalError::Corrupt { ref reason, .. }) if reason.contains("mid-record")),
            "{err}"
        );
        // The follower stays clean and can still catch up for real.
        assert_eq!(follower.applied_lsn(), 0);
        let sub = follower.attach(&publisher);
        follower.catch_up(&publisher, sub).unwrap();
        assert_eq!(follower.len(), node.len());
    }

    #[test]
    fn concurrent_catch_up_is_excluded_typed() {
        let (root, node, catalog) = primary(3);
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        let follower =
            Follower::bootstrap(&catalog, "node", root.join("mirror"), config()).unwrap();
        let sub = follower.attach(&publisher);
        // Claim the turnstile by hand, as a racing cycle would.
        follower.applying.store(true, Ordering::SeqCst);
        let err = follower.catch_up(&publisher, sub).unwrap_err();
        assert!(matches!(err, ReplError::CatchUpInProgress), "{err}");
        follower.applying.store(false, Ordering::SeqCst);
        assert!(follower.catch_up(&publisher, sub).is_ok());
    }
}
