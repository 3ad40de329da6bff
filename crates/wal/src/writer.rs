//! The append side: fsync'd segments, rotation, group commit.

use crate::error::WalError;
use crate::segment::{
    encode_record, scan_dir_from, segment_file_name, segment_header, DirScan, Frame,
    SEGMENT_HEADER_LEN,
};
use pitract_core::lockdep::{LockRank, OrderedMutex, OrderedMutexGuard};
use pitract_engine::UpdateEntry;
use pitract_obs::{Counter, Histogram, Recorder};
use pitract_store::codec::Writer as CodecWriter;
use pitract_store::storage::{DirClaim, FileHandle};
use pitract_store::Dir;
use std::io::ErrorKind;
use std::time::Instant;

/// Interned metric handles for the append side. Default (no-op) handles
/// cost one branch per touch, so the uninstrumented hot path is
/// unchanged.
#[derive(Debug, Default)]
struct WalInstruments {
    /// `wal_appends_total` — records staged.
    appends: Counter,
    /// `wal_appended_bytes_total` — framed bytes staged (header + payload).
    appended_bytes: Counter,
    /// `wal_fsync_micros` — latency of every data flush (commit, sync,
    /// and the rotation pre-seal), the number that dominates durable
    /// write latency.
    fsync_micros: Histogram,
    /// `wal_group_commit_records` — records covered per flush: how well
    /// concurrent committers share fsyncs.
    group_commit: Histogram,
    /// `wal_segment_rotations_total` — completed segment switches.
    rotations: Counter,
}

impl WalInstruments {
    fn new(recorder: &Recorder) -> Self {
        WalInstruments {
            appends: recorder.counter("wal_appends_total"),
            appended_bytes: recorder.counter("wal_appended_bytes_total"),
            fsync_micros: recorder.histogram("wal_fsync_micros"),
            group_commit: recorder.histogram("wal_group_commit_records"),
            rotations: recorder.counter("wal_segment_rotations_total"),
        }
    }

    /// Time one data flush into the fsync histogram.
    fn timed_sync(&self, file: &FileHandle) -> std::io::Result<()> {
        let started = self.fsync_micros.is_enabled().then(Instant::now);
        file.sync_data()?;
        if let Some(t) = started {
            self.fsync_micros.record_duration(t.elapsed());
        }
        Ok(())
    }
}

/// When the writer flushes records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` before every [`WalWriter::append_entry`] returns. The
    /// simplest durability contract — the append *returns* durable —
    /// and the slowest: one disk flush per record. The flush runs
    /// *outside* the writer state lock (an internal commit), so
    /// concurrent stagers are not serialized behind each other's disk.
    Always,
    /// `fsync` in [`WalWriter::commit`], after the caller has released
    /// its locks. Concurrent committers share flushes: the first one to
    /// sync covers every record staged before it, and the rest return
    /// without touching the disk — the classic group commit.
    GroupCommit,
    /// Never `fsync` on append or commit; only segment rotation and
    /// explicit [`WalWriter::sync`] calls flush. Trades the crash window
    /// back for throughput — updates confirmed since the last flush can
    /// be lost, but the log never tears mid-record (recovery still
    /// truncates cleanly).
    Never,
}

/// Tuning for a [`WalWriter`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the active one reaches this many
    /// bytes. Smaller segments mean more files but finer-grained
    /// compaction (only whole closed segments are removed).
    pub segment_bytes: u64,
    /// The fsync policy.
    pub sync: SyncPolicy,
    /// Where the writer publishes its `wal_*` series (appends, fsync
    /// latency, group-commit sizes, rotations). Recovery reports a torn
    /// tail here, and a durable node or follower built from this config
    /// publishes its `engine_*`/`mvcc_*` (and `repl_*`) series here too.
    /// The default is the disabled recorder: every touch is then one
    /// branch, with no clock read.
    pub recorder: Recorder,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 4 << 20,
            sync: SyncPolicy::GroupCommit,
            recorder: Recorder::default(),
        }
    }
}

#[derive(Debug)]
struct WriterState {
    /// The active segment, opened for appending.
    file: FileHandle,
    /// Clean bytes in the active segment — header plus complete records.
    /// Doubles as the truncation point when an append fails partway.
    active_bytes: u64,
    /// The LSN the next append will take.
    next_lsn: u64,
    /// Every record with `lsn < durable_next` is on stable storage.
    durable_next: u64,
    /// Set when a failed append's partial bytes could not be erased or
    /// a flush failed (a rotation's seals included). Appending after
    /// partial bytes would bury garbage mid-segment — turning a
    /// transient I/O error into a permanently unreadable log; after a
    /// failed flush the kernel may have dropped the pages it did not
    /// cover and report the next flush clean, so no later flush of this
    /// writer may confirm them (fsyncgate). So the writer refuses every
    /// further append, flush and rotation, and the next recovery
    /// truncates whatever tail is left.
    poisoned: bool,
    /// The active segment has reached [`WalConfig::segment_bytes`];
    /// rotation is owed. Appends only *set* this flag — the three-fsync
    /// rotation itself runs deferred, on the next `commit`/`sync`,
    /// outside the callers' critical sections (see
    /// [`WalWriter::finish_rotation`]).
    rotation_due: bool,
}

/// The durable append side of a write-ahead log: an exclusive,
/// shared-reference (`&self`) writer over a directory of segments.
///
/// * **Appends** go to the active (newest) segment; once it exceeds
///   [`WalConfig::segment_bytes`] a rotation is *owed* and settled on
///   the next `commit`/`sync` — outside callers' critical sections —
///   flushing the closing segment complete and creating a fresh one
///   (its directory entry fsync'd — a rotation the directory forgot
///   would orphan every later record).
/// * **Opening** an existing directory recovers the write position:
///   segments are validated, a torn tail left by a crash is truncated
///   away, and the next append continues the LSN sequence exactly where
///   the last *complete* record left it.
/// * **Durability** is two-phase to keep flushes out of callers'
///   critical sections: `append_entry` stages (cheap), `commit` blocks
///   until the record's LSN is covered by an fsync — see [`SyncPolicy`].
/// * **Exclusive**: a writer claims its directory ([`Dir::claim`]) for
///   its lifetime. A second open of the same directory in this process
///   fails with [`WalError::DirInUse`] and touches nothing, so two
///   writers never append under the same LSNs. Other processes are not
///   detected.
#[derive(Debug)]
pub struct WalWriter {
    dir: Dir,
    /// Held until the writer drops: the directory has one writer.
    _claim: DirClaim,
    config: WalConfig,
    state: OrderedMutex<WriterState>,
    /// Serializes rotations so exactly one committer performs the
    /// deferred segment switch; acquired strictly before `state` (the
    /// one fixed order — never the other way around, which the
    /// [`pitract_core::lockdep`] ranks enforce in debug builds).
    rotation: OrderedMutex<()>,
    instruments: WalInstruments,
}

impl WalWriter {
    /// Open (creating if needed) a WAL directory and position the writer
    /// after the last complete record. A torn tail from a crash is
    /// truncated; damaged segments fail typed; a directory another live
    /// writer holds is [`WalError::DirInUse`], before anything is read
    /// or written.
    pub fn open(dir: impl Into<Dir>, config: WalConfig) -> Result<Self, WalError> {
        // The scan is thrown away, so it keeps no record.
        Self::open_from(dir, config, 0, u64::MAX).map(|(writer, _)| writer)
    }

    /// Like [`Self::open`], but never hand out an LSN below `floor`, and
    /// additionally return the validated directory scan the open
    /// performed, holding only the records at or above `floor`
    /// ([`crate::segment::scan_dir_from`]: the ones below are checksummed
    /// but not kept). Recovery passes the checkpoint mark as `floor`, so
    /// that even against an emptied log directory a fresh append can
    /// never be numbered below a position an existing checkpoint already
    /// claims to cover, and so that it holds only the tail it replays; it
    /// hands the scan to [`crate::WalReader::from_scan`] so the whole log
    /// is read and checksummed once, not once for the writer and again
    /// for the replay. (The scan reflects the directory
    /// *before* the open's torn-tail truncation; its record set is
    /// identical, since torn bytes never contain a complete record.) The
    /// writer never reports the torn tail itself: that is
    /// [`crate::WalReader::publish`]'s job, so one recovery reports once.
    pub fn open_scanned(
        dir: impl Into<Dir>,
        config: WalConfig,
        floor: u64,
    ) -> Result<(Self, DirScan), WalError> {
        Self::open_from(dir, config, floor, floor)
    }

    /// The one open: hand out no LSN below `floor`, and keep the scan's
    /// records at or above `keep_from`.
    fn open_from(
        dir: impl Into<Dir>,
        config: WalConfig,
        floor: u64,
        keep_from: u64,
    ) -> Result<(Self, DirScan), WalError> {
        let dir = dir.into();
        dir.create_dir_all()?;
        let claim = dir.claim().map_err(|e| match e.kind() {
            ErrorKind::ResourceBusy => WalError::DirInUse {
                dir: dir.path().display().to_string(),
            },
            _ => WalError::Io(e),
        })?;
        let scan = scan_dir_from(&dir, keep_from)?;
        let next_lsn = scan.next_lsn.max(floor);

        // Truncate a torn tail before anything else: the torn bytes were
        // never confirmed, and appending after them would bury garbage
        // inside the record stream.
        let (file, active_bytes) = match scan.segments.last() {
            Some(seg) if seg.clean_len >= SEGMENT_HEADER_LEN as u64 => {
                let file = dir.open(&seg.name)?;
                if seg.clean_len < seg.file_len {
                    file.truncate(seg.clean_len)?;
                    file.sync_data()?;
                }
                (file, seg.clean_len)
            }
            other => {
                // Empty directory, or a segment whose header never hit
                // the disk (torn at birth, which a directory written by
                // an older binary can hold — remove the husk): start a
                // fresh segment at `next_lsn`.
                if let Some(seg) = other {
                    dir.remove(&seg.name)?;
                }
                let header = segment_header(next_lsn);
                let file = dir.create_durable(&segment_file_name(next_lsn), &header)?;
                (file, header.len() as u64)
            }
        };
        let writer = WalWriter {
            rotation: OrderedMutex::new(LockRank::WalRotation, ()),
            instruments: WalInstruments::new(&config.recorder),
            state: OrderedMutex::new(
                LockRank::WalState,
                WriterState {
                    file,
                    active_bytes,
                    next_lsn,
                    // Everything that survived the scan is already on disk;
                    // whether it is *synced* is unknowable after a restart,
                    // so count only what we flush ourselves.
                    durable_next: 0,
                    poisoned: false,
                    // A recovered segment may already be over the threshold.
                    rotation_due: active_bytes >= config.segment_bytes,
                },
            ),
            dir,
            _claim: claim,
            config,
        };
        Ok((writer, scan))
    }

    /// The WAL directory.
    pub fn dir(&self) -> &Dir {
        &self.dir
    }

    /// The configuration this writer runs with.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// The LSN the next append will be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.lock().next_lsn
    }

    /// Every record with an LSN below this is known flushed to stable
    /// storage (by this writer; pre-existing records recovered at open
    /// count once the first sync covers them).
    pub fn durable_lsn(&self) -> u64 {
        self.lock().durable_next
    }

    /// Append one update entry (encoded with the `pitract-store` codec)
    /// and return its LSN. Under [`SyncPolicy::Always`] the record is
    /// durable on return; otherwise pair with [`Self::commit`].
    pub fn append_entry(&self, entry: &UpdateEntry) -> Result<u64, WalError> {
        let mut payload = CodecWriter::new();
        payload.update_entry(entry);
        self.append_payload(&payload.into_bytes())
    }

    /// Append one raw payload record and return its LSN.
    ///
    /// If the underlying write fails partway (e.g. the disk fills), the
    /// partial frame is truncated away so the segment stays clean; if
    /// even that fails, the writer poisons itself and every further
    /// append returns [`WalError::Poisoned`] — the partial bytes are
    /// then the segment's tail, which the next recovery truncates like
    /// any other crash residue.
    pub fn append_payload(&self, payload: &[u8]) -> Result<u64, WalError> {
        let lsn = {
            let mut state = self.lock();
            let lsn = state.next_lsn;
            self.stage(&mut state, &encode_record(lsn, payload), 1, lsn)?;
            lsn
        };
        if matches!(self.config.sync, SyncPolicy::Always) {
            // Durable-on-return, but via the commit path: the flush (and
            // any owed rotation) happens outside the state lock, so
            // concurrent stagers queue behind a mutex-protected memory
            // write, not behind each other's disk.
            self.commit(lsn)?;
        }
        Ok(lsn)
    }

    /// Append record frames that were already validated — `frames` as
    /// [`crate::segment::scan_frames`] found them, back to back in
    /// `bytes`, the way a replication shipment carries them — and return
    /// the last one's LSN (`None` for no frames). Each frame keeps its
    /// own LSN; gaps are allowed. Frames land where one
    /// [`Self::append_payload`] per record would have put them: each run
    /// of frames that lands in one segment is one write, and a rotation
    /// owed after a run is settled before the next, the fresh segment
    /// based at the next frame's LSN. A first frame below
    /// [`Self::next_lsn`] is [`WalError::Corrupt`] and nothing is
    /// written; a failed write follows `append_payload`'s rule. Under
    /// [`SyncPolicy::Always`] the frames are durable on return; otherwise
    /// pair with [`Self::commit`].
    pub fn append_frames(
        &self,
        bytes: &[u8],
        frames: &[Frame<'_>],
    ) -> Result<Option<u64>, WalError> {
        let Some(last) = frames.last() else {
            return Ok(None);
        };
        let mut rest = frames;
        while let [head, ..] = rest {
            let mut state = self.lock();
            if head.lsn < state.next_lsn {
                return Err(WalError::Corrupt {
                    segment: "appended frames".to_string(),
                    offset: head.offset as u64,
                    reason: format!(
                        "lsn {} runs backwards (expected at least {})",
                        head.lsn, state.next_lsn
                    ),
                });
            }
            if state.rotation_due {
                // Base the fresh segment at the frame it will hold first.
                state.next_lsn = head.lsn;
                drop(state);
                self.finish_rotation()?;
                continue;
            }
            // The run: every frame that starts while the segment has room.
            let room = self.config.segment_bytes.saturating_sub(state.active_bytes);
            let fits = rest
                .iter()
                .take_while(|f| ((f.offset - head.offset) as u64) < room)
                .count();
            let (run, after) = rest.split_at(fits.max(1));
            let end = run[run.len() - 1];
            let written = &bytes[head.offset..end.end()];
            self.stage(&mut state, written, run.len() as u64, end.lsn)?;
            rest = after;
        }
        if matches!(self.config.sync, SyncPolicy::Always) {
            self.commit(last.lsn)?;
        }
        Ok(Some(last.lsn))
    }

    /// Write `framed` — `records` whole frames, the last at `last_lsn` —
    /// to the active segment. The one partial-write rule: a write that
    /// fails partway is erased, or, if even that fails, poisons the
    /// writer. On success the counters move and a rotation is owed once
    /// the segment is full.
    fn stage(
        &self,
        state: &mut WriterState,
        framed: &[u8],
        records: u64,
        last_lsn: u64,
    ) -> Result<(), WalError> {
        if state.poisoned {
            return Err(WalError::Poisoned);
        }
        if let Err(e) = state.file.append(framed) {
            // Erase whatever partial frame made it out; a record that
            // errored was never confirmed, and burying its bytes under
            // later successful appends would corrupt the whole segment.
            // The handle appends, so the next write lands at the cut.
            if state.file.truncate(state.active_bytes).is_err() {
                state.poisoned = true;
            }
            return Err(e.into());
        }
        state.next_lsn = last_lsn + 1;
        state.active_bytes += framed.len() as u64;
        self.instruments.appends.add(records);
        self.instruments.appended_bytes.add(framed.len() as u64);
        if state.active_bytes >= self.config.segment_bytes {
            // Owe a rotation, but never pay it here: the append path
            // runs inside callers' critical sections (for the engine
            // sink, the gid critical section), and rotation costs
            // three fsyncs. The next commit/sync settles the debt
            // outside every caller lock.
            state.rotation_due = true;
        }
        Ok(())
    }

    /// Block until the record at `lsn` is durable. Under
    /// [`SyncPolicy::GroupCommit`] the first committer's flush covers
    /// every record staged before it, so concurrent committers share one
    /// fsync; under [`SyncPolicy::Never`] this returns immediately (the
    /// caller opted out of per-update durability). A failed flush
    /// poisons the writer: no later one confirms what it failed on.
    /// An owed rotation is settled after the record's own outcome and
    /// never reported as its failure (see [`Self::rotate_now`]).
    pub fn commit(&self, lsn: u64) -> Result<(), WalError> {
        if !matches!(self.config.sync, SyncPolicy::Never) {
            // Clone the handle under the lock, flush outside it: a slow
            // disk must not block concurrent appends (they only need
            // the mutex).
            let flush = {
                let state = self.lock();
                if state.durable_next > lsn {
                    None
                } else if state.poisoned {
                    return Err(WalError::Poisoned);
                } else {
                    // The flush's group: every record staged but not yet
                    // durable rides this one fsync.
                    let group = state.next_lsn - state.durable_next;
                    Some((state.file.clone(), state.next_lsn, group))
                }
            };
            if let Some((file, target, group)) = flush {
                self.flush(&file)?;
                self.instruments.group_commit.record(group);
                self.confirm(target)?;
            }
        }
        // Settle any owed rotation — under every policy, including
        // `Never`: rotation is what seals closed segments complete, and
        // deferring it forever would grow the active segment unboundedly.
        // The record's outcome is settled by now, so a failed rotation is
        // not reported as the record's failure: one whose flush failed
        // poisoned the writer, which the next call reports, and one whose
        // segment create failed stays owed for the next commit or sync.
        let _ = self.finish_rotation();
        Ok(())
    }

    /// Flush everything appended so far; returns the durable frontier
    /// (the LSN after the last flushed record). With nothing staged past
    /// the frontier there is nothing to flush and the disk is not
    /// touched — a replication poll calls this on every fetch, and most
    /// fetches follow a commit that already covered the log. An owed
    /// rotation is settled either way, and its failure is not reported
    /// as the flush's (see [`Self::commit`]).
    pub fn sync(&self) -> Result<u64, WalError> {
        let (durable, staged) = {
            let state = self.lock();
            let staged = if state.durable_next < state.next_lsn {
                if state.poisoned {
                    return Err(WalError::Poisoned);
                }
                Some((state.file.clone(), state.next_lsn))
            } else {
                None
            };
            (state.durable_next, staged)
        };
        let durable = match staged {
            None => durable,
            Some((file, target)) => {
                self.flush(&file)?;
                self.confirm(target)?
            }
        };
        let _ = self.finish_rotation();
        Ok(durable)
    }

    /// Flush and rotate to a fresh segment regardless of size — closing
    /// the current segment so a following [`crate::Compactor`] pass may
    /// remove it. A failed flush poisons the writer; a failed segment
    /// create moves nothing and leaves the rotation owed, so the next
    /// commit or sync retries it (unless the failed segment could not
    /// be removed again, which poisons the writer too).
    pub fn rotate_now(&self) -> Result<(), WalError> {
        self.lock().rotation_due = true;
        self.finish_rotation()
    }

    /// Perform a deferred rotation, if one is owed. The closing segment
    /// must be complete on disk before the new one exists, whatever the
    /// sync policy: scan treats every non-last segment as crash-free.
    /// The bulk of that seal (the closing segment's data) is flushed
    /// through a cloned handle *outside* the state lock; only the
    /// sliver appended between that flush and the switch — plus the new
    /// segment's header + directory entry — is paid under the lock.
    fn finish_rotation(&self) -> Result<(), WalError> {
        // Cheap racing check before taking the rotation lock.
        if !self.lock().rotation_due {
            return Ok(());
        }
        let _turn = self.rotation.lock();
        // Pre-seal: flush the closing segment's bulk without the state
        // lock, so concurrent appends keep staging while the disk works.
        let pre = {
            let mut state = self.lock();
            if !state.rotation_due {
                // Another committer already rotated while we waited.
                return Ok(());
            }
            if state.poisoned {
                // A flush now could make a failed append's bytes durable.
                return Err(WalError::Poisoned);
            }
            if state.active_bytes == SEGMENT_HEADER_LEN as u64 {
                // No record to close, and the fresh segment would take
                // the active one's name: a create that replaced it and
                // then failed would remove the file the writer appends
                // to.
                state.rotation_due = false;
                return Ok(());
            }
            state.file.clone()
        };
        self.flush(&pre)?;
        // The switch: seal the sliver appended since the pre-flush and
        // install the fresh segment. A failed seal poisons the writer. If
        // creating the segment fails the flag stays set and nothing moves
        // — appends continue into the old segment and the next commit
        // retries the rotation at a higher base. A failed
        // `Dir::create_durable` removes its file again, even one whose
        // rename landed, so nothing based here is left to overlap the
        // old segment's later records; if that removal failed too, the
        // writer is poisoned.
        let mut state = self.lock();
        if !state.rotation_due {
            return Ok(());
        }
        if state.poisoned {
            // Sealing would close a segment that ends in the failed
            // append's partial bytes: keep them the log's torn tail.
            return Err(WalError::Poisoned);
        }
        // Deliberate sync under the state lock: the bulk was flushed through a
        // cloned handle above; only the sliver since that pre-seal is paid
        // here, and the switch must be atomic with respect to appends.
        // lint:allow(no-fsync-under-lock)
        if let Err(e) = state.file.sync_data() {
            state.poisoned = true;
            return Err(e.into());
        }
        let base = state.next_lsn;
        let name = segment_file_name(base);
        state.file = match self.dir.create_durable(&name, &segment_header(base)) {
            Ok(file) => file,
            Err(e) => {
                // A segment based here that outlives the failure would
                // overlap the records appended to the old one after it,
                // and recovery would refuse the log: unless the name is
                // gone, stop appending.
                let removed = self.dir.remove(&name);
                if removed.is_err_and(|r| r.kind() != ErrorKind::NotFound) {
                    state.poisoned = true;
                }
                return Err(e.into());
            }
        };
        state.durable_next = base;
        state.active_bytes = SEGMENT_HEADER_LEN as u64;
        state.rotation_due = false;
        self.instruments.rotations.inc();
        Ok(())
    }

    /// Flush `file` outside the state lock; a failure poisons the
    /// writer.
    fn flush(&self, file: &FileHandle) -> Result<(), WalError> {
        self.instruments.timed_sync(file).map_err(|e| {
            self.lock().poisoned = true;
            WalError::Io(e)
        })
    }

    /// Confirm every record below `target` durable, unless a racing
    /// flush failed and poisoned the writer meanwhile; returns the
    /// durable frontier. A racing flush of the same handle that failed
    /// but has not poisoned the writer yet is not seen: Linux reports a
    /// writeback error to one flush of an open file only, so this
    /// flush's success may cover pages the other's failure lost, and
    /// this window stays open.
    fn confirm(&self, target: u64) -> Result<u64, WalError> {
        let mut state = self.lock();
        if state.poisoned {
            return Err(WalError::Poisoned);
        }
        state.durable_next = state.durable_next.max(target);
        Ok(state.durable_next)
    }

    fn lock(&self) -> OrderedMutexGuard<'_, WriterState> {
        self.state.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::WalReader;
    use crate::segment::{scan_dir, scan_frames};
    use pitract_relation::Value;
    use pitract_store::storage::{Effect, Fault, Op};
    use pitract_store::MemoryVolume;

    fn insert(gid: usize, key: i64) -> UpdateEntry {
        UpdateEntry::Insert {
            gid,
            row: vec![Value::Int(key)],
        }
    }

    #[test]
    fn appends_assign_sequential_lsns_and_survive_reopen() {
        let dir = Dir::memory();
        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
        for i in 0..10 {
            assert_eq!(wal.append_entry(&insert(i, i as i64)).unwrap(), i as u64);
        }
        wal.sync().unwrap();
        assert_eq!(wal.durable_lsn(), 10);
        drop(wal);
        // Reopen continues the sequence.
        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(wal.next_lsn(), 10);
        assert_eq!(wal.append_entry(&insert(10, 10)).unwrap(), 10);
    }

    #[test]
    fn rotation_closes_segments_and_fsyncs_them_complete() {
        let dir = Dir::memory();
        let config = WalConfig {
            segment_bytes: 128, // tiny: force several rotations
            sync: SyncPolicy::Never,
            ..WalConfig::default()
        };
        let wal = WalWriter::open(&dir, config).unwrap();
        for i in 0..50 {
            let lsn = wal.append_entry(&insert(i, i as i64)).unwrap();
            // Rotation is deferred out of the append path: commit (a
            // no-flush call under `Never`) is where the debt settles.
            wal.commit(lsn).unwrap();
        }
        let scan = scan_dir(&dir).unwrap();
        assert!(scan.segments.len() > 2, "tiny segments rotated");
        assert_eq!(scan.next_lsn, 50);
        let lsns: Vec<u64> = scan.records().map(|(l, _)| *l).collect();
        assert_eq!(lsns, (0..50).collect::<Vec<_>>());
        // Every closed segment scans strictly (scan_dir already enforces
        // it; this asserts the writer really did leave them complete).
        for seg in &scan.segments {
            assert_eq!(seg.clean_len, seg.file_len, "{}", seg.name);
        }
    }

    /// The rotation-deferral contract itself: the size threshold
    /// tripping inside an append must NOT rotate inline (the append
    /// path runs inside callers' critical sections); the next commit —
    /// or an explicit sync — settles it, whatever the policy.
    #[test]
    fn rotation_is_deferred_from_append_to_commit() {
        let dir = Dir::memory();
        let config = WalConfig {
            segment_bytes: 64,
            sync: SyncPolicy::Never,
            ..WalConfig::default()
        };
        let wal = WalWriter::open(&dir, config).unwrap();
        // Blow well past the threshold with appends alone.
        let mut last = 0;
        for i in 0..10 {
            last = wal.append_entry(&insert(i, i as i64)).unwrap();
        }
        assert_eq!(
            scan_dir(&dir).unwrap().segments.len(),
            1,
            "appends only owe a rotation, they never pay it"
        );
        wal.commit(last).unwrap();
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.segments.len(), 2, "commit settled the owed rotation");
        assert_eq!(scan.next_lsn, 10, "no record lost across the deferral");
        // The closed segment is complete.
        assert_eq!(scan.segments[0].clean_len, scan.segments[0].file_len);
    }

    /// Group commit under concurrent stagers drives the deferred
    /// rotation from many racing committers at once — exactly one wins
    /// each owed rotation, every record survives, every closed segment
    /// is complete.
    #[test]
    fn racing_committers_rotate_exactly_once_per_debt() {
        let dir = Dir::memory();
        let config = WalConfig {
            segment_bytes: 256,
            sync: SyncPolicy::GroupCommit,
            ..WalConfig::default()
        };
        let wal = WalWriter::open(&dir, config).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let wal = &wal;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let lsn = wal.append_entry(&insert((t * 50 + i) as usize, 1)).unwrap();
                        wal.commit(lsn).unwrap();
                    }
                });
            }
        });
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.next_lsn, 200);
        assert!(scan.segments.len() > 2, "rotations happened under racing");
        let lsns: Vec<u64> = scan.records().map(|(l, _)| *l).collect();
        assert_eq!(
            lsns,
            (0..200).collect::<Vec<_>>(),
            "no record lost or reordered"
        );
        for seg in &scan.segments {
            assert_eq!(seg.clean_len, seg.file_len, "{}", seg.name);
        }
    }

    #[test]
    fn open_truncates_a_torn_tail_and_appends_cleanly_after_it() {
        let dir = Dir::memory();
        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
        for i in 0..5 {
            wal.append_entry(&insert(i, i as i64)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        // Simulate a crash mid-append: chop bytes off the active segment.
        let seg = scan_dir(&dir).unwrap().segments.pop().unwrap();
        dir.open(&seg.name)
            .unwrap()
            .truncate(seg.file_len - 7)
            .unwrap();

        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(wal.next_lsn(), 4, "the torn record was never confirmed");
        assert_eq!(wal.append_entry(&insert(4, 400)).unwrap(), 4);
        wal.sync().unwrap();
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.torn_bytes, 0, "tail healed");
        assert_eq!(scan.records().count(), 5);
    }

    #[test]
    fn commit_group_covers_previously_staged_records() {
        let dir = Dir::memory();
        let wal = WalWriter::open(
            &dir,
            WalConfig {
                sync: SyncPolicy::GroupCommit,
                ..WalConfig::default()
            },
        )
        .unwrap();
        let a = wal.append_entry(&insert(0, 0)).unwrap();
        let b = wal.append_entry(&insert(1, 1)).unwrap();
        let c = wal.append_entry(&insert(2, 2)).unwrap();
        assert_eq!(wal.durable_lsn(), 0, "nothing flushed yet");
        wal.commit(b).unwrap();
        assert!(wal.durable_lsn() >= 3, "one flush covered a, b, and c");
        // The piggybacked commits return without needing another flush.
        wal.commit(a).unwrap();
        wal.commit(c).unwrap();
    }

    /// `sync` with nothing staged past the durable frontier must not
    /// touch the disk: the fsync histogram counts every data flush, so
    /// its sample count is the flush count.
    #[test]
    fn idle_sync_does_not_flush_and_an_append_makes_it_flush_again() {
        let dir = Dir::memory();
        let recorder = Recorder::new();
        let wal = WalWriter::open(
            &dir,
            WalConfig {
                segment_bytes: 128,
                sync: SyncPolicy::GroupCommit,
                recorder: recorder.clone(),
            },
        )
        .unwrap();
        let flushes = || {
            recorder
                .snapshot()
                .histogram("wal_fsync_micros")
                .map_or(0, |h| h.count)
        };
        // A fresh, empty log has nothing to flush.
        assert_eq!(wal.sync().unwrap(), 0);
        assert_eq!(flushes(), 0);
        let lsn = wal.append_entry(&insert(0, 0)).unwrap();
        assert_eq!(wal.sync().unwrap(), lsn + 1);
        let after_append = flushes();
        assert_eq!(after_append, 1, "the staged record was flushed");
        for _ in 0..25 {
            assert_eq!(wal.sync().unwrap(), lsn + 1);
        }
        assert_eq!(flushes(), after_append, "idle syncs flushed nothing");
        // Already durable through `commit`: the following sync is idle too.
        let lsn = wal.append_entry(&insert(1, 1)).unwrap();
        wal.commit(lsn).unwrap();
        let after_commit = flushes();
        assert_eq!(wal.sync().unwrap(), lsn + 1);
        assert_eq!(flushes(), after_commit);
        // An idle sync still settles an owed rotation.
        let segments = scan_dir(&dir).unwrap().segments.len();
        wal.lock().rotation_due = true;
        assert_eq!(wal.sync().unwrap(), lsn + 1);
        assert_eq!(scan_dir(&dir).unwrap().segments.len(), segments + 1);
        // Under `Never`, commits leave records staged, so sync flushes.
        drop(wal);
        let recorder = Recorder::new();
        let wal = WalWriter::open(
            Dir::memory(),
            WalConfig {
                sync: SyncPolicy::Never,
                recorder: recorder.clone(),
                ..WalConfig::default()
            },
        )
        .unwrap();
        let lsn = wal.append_entry(&insert(0, 0)).unwrap();
        wal.commit(lsn).unwrap();
        assert_eq!(wal.durable_lsn(), 0);
        assert_eq!(wal.sync().unwrap(), 1);
        assert_eq!(
            recorder
                .snapshot()
                .histogram("wal_fsync_micros")
                .map_or(0, |h| h.count),
            1
        );
    }

    #[test]
    fn sync_policies_differ_in_when_durability_happens() {
        for (policy, durable_after_append) in [
            (SyncPolicy::Always, true),
            (SyncPolicy::GroupCommit, false),
            (SyncPolicy::Never, false),
        ] {
            let dir = Dir::memory();
            let wal = WalWriter::open(
                &dir,
                WalConfig {
                    sync: policy,
                    ..WalConfig::default()
                },
            )
            .unwrap();
            let lsn = wal.append_entry(&insert(0, 7)).unwrap();
            assert_eq!(
                wal.durable_lsn() > lsn,
                durable_after_append,
                "{policy:?} after append"
            );
            wal.commit(lsn).unwrap();
            let durable_after_commit = !matches!(policy, SyncPolicy::Never);
            assert_eq!(
                wal.durable_lsn() > lsn,
                durable_after_commit,
                "{policy:?} after commit"
            );
        }
    }

    #[test]
    fn open_at_floor_never_hands_out_covered_lsns() {
        let dir = Dir::memory();
        // An emptied directory with a checkpoint claiming to cover 40.
        let (wal, _) = WalWriter::open_scanned(&dir, WalConfig::default(), 40).unwrap();
        assert_eq!(wal.next_lsn(), 40);
        assert_eq!(wal.append_entry(&insert(0, 1)).unwrap(), 40);
    }

    /// Back-to-back frames at `lsns`, each with a 20-byte payload, as a
    /// replication shipment carries them.
    fn framed(lsns: &[u64]) -> Vec<u8> {
        lsns.iter()
            .flat_map(|&lsn| encode_record(lsn, &[lsn as u8; 20]))
            .collect()
    }

    #[test]
    fn append_frames_keeps_lsns_and_gaps_across_rotations() {
        let dir = Dir::memory();
        let config = WalConfig {
            // Header + two 40-byte frames fill a segment exactly.
            segment_bytes: 98,
            sync: SyncPolicy::GroupCommit,
            ..WalConfig::default()
        };
        let wal = WalWriter::open(&dir, config.clone()).unwrap();
        let lsns = [0, 1, 4, 5, 9, 10, 11, 20, 21, 30];
        let bytes = framed(&lsns);
        let frames = scan_frames(&bytes, 0, false, "test").unwrap().frames;
        assert_eq!(wal.append_frames(&bytes, &frames).unwrap(), Some(30));
        wal.commit(30).unwrap();
        assert_eq!(wal.next_lsn(), 31);
        assert_eq!(wal.append_frames(&[], &[]).unwrap(), None);
        drop(wal);

        let (wal, scan) = WalWriter::open_scanned(&dir, config, 0).unwrap();
        assert_eq!(scan.segments.len(), 6, "rotated mid-run and after it");
        let records: Vec<(u64, Vec<u8>)> = scan.records().cloned().collect();
        let expected: Vec<(u64, Vec<u8>)> =
            lsns.iter().map(|&lsn| (lsn, vec![lsn as u8; 20])).collect();
        assert_eq!(records, expected);
        for seg in &scan.segments {
            if let Some((first, _)) = seg.records.first() {
                assert_eq!(seg.base_lsn, *first, "based at its first frame");
                assert_eq!(seg.records.len(), 2, "{}", seg.name);
            }
            assert_eq!(seg.clean_len, seg.file_len, "{}", seg.name);
        }
        assert_eq!(wal.next_lsn(), 31);
    }

    #[test]
    fn append_frames_below_next_lsn_is_typed_and_writes_nothing() {
        let dir = Dir::memory();
        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
        for _ in 0..3 {
            wal.append_payload(b"x").unwrap();
        }
        let active = scan_dir(&dir).unwrap().segments.pop().unwrap().name;
        let len = || dir.read(&active, 0).unwrap().len();
        let before = len();
        let bytes = framed(&[2, 3, 4]);
        let frames = scan_frames(&bytes, 0, false, "test").unwrap().frames;
        let err = wal.append_frames(&bytes, &frames).unwrap_err();
        assert!(
            matches!(err, WalError::Corrupt { ref reason, .. } if reason.contains("backwards")),
            "{err}"
        );
        assert_eq!(len(), before, "nothing written");
        assert_eq!(wal.next_lsn(), 3);
        assert_eq!(wal.append_frames(&bytes, &frames[1..]).unwrap(), Some(4));
    }

    #[test]
    fn append_frames_under_always_is_durable_on_return() {
        for (policy, durable) in [(SyncPolicy::Always, true), (SyncPolicy::GroupCommit, false)] {
            let dir = Dir::memory();
            let config = WalConfig {
                sync: policy,
                ..WalConfig::default()
            };
            let wal = WalWriter::open(&dir, config).unwrap();
            let bytes = framed(&[0, 3, 7]);
            let frames = scan_frames(&bytes, 0, false, "test").unwrap().frames;
            assert_eq!(wal.append_frames(&bytes, &frames).unwrap(), Some(7));
            assert_eq!(wal.durable_lsn() > 7, durable, "{policy:?}");
        }
    }

    /// A poisoned writer's partial bytes must stay the log's tail, which
    /// recovery truncates: an owed rotation is refused, never sealed.
    #[test]
    fn a_poisoned_writer_never_rotates() {
        let dir = Dir::memory();
        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
        wal.append_payload(b"x").unwrap();
        {
            let mut state = wal.lock();
            state.poisoned = true;
            state.rotation_due = true;
        }
        assert!(matches!(wal.sync(), Err(WalError::Poisoned)));
        assert!(matches!(wal.rotate_now(), Err(WalError::Poisoned)));
        assert_eq!(scan_dir(&dir).unwrap().segments.len(), 1);
        let bytes = framed(&[1]);
        let frames = scan_frames(&bytes, 0, false, "test").unwrap().frames;
        assert!(matches!(
            wal.append_frames(&bytes, &frames),
            Err(WalError::Poisoned)
        ));
        assert_eq!(scan_dir(&dir).unwrap().segments.len(), 1);
    }

    /// fsyncgate: the kernel may drop the pages a failed flush did not
    /// cover and report the next flush clean. So a failed flush poisons
    /// the writer, and no later flush confirms the records it failed on:
    /// a power loss keeps every record the writer called durable.
    #[test]
    fn a_failed_flush_poisons_the_writer() {
        let volume = MemoryVolume::new();
        let dir = volume.root().join("wal");
        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
        let first = wal.append_entry(&insert(0, 0)).unwrap();
        wal.commit(first).unwrap();
        let lsn = wal.append_entry(&insert(1, 1)).unwrap();
        volume.arm(Fault {
            op: Op::Sync,
            prefix: "/wal".into(),
            nth: 1,
            effect: Effect::Fail(ErrorKind::Other),
        });
        assert!(matches!(wal.commit(lsn), Err(WalError::Io(_))));
        let retried = wal.commit(lsn);
        let durable = wal.durable_lsn();
        drop(wal);
        volume.crash();
        let recovered = WalReader::open(&dir).unwrap().len() as u64;
        assert!(
            recovered >= durable,
            "confirmed {durable} records, {recovered} survived"
        );
        assert!(matches!(retried, Err(WalError::Poisoned)), "{retried:?}");
        assert_eq!(durable, 1);
    }

    /// A segment with no record is not rotated: the fresh segment would
    /// take its name, and a create whose rename landed and then failed
    /// would remove the file the writer appends to, with every record
    /// appended after it.
    #[test]
    fn an_empty_segment_is_not_rotated() {
        let volume = MemoryVolume::new();
        let dir = volume.root().join("wal");
        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
        volume.arm(Fault {
            op: Op::Rename,
            prefix: "/wal".into(),
            nth: 1,
            effect: Effect::LandThenFail,
        });
        wal.rotate_now().unwrap();
        let lsn = wal.append_entry(&insert(0, 0)).unwrap();
        wal.commit(lsn).unwrap();
        drop(wal);
        volume.crash();
        assert_eq!(WalReader::open(&dir).unwrap().len(), 1);
        assert_eq!(volume.disarm(), [0]);
    }

    /// A rotation whose fresh segment could not be created moves nothing
    /// and stays owed. If the failed segment could not be removed again,
    /// the records appended to the old segment would run past its base
    /// and recovery would refuse the log, so the writer is poisoned.
    #[test]
    fn a_failed_rotation_stays_owed_unless_its_segment_stays() {
        let volume = MemoryVolume::new();
        let dir = volume.root().join("wal");
        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
        wal.append_entry(&insert(0, 0)).unwrap();
        let rename_fails = Fault {
            op: Op::Rename,
            prefix: "/wal".into(),
            nth: 1,
            effect: Effect::LandThenFail,
        };
        volume.arm(rename_fails.clone());
        assert!(matches!(wal.rotate_now(), Err(WalError::Io(_))));
        assert_eq!((wal.next_lsn(), wal.durable_lsn()), (1, 0));
        wal.append_entry(&insert(1, 1)).unwrap();
        assert_eq!(scan_dir(&dir).unwrap().segments.len(), 1);

        // The temp file's removal is the first, the segment's the next
        // two: the recipe's own and the writer's.
        volume.arm(rename_fails);
        for nth in [2, 3] {
            volume.arm(Fault {
                op: Op::Remove,
                prefix: "/wal".into(),
                nth,
                effect: Effect::Fail(ErrorKind::Other),
            });
        }
        assert!(matches!(wal.rotate_now(), Err(WalError::Io(_))));
        let third = wal.append_entry(&insert(2, 2));
        assert!(matches!(third, Err(WalError::Poisoned)), "{third:?}");
        drop(wal);
        volume.crash();
        assert_eq!(WalReader::open(&dir).unwrap().len(), 2);
    }
}
