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
    /// and the rotation seal), the number that dominates durable write
    /// latency.
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

/// Tuning for a [`WalWriter`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the active one reaches this many
    /// bytes. Smaller segments mean more files but finer-grained
    /// compaction (only whole closed segments are removed).
    pub segment_bytes: u64,
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
    /// Set when a failed append's partial bytes could not be erased, a
    /// flush failed (a rotation's seals included), or a multi-run
    /// [`WalWriter::append_frames`] failed after a run had landed.
    /// Appending after partial bytes would bury garbage mid-segment —
    /// turning a transient I/O error into a permanently unreadable log;
    /// after a failed flush the kernel may have dropped the pages it did
    /// not cover and report the next flush clean, so no later flush of
    /// this writer may confirm them (fsyncgate). So the writer refuses
    /// every further append, flush and rotation, and the next open
    /// rewrites the log's clean prefix through a fresh file.
    poisoned: bool,
    /// The active segment has reached [`WalConfig::segment_bytes`];
    /// rotation is owed. Appends only *set* this flag — the three-fsync
    /// rotation itself runs deferred, on the next `commit`/`sync`,
    /// outside the callers' critical sections (see
    /// [`WalWriter::rotate_now`]).
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
///   segments are validated, the active segment's clean prefix is
///   rewritten through a fresh file (a torn tail left by a crash is
///   dropped), and the next append continues the LSN sequence exactly
///   where the last *complete* record left it.
/// * **Durability** is group commit, two-phase to keep flushes out of
///   callers' critical sections: `append_entry` stages (cheap, never
///   flushes), and `commit` blocks until the record's LSN is covered by
///   an fsync. Flushes run one at a time, and the first committer's
///   flush covers every record staged before it.
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
    /// The flush turnstile: every data flush of the active segment —
    /// a commit's, a sync's and a rotation's seal — runs inside it, one
    /// at a time, so a flush that failed has poisoned the writer before
    /// the next one can confirm anything. Appends never take it.
    /// Acquired strictly before `state` (the one fixed order — never the
    /// other way around, which the [`pitract_core::lockdep`] ranks
    /// enforce in debug builds).
    flushing: OrderedMutex<()>,
    instruments: WalInstruments,
}

impl WalWriter {
    /// Open (creating if needed) a WAL directory and position the writer
    /// after the last complete record. The active segment's clean prefix
    /// is rewritten through a fresh file, so a torn tail from a crash is
    /// dropped and every record left is durable; damaged segments fail
    /// typed; a directory another live writer holds is
    /// [`WalError::DirInUse`], before anything is read or written.
    pub fn open(dir: impl Into<Dir>, config: WalConfig) -> Result<Self, WalError> {
        Self::open_from(dir, config, None).map(|(writer, _)| writer)
    }

    /// Like [`Self::open`], but for a log a checkpoint covers below
    /// `floor` (its mark): never hand out an LSN below `floor`, and
    /// additionally return the validated directory scan the open
    /// performed, holding only the records at or above `floor`
    /// ([`crate::segment::scan_dir_from`]: the ones below are checksummed
    /// but not kept). The log must reach back to `floor`: a first
    /// segment based above it is [`WalError::Corrupt`], since the records
    /// in between are lost. A log that ends below `floor` — a replica's
    /// mirror that lags a newer checkpoint — is wholly covered: its
    /// segments are removed, oldest first, and a fresh one starts at
    /// `floor` (a crash between removals leaves only covered segments,
    /// and the next open finishes the job). Recovery passes the
    /// checkpoint mark as `floor`, so that a fresh append can never be
    /// numbered below a position an existing checkpoint already claims
    /// to cover, and so that it holds only the tail it replays; it
    /// hands the scan to [`crate::WalReader::from_scan`] so the whole log
    /// is checksummed once, not once for the writer and again for the
    /// replay. (The scan reflects the directory *before* the open's
    /// rewrite of the active segment; its record set is identical, since
    /// torn bytes never contain a complete record.) The writer never
    /// reports the torn tail itself: that is
    /// [`crate::WalReader::publish`]'s job, so one recovery reports once.
    pub fn open_scanned(
        dir: impl Into<Dir>,
        config: WalConfig,
        floor: u64,
    ) -> Result<(Self, DirScan), WalError> {
        Self::open_from(dir, config, Some(floor))
    }

    /// The one open: with a checkpoint `mark`, the rules of
    /// [`Self::open_scanned`]; without one, the scan keeps no record.
    fn open_from(
        dir: impl Into<Dir>,
        config: WalConfig,
        mark: Option<u64>,
    ) -> Result<(Self, DirScan), WalError> {
        let dir = dir.into();
        dir.create_dir_all()?;
        let claim = dir.claim().map_err(|e| match e.kind() {
            ErrorKind::ResourceBusy => WalError::DirInUse {
                dir: dir.path().display().to_string(),
            },
            _ => WalError::Io(e),
        })?;
        let mut scan = scan_dir_from(&dir, mark.unwrap_or(u64::MAX))?;
        if let Some(mark) = mark {
            if scan.next_lsn < mark {
                for seg in scan.segments.drain(..) {
                    dir.remove(&seg.name)?;
                }
            } else if let Some(first) = scan.segments.first().filter(|s| s.base_lsn > mark) {
                return Err(WalError::Corrupt {
                    segment: first.name.clone(),
                    offset: 0,
                    reason: format!(
                        "log starts at lsn {} but the checkpoint covers only below {mark}",
                        first.base_lsn
                    ),
                });
            }
        }
        let next_lsn = scan.next_lsn.max(mark.unwrap_or(0));

        let (file, active_bytes) = match scan.segments.last() {
            Some(seg) if seg.clean_len >= SEGMENT_HEADER_LEN as u64 => {
                // Closed segments were sealed before their successor
                // existed. The active one may hold records an earlier
                // writer's failed flush left uncovered, which the page
                // cache still serves and no flush of the old file can
                // make durable (fsyncgate), and a torn tail, which
                // appends would bury inside the record stream. So its
                // clean prefix goes through a fresh file over its own
                // name — `write_atomic`, which leaves the name as it was
                // on failure, not `create_durable`, which removes it.
                let mut bytes = dir.read(&seg.name, 0)?;
                bytes.truncate(seg.clean_len as usize);
                dir.write_atomic(&seg.name, &bytes)?;
                (dir.open(&seg.name)?, seg.clean_len)
            }
            other => {
                // Empty (or just emptied) directory, or a segment whose
                // header never hit the disk (torn at birth, which a
                // directory written by an older binary can hold — remove
                // the husk): start a fresh segment at `next_lsn`.
                if let Some(seg) = other {
                    dir.remove(&seg.name)?;
                }
                let header = segment_header(next_lsn);
                let file = dir.create_durable(&segment_file_name(next_lsn), &header)?;
                (file, header.len() as u64)
            }
        };
        let writer = WalWriter {
            flushing: OrderedMutex::new(LockRank::WalFlush, ()),
            instruments: WalInstruments::new(&config.recorder),
            state: OrderedMutex::new(
                LockRank::WalState,
                WriterState {
                    file,
                    active_bytes,
                    next_lsn,
                    // Every record the log holds was just made durable.
                    durable_next: next_lsn,
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
    /// storage (every record a reopened writer found counts: its open
    /// made them durable).
    pub fn durable_lsn(&self) -> u64 {
        self.lock().durable_next
    }

    /// Stage one update entry (encoded with the `pitract-store` codec)
    /// and return its LSN; pair with [`Self::commit`] to make it durable.
    pub fn append_entry(&self, entry: &UpdateEntry) -> Result<u64, WalError> {
        let mut payload = CodecWriter::new();
        payload.update_entry(entry);
        self.append_payload(&payload.into_bytes())
    }

    /// Stage one raw payload record and return its LSN.
    ///
    /// If the underlying write fails partway (e.g. the disk fills), the
    /// partial frame is truncated away so the segment stays clean; if
    /// even that fails, the writer poisons itself and every further
    /// append returns [`WalError::Poisoned`] — the partial bytes are
    /// then the segment's tail, which the next open drops like any
    /// other crash residue.
    pub fn append_payload(&self, payload: &[u8]) -> Result<u64, WalError> {
        let mut state = self.lock();
        let lsn = state.next_lsn;
        self.stage(&mut state, &encode_record(lsn, payload), 1, lsn)?;
        Ok(lsn)
    }

    /// Stage record frames that were already validated — `frames` as
    /// [`crate::segment::scan_frames`] found them, back to back in
    /// `bytes`, the way a replication shipment carries them — and return
    /// the last one's LSN (`None` for no frames); pair with
    /// [`Self::commit`]. Each frame keeps its own LSN, and the first must
    /// be [`Self::next_lsn`]: any other is [`WalError::Corrupt`] and
    /// nothing is written. Frames land where one
    /// [`Self::append_payload`] per record would have put them: each run
    /// of frames that lands in one segment is one write, and a rotation
    /// owed after a run is settled before the next. The call is
    /// all-or-nothing, or it poisons: a failure before the call moved
    /// anything follows `append_payload`'s rule, and one after a run
    /// landed or a rotation settled (which moves the durable frontier) —
    /// the next run's write, or the next rotation — poisons the writer,
    /// so a retry of the same frames is [`WalError::Poisoned`], never a
    /// half-applied call.
    pub fn append_frames(
        &self,
        bytes: &[u8],
        frames: &[Frame<'_>],
    ) -> Result<Option<u64>, WalError> {
        let Some(last) = frames.last() else {
            return Ok(None);
        };
        let (mut rest, mut moved) = (frames, false);
        while !rest.is_empty() {
            rest = self.append_run(bytes, rest).inspect_err(|_| {
                if moved {
                    self.lock().poisoned = true;
                }
            })?;
            moved = true;
        }
        Ok(Some(last.lsn))
    }

    /// One step of [`Self::append_frames`] over the non-empty `rest`:
    /// settle an owed rotation, or stage the run of frames that starts
    /// while the active segment has room. Returns the frames left.
    fn append_run<'f, 'b>(
        &self,
        bytes: &[u8],
        rest: &'f [Frame<'b>],
    ) -> Result<&'f [Frame<'b>], WalError> {
        let head = rest[0];
        let mut state = self.lock();
        if state.poisoned {
            return Err(WalError::Poisoned);
        }
        if head.lsn != state.next_lsn {
            return Err(WalError::Corrupt {
                segment: "appended frames".to_string(),
                offset: head.offset as u64,
                reason: format!(
                    "lsn {} out of sequence (expected {})",
                    head.lsn, state.next_lsn
                ),
            });
        }
        if state.rotation_due {
            // Settle the rotation alone: nothing else is flushed.
            drop(state);
            self.flush(0)?.1?;
            return Ok(rest);
        }
        let room = self.config.segment_bytes.saturating_sub(state.active_bytes);
        let fits = rest
            .iter()
            .take_while(|f| ((f.offset - head.offset) as u64) < room)
            .count();
        let (run, after) = rest.split_at(fits.max(1));
        let end = run[run.len() - 1];
        let written = &bytes[head.offset..end.end()];
        self.stage(&mut state, written, run.len() as u64, end.lsn)?;
        Ok(after)
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

    /// Block until the record at `lsn` is durable. The first committer's
    /// flush covers every record staged before it, and a committer that
    /// waited behind that flush finds its record covered and returns
    /// without touching the disk: concurrent committers share one fsync.
    /// A failed flush poisons the writer: no later one confirms what it
    /// failed on. An owed rotation is settled after the record's own
    /// outcome and never reported as its failure (see
    /// [`Self::rotate_now`]).
    pub fn commit(&self, lsn: u64) -> Result<(), WalError> {
        self.flush(lsn.saturating_add(1)).map(drop)
    }

    /// Flush everything staged so far; returns the durable frontier
    /// (the LSN after the last flushed record). With nothing staged past
    /// the frontier there is nothing to flush and the disk is not
    /// touched — a replication poll calls this on every fetch, and most
    /// fetches follow a commit that already covered the log. An owed
    /// rotation is settled either way, and its failure is not reported
    /// as the flush's (see [`Self::commit`]).
    pub fn sync(&self) -> Result<u64, WalError> {
        self.flush(u64::MAX).map(|(durable, _)| durable)
    }

    /// Seal the active segment and rotate to a fresh one regardless of
    /// size — closing the segment so a following [`crate::Compactor`]
    /// pass may remove it. A segment with no record is not rotated: the
    /// fresh one would take its name. A failed seal poisons the writer;
    /// a failed segment create moves nothing and leaves the rotation
    /// owed, so the next commit or sync retries it (unless the failed
    /// segment could not be removed again, which poisons the writer
    /// too).
    pub fn rotate_now(&self) -> Result<(), WalError> {
        self.lock().rotation_due = true;
        self.flush(0)?.1
    }

    /// The one flush path, inside the flush turnstile: flush the active
    /// segment unless every record below `upto` that was staged is
    /// durable already, then settle an owed rotation. Returns the
    /// durable frontier, and apart from it the rotation's outcome, which
    /// `commit` and `sync` do not report as their own. The flush runs
    /// outside the state lock — appends only need the mutex and must not
    /// wait on the disk — through a cloned handle the turnstile keeps
    /// current: only a rotation, under it too, replaces the file.
    fn flush(&self, upto: u64) -> Result<(u64, Result<(), WalError>), WalError> {
        let covered = |state: &WriterState| state.durable_next >= upto.min(state.next_lsn);
        {
            let state = self.lock();
            if covered(&state) && !state.rotation_due {
                return Ok((state.durable_next, Ok(())));
            }
        }
        let turn = self.flushing.lock();
        let (durable, staged) = {
            let state = self.lock();
            if covered(&state) {
                (state.durable_next, None)
            } else if state.poisoned {
                return Err(WalError::Poisoned);
            } else {
                // The flush's group: every record staged but not yet
                // durable rides this one fsync.
                let group = state.next_lsn - state.durable_next;
                (state.next_lsn, Some((state.file.clone(), group)))
            }
        };
        if let Some((file, group)) = staged {
            if let Err(e) = self.instruments.timed_sync(&file) {
                self.lock().poisoned = true;
                return Err(e.into());
            }
            self.instruments.group_commit.record(group);
            self.lock().durable_next = durable;
        }
        Ok((durable, self.rotate(&turn)))
    }

    /// Settle an owed rotation: seal the closing segment, create the
    /// fresh one, switch — one critical section, entered inside the
    /// flush turnstile (`_turn`). The closing segment must be complete
    /// on disk before the new one exists: scan treats every non-last
    /// segment as crash-free. A failed seal poisons the writer. If
    /// creating the segment fails the flag stays set and nothing moves —
    /// appends continue into the old segment and the next commit retries
    /// the rotation at a higher base. A failed `Dir::create_durable`
    /// removes its file again, even one whose rename landed, so nothing
    /// based here is left to overlap the old segment's later records; if
    /// that removal failed too, the writer is poisoned.
    fn rotate(&self, _turn: &OrderedMutexGuard<'_, ()>) -> Result<(), WalError> {
        let mut state = self.lock();
        if !state.rotation_due {
            return Ok(());
        }
        if state.poisoned {
            // Sealing would close a segment that ends in a failed
            // append's partial bytes: keep them the log's torn tail.
            return Err(WalError::Poisoned);
        }
        if state.active_bytes == SEGMENT_HEADER_LEN as u64 {
            // No record to close, and the fresh segment would take the
            // active one's name: a create that replaced it and then
            // failed would remove the file the writer appends to.
            state.rotation_due = false;
            return Ok(());
        }
        // Deliberate sync under the state lock: the switch must be atomic
        // with respect to appends. A commit or sync flushed the closing
        // segment's records just before, outside this lock, so the seal
        // pays only what was staged since.
        // lint:allow(no-fsync-under-lock)
        if let Err(e) = self.instruments.timed_sync(&state.file) {
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
            ..WalConfig::default()
        };
        let wal = WalWriter::open(&dir, config).unwrap();
        for i in 0..50 {
            let lsn = wal.append_entry(&insert(i, i as i64)).unwrap();
            // Rotation is deferred out of the append path: commit is
            // where the debt settles.
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
    /// or an explicit sync — settles it.
    #[test]
    fn rotation_is_deferred_from_append_to_commit() {
        let dir = Dir::memory();
        let config = WalConfig {
            segment_bytes: 64,
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
        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
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
    fn append_frames_keeps_lsns_across_rotations() {
        let dir = Dir::memory();
        let config = WalConfig {
            // Header + two 40-byte frames fill a segment exactly.
            segment_bytes: 98,
            ..WalConfig::default()
        };
        let wal = WalWriter::open(&dir, config.clone()).unwrap();
        let lsns: Vec<u64> = (0..10).collect();
        let bytes = framed(&lsns);
        let frames = scan_frames(&bytes, 0, false, "test").unwrap().frames;
        assert_eq!(wal.append_frames(&bytes, &frames).unwrap(), Some(9));
        wal.commit(9).unwrap();
        assert_eq!(wal.next_lsn(), 10);
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
        assert_eq!(wal.next_lsn(), 10);
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
        let bytes = framed(&[2, 3, 4, 5]);
        let frames = scan_frames(&bytes, 2, false, "test").unwrap().frames;
        // A head frame below the next LSN, or above it (a skip), is
        // refused alike.
        for head in [0, 2] {
            let err = wal.append_frames(&bytes, &frames[head..]).unwrap_err();
            assert!(
                matches!(err, WalError::Corrupt { ref reason, .. } if reason.contains("out of sequence")),
                "{err}"
            );
            assert_eq!(len(), before, "nothing written");
            assert_eq!(wal.next_lsn(), 3);
        }
        assert_eq!(wal.append_frames(&bytes, &frames[1..]).unwrap(), Some(5));
    }

    /// `append_frames` is all-or-nothing, or it poisons. One run fills
    /// each segment, so the call's second append is the fresh segment's
    /// header (the rotation settled between runs) and its third is the
    /// second run. Either failing, after the first run landed, poisons
    /// the writer: a retry is refused, never met by its own first run as
    /// "lsn out of sequence".
    #[test]
    fn append_frames_poisons_once_a_run_has_landed() {
        let config = WalConfig {
            // Header + two 40-byte frames fill a segment exactly.
            segment_bytes: 98,
            ..WalConfig::default()
        };
        for nth in [2, 3] {
            let volume = MemoryVolume::new();
            let dir = volume.root().join("wal");
            let wal = WalWriter::open(&dir, config.clone()).unwrap();
            let bytes = framed(&[0, 1, 2, 3]);
            let frames = scan_frames(&bytes, 0, false, "test").unwrap().frames;
            volume.arm(Fault {
                op: Op::Append,
                prefix: "/wal".into(),
                nth,
                effect: Effect::Fail(ErrorKind::Other),
            });
            let failed = wal.append_frames(&bytes, &frames);
            assert!(
                matches!(failed, Err(WalError::Io(_))),
                "nth {nth}: {failed:?}"
            );
            let retried = wal.append_frames(&bytes, &frames);
            assert!(
                matches!(retried, Err(WalError::Poisoned)),
                "nth {nth}: {retried:?}"
            );
            drop(wal);
            let wal = WalWriter::open(&dir, config.clone()).unwrap();
            assert_eq!(wal.next_lsn(), 2, "nth {nth}: the first run stays");
        }
        // A rotation owed when the call starts moves the durable frontier
        // as it settles: a first run failing after it poisons too.
        let volume = MemoryVolume::new();
        let wal = WalWriter::open(volume.root().join("wal"), config).unwrap();
        let bytes = framed(&[0, 1, 2]);
        let frames = scan_frames(&bytes, 0, false, "test").unwrap().frames;
        assert_eq!(wal.append_frames(&bytes, &frames[..2]).unwrap(), Some(1));
        volume.arm(Fault {
            op: Op::Append,
            prefix: "/wal".into(),
            nth: 2,
            effect: Effect::Fail(ErrorKind::Other),
        });
        let failed = wal.append_frames(&bytes, &frames[2..]);
        assert!(matches!(failed, Err(WalError::Io(_))), "{failed:?}");
        assert_eq!(wal.durable_lsn(), 2);
        let retried = wal.append_frames(&bytes, &frames[2..]);
        assert!(matches!(retried, Err(WalError::Poisoned)), "{retried:?}");
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
        let frames = scan_frames(&bytes, 1, false, "test").unwrap().frames;
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

    /// ROADMAP 2(e): a failed flush is remembered past the writer. The
    /// record it left uncovered still reads back from the page cache,
    /// and no flush of the old file can make it durable, so the reopened
    /// writer writes the active segment's clean prefix through a fresh
    /// file: a power loss after its first commit keeps all three
    /// records (a reopen that only appended to the old file kept one).
    #[test]
    fn a_reopened_writer_re_flushes_what_a_failed_flush_left() {
        let volume = MemoryVolume::new();
        let dir = volume.root().join("wal");
        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
        let first = wal.append_entry(&insert(0, 0)).unwrap();
        wal.commit(first).unwrap();
        let second = wal.append_entry(&insert(1, 1)).unwrap();
        volume.arm(Fault {
            op: Op::Sync,
            prefix: "/wal".into(),
            nth: 1,
            effect: Effect::Fail(ErrorKind::Other),
        });
        assert!(matches!(wal.commit(second), Err(WalError::Io(_))));
        drop(wal);
        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(wal.next_lsn(), 2);
        let third = wal.append_entry(&insert(2, 2)).unwrap();
        wal.commit(third).unwrap();
        drop(wal);
        volume.crash();
        assert_eq!(WalReader::open(&dir).unwrap().len(), 3);
    }

    /// The flush turnstile under concurrency: four committers share one
    /// writer, rotating small segments, while one flush among theirs
    /// fails. Whatever the interleaving, a power loss keeps every record
    /// a commit returned `Ok` for: the failed flush poisoned the writer
    /// before the next flush could confirm anything.
    #[test]
    fn racing_commits_never_confirm_past_a_failed_flush() {
        for round in 0..48 {
            let volume = MemoryVolume::new();
            let dir = volume.root().join("wal");
            let config = WalConfig {
                segment_bytes: 384,
                ..WalConfig::default()
            };
            let wal = WalWriter::open(&dir, config).unwrap();
            volume.arm(Fault {
                op: Op::Sync,
                prefix: "/wal".into(),
                nth: 1 + round % 8,
                effect: Effect::Fail(ErrorKind::Other),
            });
            let confirmed = std::thread::scope(|scope| {
                let committers: Vec<_> = (0..4usize)
                    .map(|t| {
                        let wal = &wal;
                        scope.spawn(move || {
                            let mut confirmed = None;
                            for i in 0..25 {
                                let Ok(lsn) = wal.append_entry(&insert(t * 25 + i, 1)) else {
                                    break;
                                };
                                if wal.commit(lsn).is_ok() {
                                    confirmed = confirmed.max(Some(lsn));
                                }
                            }
                            confirmed
                        })
                    })
                    .collect();
                committers
                    .into_iter()
                    .filter_map(|c| c.join().unwrap())
                    .max()
            });
            drop(wal);
            volume.crash();
            let recovered = WalReader::open(&dir).unwrap().len() as u64;
            if let Some(lsn) = confirmed {
                assert!(
                    lsn < recovered,
                    "round {round}: lsn {lsn} confirmed, {recovered} records survived"
                );
            }
        }
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
