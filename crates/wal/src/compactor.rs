//! Segment compaction: bound the log on disk by the checkpoint.
//!
//! A checkpoint covers every WAL record below its mark, so a recovery
//! never replays one of them again. The [`Compactor`] removes the
//! **closed** segments (all but the newest; the active segment is the
//! writer's and is never touched) that hold nothing else. Segment `i`
//! holds the LSNs in `[base_i, base_{i+1})`, so it may go once its
//! successor's base is at or below both the mark and the retention
//! floor. That is decided from the segment file names alone
//! ([`list_segments`]): a pass reads no segment byte and rewrites no
//! file, so a segment is either whole or gone.
//!
//! Removals run in ascending base order, each durable before the next
//! ([`Dir::remove`]), and the pass stops at the first segment it may
//! not remove. A crash or a failed removal mid-pass therefore leaves a
//! suffix of the log that still holds every record at or above the
//! mark, and the next pass finishes the job. A segment that straddles
//! the mark stays until a later mark passes its end; recovery's floored
//! scan ([`crate::segment::scan_dir_from`]) checksums its covered
//! records and keeps none of them.
//!
//! Compaction cancels nothing above the mark: recovery replays every
//! record of the tail, each within the engine's per-update bound. The
//! log has no holes — removing a prefix of whole segments keeps every
//! later LSN and gid — and recovery refuses one that does
//! ([`crate::segment::scan_dir_from`]).

use crate::error::WalError;
use crate::segment::list_segments;
use pitract_store::Dir;

/// What one compaction pass did, for operators and benchmarks.
///
/// The record counts are LSN spans — each closed segment counts
/// `next_base − base` — which are exact: a segment's LSNs run from its
/// base to its successor's with no gap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Closed segments found.
    pub segments_seen: usize,
    /// Closed segments removed.
    pub segments_removed: usize,
    /// Records in the closed segments before the pass.
    pub records_before: usize,
    /// Records in the closed segments the pass kept.
    pub records_after: usize,
}

/// Removes whole closed segments that a checkpoint covers and no
/// attached follower still needs. See the module docs for the rule.
#[derive(Debug, Clone, Copy)]
pub struct Compactor {
    /// The confirmed checkpoint mark: the LSN of the first record *not*
    /// covered by the latest durable checkpoint. Only segments wholly
    /// below it may go.
    mark: u64,
    /// Optional replication retention watermark: the lowest LSN an
    /// attached follower still needs. A segment holding any LSN at or
    /// above it stays, so a follower streaming `[watermark, …)` finds
    /// every segment it fetches. `None` retains nothing extra.
    retention: Option<u64>,
}

impl Compactor {
    /// A compactor honoring the checkpoint mark `mark` (pass 0 if no
    /// checkpoint exists yet — then nothing is removed).
    pub fn new(mark: u64) -> Self {
        Compactor {
            mark,
            retention: None,
        }
    }

    /// Honor a replication retention watermark: a closed segment
    /// holding any LSN at or above `watermark` stays. The publisher
    /// computes the minimum applied LSN across attached followers, and
    /// the pass cannot remove a segment those followers have yet to
    /// fetch.
    pub fn with_retention(mut self, watermark: Option<u64>) -> Self {
        self.retention = watermark;
        self
    }

    /// Remove, oldest first, every closed segment of `dir` whose
    /// successor's base is at or below both the mark and the retention
    /// watermark. Reads the directory listing only. A removal that
    /// fails ends the pass with [`WalError::Io`]; the segments removed
    /// before it stay removed, and the next pass removes the rest. A
    /// missing directory has nothing to remove.
    pub fn compact_dir(&self, dir: impl Into<Dir>) -> Result<CompactionReport, WalError> {
        let dir = dir.into();
        let files = match list_segments(&dir) {
            Ok(files) => files,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(WalError::Io(e)),
        };
        let cutoff = self.retention.map_or(self.mark, |r| r.min(self.mark));
        let mut report = CompactionReport::default();
        // Each closed segment with its successor's base; the last file
        // is the active segment and has none. Bases ascend, so the
        // removable segments are a prefix.
        for ((base, name), (next, _)) in files.iter().zip(files.iter().skip(1)) {
            let span = (next - base) as usize;
            report.segments_seen += 1;
            report.records_before += span;
            if *next <= cutoff {
                dir.remove(name)?;
                report.segments_removed += 1;
            } else {
                report.records_after += span;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::DurableLiveRelation;
    use crate::reader::WalReader;
    use crate::writer::{WalConfig, WalWriter};
    use pitract_core::epoch::Epoch;
    use pitract_engine::{LiveRelation, ShardBy, UpdateEntry};
    use pitract_relation::{ColType, Relation, Schema, Value};
    use pitract_store::storage::{Effect, Fault, Op};
    use pitract_store::{MemoryVolume, SnapshotCatalog};
    use std::io::ErrorKind;

    fn tiny_wal(dir: &Dir) -> WalWriter {
        WalWriter::open(
            dir,
            WalConfig {
                segment_bytes: 120,
                ..WalConfig::default()
            },
        )
        .unwrap()
    }

    /// Append `entry` and commit it, which settles a rotation it made
    /// due.
    fn log(wal: &WalWriter, entry: &UpdateEntry) {
        let lsn = wal.append_entry(entry).unwrap();
        wal.commit(lsn).unwrap();
    }

    fn insert(gid: usize) -> UpdateEntry {
        UpdateEntry::Insert {
            gid,
            row: vec![Value::Int(gid as i64)],
        }
    }

    /// Every segment file of `dir` with its bytes.
    fn files(dir: &Dir) -> Vec<(u64, Vec<u8>)> {
        list_segments(dir)
            .unwrap()
            .into_iter()
            .map(|(base, name)| (base, dir.read(&name, 0).unwrap()))
            .collect()
    }

    /// A segment that straddles the mark stays whole: nothing is cut
    /// out of a file, every segment wholly below the mark goes, and the
    /// report counts LSN spans.
    #[test]
    fn a_segment_straddling_the_mark_stays_whole() {
        let dir = Dir::memory();
        let wal = tiny_wal(&dir);
        for gid in 0..12 {
            log(&wal, &insert(gid));
        }
        wal.rotate_now().unwrap();
        let before = files(&dir);
        let bases: Vec<u64> = before.iter().map(|(base, _)| *base).collect();
        assert!(bases.len() > 3, "tiny segments rotated: {bases:?}");
        // A mark one past a segment's base: that segment straddles it.
        let straddling = bases.len() / 2;
        let mark = bases[straddling] + 1;
        assert!(mark < bases[straddling + 1]);

        let report = Compactor::new(mark).compact_dir(&dir).unwrap();
        assert_eq!(report.segments_seen, bases.len() - 1);
        assert_eq!(report.segments_removed, straddling);
        assert_eq!(report.records_before, 12);
        assert_eq!(report.records_after, 12 - bases[straddling] as usize);
        assert_eq!(files(&dir), before[straddling..], "the rest is untouched");
        let first = WalReader::open(&dir).unwrap().records()[0].lsn;
        assert_eq!(
            first, bases[straddling],
            "covered records below the mark stay"
        );
        // The writer still appends after the log.
        drop(wal);
        assert_eq!(tiny_wal(&dir).next_lsn(), 12);
    }

    #[test]
    fn active_segment_and_its_pairs_are_left_alone() {
        let dir = Dir::memory();
        let wal = tiny_wal(&dir);
        log(&wal, &insert(7));
        wal.rotate_now().unwrap();
        // The delete lands in the *active* segment, which no pass
        // touches, whatever the mark; no pair is ever cancelled.
        log(&wal, &UpdateEntry::Delete { gid: 7 });
        Compactor::new(0).compact_dir(&dir).unwrap();
        assert_eq!(WalReader::open(&dir).unwrap().len(), 2, "nothing dropped");
        let report = Compactor::new(u64::MAX).compact_dir(&dir).unwrap();
        assert_eq!((report.segments_seen, report.segments_removed), (1, 1));
        let kept: Vec<UpdateEntry> = WalReader::open(&dir)
            .unwrap()
            .records()
            .iter()
            .map(|r| r.entry.clone())
            .collect();
        assert_eq!(kept, [UpdateEntry::Delete { gid: 7 }]);
    }

    #[test]
    fn fully_covered_segments_are_removed() {
        let dir = Dir::memory();
        let wal = tiny_wal(&dir);
        for gid in 0..20 {
            log(&wal, &insert(gid));
        }
        wal.rotate_now().unwrap();
        let segments_before = list_segments(&dir).unwrap().len();
        let report = Compactor::new(20).compact_dir(&dir).unwrap();
        assert_eq!(report.records_after, 0);
        assert_eq!(report.segments_removed, segments_before - 1);
        let reader = WalReader::open(&dir).unwrap();
        assert!(reader.is_empty());
        assert_eq!(reader.next_lsn(), 20, "the active segment keeps the base");
    }

    #[test]
    fn retention_watermark_shields_segments_a_follower_still_needs() {
        let dir = Dir::memory();
        let wal = tiny_wal(&dir);
        for gid in 0..12 {
            log(&wal, &insert(gid));
        }
        wal.rotate_now().unwrap();
        // Remember every closed segment's bytes before the pass.
        let before = crate::segment::scan_dir(&dir).unwrap();
        let snapshot: Vec<(String, Vec<u64>, Vec<u8>)> = before
            .segments
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    s.records.iter().map(|(l, _)| *l).collect(),
                    dir.read(&s.name, 0).unwrap(),
                )
            })
            .collect();
        // The checkpoint covers everything, but a follower has only
        // applied up to lsn 5: segments holding any record >= 5 must
        // survive the pass bit-for-bit.
        Compactor::new(12)
            .with_retention(Some(5))
            .compact_dir(&dir)
            .unwrap();
        for (name, lsns, bytes) in &snapshot {
            let needed = lsns.iter().any(|l| *l >= 5);
            let closed = *name != snapshot.last().unwrap().0;
            if needed {
                assert_eq!(
                    &dir.read(name, 0).unwrap(),
                    bytes,
                    "{name} mutated under retention"
                );
            } else if closed {
                assert!(
                    dir.read(name, 0).is_err(),
                    "{name} is fully covered and below retention"
                );
            }
        }
        // Every record at or above the follower's position is still
        // fetchable after the pass.
        let after = crate::segment::scan_dir(&dir).unwrap();
        let kept: Vec<u64> = after.records().map(|(l, _)| *l).collect();
        let owed: Vec<u64> = before
            .records()
            .map(|(l, _)| *l)
            .filter(|l| *l >= 5)
            .collect();
        assert!(
            owed.iter().all(|l| kept.contains(l)),
            "owed {owed:?} vs kept {kept:?}"
        );
        // Once the follower catches up (retention lifts), the same mark
        // drops the rest.
        Compactor::new(12).compact_dir(&dir).unwrap();
        assert!(WalReader::open(&dir).unwrap().is_empty());
    }

    #[test]
    fn compaction_is_idempotent() {
        let dir = Dir::memory();
        let wal = tiny_wal(&dir);
        for gid in 0..10 {
            log(&wal, &insert(gid));
            if gid % 2 == 0 {
                log(&wal, &UpdateEntry::Delete { gid });
            }
        }
        wal.rotate_now().unwrap();
        let first = Compactor::new(7).compact_dir(&dir).unwrap();
        let after_first: Vec<_> = WalReader::open(&dir).unwrap().records().to_vec();
        let second = Compactor::new(7).compact_dir(&dir).unwrap();
        let after_second: Vec<_> = WalReader::open(&dir).unwrap().records().to_vec();
        assert!(first.segments_removed > 0, "{first:?}");
        assert_eq!(after_first, after_second);
        assert_eq!(second.records_before, first.records_after);
        assert_eq!(second.segments_removed, 0, "second pass removes nothing");
    }

    /// What a recovery of the node on `volume` serves: its rows, live
    /// count and epoch.
    type State = (Vec<Option<Vec<Value>>>, usize, Epoch);

    fn config() -> WalConfig {
        WalConfig {
            segment_bytes: 160,
            ..WalConfig::default()
        }
    }

    fn state_of(node: &DurableLiveRelation) -> State {
        let rows = (0..80).map(|gid| node.row(gid)).collect();
        (rows, node.len(), node.current_epoch())
    }

    fn recovered(volume: &MemoryVolume) -> State {
        let catalog = SnapshotCatalog::open(volume.root().join("snaps")).unwrap();
        let wal_dir = volume.root().join("wal");
        state_of(&DurableLiveRelation::recover(&catalog, "node", wal_dir, config()).unwrap())
    }

    /// A node on `volume` with churn below its checkpoint mark, spread
    /// over many closed segments, and a tail above it. Returns the node
    /// and the mark.
    fn churned(volume: &MemoryVolume) -> (DurableLiveRelation, u64) {
        let rel = Relation::from_rows(
            Schema::new(&[("id", ColType::Int)]),
            (0..8i64).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        let live = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
        let catalog = SnapshotCatalog::open(volume.root().join("snaps")).unwrap();
        let wal_dir = volume.root().join("wal");
        let node = DurableLiveRelation::create(live, &catalog, "node", wal_dir, config()).unwrap();
        for i in 0..30i64 {
            let gid = node.insert(vec![Value::Int(100 + i)]).unwrap();
            if i % 3 == 0 {
                node.delete(gid).unwrap().unwrap();
            }
        }
        node.checkpoint(&catalog, "node").unwrap();
        for i in 0..12i64 {
            let gid = node.insert(vec![Value::Int(200 + i)]).unwrap();
            if i % 4 == 0 {
                node.delete(gid).unwrap().unwrap();
            }
        }
        node.wal().rotate_now().unwrap();
        let mark = node.checkpoint_mark();
        (node, mark)
    }

    /// A removal fails on the second segment of a pass — after a power
    /// loss, when `crash` is set. The pass returns the typed error, the
    /// segment removed before it stays removed, recovery serves the
    /// same state, and the next pass finishes the job.
    fn a_removal_fault_mid_pass(crash: bool) {
        let volume = MemoryVolume::new();
        let (node, mark) = churned(&volume);
        let expected = state_of(&node);
        let wal_dir = volume.root().join("wal");
        let bases = |dir: &Dir| -> Vec<u64> {
            list_segments(dir)
                .unwrap()
                .into_iter()
                .map(|(b, _)| b)
                .collect()
        };
        let before = bases(&wal_dir);

        let effect = match crash {
            true => Effect::CrashThenFail,
            false => Effect::Fail(ErrorKind::Other),
        };
        volume.arm(Fault {
            op: Op::Remove,
            prefix: "/wal".into(),
            nth: 2,
            effect,
        });
        let err = Compactor::new(mark).compact_dir(&wal_dir).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "{err}");
        drop(node);
        assert_eq!(bases(&wal_dir), before[1..], "the first removal stands");
        assert_eq!(recovered(&volume), expected);

        let report = Compactor::new(mark).compact_dir(&wal_dir).unwrap();
        assert!(report.segments_removed > 0, "{report:?}");
        let left = bases(&wal_dir);
        assert!(left.len() >= 2 && left[1] > mark, "{left:?}");
        assert_eq!(
            Compactor::new(mark)
                .compact_dir(&wal_dir)
                .unwrap()
                .segments_removed,
            0
        );
        assert_eq!(recovered(&volume), expected);
    }

    #[test]
    fn a_failed_remove_mid_pass_is_typed_and_the_next_pass_finishes() {
        a_removal_fault_mid_pass(false);
    }

    #[test]
    fn a_crash_between_two_removals_recovers_the_same_state() {
        a_removal_fault_mid_pass(true);
    }

    /// A pass decides from the directory listing alone: with the first
    /// read of the log armed to fail, it still removes what the mark
    /// covers, and the fault is still armed.
    #[test]
    fn a_pass_reads_no_segment_byte() {
        let volume = MemoryVolume::new();
        let (node, mark) = churned(&volume);
        let expected = state_of(&node);
        volume.arm(Fault {
            op: Op::Read,
            prefix: "/wal".into(),
            nth: 1,
            effect: Effect::Fail(ErrorKind::Other),
        });
        let report = Compactor::new(mark)
            .compact_dir(volume.root().join("wal"))
            .unwrap();
        assert_eq!(volume.disarm(), [0], "the pass read a segment byte");
        assert!(report.segments_removed > 1, "{report:?}");
        assert!(report.records_after < report.records_before);
        drop(node);
        assert_eq!(recovered(&volume), expected);
    }
}
