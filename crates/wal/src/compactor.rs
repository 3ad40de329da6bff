//! Segment compaction: bound replay time (and disk) under churn.
//!
//! A WAL under insert/delete churn grows without bound even when the
//! *net* change is small — exactly the failure mode the paper's bounded
//! incremental contract warns about: recovery work should be
//! proportional to `|CHANGED|`, not to the update history. The
//! [`Compactor`] restores that bound on disk by rewriting **closed**
//! segments (all but the newest; the active segment is the writer's and
//! is never touched), dropping two classes of record:
//!
//! * records below the checkpoint mark — their effect is inside the
//!   checkpoint snapshot, so replay skips them anyway;
//! * insert+delete pairs above the mark whose halves share one closed
//!   segment — a row born and dead entirely inside one segment
//!   contributes nothing to any recovered state. (A delete whose
//!   insert is in the checkpoint, in a *different* segment, or still in
//!   the active segment, always survives.)
//!
//! Survivors keep their original LSNs — segments carry explicit
//! per-record sequence numbers precisely so compaction can remove
//! records without renumbering — and each segment is replaced atomically
//! ([`pitract_store::Dir::write_atomic`]: temp + flush + durable rename),
//! or removed durably when nothing in it survives. The same-segment restriction on pair cancellation is what
//! makes the *whole pass* crash-safe, not just each file: every drop
//! decision commits or vanishes with exactly one segment's rename, so a
//! crash at any instant leaves a mix of old and new segments that still
//! recovers to the same state (cancelling a pair across two segments
//! would leave an orphaned, unreplayable delete if the crash landed
//! between their rewrites). Cross-segment pairs are not lost work —
//! they fall below the next checkpoint's mark and are dropped then by
//! the per-segment-safe covered-records rule.

use crate::error::WalError;
use crate::segment::{decode_entry, encode_record, scan_dir, segment_header, ScannedSegment};
use pitract_engine::UpdateEntry;
use pitract_store::Dir;
use std::collections::HashMap;

/// What one compaction pass did, for operators and benchmarks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Closed segments examined.
    pub segments_seen: usize,
    /// Segments rewritten with fewer records.
    pub segments_rewritten: usize,
    /// Segments removed outright (every record dropped).
    pub segments_removed: usize,
    /// Records in the closed segments before the pass.
    pub records_before: usize,
    /// Records remaining after the pass.
    pub records_after: usize,
    /// Bytes in the closed segments before the pass.
    pub bytes_before: u64,
    /// Bytes remaining after the pass.
    pub bytes_after: u64,
}

/// Rewrites closed segments, dropping records a recovery can never
/// need. See the module docs for the exact rules.
#[derive(Debug, Clone, Copy)]
pub struct Compactor {
    /// The confirmed checkpoint mark: the LSN of the first record *not*
    /// covered by the latest durable checkpoint. Records below it are
    /// dropped.
    mark: u64,
    /// Optional replication retention watermark: the lowest LSN an
    /// attached follower still needs. Closed segments holding any record
    /// at or above it are left byte-for-byte untouched — not rewritten,
    /// not removed — so a follower streaming `[watermark, …)` can never
    /// observe a segment mutating under its fetch. `None` retains
    /// nothing extra.
    retention: Option<u64>,
}

impl Compactor {
    /// A compactor honoring the checkpoint mark `mark` (pass 0 if no
    /// checkpoint exists yet — then only insert+delete pairs are
    /// cancelled).
    pub fn new(mark: u64) -> Self {
        Compactor {
            mark,
            retention: None,
        }
    }

    /// Honor a replication retention watermark: every closed segment
    /// containing a record with `lsn >= watermark` is excluded from the
    /// pass entirely (its inserts still count as gid-watermark carriers,
    /// like the active segment's). This is how the compaction/replication
    /// race is fixed *by construction*: the publisher computes the
    /// minimum applied LSN across attached followers and the compactor
    /// simply cannot touch the bytes those followers have yet to fetch.
    pub fn with_retention(mut self, watermark: Option<u64>) -> Self {
        self.retention = watermark;
        self
    }

    /// Compact every closed segment of `dir`. Closed segments must scan
    /// strictly (a tear there is damage, not a crash residue), and every
    /// payload must decode — the compactor refuses to rewrite a log it
    /// cannot fully interpret.
    pub fn compact_dir(&self, dir: impl Into<Dir>) -> Result<CompactionReport, WalError> {
        let dir = dir.into();
        let scan = scan_dir(&dir)?;
        let mut report = CompactionReport::default();
        // All but the newest segment are closed. (With 0 or 1 segments
        // there is nothing to do.)
        let all_closed: &[ScannedSegment] = match scan.segments.split_last() {
            Some((_active, closed)) => closed,
            None => &[],
        };
        // The retention watermark partitions the closed set: a segment
        // holding any record an attached follower still needs (lsn at or
        // above the watermark) is off limits in its entirety — followers
        // fetch segment bytes, and a rewrite under a fetch would tear
        // the shipped stream. Protected segments behave like the active
        // one: untouched, but their inserts still carry the gid
        // watermark.
        let floor = self.retention.unwrap_or(u64::MAX);
        let (closed, protected): (Vec<&ScannedSegment>, Vec<&ScannedSegment>) =
            all_closed.iter().partition(|seg| {
                seg.base_lsn < floor && seg.records.last().is_none_or(|(lsn, _)| *lsn < floor)
            });
        if closed.is_empty() {
            return Ok(report);
        }

        // Decode every closed record once, globally — pair matching
        // needs the whole closed region even though only same-segment
        // pairs may cancel (a delete whose insert sits in an *earlier*
        // segment must be recognized as matched, and kept).
        let mut decoded: Vec<Vec<(u64, UpdateEntry, &[u8])>> = Vec::with_capacity(closed.len());
        for seg in &closed {
            let mut entries = Vec::with_capacity(seg.records.len());
            for (lsn, payload) in &seg.records {
                let entry = decode_entry(&seg.name, 0, *lsn, payload)?;
                entries.push((*lsn, entry, payload.as_slice()));
            }
            decoded.push(entries);
        }

        // Decide survivors: drop below-mark records, then cancel
        // insert+delete pairs among what is left, each segment its own
        // group. Cancelling only pairs whose halves share a segment keeps
        // the pass crash-safe: each segment is replaced atomically, but
        // the *pass* is not atomic across segments — dropping an insert
        // in one rewrite and its delete in another would let a crash
        // between them orphan the delete, and an orphaned delete makes
        // the tail unreplayable. A cross-segment pair simply survives
        // until a later checkpoint mark covers it, which drops both
        // halves by a rule that is safe per segment.
        let mut drop: Vec<Vec<bool>> = decoded
            .iter()
            .map(|seg| seg.iter().map(|(lsn, _, _)| *lsn < self.mark).collect())
            .collect();
        // The records above the mark, as (segment, record), in log order.
        let above_mark: Vec<(usize, usize)> = drop
            .iter()
            .enumerate()
            .flat_map(|(si, seg)| {
                seg.iter()
                    .enumerate()
                    .filter(|(_, &dead)| !dead)
                    .map(move |(ri, _)| (si, ri))
            })
            .collect();
        let records: Vec<(usize, &UpdateEntry)> = above_mark
            .iter()
            .map(|&(si, ri)| (si, &decoded[si][ri].1))
            .collect();
        // The active segment and the protected ones are untouched, so
        // their inserts always survive as gid-watermark carriers.
        let cancelled = cancel_pairs(&records, || {
            let mut carrier = match scan.segments.last() {
                Some(seg) => active_insert_watermark(seg)?,
                None => None,
            };
            for seg in &protected {
                carrier = carrier.max(active_insert_watermark(seg)?);
            }
            Ok::<_, WalError>(carrier)
        })?;
        for (&(si, ri), cancelled) in above_mark.iter().zip(cancelled) {
            drop[si][ri] = cancelled;
        }

        // Rewrite each changed segment 1:1 (same name, same base LSN) —
        // per-segment atomicity means a crash mid-pass leaves a mix of
        // old and new segments that still recovers identically: every
        // dropped record was either covered by the checkpoint or part of
        // a self-cancelling pair.
        for (seg, (entries, drop)) in closed.iter().zip(decoded.iter().zip(&drop)) {
            report.segments_seen += 1;
            report.records_before += entries.len();
            report.bytes_before += seg.file_len;
            let survivors: Vec<&(u64, UpdateEntry, &[u8])> = entries
                .iter()
                .zip(drop)
                .filter(|(_, &dead)| !dead)
                .map(|(e, _)| e)
                .collect();
            report.records_after += survivors.len();
            if survivors.len() == entries.len() {
                report.bytes_after += seg.file_len;
                continue; // nothing dropped: leave the file untouched
            }
            if survivors.is_empty() {
                dir.remove(&seg.name)?;
                report.segments_removed += 1;
                continue;
            }
            let mut bytes = segment_header(seg.base_lsn);
            for (lsn, _, payload) in survivors {
                bytes.extend_from_slice(&encode_record(*lsn, payload));
            }
            report.bytes_after += bytes.len() as u64;
            dir.write_atomic(&seg.name, &bytes)?;
            report.segments_rewritten += 1;
        }
        Ok(report)
    }
}

/// The one insert/delete cancellation rule, shared by
/// [`Compactor::compact_dir`] and [`crate::recover_live`]: which records
/// of a log region a replay never needs.
///
/// `records` lists the region's records in log order, each with its
/// group: compaction groups by segment, recovery puts the whole tail in
/// one group. An insert and a later delete of the same gid *in the same
/// group* cancel — a row born and dead there contributes nothing to any
/// recovered state. A delete whose insert is outside the region (in the
/// checkpoint) always survives; so does one whose insert is in an
/// earlier group.
///
/// One refinement keeps cancellation lossless under composition: the
/// cancelled pair with the **highest** gid survives unless a surviving
/// insert of the region, or `carrier()` — the highest inserted gid among
/// records outside the region that will also be replayed — carries a
/// higher id. A trailing run of pairs would otherwise leave no record of
/// how far the id allocator had advanced, and a node recovered from the
/// compacted log would reassign those ids. `carrier` is only called
/// when some pair cancelled.
///
/// Returns one flag per record, `true` where the record is dropped.
pub fn cancel_pairs<E>(
    records: &[(usize, &UpdateEntry)],
    carrier: impl FnOnce() -> Result<Option<usize>, E>,
) -> Result<Vec<bool>, E> {
    let mut cancelled = vec![false; records.len()];
    // gid → (group, position) of its insert, until a delete matches it.
    let mut open_inserts: HashMap<usize, (usize, usize)> = HashMap::new();
    // The cancelled pair with the highest gid: (gid, insert, delete).
    let mut watermark: Option<(usize, usize, usize)> = None;
    for (i, (group, entry)) in records.iter().enumerate() {
        match entry {
            UpdateEntry::Insert { gid, .. } => {
                open_inserts.insert(*gid, (*group, i));
            }
            UpdateEntry::Delete { gid } => {
                if let Some((insert_group, at)) = open_inserts.remove(gid) {
                    if insert_group == *group {
                        cancelled[at] = true;
                        cancelled[i] = true;
                        if watermark.is_none_or(|(w, _, _)| w <= *gid) {
                            watermark = Some((*gid, at, i));
                        }
                    }
                }
            }
        }
    }
    if let Some((gid, insert_at, delete_at)) = watermark {
        let surviving = records
            .iter()
            .zip(&cancelled)
            .filter_map(|((_, e), &dead)| match (dead, e) {
                (false, UpdateEntry::Insert { gid, .. }) => Some(*gid),
                _ => None,
            })
            .max();
        if surviving.max(carrier()?).is_none_or(|c| c < gid) {
            cancelled[insert_at] = false;
            cancelled[delete_at] = false;
        }
    }
    Ok(cancelled)
}

/// Highest inserted gid among an untouched segment's records (the
/// active segment, or one a follower still needs): compaction never
/// touches them, so their inserts always survive as watermark carriers.
fn active_insert_watermark(active: &ScannedSegment) -> Result<Option<usize>, WalError> {
    let mut max = None;
    for (lsn, payload) in &active.records {
        if let UpdateEntry::Insert { gid, .. } = decode_entry(&active.name, 0, *lsn, payload)? {
            max = max.max(Some(gid));
        }
    }
    Ok(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::WalReader;
    use crate::writer::{SyncPolicy, WalConfig, WalWriter};
    use pitract_engine::{LiveRelation, ShardBy};
    use pitract_relation::{ColType, Relation, Schema, Value};

    fn tiny_wal(dir: &Dir) -> WalWriter {
        WalWriter::open(
            dir,
            WalConfig {
                segment_bytes: 120,
                sync: SyncPolicy::Never,
                ..WalConfig::default()
            },
        )
        .unwrap()
    }

    fn insert(gid: usize) -> UpdateEntry {
        UpdateEntry::Insert {
            gid,
            row: vec![Value::Int(gid as i64)],
        }
    }

    /// The records of one group that [`cancel_pairs`] keeps.
    fn survivors(log: &[UpdateEntry]) -> Vec<UpdateEntry> {
        let grouped: Vec<(usize, &UpdateEntry)> = log.iter().map(|e| (0, e)).collect();
        let Ok(cancelled) = cancel_pairs(&grouped, || Ok::<_, std::convert::Infallible>(None));
        log.iter()
            .zip(cancelled)
            .filter(|(_, dead)| !dead)
            .map(|(e, _)| e.clone())
            .collect()
    }

    fn row_insert(gid: usize, key: i64, tag: &str) -> UpdateEntry {
        UpdateEntry::Insert {
            gid,
            row: vec![Value::Int(key), Value::str(tag)],
        }
    }

    #[test]
    fn compact_cancels_pairs_and_keeps_survivor_order() {
        // Rows 0..3 predate the log; a=3, b=4, c=5 are logged inserts.
        let log = [
            row_insert(3, 100, "a"),
            row_insert(4, 101, "b"),
            UpdateEntry::Delete { gid: 0 }, // pre-log row: delete must survive
            UpdateEntry::Delete { gid: 3 }, // cancels with a's insert
            row_insert(5, 102, "c"),
        ];
        assert_eq!(
            survivors(&log),
            [
                row_insert(4, 101, "b"),
                UpdateEntry::Delete { gid: 0 },
                row_insert(5, 102, "c"),
            ],
            "pair (insert 3, delete 3) cancelled, survivors in order"
        );
        // A fully cancelling history compacts to the single
        // watermark-bearing pair: the highest-gid pair survives so a
        // recovery still advances the id allocator to where the history
        // left it (19 insert+delete pairs vanish; one stays).
        let churn: Vec<UpdateEntry> = (0..20usize)
            .flat_map(|gid| {
                [
                    row_insert(gid, gid as i64, "x"),
                    UpdateEntry::Delete { gid },
                ]
            })
            .collect();
        assert_eq!(churn.len(), 40);
        let compacted = survivors(&churn);
        assert_eq!(
            compacted,
            [row_insert(19, 19, "x"), UpdateEntry::Delete { gid: 19 }],
            "only the watermark pair survives total churn"
        );
        // Replaying the compacted log reproduces the allocator exactly:
        // the next insert gets the same gid the original history would.
        let schema = Schema::new(&[("id", ColType::Int), ("city", ColType::Str)]);
        let empty = Relation::from_rows(schema, Vec::new()).unwrap();
        let replayed = LiveRelation::build(&empty, ShardBy::Hash { col: 0 }, 2, &[0, 1]).unwrap();
        replayed.replay_entries(compacted).unwrap();
        assert_eq!(
            replayed
                .insert(vec![Value::Int(9), Value::str("y")])
                .unwrap(),
            20,
            "future gid assignment is preserved through compaction"
        );
        // A pair whose halves sit in different groups never cancels.
        let later = row_insert(25, 25, "z");
        let split = [(0, &churn[0]), (1, &churn[1]), (1, &later)];
        let Ok(cancelled) = cancel_pairs(&split, || Ok::<_, std::convert::Infallible>(None));
        assert_eq!(cancelled, [false, false, false]);
    }

    #[test]
    fn drops_covered_records_and_cancelled_pairs_but_keeps_the_rest() {
        let dir = Dir::memory();
        // One roomy segment, closed at the end: the pair's halves share
        // it, so cancellation is in play.
        let wal = WalWriter::open(
            &dir,
            WalConfig {
                segment_bytes: 1 << 20,
                sync: SyncPolicy::Never,
                ..WalConfig::default()
            },
        )
        .unwrap();
        // lsn 0..3: covered by the checkpoint mark below.
        for gid in 0..4 {
            wal.append_entry(&insert(gid)).unwrap();
        }
        // lsn 4: insert later deleted at lsn 6 → pair cancels.
        wal.append_entry(&insert(100)).unwrap();
        // lsn 5: delete of a pre-WAL row (no matching insert) → survives.
        wal.append_entry(&UpdateEntry::Delete { gid: 1 }).unwrap();
        // lsn 6: the delete half of the pair.
        wal.append_entry(&UpdateEntry::Delete { gid: 100 }).unwrap();
        // lsn 7: surviving insert.
        wal.append_entry(&insert(101)).unwrap();
        // Close everything so the compactor may touch it.
        wal.rotate_now().unwrap();

        let report = Compactor::new(4).compact_dir(&dir).unwrap();
        assert_eq!(report.records_before, 8);
        assert_eq!(report.records_after, 2, "only lsn 5 and 7 survive");
        assert!(report.bytes_after < report.bytes_before);
        assert!(report.segments_rewritten + report.segments_removed > 0);

        let reader = WalReader::open(&dir).unwrap();
        let kept: Vec<(u64, UpdateEntry)> = reader
            .records()
            .iter()
            .map(|r| (r.lsn, r.entry.clone()))
            .collect();
        assert_eq!(
            kept,
            vec![(5, UpdateEntry::Delete { gid: 1 }), (7, insert(101)),],
            "survivors keep their original lsns"
        );
        // The writer still appends after the compacted tail.
        drop(wal);
        let wal = tiny_wal(&dir);
        assert_eq!(wal.next_lsn(), 8);
    }

    #[test]
    fn cross_segment_pairs_survive_for_crash_atomicity() {
        let dir = Dir::memory();
        let wal = tiny_wal(&dir);
        // Insert in one segment, delete it two rotations later. Dropping
        // the pair would touch two files, and the pass is only atomic
        // per file — a crash between the rewrites would orphan the
        // delete — so the pair must survive. A later checkpoint mark
        // covers it instead, which drops per segment safely.
        wal.append_entry(&insert(0)).unwrap();
        wal.rotate_now().unwrap();
        for gid in 1..4 {
            wal.append_entry(&insert(gid)).unwrap();
        }
        wal.rotate_now().unwrap();
        wal.append_entry(&UpdateEntry::Delete { gid: 0 }).unwrap();
        wal.rotate_now().unwrap();
        Compactor::new(0).compact_dir(&dir).unwrap();
        let reader = WalReader::open(&dir).unwrap();
        assert_eq!(reader.len(), 5, "nothing cancelled across segments");
        // Every delete still has its insert earlier in the stream: the
        // compacted log replays strictly, no orphaned halves.
        let entries: Vec<UpdateEntry> = reader.records().iter().map(|r| r.entry.clone()).collect();
        for (i, e) in entries.iter().enumerate() {
            if let UpdateEntry::Delete { gid } = e {
                assert!(
                    entries[..i]
                        .iter()
                        .any(|p| matches!(p, UpdateEntry::Insert { gid: g, .. } if g == gid)),
                    "delete of {gid} orphaned"
                );
            }
        }
        // Once a checkpoint covers the pair, it goes (per-segment-safe).
        Compactor::new(5).compact_dir(&dir).unwrap();
        assert!(WalReader::open(&dir).unwrap().is_empty());
    }

    #[test]
    fn trailing_pair_is_kept_as_the_allocator_watermark() {
        let dir = Dir::memory();
        let wal = WalWriter::open(
            &dir,
            WalConfig {
                segment_bytes: 1 << 20,
                sync: SyncPolicy::Never,
                ..WalConfig::default()
            },
        )
        .unwrap();
        // Pure churn: every insert is deleted; the highest pair must
        // survive compaction so recovery still knows gid 9 was assigned.
        for gid in 0..10 {
            wal.append_entry(&insert(gid)).unwrap();
            wal.append_entry(&UpdateEntry::Delete { gid }).unwrap();
        }
        wal.rotate_now().unwrap();
        Compactor::new(0).compact_dir(&dir).unwrap();
        let reader = WalReader::open(&dir).unwrap();
        let survivors: Vec<UpdateEntry> =
            reader.records().iter().map(|r| r.entry.clone()).collect();
        assert_eq!(
            survivors,
            vec![insert(9), UpdateEntry::Delete { gid: 9 }],
            "exactly the watermark pair remains"
        );
        // A higher insert in the *active* segment releases it.
        wal.append_entry(&insert(10)).unwrap();
        wal.sync().unwrap();
        Compactor::new(0).compact_dir(&dir).unwrap();
        let reader = WalReader::open(&dir).unwrap();
        let survivors: Vec<UpdateEntry> =
            reader.records().iter().map(|r| r.entry.clone()).collect();
        assert_eq!(
            survivors,
            vec![insert(10)],
            "active insert carries the watermark"
        );
    }

    #[test]
    fn active_segment_and_its_pairs_are_left_alone() {
        let dir = Dir::memory();
        let wal = tiny_wal(&dir);
        wal.append_entry(&insert(7)).unwrap();
        wal.rotate_now().unwrap();
        // The delete lands in the *active* segment: the closed insert
        // must survive (its pair partner is outside the compactable set).
        wal.append_entry(&UpdateEntry::Delete { gid: 7 }).unwrap();
        Compactor::new(0).compact_dir(&dir).unwrap();
        let reader = WalReader::open(&dir).unwrap();
        assert_eq!(reader.len(), 2, "nothing was dropped");
    }

    #[test]
    fn fully_covered_segments_are_removed() {
        let dir = Dir::memory();
        let wal = tiny_wal(&dir);
        for gid in 0..20 {
            wal.append_entry(&insert(gid)).unwrap();
        }
        wal.rotate_now().unwrap();
        let segments_before = crate::segment::scan_dir(&dir).unwrap().segments.len();
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
            wal.append_entry(&insert(gid)).unwrap();
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
            wal.append_entry(&insert(gid)).unwrap();
            if gid % 2 == 0 {
                wal.append_entry(&UpdateEntry::Delete { gid }).unwrap();
            }
        }
        wal.rotate_now().unwrap();
        let first = Compactor::new(3).compact_dir(&dir).unwrap();
        let after_first: Vec<_> = WalReader::open(&dir).unwrap().records().to_vec();
        let second = Compactor::new(3).compact_dir(&dir).unwrap();
        let after_second: Vec<_> = WalReader::open(&dir).unwrap().records().to_vec();
        assert_eq!(after_first, after_second);
        assert_eq!(second.records_before, first.records_after);
        assert_eq!(second.segments_rewritten, 0, "second pass rewrites nothing");
    }
}
