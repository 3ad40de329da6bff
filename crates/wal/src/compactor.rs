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
        // insert+delete pairs among what is left.
        let mut drop: Vec<Vec<bool>> = decoded
            .iter()
            .map(|seg| seg.iter().map(|(lsn, _, _)| *lsn < self.mark).collect())
            .collect();
        /// A cancelled pair: the shared gid plus the `(segment, record)`
        /// positions of its insert and delete.
        struct CancelledPair {
            gid: usize,
            insert_at: (usize, usize),
            delete_at: (usize, usize),
        }
        let mut open_inserts: HashMap<usize, (usize, usize)> = HashMap::new();
        let mut pairs: Vec<CancelledPair> = Vec::new();
        for (si, seg) in decoded.iter().enumerate() {
            for (ri, (_, entry, _)) in seg.iter().enumerate() {
                if drop[si][ri] {
                    continue;
                }
                match entry {
                    UpdateEntry::Insert { gid, .. } => {
                        open_inserts.insert(*gid, (si, ri));
                    }
                    UpdateEntry::Delete { gid } => {
                        // Cancel only pairs whose halves share a segment:
                        // each segment is replaced atomically, but the
                        // *pass* is not atomic across segments — dropping
                        // an insert in one rewrite and its delete in
                        // another would let a crash between them orphan
                        // the delete, and an orphaned delete makes the
                        // tail unreplayable. A cross-segment pair simply
                        // survives until a later checkpoint mark covers
                        // it, which drops both halves by a rule that is
                        // safe per segment.
                        if let Some((isi, iri)) = open_inserts.remove(gid) {
                            if isi == si {
                                drop[isi][iri] = true;
                                drop[si][ri] = true;
                                pairs.push(CancelledPair {
                                    gid: *gid,
                                    insert_at: (isi, iri),
                                    delete_at: (si, ri),
                                });
                            }
                        }
                    }
                }
            }
        }

        // The watermark rule (mirroring `UpdateLog::compact`): if the
        // highest inserted gid in the compactable region belongs to a
        // cancelled pair and no surviving insert — in the closed set or
        // the active segment — carries a higher id, resurrect that pair,
        // so a recovery from the compacted log still advances the id
        // allocator exactly as far as the history did.
        if let Some(watermark) = pairs.iter().max_by_key(|p| p.gid) {
            let closed_carrier = decoded
                .iter()
                .enumerate()
                .flat_map(|(si, seg)| {
                    let drop = &drop[si];
                    seg.iter()
                        .enumerate()
                        .filter_map(move |(ri, (_, e, _))| match (drop[ri], e) {
                            (false, UpdateEntry::Insert { gid, .. }) => Some(*gid),
                            _ => None,
                        })
                })
                .max();
            let mut untouched_carrier = match scan.segments.last() {
                Some(seg) => active_insert_watermark(seg)?,
                None => None,
            };
            for seg in &protected {
                untouched_carrier = untouched_carrier.max(active_insert_watermark(seg)?);
            }
            let carrier = closed_carrier.max(untouched_carrier);
            if carrier.is_none_or(|c| c < watermark.gid) {
                drop[watermark.insert_at.0][watermark.insert_at.1] = false;
                drop[watermark.delete_at.0][watermark.delete_at.1] = false;
            }
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

/// Highest inserted gid among the active segment's records (the segment
/// compaction never touches, whose inserts therefore always survive as
/// watermark carriers).
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
    use pitract_relation::Value;

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
