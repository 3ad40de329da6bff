//! The recovery side: total, typed reading of a WAL directory.

use crate::error::WalError;
use crate::segment::{decode_entry, scan_dir, DirScan};
use pitract_engine::UpdateEntry;
use pitract_obs::Recorder;
use pitract_store::Dir;

/// One recovered record: its log sequence number and decoded entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The decoded update.
    pub entry: UpdateEntry,
}

/// A fully validated read of a WAL directory: every complete record of
/// every segment, decoded and in LSN order; a torn tail (the residue of
/// a crash mid-append) is reported, not errored.
///
/// Reading is **total**: arbitrary bytes produce a typed [`WalError`] —
/// checksum-framed records whose payloads fail to decode are
/// [`WalError::Corrupt`], never a panic and never an unbounded
/// allocation (the frame length is bounds-checked against the file).
#[derive(Debug)]
pub struct WalReader {
    records: Vec<WalRecord>,
    next_lsn: u64,
    torn_bytes: u64,
}

impl WalReader {
    /// Scan and decode `dir`. A missing directory reads as an empty log.
    pub fn open(dir: impl Into<Dir>) -> Result<Self, WalError> {
        Self::from_scan(&scan_dir(&dir.into())?)
    }

    /// Decode an already-performed directory scan (e.g. the one
    /// [`crate::WalWriter::open_scanned`] returns), so recovery reads
    /// and checksums the log exactly once.
    pub fn from_scan(scan: &DirScan) -> Result<Self, WalError> {
        let mut records = Vec::new();
        for seg in &scan.segments {
            for (lsn, payload) in &seg.records {
                let entry = decode_entry(&seg.name, 0, *lsn, payload)?;
                records.push(WalRecord { lsn: *lsn, entry });
            }
        }
        Ok(WalReader {
            records,
            next_lsn: scan.next_lsn,
            torn_bytes: scan.torn_bytes,
        })
    }

    /// Report what this read found into `recorder`. A torn tail — the
    /// residue of a crash mid-append, which recovery truncates away —
    /// emits a `wal_torn_tail_truncated` trace event carrying the
    /// truncated byte and dropped-record counts, plus the
    /// `wal_recovery_truncations_total` / `wal_recovery_torn_bytes_total`
    /// / `wal_recovery_dropped_records_total` counters; a clean log
    /// reports nothing. (The torn region is by construction at most one
    /// partial frame — a complete record after it would have scanned
    /// clean — so the dropped-record count is 1; checksum-invalid
    /// *complete* frames are corruption, a typed error, never silent
    /// truncation.) Recovery calls this once per read, so one recovery
    /// reports one truncation.
    pub fn publish(&self, recorder: &Recorder) {
        if self.torn_bytes == 0 {
            return;
        }
        recorder.event(
            "wal_torn_tail_truncated",
            &[("torn_bytes", self.torn_bytes), ("dropped_records", 1)],
        );
        recorder.counter("wal_recovery_truncations_total").inc();
        recorder
            .counter("wal_recovery_torn_bytes_total")
            .add(self.torn_bytes);
        recorder.counter("wal_recovery_dropped_records_total").inc();
    }

    /// Every recovered record, in LSN order.
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Number of recovered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Was the directory empty of records?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The LSN the next append would take.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Bytes of torn tail found after the last complete record — nonzero
    /// exactly when the process crashed mid-append.
    pub fn torn_bytes(&self) -> u64 {
        self.torn_bytes
    }

    /// Every entry at or after `from_lsn`, in log order, moved out of
    /// the read — what recovery applies on top of the checkpoint that
    /// covers everything below `from_lsn`.
    pub fn into_tail(self, from_lsn: u64) -> Vec<UpdateEntry> {
        self.records
            .into_iter()
            .filter(|r| r.lsn >= from_lsn)
            .map(|r| r.entry)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{WalConfig, WalWriter};
    use pitract_relation::Value;

    #[test]
    fn reads_back_what_the_writer_appended_across_segments() {
        let dir = Dir::memory();
        let wal = WalWriter::open(
            &dir,
            WalConfig {
                segment_bytes: 96,
                ..WalConfig::default()
            },
        )
        .unwrap();
        let mut expected = Vec::new();
        for i in 0..25usize {
            let entry = if i % 3 == 2 {
                UpdateEntry::Delete { gid: i - 1 }
            } else {
                UpdateEntry::Insert {
                    gid: i,
                    row: vec![Value::Int(i as i64), Value::str(format!("r{i}"))],
                }
            };
            let lsn = wal.append_entry(&entry).unwrap();
            expected.push(WalRecord { lsn, entry });
        }
        wal.sync().unwrap();
        let reader = WalReader::open(&dir).unwrap();
        assert_eq!(reader.records(), expected.as_slice());
        assert_eq!(reader.next_lsn(), 25);
        assert_eq!(reader.torn_bytes(), 0);
        let segments = crate::segment::scan_dir(&dir).unwrap().segments;
        assert!(segments.len() > 1, "rotation happened");
        // Tail extraction respects the mark.
        let tail = |mark| WalReader::open(&dir).unwrap().into_tail(mark);
        assert_eq!(tail(0).len(), 25);
        let suffix: Vec<UpdateEntry> = expected[20..].iter().map(|r| r.entry.clone()).collect();
        assert_eq!(tail(20), suffix);
        assert_eq!(tail(25).len(), 0);
    }

    #[test]
    fn garbage_payload_is_corrupt_not_a_panic() {
        use crate::segment::{encode_record, segment_file_name, segment_header};
        let dir = Dir::memory();
        // A perfectly framed record whose payload is not an UpdateEntry.
        let mut bytes = segment_header(0);
        bytes.extend_from_slice(&encode_record(0, &[9, 9, 9, 9]));
        dir.write_atomic(&segment_file_name(0), &bytes).unwrap();
        let err = WalReader::open(&dir).unwrap_err();
        assert!(
            matches!(err, WalError::Corrupt { ref reason, .. } if reason.contains("decode")),
            "{err}"
        );
    }

    #[test]
    fn missing_dir_is_an_empty_log() {
        let reader = WalReader::open(Dir::memory().join("not-here")).unwrap();
        assert!(reader.is_empty());
        assert_eq!(reader.next_lsn(), 0);
    }

    /// Satellite of the observability PR: a torn tail is truncated *and
    /// reported* — typed trace event plus counters carrying the
    /// truncated-byte and dropped-record counts — instead of vanishing
    /// silently.
    #[test]
    fn torn_tail_truncation_emits_event_and_counters() {
        let dir = Dir::memory();
        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
        for i in 0..5 {
            wal.append_entry(&UpdateEntry::Insert {
                gid: i,
                row: vec![Value::Int(i as i64)],
            })
            .unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        // Crash mid-append: chop bytes off the active segment.
        let seg = crate::segment::scan_dir(&dir)
            .unwrap()
            .segments
            .pop()
            .unwrap();
        dir.open(&seg.name)
            .unwrap()
            .truncate(seg.file_len - 7)
            .unwrap();

        let recorder = pitract_obs::Recorder::new();
        let reader = WalReader::open(&dir).unwrap();
        reader.publish(&recorder);
        assert_eq!(reader.len(), 4, "the torn record is gone");
        let torn = reader.torn_bytes();
        assert!(torn > 0);
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("wal_recovery_truncations_total"), Some(1));
        assert_eq!(snap.counter("wal_recovery_torn_bytes_total"), Some(torn));
        assert_eq!(snap.counter("wal_recovery_dropped_records_total"), Some(1));
        let events = recorder.drain_trace();
        let ev = events
            .iter()
            .find(|e| e.name == "wal_torn_tail_truncated")
            .expect("truncation event emitted");
        assert!(ev.fields.contains(&("torn_bytes", torn)));
        assert!(ev.fields.contains(&("dropped_records", 1)));
        // A clean directory reports nothing.
        let clean = pitract_obs::Recorder::new();
        let wal = WalWriter::open(&dir, WalConfig::default()).unwrap();
        wal.sync().unwrap();
        drop(wal);
        WalReader::open(&dir).unwrap().publish(&clean);
        assert_eq!(
            clean.snapshot().counter("wal_recovery_truncations_total"),
            None
        );
    }
}
