//! Crash-injection property tests: recovery is total and exact.
//!
//! The crash model of an append-only log is truncation — a crash while
//! appending leaves some prefix of the bytes the writer issued. These
//! properties drive that model hard: write N records, cut the segment
//! file at an arbitrary byte offset, and require recovery to return
//! **exactly** the records whose frames fit entirely inside the cut —
//! no more (half-written records were never confirmed), no fewer (every
//! confirmed record survives), and never a panic. A second property
//! feeds arbitrary garbage and bit-flips through the same path and
//! requires a typed result.

use pitract_engine::UpdateEntry;
use pitract_relation::Value;
use pitract_store::{Dir, MemoryVolume};
use pitract_wal::segment::{segment_file_name, RECORD_OVERHEAD, SEGMENT_HEADER_LEN};
use pitract_wal::{WalConfig, WalReader, WalWriter};
use proptest::prelude::*;

/// Deterministic entry stream from generated ops: inserts take the next
/// gid; deletes target an earlier gid (so the stream is a plausible
/// history, though recovery must not care).
fn entries_from_ops(ops: &[(u8, i64)]) -> Vec<UpdateEntry> {
    let mut entries = Vec::with_capacity(ops.len());
    let mut next_gid = 0usize;
    for &(op, key) in ops {
        if op % 4 == 0 && next_gid > 0 {
            entries.push(UpdateEntry::Delete {
                gid: key as usize % next_gid,
            });
        } else {
            entries.push(UpdateEntry::Insert {
                gid: next_gid,
                row: vec![Value::Int(key), Value::str(format!("k{key}"))],
            });
            next_gid += 1;
        }
    }
    entries
}

fn payload_len(entry: &UpdateEntry) -> usize {
    let mut w = pitract_store::codec::Writer::new();
    w.update_entry(entry);
    w.len()
}

proptest! {
    /// A power loss on a volume that drops every byte no flush covered:
    /// records committed under group commit — across segment rotations —
    /// survive, records appended after the last commit are gone, and
    /// recovery returns exactly the committed prefix, where a reopened
    /// writer resumes.
    #[test]
    fn power_loss_keeps_exactly_the_committed_prefix(
        ops in prop::collection::vec((0u8..8, 0i64..1_000), 1..30),
        committed in 0usize..30,
        segment_bytes in 96u64..400,
    ) {
        let entries = entries_from_ops(&ops);
        let committed = committed % (entries.len() + 1);
        let volume = MemoryVolume::new();
        let config = WalConfig { segment_bytes, ..WalConfig::default() };
        let wal = WalWriter::open(volume.root(), config.clone()).unwrap();
        for e in &entries[..committed] {
            let lsn = wal.append_entry(e).unwrap();
            wal.commit(lsn).unwrap();
        }
        for e in &entries[committed..] {
            wal.append_entry(e).unwrap();
        }
        prop_assert_eq!(wal.durable_lsn(), committed as u64);
        drop(wal);
        volume.crash();

        let reader = WalReader::open(volume.root()).unwrap();
        let got: Vec<UpdateEntry> = reader.records().iter().map(|r| r.entry.clone()).collect();
        prop_assert_eq!(&got[..], &entries[..committed]);
        let wal = WalWriter::open(volume.root(), config).unwrap();
        prop_assert_eq!(wal.next_lsn(), committed as u64);
    }

    /// For every byte offset a crash can cut a segment at, recovery
    /// returns exactly the prefix of complete records.
    #[test]
    fn truncated_segment_recovers_exactly_the_complete_prefix(
        ops in prop::collection::vec((0u8..8, 0i64..1_000), 1..25),
        cut_seed in 0usize..1_000_000
    ) {
        let entries = entries_from_ops(&ops);
        let dir = Dir::memory();
        let wal = WalWriter::open(
            &dir,
            WalConfig { segment_bytes: u64::MAX, ..WalConfig::default() },
        ).unwrap();
        for e in &entries {
            wal.append_entry(e).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // Frame boundaries, recomputed independently of the scanner.
        let mut boundaries = vec![SEGMENT_HEADER_LEN];
        for e in &entries {
            boundaries.push(boundaries.last().unwrap() + RECORD_OVERHEAD + payload_len(e));
        }
        let seg = segment_file_name(0);
        let full = dir.read(&seg, 0).unwrap();
        prop_assert_eq!(full.len(), *boundaries.last().unwrap());

        let cut = cut_seed % (full.len() + 1);
        dir.open(&seg).unwrap().truncate(cut as u64).unwrap();

        let reader = WalReader::open(&dir).unwrap();
        let complete = boundaries.iter().filter(|&&b| b <= cut.max(SEGMENT_HEADER_LEN)).count()
            .saturating_sub(1);
        let complete = if cut < SEGMENT_HEADER_LEN { 0 } else { complete };
        prop_assert_eq!(reader.len(), complete, "cut at {} of {}", cut, full.len());
        let got: Vec<UpdateEntry> = reader.records().iter().map(|r| r.entry.clone()).collect();
        prop_assert_eq!(&got[..], &entries[..complete]);
        prop_assert_eq!(reader.next_lsn(), complete as u64);
        prop_assert_eq!(
            reader.torn_bytes() > 0,
            cut != 0 && !boundaries.contains(&cut),
            "torn flag at cut {}", cut
        );

        // And a writer reopening the same directory heals the tail: the
        // next append is confirmed record number `complete`.
        let wal = WalWriter::open(
            &dir,
            WalConfig { segment_bytes: u64::MAX, ..WalConfig::default() },
        ).unwrap();
        prop_assert_eq!(wal.next_lsn(), complete as u64);
    }

    /// Crash mid-`apply_batch`: a batch is staged record-by-record and
    /// fsync'd once at the end, so a crash can cut the WAL anywhere
    /// inside the batch — recovery must replay exactly the confirmed
    /// prefix of the batch's ops (batches change commit cadence, not
    /// crash atomicity: they are NOT all-or-nothing).
    #[test]
    fn truncated_apply_batch_recovers_exactly_the_confirmed_prefix(
        ops in prop::collection::vec((0u8..8, 0i64..1_000), 2..20),
        cut_seed in 0usize..1_000_000
    ) {
        use pitract_engine::{LiveRelation, ShardBy, UpdateOp};
        use pitract_relation::{ColType, Relation, Schema};
        use pitract_store::SnapshotCatalog;
        use pitract_wal::DurableLiveRelation;

        fn build_live() -> LiveRelation {
            let schema = Schema::new(&[("id", ColType::Int), ("k", ColType::Str)]);
            let empty = Relation::from_rows(schema, vec![]).unwrap();
            LiveRelation::build(&empty, ShardBy::Hash { col: 0 }, 2, &[0]).unwrap()
        }

        // Generate the batch's ops alongside the exact WAL entries they
        // will stage: inserts take sequential gids from 0 (the relation
        // starts empty), deletes only ever target a still-live gid so
        // every op stages exactly one record.
        let mut batch_ops = Vec::with_capacity(ops.len());
        let mut entries = Vec::with_capacity(ops.len());
        let mut next_gid = 0usize;
        let mut live_gids: Vec<usize> = Vec::new();
        for &(op, key) in &ops {
            if op % 4 == 0 && !live_gids.is_empty() {
                let gid = live_gids.remove(key as usize % live_gids.len());
                batch_ops.push(UpdateOp::Delete(gid));
                entries.push(UpdateEntry::Delete { gid });
            } else {
                let row = vec![Value::Int(key), Value::str(format!("k{key}"))];
                batch_ops.push(UpdateOp::Insert(row.clone()));
                entries.push(UpdateEntry::Insert { gid: next_gid, row });
                live_gids.push(next_gid);
                next_gid += 1;
            }
        }

        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let wal_dir = Dir::memory();
        let config = WalConfig { segment_bytes: u64::MAX, ..WalConfig::default() };
        let node =
            DurableLiveRelation::create(build_live(), &catalog, "node", &wal_dir, config.clone())
                .unwrap();
        let applied = node.apply_batch(batch_ops.clone()).unwrap();
        prop_assert_eq!(applied.len(), batch_ops.len());
        node.wal().sync().unwrap();
        drop(node);

        // Frame boundaries, recomputed independently of the scanner.
        let mut boundaries = vec![SEGMENT_HEADER_LEN];
        for e in &entries {
            boundaries.push(boundaries.last().unwrap() + RECORD_OVERHEAD + payload_len(e));
        }
        let seg = segment_file_name(0);
        let full = wal_dir.read(&seg, 0).unwrap();
        prop_assert_eq!(full.len(), *boundaries.last().unwrap());

        let cut = cut_seed % (full.len() + 1);
        wal_dir.open(&seg).unwrap().truncate(cut as u64).unwrap();
        let complete = boundaries.iter().filter(|&&b| b <= cut.max(SEGMENT_HEADER_LEN)).count()
            .saturating_sub(1);
        let complete = if cut < SEGMENT_HEADER_LEN { 0 } else { complete };

        // Oracle: the confirmed op prefix applied to a fresh relation.
        let oracle = build_live();
        for op in &batch_ops[..complete] {
            match op {
                UpdateOp::Insert(row) => { oracle.insert(row.clone()).unwrap(); }
                UpdateOp::Delete(gid) => { oracle.delete(*gid).unwrap().unwrap(); }
            }
        }

        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config).unwrap();
        prop_assert_eq!(recovered.wal().next_lsn(), complete as u64, "cut at {} of {}", cut, full.len());
        prop_assert_eq!(recovered.len(), oracle.len());
        for gid in 0..next_gid {
            prop_assert_eq!(recovered.row(gid), oracle.row(gid), "gid {}", gid);
        }
    }

    /// Arbitrary damage — random bytes, or a bit flip anywhere in a real
    /// segment — never panics: reading yields Ok (with a possibly
    /// shorter record set, if the damage hides in the torn tail) or a
    /// typed error.
    #[test]
    fn damaged_segments_never_panic(
        ops in prop::collection::vec((0u8..8, 0i64..1_000), 1..15),
        flip_at in 0usize..1_000_000,
        garbage in prop::collection::vec(0u8..=255, 0..80)
    ) {
        // Bit flip in a real segment.
        let entries = entries_from_ops(&ops);
        let dir = Dir::memory();
        let wal = WalWriter::open(
            &dir,
            WalConfig { segment_bytes: u64::MAX, ..WalConfig::default() },
        ).unwrap();
        for e in &entries {
            wal.append_entry(e).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let seg = segment_file_name(0);
        let mut bytes = dir.read(&seg, 0).unwrap();
        let at = flip_at % bytes.len();
        bytes[at] ^= 0x40;
        dir.write_atomic(&seg, &bytes).unwrap();
        let result = WalReader::open(&dir);
        if let Ok(reader) = &result {
            // Damage that still parses must have hidden in the tail (or
            // not changed the meaning of any complete record's frame) —
            // in no case may more records appear than were written.
            prop_assert!(reader.len() <= entries.len());
        }

        // Pure garbage under a segment name.
        let dir = Dir::memory();
        dir.write_atomic(&segment_file_name(0), &garbage).unwrap();
        let _ = WalReader::open(&dir); // Ok(empty/torn) or typed error; no panic
    }
}
