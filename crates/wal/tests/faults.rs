//! The write-ahead log's fault contract, over seeded schedules. A
//! schedule interleaves appends (one entry, or a run of frames the way
//! a replication shipment carries them), commits, flushes and rotations
//! of one `WalWriter` with faults armed on its in-memory volume —
//! failed, short and full appends, failed cuts and flushes, failed
//! segment creates, renames and removes, a power loss in the middle of
//! a call — and with power losses and restarts between steps, each
//! followed by `recover_live` over the log directory and the writer it
//! reopens. A restart drops the writer with no power loss: what a failed
//! flush left uncovered then still reads back from the page cache. A
//! lost segment is a restart with one closed segment file gone: the log
//! has a hole, and recovery must refuse it typed before the file comes
//! back. (Losing the newest segment cannot be told from a shorter log:
//! no later record refers to it, so no step removes that one.)
//!
//! After every step, either the call succeeded, or it returned a typed
//! error and moved neither `next_lsn` nor `durable_lsn`, or the writer
//! is poisoned: the append tried right after such a call is refused
//! [`WalError::Poisoned`], and a writer known poisoned moves neither
//! again. After every power loss and restart,
//! recovery returns the checkpoint plus the first `k` entries appended,
//! with every record the writer called durable among them:
//! durable ≤ k ≤ appended, and all `k` are durable from then on.
//! Nothing panics. A failing case prints the
//! seed that replays it (`PROPTEST_SEED`).

use pitract_engine::{LiveRelation, ShardBy, UpdateEntry};
use pitract_relation::{ColType, Relation, Schema, Value};
use pitract_store::codec::Writer as CodecWriter;
use pitract_store::storage::{Dir, Effect, Fault, Op};
use pitract_store::{MemoryVolume, SnapshotCatalog};
use pitract_wal::segment::{encode_record, list_segments, scan_frames};
use pitract_wal::{recover_live, WalConfig, WalError, WalWriter};
use proptest::prelude::*;
use std::io::ErrorKind;

/// Rows of the checkpoint the log extends.
const BASE: usize = 4;

const OPS: [Op; 7] = [
    Op::Append,
    Op::Truncate,
    Op::Sync,
    Op::Create,
    Op::Rename,
    Op::Remove,
    Op::Read,
];

/// One step of a schedule.
#[derive(Debug)]
enum Step {
    Append,
    /// `append_frames` of this many dense frames at `next_lsn`.
    AppendFrames(usize),
    Commit,
    Sync,
    Rotate,
    Arm(Fault),
    PowerLoss,
    Restart,
    /// Remove the closed segment this number picks, never the newest.
    LoseSegment(usize),
}

/// The step three drawn numbers name.
fn step(kind: u8, a: usize, b: usize) -> Step {
    match kind {
        0..=4 => Step::Append,
        5 => Step::AppendFrames(1 + b % 6),
        6 | 7 => Step::Commit,
        8 => Step::Sync,
        9 => Step::Rotate,
        10..=13 => {
            let effect = match b % 5 {
                0 => Effect::Fail(ErrorKind::Other),
                1 => Effect::Fail(ErrorKind::StorageFull),
                2 => Effect::Short(b / 5 % 40),
                3 => Effect::LandThenFail,
                _ => Effect::CrashThenFail,
            };
            Step::Arm(Fault {
                op: OPS[a % OPS.len()],
                prefix: "/wal".into(),
                nth: 1 + a / OPS.len() % 3,
                effect,
            })
        }
        14 | 15 => Step::PowerLoss,
        16 => Step::Restart,
        _ => Step::LoseSegment(a),
    }
}

/// What the writer reports of itself.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counters {
    next: u64,
    durable: u64,
}

impl Counters {
    fn of(wal: &WalWriter) -> Self {
        Counters {
            next: wal.next_lsn(),
            durable: wal.durable_lsn(),
        }
    }
}

/// The entry the step numbered `key` appends at LSN `lsn`.
fn entry(lsn: u64, key: i64) -> UpdateEntry {
    let gid = BASE + lsn as usize;
    UpdateEntry::Insert {
        gid,
        row: vec![Value::Int(key)],
    }
}

/// The frames of `keys.len()` entries at LSNs `lsn`, `lsn + 1`, …, back
/// to back.
fn frames(lsn: u64, keys: &[i64]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (at, &key) in (lsn..).zip(keys) {
        let mut payload = CodecWriter::new();
        payload.update_entry(&entry(at, key));
        bytes.extend_from_slice(&encode_record(at, &payload.into_bytes()));
    }
    bytes
}

/// What the log may hold: the key of every entry the writer took, in
/// LSN order (the entry at LSN `i` inserts global id `BASE + i`), how
/// many of them are confirmed durable, and the keys of an append that
/// failed since the last one that landed, those the writer did not
/// take. Their frames may have landed whole before the erase failed,
/// poisoning the writer: a restart then finds a prefix of them.
#[derive(Debug, Default)]
struct Model {
    keys: Vec<i64>,
    confirmed: usize,
    failed: Vec<i64>,
}

fn base() -> LiveRelation {
    let schema = Schema::new(&[("id", ColType::Int)]);
    let rows = (0..BASE as i64).map(|i| vec![Value::Int(i)]).collect();
    let rel = Relation::from_rows(schema, rows).unwrap();
    LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 2, &[0]).unwrap()
}

/// Lose power (`crash`) or only restart, recover the node, check it
/// holds a confirmed prefix of what the writer took, and return the
/// writer recovery reopened. A fault armed before may fail the first
/// recovery (typed); with every fault disarmed, the second must succeed.
fn reopen(
    volume: &MemoryVolume,
    catalog: &SnapshotCatalog,
    wal_dir: &Dir,
    config: &WalConfig,
    model: &mut Model,
    crash: bool,
) -> Result<WalWriter, TestCaseError> {
    if crash {
        volume.crash();
    }
    let mut failed = None;
    let (live, wal, _, replayed) = loop {
        match recover_live(catalog, "node", wal_dir, config.clone()) {
            Ok(recovered) => break recovered,
            Err(e) => {
                prop_assert!(failed.is_none(), "recovery failed twice: {failed:?}, {e}");
                failed = Some(e);
                volume.disarm();
            }
        }
    };
    let k = replayed;
    let failed = std::mem::take(&mut model.failed);
    let landed = k.saturating_sub(model.keys.len()).min(failed.len());
    model.keys.extend_from_slice(&failed[..landed]);
    prop_assert!(
        model.confirmed <= k && k <= model.keys.len(),
        "recovered {k} records; {} were confirmed, {} appended",
        model.confirmed,
        model.keys.len()
    );
    prop_assert_eq!(live.len(), BASE + k);
    for (i, key) in model.keys[..k].iter().enumerate() {
        prop_assert_eq!(
            live.row(BASE + i),
            Some(vec![Value::Int(*key)]),
            "lsn {}",
            i
        );
    }
    prop_assert_eq!(wal.next_lsn(), k as u64);
    // What came back is durable: a power loss leaves only flushed bytes,
    // and the reopened writer flushed the rest through a fresh file.
    model.keys.truncate(k);
    model.confirmed = k;
    Ok(wal)
}

proptest! {
    #[test]
    fn every_step_keeps_the_contract_and_every_power_loss_a_confirmed_prefix(
        raw in prop::collection::vec((0u8..18, 0usize..1_000, 0usize..1_000), 1..60),
        segment_bytes in 96u64..400,
    ) {
        let config = WalConfig { segment_bytes, ..WalConfig::default() };
        let volume = MemoryVolume::new();
        let catalog = SnapshotCatalog::open(volume.root().join("snaps")).unwrap();
        catalog.save_checkpoint("node", &base(), |_| 0).unwrap();
        let wal_dir = volume.root().join("wal");
        let mut wal = WalWriter::open(&wal_dir, config.clone()).unwrap();
        let mut model = Model::default();
        // Whether the writer must be poisoned by now, as its results
        // showed.
        let mut poisoned = false;
        let steps = raw.iter().map(|&(kind, a, b)| step(kind, a, b));
        for (n, step) in steps.chain([Step::PowerLoss]).enumerate() {
            let before = Counters::of(&wal);
            let key = n as i64;
            // The keys of the entries the step appends.
            let keys: Vec<i64> = match step {
                Step::Append => vec![key],
                Step::AppendFrames(count) => (0..count as i64).map(|i| 1_000 * key + i).collect(),
                _ => Vec::new(),
            };
            let result = match &step {
                Step::Append => wal.append_entry(&entry(before.next, key)).map(drop),
                Step::AppendFrames(_) => {
                    let bytes = frames(before.next, &keys);
                    let frames = scan_frames(&bytes, before.next, false, "frames").unwrap().frames;
                    wal.append_frames(&bytes, &frames).map(drop)
                }
                Step::Commit => wal.commit(before.next.saturating_sub(1)),
                Step::Sync => wal.sync().map(drop),
                Step::Rotate => wal.rotate_now(),
                Step::Arm(fault) => {
                    volume.arm(fault.clone());
                    continue;
                }
                Step::PowerLoss | Step::Restart => {
                    drop(wal);
                    let crash = matches!(step, Step::PowerLoss);
                    wal = reopen(&volume, &catalog, &wal_dir, &config, &mut model, crash)?;
                    poisoned = false;
                    continue;
                }
                Step::LoseSegment(pick) => {
                    drop(wal);
                    volume.disarm();
                    let segments = list_segments(&wal_dir).unwrap();
                    if let Some(closed) = segments.len().checked_sub(1).filter(|&c| c > 0) {
                        let name = &segments[pick % closed].1;
                        let bytes = wal_dir.read(name, 0).unwrap();
                        wal_dir.remove(name).unwrap();
                        let lost = recover_live(&catalog, "node", &wal_dir, config.clone());
                        prop_assert!(
                            matches!(lost, Err(WalError::Corrupt { .. })),
                            "{name} lost, yet recovery gave {:?}",
                            lost.map(|(_, _, _, replayed)| replayed)
                        );
                        wal_dir.write_atomic(name, &bytes).unwrap();
                    }
                    wal = reopen(&volume, &catalog, &wal_dir, &config, &mut model, false)?;
                    poisoned = false;
                    continue;
                }
            };
            let after = Counters::of(&wal);
            let moved = (after.next - before.next) as usize;
            prop_assert!(moved <= keys.len(), "{step:?}: {before:?} → {after:?}");
            if moved > 0 {
                model.keys.extend_from_slice(&keys[..moved]);
                model.failed = keys[moved..].to_vec();
            } else if !keys.is_empty()
                && matches!(result, Err(ref e) if !matches!(e, WalError::Poisoned))
            {
                // A refused append wrote nothing; a failed one may have.
                model.failed = keys;
            }
            prop_assert!(after.durable <= after.next, "{step:?}: {after:?}");
            model.confirmed = model.confirmed.max(after.durable as usize);
            // A power loss inside the call released the writer's claim.
            if wal_dir.claim().is_ok() {
                drop(wal);
                wal = reopen(&volume, &catalog, &wal_dir, &config, &mut model, true)?;
                poisoned = false;
                continue;
            }
            let still = after.next == before.next && after.durable == before.durable;
            if poisoned {
                prop_assert!(still, "{step:?} moved a poisoned writer: {before:?} → {after:?}");
            }
            match &result {
                Err(WalError::Poisoned) => poisoned = true,
                Err(e) if !still => {
                    // Only a poisoned writer may fail and move: the next
                    // append must be refused, and move nothing.
                    let probe = wal.append_entry(&entry(after.next, -1));
                    prop_assert!(
                        matches!(probe, Err(WalError::Poisoned)) && Counters::of(&wal) == after,
                        "{step:?} failed ({e}) yet moved {before:?} → {after:?}, \
                         and the writer is not poisoned: {probe:?}"
                    );
                    poisoned = true;
                }
                _ => {}
            }
        }
    }
}
