//! The write-ahead log's fault contract, over seeded schedules. A
//! schedule interleaves appends, commits, flushes and rotations of one
//! `WalWriter` with faults armed on its in-memory volume — failed,
//! short and full appends, failed cuts and flushes, failed segment
//! creates, renames and removes, a power loss in the middle of a call —
//! and with power losses between steps, each followed by `recover_live`
//! over the log directory and the writer it reopens.
//!
//! After every step, either the call succeeded, or it returned a typed
//! error and moved neither `next_lsn` nor `durable_lsn`, or the writer
//! is poisoned: the append tried right after such a call is refused
//! [`WalError::Poisoned`], and a writer known poisoned moves neither
//! again. After every power loss,
//! recovery returns the checkpoint plus the first `k` entries appended,
//! with every record the writer called durable among them:
//! durable ≤ k ≤ appended. Nothing panics. A failing case prints the
//! seed that replays it (`PROPTEST_SEED`).

use pitract_engine::{LiveRelation, ShardBy, UpdateEntry};
use pitract_relation::{ColType, Relation, Schema, Value};
use pitract_store::storage::{Dir, Effect, Fault, Op};
use pitract_store::{MemoryVolume, SnapshotCatalog};
use pitract_wal::{recover_live, SyncPolicy, WalConfig, WalError, WalWriter};
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
    Commit,
    Sync,
    Rotate,
    Arm(Fault),
    PowerLoss,
}

/// The step three drawn numbers name.
fn step(kind: u8, a: usize, b: usize) -> Step {
    match kind {
        0..=5 => Step::Append,
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
        _ => Step::PowerLoss,
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

/// What the log may hold: the key of every entry the writer took, in
/// LSN order (the entry at LSN `i` inserts global id `BASE + i`), and
/// how many of them are confirmed durable.
#[derive(Debug, Default)]
struct Model {
    keys: Vec<i64>,
    confirmed: usize,
}

fn base() -> LiveRelation {
    let schema = Schema::new(&[("id", ColType::Int)]);
    let rows = (0..BASE as i64).map(|i| vec![Value::Int(i)]).collect();
    let rel = Relation::from_rows(schema, rows).unwrap();
    LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 2, &[0]).unwrap()
}

/// Lose power, recover the node, check it holds a confirmed prefix of
/// what the writer took, and return the writer recovery reopened. A
/// fault armed before the loss may fail the first recovery (typed);
/// with every fault disarmed, the second must succeed.
fn power_loss(
    volume: &MemoryVolume,
    catalog: &SnapshotCatalog,
    wal_dir: &Dir,
    config: &WalConfig,
    model: &mut Model,
) -> Result<WalWriter, TestCaseError> {
    volume.crash();
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
    // A power loss leaves only flushed bytes: what came back is durable.
    model.keys.truncate(k);
    model.confirmed = k;
    Ok(wal)
}

proptest! {
    #[test]
    fn every_step_keeps_the_contract_and_every_power_loss_a_confirmed_prefix(
        raw in prop::collection::vec((0u8..16, 0usize..1_000, 0usize..1_000), 1..60),
        policy in 0usize..3,
        segment_bytes in 96u64..400,
    ) {
        let sync = [SyncPolicy::GroupCommit, SyncPolicy::Always, SyncPolicy::Never][policy];
        let config = WalConfig { segment_bytes, sync, ..WalConfig::default() };
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
            let result = match &step {
                Step::Append => wal.append_entry(&entry(before.next, key)).map(drop),
                Step::Commit => wal.commit(before.next.saturating_sub(1)),
                Step::Sync => wal.sync().map(drop),
                Step::Rotate => wal.rotate_now(),
                Step::Arm(fault) => {
                    volume.arm(fault.clone());
                    continue;
                }
                Step::PowerLoss => {
                    drop(wal);
                    wal = power_loss(&volume, &catalog, &wal_dir, &config, &mut model)?;
                    poisoned = false;
                    continue;
                }
            };
            let after = Counters::of(&wal);
            prop_assert!(after.next <= before.next + 1, "{step:?}: {before:?} → {after:?}");
            if after.next > before.next {
                model.keys.push(key);
            }
            prop_assert!(after.durable <= after.next, "{step:?}: {after:?}");
            model.confirmed = model.confirmed.max(after.durable as usize);
            // A power loss inside the call released the writer's claim.
            if wal_dir.claim().is_ok() {
                drop(wal);
                wal = power_loss(&volume, &catalog, &wal_dir, &config, &mut model)?;
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
