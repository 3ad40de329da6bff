//! A checkpoint streamed to its file, under I/O faults. The snapshot
//! directory sits on an in-memory volume armed to fail one write of a
//! save: an append (the first chunk, a middle chunk, or the last, which
//! carries the checksum) with `StorageFull`, the flush, or an append at
//! which the volume loses power. In every case the checkpoint returns a
//! typed error, leaves no temp file, keeps the previous checkpoint byte
//! for byte and its mark where it was, and the directories still recover
//! to the node; once the fault is spent, the next checkpoint succeeds.

use pi_tractable::prelude::*;
use pi_tractable::store::storage::{self, Effect, Op};
use std::io::ErrorKind;

/// One write of a save that goes wrong, counted from the first append
/// after the fault is armed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// The `k`-th append fails with [`ErrorKind::StorageFull`].
    FullAt(usize),
    /// The flush fails.
    FlushFails,
    /// The volume loses power at the `k`-th append, which fails.
    CrashAt(usize),
}

impl From<Fault> for storage::Fault {
    /// The fault, armed on the snapshot directory.
    fn from(fault: Fault) -> Self {
        let (op, nth, effect) = match fault {
            Fault::FullAt(k) => (Op::Append, k, Effect::Fail(ErrorKind::StorageFull)),
            Fault::FlushFails => (Op::Sync, 1, Effect::Fail(ErrorKind::Other)),
            Fault::CrashAt(k) => (Op::Append, k, Effect::CrashThenFail),
        };
        let prefix = "/snaps".into();
        storage::Fault {
            op,
            prefix,
            nth,
            effect,
        }
    }
}

/// Rows enough for a checkpoint file of several chunks.
const ROWS: i64 = 40_000;

fn base_live() -> LiveRelation {
    let schema = Schema::new(&[("id", ColType::Int), ("payload", ColType::Str)]);
    let rows = (0..ROWS)
        .map(|i| vec![Value::Int(i), Value::str(format!("{i:032}"))])
        .collect();
    let rel = Relation::from_rows(schema, rows).unwrap();
    LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 4, &[0]).unwrap()
}

/// Inserts and deletes, some of each on every shard.
fn churn(node: &DurableLiveRelation, round: i64) {
    for i in 0..40 {
        let gid = node
            .insert(vec![Value::Int(100_000 * round + i), Value::str("late")])
            .unwrap();
        if i % 5 == 0 {
            node.delete(gid).unwrap().unwrap();
        }
        node.delete((round * 97 + i * 13) as usize).unwrap();
    }
}

/// A node's observable state: its rows by global id and its epoch.
fn state(live: &LiveRelation) -> (usize, Vec<Option<Vec<Value>>>, u64) {
    let rows = (0..ROWS as usize + 1_000)
        .map(|gid| live.row(gid))
        .collect();
    (live.len(), rows, live.current_epoch().get())
}

fn copy_dir(from: &Dir, to: &Dir) {
    to.create_dir_all().unwrap();
    for name in from.list().unwrap() {
        to.write_atomic(&name, &from.read(&name, 0).unwrap())
            .unwrap();
    }
}

/// Recover a copy of the two directories on a fresh volume (the node
/// keeps its WAL directory claimed) and return its state.
fn recovered_copy(snaps: &Dir, wal: &Dir) -> (usize, Vec<Option<Vec<Value>>>, u64) {
    let copy = MemoryVolume::new().root();
    copy_dir(snaps, &copy.join("snaps"));
    copy_dir(wal, &copy.join("wal"));
    let catalog = SnapshotCatalog::open(copy.join("snaps")).unwrap();
    let node =
        DurableLiveRelation::recover(&catalog, "node", copy.join("wal"), WalConfig::default())
            .unwrap();
    state(&node)
}

/// A durable node whose snapshot directory is on a volume that faults
/// can be armed on, with one good checkpoint past its bootstrap. Returns
/// the node, the catalog, both directories, the volume and how many
/// appends a whole checkpoint takes.
fn node_with_a_checkpoint() -> (
    DurableLiveRelation,
    SnapshotCatalog,
    Dir,
    Dir,
    MemoryVolume,
    usize,
) {
    let volume = MemoryVolume::new();
    let snaps = volume.root().join("snaps");
    let wal = volume.root().join("wal");
    let catalog = SnapshotCatalog::open(&snaps).unwrap();
    let node =
        DurableLiveRelation::create(base_live(), &catalog, "node", &wal, WalConfig::default())
            .unwrap();
    churn(&node, 1);
    // Armed at an append that never comes, a fault counts them.
    volume.arm(Fault::FullAt(usize::MAX).into());
    node.checkpoint(&catalog, "node").unwrap();
    let appends = volume.disarm()[0];
    assert!(
        appends >= 3,
        "a checkpoint of several chunks: {appends} appends"
    );
    churn(&node, 2);
    (node, catalog, snaps, wal, volume, appends)
}

/// The checkpoint fails typed, as `kind`, and leaves no trace: no temp
/// file, the previous file byte for byte, the mark where it was. `fault`
/// picks the write from the number of appends a whole checkpoint takes.
fn fails_and_leaves_no_trace(fault: impl FnOnce(usize) -> Fault, kind: ErrorKind) {
    let (node, catalog, snaps, wal, volume, appends) = node_with_a_checkpoint();
    let fault = fault(appends);
    let old = snaps.read("node.snap", 0).unwrap();
    let mark = node.checkpoint_mark();
    volume.arm(fault.into());
    let err = node.checkpoint(&catalog, "node").unwrap_err();
    assert!(
        matches!(&err, WalError::Io(e) if e.kind() == kind),
        "{fault:?}: {err}"
    );
    assert_eq!(volume.disarm(), [], "{fault:?} fired");
    assert_eq!(
        snaps.list().unwrap(),
        ["node.snap"],
        "{fault:?}: a temp file left"
    );
    assert!(
        snaps.read("node.snap", 0).unwrap() == old,
        "{fault:?}: the old file"
    );
    assert_eq!(
        node.checkpoint_mark(),
        mark,
        "{fault:?}: a failed save confirms nothing"
    );
    let want = state(&node);
    assert!(recovered_copy(&snaps, &wal) == want, "{fault:?}: recovery");

    // The fault is spent: the next checkpoint lands, and moves the mark.
    node.checkpoint(&catalog, "node").unwrap();
    assert!(node.checkpoint_mark() > mark, "{fault:?}");
    assert_eq!(snaps.list().unwrap(), ["node.snap"]);
    assert!(
        recovered_copy(&snaps, &wal) == want,
        "{fault:?}: recovery after"
    );
}

#[test]
fn a_full_volume_at_the_first_chunk_fails_the_checkpoint_cleanly() {
    fails_and_leaves_no_trace(|_| Fault::FullAt(1), ErrorKind::StorageFull);
}

#[test]
fn a_full_volume_at_a_middle_chunk_fails_the_checkpoint_cleanly() {
    fails_and_leaves_no_trace(|n| Fault::FullAt(n / 2 + 1), ErrorKind::StorageFull);
}

/// The last append carries the file's last bytes and its checksum.
#[test]
fn a_full_volume_at_the_checksum_fails_the_checkpoint_cleanly() {
    fails_and_leaves_no_trace(Fault::FullAt, ErrorKind::StorageFull);
}

#[test]
fn a_failed_flush_fails_the_checkpoint_cleanly() {
    fails_and_leaves_no_trace(|_| Fault::FlushFails, ErrorKind::Other);
}

/// A power loss in the middle of a save: the previous checkpoint
/// survives whole, and the volume recovers to the node as it stood.
#[test]
fn a_power_loss_mid_save_keeps_the_previous_checkpoint_whole() {
    let (node, catalog, snaps, wal, volume, appends) = node_with_a_checkpoint();
    let old = snaps.read("node.snap", 0).unwrap();
    let want = state(&node);
    volume.arm(Fault::CrashAt(appends / 2 + 1).into());
    assert!(matches!(
        node.checkpoint(&catalog, "node"),
        Err(WalError::Io(_))
    ));
    drop(node);
    assert_eq!(snaps.read("node.snap", 0).unwrap(), old);
    let recovered =
        DurableLiveRelation::recover(&catalog, "node", &wal, WalConfig::default()).unwrap();
    assert!(state(&recovered) == want, "recovery after the power loss");
}
