//! A checkpoint streamed to its file, under I/O faults. The snapshot
//! directory sits on an in-memory volume behind a decorator that fails
//! one write of a save: an append (the first chunk, a middle chunk, or
//! the last, which carries the checksum) with `StorageFull`, the flush,
//! or an append at which the volume loses power. In every case the
//! checkpoint returns a typed error, leaves no temp file, keeps the
//! previous checkpoint byte for byte and its mark where it was, and the
//! directories still recover to the node; once the fault is spent, the
//! next checkpoint succeeds.

use pi_tractable::prelude::*;
use pi_tractable::store::storage::{DirClaim, FileHandle, Storage, StorageFile};
use std::io::{self, ErrorKind};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

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

/// The state every file of a [`Faulty`] backend shares.
#[derive(Debug)]
struct Armed {
    volume: MemoryVolume,
    fault: Mutex<Option<Fault>>,
    appends: AtomicUsize,
}

impl Armed {
    /// Arm `fault` and restart the append count.
    fn arm(&self, fault: Fault) {
        self.appends.store(0, Ordering::SeqCst);
        *self.fault.lock().unwrap_or_else(PoisonError::into_inner) = Some(fault);
    }

    /// Take the armed fault if `fires` says this write is the one.
    fn fire(&self, fires: impl FnOnce(Fault) -> bool) -> Option<Fault> {
        let mut fault = self.fault.lock().unwrap_or_else(PoisonError::into_inner);
        fault.filter(|f| fires(*f)).and_then(|_| fault.take())
    }
}

/// A backend over the volume whose files fail as [`Armed`] says.
#[derive(Debug)]
struct Faulty {
    inner: Arc<dyn Storage>,
    armed: Arc<Armed>,
}

#[derive(Debug)]
struct FaultyFile {
    inner: FileHandle,
    armed: Arc<Armed>,
}

impl StorageFile for FaultyFile {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let n = self.armed.appends.fetch_add(1, Ordering::SeqCst) + 1;
        match self
            .armed
            .fire(|f| matches!(f, Fault::FullAt(k) | Fault::CrashAt(k) if k == n))
        {
            Some(Fault::FullAt(_)) => Err(io::Error::new(ErrorKind::StorageFull, "volume full")),
            Some(_) => {
                self.armed.volume.crash();
                Err(io::Error::other("power lost"))
            }
            None => self.inner.append(bytes),
        }
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }

    fn sync_data(&self) -> io::Result<()> {
        match self.armed.fire(|f| f == Fault::FlushFails) {
            Some(_) => Err(io::Error::other("flush failed")),
            None => self.inner.sync_data(),
        }
    }
}

impl Faulty {
    fn wrap(&self, file: FileHandle) -> FileHandle {
        Arc::new(FaultyFile {
            inner: file,
            armed: Arc::clone(&self.armed),
        })
    }
}

impl Storage for Faulty {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn read(&self, path: &Path, from: u64) -> io::Result<Vec<u8>> {
        self.inner.read(path, from)
    }

    fn create(&self, path: &Path) -> io::Result<FileHandle> {
        Ok(self.wrap(self.inner.create(path)?))
    }

    fn open(&self, path: &Path) -> io::Result<FileHandle> {
        Ok(self.wrap(self.inner.open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn claim(&self, dir: &Path) -> io::Result<DirClaim> {
        self.inner.claim(dir)
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

/// A durable node whose snapshot directory is behind the fault
/// decorator, with one good checkpoint past its bootstrap. Returns the
/// node, the catalog, both directories, the decorator's shared state
/// and how many appends a whole checkpoint takes.
fn node_with_a_checkpoint() -> (
    DurableLiveRelation,
    SnapshotCatalog,
    Dir,
    Dir,
    Arc<Armed>,
    usize,
) {
    let volume = MemoryVolume::new();
    let armed = Arc::new(Armed {
        volume: volume.clone(),
        fault: Mutex::new(None),
        appends: AtomicUsize::new(0),
    });
    let faulty = Faulty {
        inner: Arc::clone(volume.root().storage()),
        armed: Arc::clone(&armed),
    };
    let snaps = Dir::new(Arc::new(faulty), "/snaps");
    let wal = volume.root().join("wal");
    let catalog = SnapshotCatalog::open(&snaps).unwrap();
    let node =
        DurableLiveRelation::create(base_live(), &catalog, "node", &wal, WalConfig::default())
            .unwrap();
    churn(&node, 1);
    armed.appends.store(0, Ordering::SeqCst);
    node.checkpoint(&catalog, "node").unwrap();
    let appends = armed.appends.load(Ordering::SeqCst);
    assert!(
        appends >= 3,
        "a checkpoint of several chunks: {appends} appends"
    );
    churn(&node, 2);
    (node, catalog, snaps, wal, armed, appends)
}

/// The checkpoint fails typed, as `kind`, and leaves no trace: no temp
/// file, the previous file byte for byte, the mark where it was. `fault`
/// picks the write from the number of appends a whole checkpoint takes.
fn fails_and_leaves_no_trace(fault: impl FnOnce(usize) -> Fault, kind: ErrorKind) {
    let (node, catalog, snaps, wal, armed, appends) = node_with_a_checkpoint();
    let fault = fault(appends);
    let old = snaps.read("node.snap", 0).unwrap();
    let mark = node.checkpoint_mark();
    armed.arm(fault);
    let err = node.checkpoint(&catalog, "node").unwrap_err();
    assert!(
        matches!(&err, WalError::Io(e) if e.kind() == kind),
        "{fault:?}: {err}"
    );
    assert_eq!(armed.fire(|_| true), None, "{fault:?} fired");
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
    let (node, catalog, snaps, wal, armed, appends) = node_with_a_checkpoint();
    let old = snaps.read("node.snap", 0).unwrap();
    let want = state(&node);
    armed.arm(Fault::CrashAt(appends / 2 + 1));
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
