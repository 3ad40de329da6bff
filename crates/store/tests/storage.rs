//! The durability recipes of [`Dir`] on a backend that fails once: the
//! in-memory volume behind a decorator whose next rename lands and then
//! reports an error, as a rename does whose directory fsync failed; and
//! on a [`MemoryVolume`] that loses power.

use pitract_store::storage::{Dir, DirClaim, FileHandle, MemoryVolume, Storage};
use std::io::{self, ErrorKind};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct RenameLandsThenFails {
    inner: Arc<dyn Storage>,
    armed: AtomicBool,
}

impl Storage for RenameLandsThenFails {
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
        self.inner.create(path)
    }

    fn open(&self, path: &Path) -> io::Result<FileHandle> {
        self.inner.open(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)?;
        if self.armed.swap(false, Ordering::SeqCst) {
            return Err(io::Error::other("directory fsync failed"));
        }
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn claim(&self, dir: &Path) -> io::Result<DirClaim> {
        self.inner.claim(dir)
    }
}

/// A directory on the in-memory volume whose next rename fails after
/// landing.
fn failing_once() -> Dir {
    let volume = Dir::memory();
    let faulty = RenameLandsThenFails {
        inner: Arc::clone(volume.storage()),
        armed: AtomicBool::new(true),
    };
    Dir::new(Arc::new(faulty), volume.path())
}

/// The WAL's rotation path: a new segment whose durable create failed
/// must not stay behind under its final name, or the retried rotation
/// at a later base leaves two segments that overlap.
#[test]
fn a_durable_create_whose_rename_failed_after_landing_leaves_no_file() {
    let dir = failing_once();
    let err = dir.create_durable("seg", b"header").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Other);
    assert!(
        dir.list().unwrap().is_empty(),
        "neither the file nor its temp"
    );

    // The fault is spent: the retry leaves exactly the whole file.
    let file = dir.create_durable("seg", b"header").unwrap();
    file.append(b"+body").unwrap();
    assert_eq!(dir.list().unwrap(), ["seg"]);
    assert_eq!(dir.read("seg", 0).unwrap(), b"header+body");
}

/// An atomic replace reports the same fault but keeps the landed file:
/// whatever it replaced is gone by then, and the new bytes are whole.
#[test]
fn an_atomic_replace_whose_rename_failed_after_landing_keeps_the_new_file() {
    let dir = failing_once();
    let err = dir.write_atomic("snap", b"whole").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Other);
    assert_eq!(dir.list().unwrap(), ["snap"]);
    assert_eq!(dir.read("snap", 0).unwrap(), b"whole");
}

/// A power loss keeps what a flush covered and drops the rest: the
/// recipes' files whole, an appended tail only up to its last flush, a
/// cut as it was made, and a file created and never flushed empty.
#[test]
fn a_power_loss_keeps_exactly_the_flushed_bytes() {
    let volume = MemoryVolume::new();
    let dir = volume.root();
    dir.write_atomic("snap", b"whole").unwrap();
    let log = dir.create_durable("log", b"head").unwrap();
    log.append(b"+flushed").unwrap();
    log.sync_data().unwrap();
    log.append(b"+lost").unwrap();
    let cut = dir.create_durable("cut", b"0123456789").unwrap();
    cut.truncate(4).unwrap();
    cut.append(b"xy").unwrap();
    let fresh = dir.storage().create(&dir.path().join("fresh")).unwrap();
    fresh.append(b"never flushed").unwrap();
    drop((log, cut, fresh));

    volume.crash();
    assert_eq!(dir.read("snap", 0).unwrap(), b"whole");
    assert_eq!(dir.read("log", 0).unwrap(), b"head+flushed");
    assert_eq!(dir.read("cut", 0).unwrap(), b"0123");
    assert_eq!(dir.read("fresh", 0).unwrap(), b"");
    let mut names = dir.list().unwrap();
    names.sort();
    assert_eq!(names, ["cut", "fresh", "log", "snap"]);
}

/// A power loss ends every owner: a crash releases the volume's
/// directory claims, and a claim from before the crash, dropped after
/// it, does not release the new owner's.
#[test]
fn a_crash_releases_directory_claims() {
    let volume = MemoryVolume::new();
    let dir = volume.root().join("wal");
    dir.create_dir_all().unwrap();
    let before = dir.claim().unwrap();
    assert_eq!(dir.claim().unwrap_err().kind(), ErrorKind::ResourceBusy);
    volume.crash();
    let after = dir.claim().unwrap();
    drop(before);
    assert_eq!(dir.claim().unwrap_err().kind(), ErrorKind::ResourceBusy);
    drop(after);
    drop(dir.claim().unwrap());
    // Another volume's directory of the same path is another directory.
    let other = MemoryVolume::new().root().join("wal");
    other.create_dir_all().unwrap();
    let _held = dir.claim().unwrap();
    drop(other.claim().unwrap());
}
