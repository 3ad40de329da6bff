//! The durability recipes of [`Dir`] on a backend that fails once: the
//! in-memory volume behind a decorator whose next rename lands and then
//! reports an error, as a rename does whose directory fsync failed.

use pitract_store::storage::{Dir, FileHandle, Storage};
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
