//! The durability recipes of [`Dir`] on a backend that fails once: an
//! in-memory volume armed so that its next rename lands and then reports
//! an error, as a rename does whose directory fsync failed; and on a
//! [`MemoryVolume`] that loses power.

use pitract_store::storage::{Dir, Effect, Fault, MemoryVolume, Op};
use std::io::ErrorKind;

/// A directory on an in-memory volume whose next rename fails after
/// landing.
fn failing_once() -> Dir {
    let volume = MemoryVolume::new();
    volume.arm(Fault {
        op: Op::Rename,
        prefix: "/".into(),
        nth: 1,
        effect: Effect::LandThenFail,
    });
    volume.root()
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
/// cut as it was made, and a file created empty whose appends were
/// never flushed, empty.
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
    let fresh = dir.create_durable("fresh", b"").unwrap();
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

/// A flush that fails loses what it did not cover at the next power
/// loss, even after a later flush succeeds: the kernel may drop the
/// pages of a failed `fsync` and report the next one clean.
#[test]
fn a_failed_flush_loses_its_bytes_even_after_a_later_flush() {
    let volume = MemoryVolume::new();
    let log = volume.root().create_durable("log", b"head").unwrap();
    log.append(b"+lost").unwrap();
    volume.arm(Fault {
        op: Op::Sync,
        prefix: "/".into(),
        nth: 1,
        effect: Effect::Fail(ErrorKind::Other),
    });
    assert_eq!(log.sync_data().unwrap_err().kind(), ErrorKind::Other);
    log.append(b"+later").unwrap();
    log.sync_data().unwrap();
    volume.crash();
    assert_eq!(volume.root().read("log", 0).unwrap(), b"head");
}

/// A fault hits the `nth` matching call under its prefix, once: here a
/// short append, which lands a prefix of its bytes and fails as a full
/// disk.
#[test]
fn an_armed_fault_hits_its_nth_matching_call_once() {
    let volume = MemoryVolume::new();
    let dir = volume.root().join("wal");
    dir.create_dir_all().unwrap();
    let other = volume.root().create_durable("other", b"").unwrap();
    let seg = dir.create_durable("seg", b"").unwrap();
    volume.arm(Fault {
        op: Op::Append,
        prefix: "/wal".into(),
        nth: 2,
        effect: Effect::Short(3),
    });
    other.append(b"elsewhere").unwrap();
    seg.append(b"first").unwrap();
    let err = seg.append(b"second").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::StorageFull);
    seg.append(b"+third").unwrap();
    assert_eq!(dir.read("seg", 0).unwrap(), b"firstsec+third");
    assert_eq!(volume.disarm(), []);
}
