//! The typed failure surface of the write-ahead log.
//!
//! Recovery must be *total*: arbitrary bytes in a segment directory
//! produce a typed [`WalError`], never a panic — with one deliberate
//! exception carved out of the error surface entirely: a **torn tail**
//! (the last segment ending mid-record, exactly what a crash during an
//! append leaves behind) is not an error at all. It is truncated and
//! recovery proceeds with the complete prefix, because that prefix is
//! precisely the set of updates the log ever confirmed. Everything else —
//! a checksum mismatch inside the stream, a segment from a future format
//! version, a file that is not a segment — is damage the log cannot
//! explain, and is reported typed so an operator restores from a replica
//! instead of serving silently wrong data.

use pitract_engine::EngineError;
use pitract_store::StoreError;
use std::fmt;

/// Everything that can go wrong writing, reading, compacting, or
/// recovering a write-ahead log.
#[derive(Debug)]
pub enum WalError {
    /// An operating-system I/O failure (open, write, fsync, rename).
    Io(std::io::Error),
    /// A `.seg` file that does not start with the segment magic tag.
    NotASegment {
        /// The offending file.
        path: String,
    },
    /// The segment's format version differs from the one this binary
    /// understands — written by a newer (or older) build.
    VersionMismatch {
        /// Version found in the segment header.
        found: u16,
        /// Version this binary reads and writes.
        expected: u16,
    },
    /// The byte stream is damaged in a way a crash cannot explain: a
    /// checksum mismatch on a fully framed record, a non-monotonic
    /// sequence number, a closed segment ending mid-record, a payload
    /// that does not decode. Distinct from a torn tail, which recovery
    /// silently truncates.
    Corrupt {
        /// The segment file the damage was found in.
        segment: String,
        /// Byte offset of the damaged record.
        offset: u64,
        /// What exactly failed to validate.
        reason: String,
    },
    /// A failure in the snapshot store while saving or loading the
    /// checkpoint half of a durable relation.
    Store(StoreError),
    /// The engine rejected a replay or an update (e.g. the WAL tail does
    /// not belong to the checkpoint's history).
    Engine(EngineError),
    /// An earlier append failed partway and its partial bytes could not
    /// be erased, or a flush failed. The writer refuses further appends,
    /// flushes and rotations, so partial bytes are never buried under
    /// valid records and no later flush of this writer confirms records
    /// a failed one may have lost (left as the tail, the next recovery
    /// after a power loss truncates what did not reach the disk).
    /// Reopening the log resumes writing but does not keep that
    /// promise: a writer reopened without a power loss reads those
    /// records back from the operating system's cache, and its first
    /// successful flush confirms them though they may be lost.
    Poisoned,
    /// The WAL directory is held by a live writer in this process — a
    /// node still serving it. A second writer would append under the
    /// same LSNs and leave the log unrecoverable, so the open fails and
    /// appends nothing; open again after the first writer drops. Other
    /// processes are not detected.
    DirInUse {
        /// The directory.
        dir: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::NotASegment { path } => {
                write!(f, "{path} is not a wal segment (bad magic tag)")
            }
            WalError::VersionMismatch { found, expected } => write!(
                f,
                "wal segment format version {found} is not the supported version {expected}"
            ),
            WalError::Corrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "corrupt wal segment {segment} at byte {offset}: {reason}"
            ),
            WalError::Poisoned => write!(
                f,
                "wal writer poisoned by an earlier failed write or flush; it refuses every further write"
            ),
            WalError::DirInUse { dir } => {
                write!(
                    f,
                    "wal directory {dir} is already open by a writer in this process"
                )
            }
            WalError::Store(e) => write!(f, "wal checkpoint store error: {e}"),
            WalError::Engine(e) => write!(f, "wal replay rejected by engine: {e}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Store(e) => Some(e),
            WalError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<StoreError> for WalError {
    fn from(e: StoreError) -> Self {
        // An I/O failure inside the store is still an I/O failure; keep
        // its identity instead of burying it one wrapper deeper.
        match e {
            StoreError::Io(io) => WalError::Io(io),
            other => WalError::Store(other),
        }
    }
}

impl From<EngineError> for WalError {
    fn from(e: EngineError) -> Self {
        WalError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_distinct_and_specific() {
        let cases: Vec<WalError> = vec![
            WalError::NotASegment {
                path: "x.seg".into(),
            },
            WalError::VersionMismatch {
                found: 2,
                expected: 1,
            },
            WalError::Corrupt {
                segment: "00.seg".into(),
                offset: 42,
                reason: "checksum mismatch".into(),
            },
            WalError::Store(StoreError::BadMagic),
            WalError::Engine(EngineError::NoShards),
            WalError::Poisoned,
            WalError::DirInUse { dir: "/wal".into() },
        ];
        let mut msgs: Vec<String> = cases.iter().map(|e| e.to_string()).collect();
        msgs.sort();
        msgs.dedup();
        assert_eq!(msgs.len(), cases.len(), "every variant renders distinctly");
    }

    #[test]
    fn sources_chain_and_io_keeps_its_identity() {
        use std::error::Error as _;
        let e = WalError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
        // StoreError::Io unwraps to WalError::Io, not a double wrap.
        let e = WalError::from(StoreError::Io(std::io::Error::new(
            std::io::ErrorKind::PermissionDenied,
            "no",
        )));
        assert!(matches!(e, WalError::Io(_)), "{e}");
        let e = WalError::from(StoreError::ChecksumMismatch);
        assert!(matches!(e, WalError::Store(_)), "{e}");
        assert!(WalError::Poisoned.source().is_none());
    }
}
