//! The typed failure surface of the snapshot store.
//!
//! Every way a snapshot can fail to load — I/O, truncation, corruption,
//! format-version skew, a structure kind this binary does not read, a
//! checkpoint asked of a snapshot with no WAL mark, or parts that parse
//! but are mutually inconsistent — maps to a distinct [`StoreError`] variant,
//! so callers can distinguish "retry with a rebuild" from "this file was
//! written by a newer binary" without parsing prose. Loading never
//! panics: the decoder bounds-checks every read, each decoded column is
//! checked against the bitmap and its arena (a version-1 or -2 row is
//! admitted by its schema), an indexed column must exist,
//! `IdMap::from_parts` checks the id maps, and
//! `ShardedRelation::from_parts` checks routing and that the maps agree
//! with the shards before anything is constructed. No index is read from disk, so none can be
//! inconsistent: every tree is rebuilt from the rows.

use pitract_engine::EngineError;
use pitract_relation::IndexedError;
use std::fmt;

/// Everything that can go wrong saving or loading a snapshot.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure (open, read, write, rename).
    Io(std::io::Error),
    /// The file does not start with the snapshot magic tag — it is not a
    /// snapshot at all.
    BadMagic,
    /// The file's format version is not one this binary understands (it
    /// reads every version up to the one it writes).
    VersionMismatch {
        /// Version found in the header.
        found: u16,
        /// Version this binary writes.
        expected: u16,
    },
    /// The checksum over the file body does not match the stored trailer:
    /// the file was corrupted or truncated after writing.
    ChecksumMismatch,
    /// The data ended before a declared field — a truncated file or a
    /// length prefix pointing past the end.
    Truncated,
    /// The bytes parse as the framing demands but the content is invalid
    /// (unknown tag, non-UTF-8 string, missing section, inconsistent
    /// payload).
    Corrupt(String),
    /// The header declares a structure kind this binary does not know.
    UnknownKind(u16),
    /// A checkpoint was asked of a snapshot with no WAL mark
    /// ([`crate::Snapshot::into_checkpoint`]).
    NotACheckpoint,
    /// The decoded parts were rejected by the engine's reconstruction
    /// validation.
    Engine(EngineError),
    /// The decoded parts were rejected by the indexed-relation layer: a
    /// row its schema does not admit, columns that disagree with their
    /// bitmap or arena, or an indexed column the schema lacks.
    Indexed(IndexedError),
    /// A catalog snapshot name that could escape the catalog directory or
    /// collide with its bookkeeping (empty, path separators, dots).
    InvalidName(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a snapshot file (bad magic tag)"),
            StoreError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} is not supported (this binary reads 1 through {expected})"
            ),
            StoreError::ChecksumMismatch => {
                write!(
                    f,
                    "snapshot checksum mismatch (corrupted or truncated file)"
                )
            }
            StoreError::Truncated => write!(f, "snapshot data ended unexpectedly"),
            StoreError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            StoreError::UnknownKind(k) => write!(f, "unknown snapshot structure kind {k}"),
            StoreError::NotACheckpoint => {
                write!(f, "snapshot has no WAL mark, so it is not a checkpoint")
            }
            StoreError::Engine(e) => write!(f, "snapshot rejected by engine: {e}"),
            StoreError::Indexed(e) => write!(f, "snapshot rejected by indexed relation: {e}"),
            StoreError::InvalidName(name) => {
                write!(
                    f,
                    "invalid snapshot name {name:?} (use [A-Za-z0-9._-], no leading dot)"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Engine(e) => Some(e),
            StoreError::Indexed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IndexedError> for StoreError {
    fn from(e: IndexedError) -> Self {
        StoreError::Indexed(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<EngineError> for StoreError {
    fn from(e: EngineError) -> Self {
        StoreError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_distinct_and_specific() {
        let cases: Vec<StoreError> = vec![
            StoreError::BadMagic,
            StoreError::VersionMismatch {
                found: 2,
                expected: 1,
            },
            StoreError::ChecksumMismatch,
            StoreError::Truncated,
            StoreError::Corrupt("bad value tag 9".into()),
            StoreError::UnknownKind(99),
            StoreError::NotACheckpoint,
            StoreError::Indexed(IndexedError::ColumnOutOfRange { col: 5, arity: 2 }),
            StoreError::InvalidName("../etc".into()),
        ];
        let mut msgs: Vec<String> = cases.iter().map(|e| e.to_string()).collect();
        msgs.sort();
        msgs.dedup();
        assert_eq!(msgs.len(), cases.len(), "every variant renders distinctly");
    }

    #[test]
    fn sources_chain_through_wrapped_errors() {
        use std::error::Error as _;
        let e = StoreError::Engine(EngineError::NoShards);
        assert!(e.source().is_some());
        let e = StoreError::Indexed(IndexedError::ColumnOutOfRange { col: 5, arity: 2 });
        assert!(e.source().is_some());
        let e = StoreError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
        assert!(StoreError::BadMagic.source().is_none());
    }
}
