//! Typed errors for the serving layer.
//!
//! `ShardedRelation` and `QueryBatch` used to report failures as bare
//! `String`s, which composed poorly: callers could not match on the
//! failure class, and the persistence layer (`pitract-store`) had no way
//! to wrap an engine failure without re-parsing prose. [`EngineError`] is
//! the typed replacement — it implements [`std::error::Error`] so it can
//! sit inside other error enums as a `source()`.

use pitract_relation::{ColType, IndexedError};
use std::fmt;

/// Everything that can go wrong building, updating, or querying the
/// sharded serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// `shard_count` was zero.
    NoShards,
    /// The shard-key column does not exist in the schema.
    ShardColumnOutOfRange {
        /// The offending column index.
        col: usize,
        /// The schema's arity.
        arity: usize,
    },
    /// Range partitioning supplied the wrong number of split points.
    SplitCount {
        /// Shards requested.
        shard_count: usize,
        /// Splits supplied (must be `shard_count - 1`).
        got: usize,
    },
    /// Range split points were not strictly ascending.
    SplitsNotAscending,
    /// A range split point's `Value` variant does not inhabit the
    /// shard-key column's type (e.g. a `Str` split on an `Int` column):
    /// such a split can never separate tuples and previously produced a
    /// silently skewed partitioning.
    SplitTypeMismatch {
        /// Index of the offending split in the `splits` vector.
        position: usize,
        /// The shard-key column's declared type.
        expected: ColType,
    },
    /// A typed failure reported by the underlying indexed-relation layer
    /// (schema validation, index construction or reconstruction).
    Indexed(IndexedError),
    /// A query in a batch failed validation against the schema.
    InvalidQuery {
        /// Position of the query in the batch.
        index: usize,
        /// The validation failure.
        reason: String,
    },
    /// Reconstructed parts (e.g. from a persisted snapshot) were mutually
    /// inconsistent.
    InconsistentSnapshot(String),
    /// A shard worker panicked during batch fan-out. The failure is
    /// contained to the batch that triggered it: the caller gets this
    /// typed error instead of the panic unwinding through the serving
    /// process.
    WorkerPanicked {
        /// The shard whose worker panicked.
        shard: usize,
    },
    /// Replaying an update log produced a different global row id than
    /// the one the log recorded — the snapshot and the log do not belong
    /// to the same history.
    ReplayGidMismatch {
        /// The global id the log entry recorded at write time.
        expected: usize,
        /// The global id replay actually produced.
        found: usize,
    },
    /// Replaying a logged delete found no live row under the recorded
    /// global id.
    ReplayMissingRow {
        /// The global id the log entry names.
        gid: usize,
    },
    /// The installed durable write-ahead sink ([`crate::live::WalSink`])
    /// rejected a stage or failed a commit. After a failed *stage* the
    /// update was not applied; after a failed *commit* it is applied and
    /// staged but its durability is unconfirmed. The message carries the
    /// sink's own diagnosis (typically an I/O error rendered by the WAL
    /// layer, which this crate does not depend on).
    WalSink {
        /// What the sink reported.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoShards => write!(f, "shard count must be at least 1"),
            EngineError::ShardColumnOutOfRange { col, arity } => {
                write!(
                    f,
                    "shard column {col} out of range: schema has arity {arity}"
                )
            }
            EngineError::SplitCount { shard_count, got } => write!(
                f,
                "range partitioning over {shard_count} shards needs {} splits, got {got}",
                shard_count.saturating_sub(1)
            ),
            EngineError::SplitsNotAscending => {
                write!(f, "range split points must be strictly ascending")
            }
            EngineError::SplitTypeMismatch { position, expected } => write!(
                f,
                "range split {position} does not have the shard-key column's type {expected:?}"
            ),
            EngineError::Indexed(e) => write!(f, "{e}"),
            EngineError::InvalidQuery { index, reason } => write!(f, "query {index}: {reason}"),
            EngineError::InconsistentSnapshot(msg) => {
                write!(f, "inconsistent snapshot parts: {msg}")
            }
            EngineError::WorkerPanicked { shard } => {
                write!(f, "shard {shard} worker panicked during batch fan-out")
            }
            EngineError::ReplayGidMismatch { expected, found } => write!(
                f,
                "log replay produced global id {found}, log recorded {expected}"
            ),
            EngineError::ReplayMissingRow { gid } => {
                write!(f, "log replay: no live row under global id {gid}")
            }
            EngineError::WalSink { message } => {
                write!(f, "write-ahead sink failed: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Indexed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IndexedError> for EngineError {
    fn from(e: IndexedError) -> Self {
        EngineError::Indexed(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_specific() {
        assert_eq!(
            EngineError::NoShards.to_string(),
            "shard count must be at least 1"
        );
        assert_eq!(
            EngineError::ShardColumnOutOfRange { col: 9, arity: 2 }.to_string(),
            "shard column 9 out of range: schema has arity 2"
        );
        assert_eq!(
            EngineError::SplitCount {
                shard_count: 4,
                got: 1
            }
            .to_string(),
            "range partitioning over 4 shards needs 3 splits, got 1"
        );
        let e = EngineError::SplitTypeMismatch {
            position: 2,
            expected: ColType::Int,
        };
        assert!(e.to_string().contains("split 2"), "{e}");
        let q = EngineError::InvalidQuery {
            index: 0,
            reason: "no such column".into(),
        };
        assert_eq!(q.to_string(), "query 0: no such column");
        assert_eq!(
            EngineError::WorkerPanicked { shard: 3 }.to_string(),
            "shard 3 worker panicked during batch fan-out"
        );
        let r = EngineError::ReplayGidMismatch {
            expected: 7,
            found: 9,
        };
        assert!(
            r.to_string().contains('7') && r.to_string().contains('9'),
            "{r}"
        );
        assert!(EngineError::ReplayMissingRow { gid: 4 }
            .to_string()
            .contains("global id 4"));
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&EngineError::NoShards);
    }

    #[test]
    fn indexed_errors_convert_and_chain() {
        use std::error::Error as _;
        let e: EngineError = IndexedError::ColumnOutOfRange { col: 9, arity: 2 }.into();
        assert!(matches!(e, EngineError::Indexed(_)), "{e}");
        assert!(e.source().is_some(), "wrapped error is the source");
        assert_eq!(e.to_string(), "cannot index column 9: schema has arity 2");
    }
}
