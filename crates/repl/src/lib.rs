//! # pitract-repl — WAL-shipping replication with LSN-pinned followers
//!
//! The paper's preprocessing thesis makes single-node *reads* cheap;
//! serving them to "millions of users" requires reads to scale
//! horizontally while one primary owns writes. Everything needed for
//! that was already built for durability — WAL segments carry explicit
//! LSNs, closed segments are immutable, checkpoints name an exact
//! `(state, wal_lsn, epoch)` cut, and the epoch ↔ LSN dictionary maps
//! MVCC cuts onto log positions — so replication here is *log
//! shipping*, not a second consistency mechanism:
//!
//! * [`SegmentPublisher`] (primary side) exposes the primary's WAL as a
//!   polled tail subscription. Each [`Shipment`] is a run of record
//!   frames in the existing segment wire format (store codec payloads
//!   framed with FNV-1a-64 checksums), capped at the primary's durable
//!   frontier — a follower can never apply a record the primary could
//!   still lose — and found by reading only the bytes at or past the
//!   follower's cursor (see [`publisher`] for the cost contract and the
//!   advisory tail index behind it). The publisher also owns the
//!   subscription table: the
//!   minimum applied LSN across attached followers is the **retention
//!   watermark** the primary's compactor honors, which closes the
//!   compaction/replication race by construction.
//! * [`Follower`] bootstraps from the primary's checkpoint snapshot,
//!   streams shipments into its own local segment mirror — a
//!   [`pitract_wal::WalWriter`], recovered on restart by the primary's
//!   own recovery sequence (durability first, then apply) — and replays them into its own recovered
//!   [`pitract_engine::LiveRelation`]. Served batches pin **the epoch
//!   of the last LSN the follower replayed** — every read is a
//!   consistent cut that is a true prefix of the primary, bit-identical
//!   in both answers and global row ids.
//! * [`CatchUpReport`] is the typed progress statement
//!   (`applied_lsn` / `primary_lsn` / `lag`), and the replica field of
//!   a follower's [`pitract_engine::NodeStatus`]: a scraper calls
//!   `follower.status().publish(&recorder)` to set `replication_lag_lsn`.
//!   Events land where they happen: a follower times `repl_replay_micros`
//!   into its [`pitract_wal::WalConfig`]'s `recorder`, and the publisher
//!   counts `repl_*_total` into its primary's.
//!
//! Torn or garbled transfers fail **typed** ([`ReplError`]), never
//! panic: shipments are validated with the same frame scanner
//! ([`pitract_wal::segment::scan_frames`]) that validates on-disk
//! segments, so a byte flipped in flight is a
//! [`pitract_wal::WalError::Corrupt`], and a shipment cut short is a
//! closed-segment tear — an error, not a silent prefix.
//!
//! Lock ordering: the publisher's subscription table ranks
//! `FollowerCatchup` (45) in the workspace lockdep table — above the
//! engine tiers (it must *never* be held across replay, which re-enters
//! ranks 10–30) and below the WAL tiers (a compaction pass runs under
//! it). A follower holds no replication lock: its mirror is a
//! [`pitract_wal::WalWriter`] under the WAL ranks, and catch-up is
//! serialized by a lock-free turnstile, so replay runs with no
//! replication lock held.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]
// Serving-stack panic hygiene: no panicking escape hatches in non-test
// code. Individual invariant sites opt out locally with an `#[allow]`
// paired with a `// lint:allow(...)` justification that the
// `pitract-lint` pass checks.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::dbg_macro)]

pub mod follower;
pub mod publisher;

pub use follower::Follower;
pub use pitract_engine::CatchUpReport;
pub use publisher::{SegmentPublisher, Shipment, SubscriptionId};

use pitract_engine::EngineError;
use pitract_store::StoreError;
use pitract_wal::WalError;

/// Typed replication failures. Everything a garbled transfer, a lagging
/// disk, or a misuse can produce surfaces here — the replication stack
/// has no panicking paths.
#[derive(Debug)]
pub enum ReplError {
    /// A WAL-layer failure: I/O, a corrupt segment or shipment frame
    /// (checksum mismatch, non-monotonic LSN, a shipment cut short), or
    /// a snapshot-store failure during bootstrap.
    Wal(WalError),
    /// The engine rejected a replayed entry — e.g. a shipped insert's
    /// recorded gid does not match what the replica would assign, which
    /// means the stream is not a prefix of the primary's history.
    Engine(EngineError),
    /// A `catch_up` call found another catch-up cycle in flight on the
    /// same follower. Catch-up is single-writer by design (replays must
    /// apply in LSN order); retry after the running cycle completes.
    CatchUpInProgress,
    /// The records at the requested fetch position were compacted away
    /// (the follower was detached, or attached too late, or the primary
    /// was compacted behind the publisher's back): the follower's prefix
    /// can no longer be served from the log and it must re-bootstrap
    /// from a fresh checkpoint.
    Stale {
        /// The LSN the follower asked to fetch from.
        from: u64,
        /// The publisher's compaction floor, or the log's first LSN if
        /// that is higher: fetches must start at or above it.
        floor: u64,
    },
    /// A shipment did not line up with the follower's applied cursor —
    /// its first record sits below what the follower already applied,
    /// or beyond the range the shipment header claims.
    Misaligned {
        /// The cursor the follower expected the shipment to start at.
        expected: u64,
        /// The offending LSN found in the shipment.
        found: u64,
    },
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Wal(e) => write!(f, "replication wal error: {e}"),
            ReplError::Engine(e) => write!(f, "replication replay rejected: {e}"),
            ReplError::CatchUpInProgress => {
                write!(
                    f,
                    "another catch-up cycle is already running on this follower"
                )
            }
            ReplError::Stale { from, floor } => write!(
                f,
                "fetch from lsn {from} is below the publisher's compaction floor {floor}; \
                 the follower must re-bootstrap from a fresh checkpoint"
            ),
            ReplError::Misaligned { expected, found } => write!(
                f,
                "shipment misaligned: expected records from lsn {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for ReplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplError::Wal(e) => Some(e),
            ReplError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for ReplError {
    fn from(e: WalError) -> Self {
        ReplError::Wal(e)
    }
}

impl From<EngineError> for ReplError {
    fn from(e: EngineError) -> Self {
        ReplError::Engine(e)
    }
}

impl From<StoreError> for ReplError {
    fn from(e: StoreError) -> Self {
        // Reuse the WAL layer's store-error folding (it unwraps nested
        // engine errors where appropriate).
        ReplError::Wal(WalError::from(e))
    }
}

impl From<std::io::Error> for ReplError {
    fn from(e: std::io::Error) -> Self {
        ReplError::Wal(WalError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let e = ReplError::Stale { from: 3, floor: 9 };
        assert!(e.to_string().contains("compaction floor 9"));
        let e = ReplError::from(WalError::Poisoned);
        assert!(std::error::Error::source(&e).is_some());
        let e = ReplError::Misaligned {
            expected: 5,
            found: 2,
        };
        assert!(e.to_string().contains("expected records from lsn 5"));
        assert!(ReplError::CatchUpInProgress
            .to_string()
            .contains("catch-up"));
    }
}
