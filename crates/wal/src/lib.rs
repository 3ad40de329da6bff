//! # pitract-wal — a durable write-ahead log under the live serving tier
//!
//! The paper's Π-tractability contract only pays off if the expensive
//! preprocessing `Π(D)` is paid **once** — which must hold across
//! crashes, not just across clean restarts. `pitract-store` made the
//! preprocessed state persistent and `pitract-engine`'s `LiveRelation`
//! made it servable under live updates, but every update between
//! checkpoints lived only in memory: a crash lost them. This crate
//! closes that gap with the standard database answer, built from
//! scratch on `std`:
//!
//! * [`WalWriter`] — append-only, fsync'd segment files: each record is
//!   length-framed, sequence-numbered, and FNV-1a-64 checksummed (the
//!   hash of version-1 and -2 snapshot files); segments rotate at a
//!   configurable size, with the new file *and its directory entry*
//!   fsync'd. Durability is group commit: appends stage, a commit
//!   flushes, flushes run one at a time, and concurrent committers
//!   share one flush.
//! * [`WalReader`] — total, typed recovery: every complete record
//!   replays; a torn tail — the residue of a crash mid-append — is
//!   truncated, never an error, while mid-stream damage (checksum
//!   mismatch, backwards sequence numbers) fails typed with
//!   [`WalError`], never a panic.
//! * [`Compactor`] — removes whole closed segments the latest
//!   checkpoint covers, deciding from file names alone: no segment is
//!   ever rewritten, and what recovery replays is the tail since that
//!   checkpoint, one bounded update per logged one.
//! * [`DurableLiveRelation`] — the integration: a `LiveRelation` whose
//!   updates are staged to the WAL inside the engine's global-id
//!   critical section (WAL order ≡ gid order, so replay is
//!   deterministic even for racing writers) and committed durable after
//!   the locks drop. Checkpoints persist the state at a pinned epoch,
//!   read in place one shard lock at a time, *plus* its WAL position as
//!   one atomic snapshot; recovery is checkpoint load +
//!   tail replay ([`recover_live`], the one sequence a
//!   replication follower's restart runs too), bit-identical — answers
//!   **and** global row ids — to the crashed node's confirmed prefix.
//!
//! The correctness contract, enforced by unit, integration, and
//! crash-injection property tests (segment files truncated at every
//! byte offset): recovery equals the confirmed prefix exactly, and
//! compaction never changes any recovered state.
//!
//! ```
//! use pitract_engine::{LiveRelation, ShardBy};
//! use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
//! use pitract_store::{Dir, SnapshotCatalog};
//! use pitract_wal::{DurableLiveRelation, WalConfig};
//!
//! let schema = Schema::new(&[("id", ColType::Int)]);
//! let rows = (0..1_000i64).map(|i| vec![Value::Int(i)]).collect();
//! let relation = Relation::from_rows(schema, rows).unwrap();
//! let live = LiveRelation::build(&relation, ShardBy::Hash { col: 0 }, 4, &[0]).unwrap();
//!
//! // An in-memory volume; a path (`Dir::from("/var/lib/node")`) puts it on disk.
//! let root = Dir::memory();
//! let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
//!
//! // Go durable: bootstrap checkpoint + write-ahead log.
//! let node = DurableLiveRelation::create(
//!     live, &catalog, "orders", root.join("wal"), WalConfig::default(),
//! ).unwrap();
//! node.insert(vec![Value::Int(5_000)]).unwrap();
//! node.delete(3).unwrap();
//! drop(node); // "crash"
//!
//! // Recovery replays the WAL tail: nothing confirmed was lost.
//! let recovered = DurableLiveRelation::recover(
//!     &catalog, "orders", root.join("wal"), WalConfig::default(),
//! ).unwrap();
//! assert!(recovered.answer(&SelectionQuery::point(0, 5_000i64)));
//! assert!(recovered.row(3).is_none());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Serving-stack panic hygiene (PR 9): no panicking escape hatches in
// non-test code. Individual invariant sites opt out locally with an
// `#[allow]` paired with a `// lint:allow(...)` justification that the
// `pitract-lint` pass checks.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::dbg_macro)]
#![warn(rust_2018_idioms)]

pub mod compactor;
pub mod durable;
pub mod error;
pub mod reader;
pub mod segment;
pub mod writer;

pub use compactor::{CompactionReport, Compactor};
pub use durable::{recover_live, DurableLiveRelation, EpochLsn, Recovered, WalWriterSink};
pub use error::WalError;
pub use reader::{WalReader, WalRecord};
pub use segment::{SEGMENT_MAGIC, SEGMENT_VERSION};
pub use writer::{WalConfig, WalWriter};
