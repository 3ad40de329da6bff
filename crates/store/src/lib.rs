//! # pitract-store — persist Π(D) once, warm-start serving from disk
//!
//! The paper's Π-tractability contract (Definition 1) is *preprocess `D`
//! once in PTIME, then answer every query in parallel polylog time*. The
//! sibling crates build the preprocessed structures; this crate makes the
//! "once" literal: a preprocessed structure is serialized to a versioned,
//! checksummed binary snapshot, and a fresh process warm-starts by
//! loading the snapshot. A relation is persisted as `D` — its columns
//! as they lie in memory (live bitmap, `i64` runs, `Str` arenas and end
//! offsets, less deleted rows' cells), id maps, and the list of columns
//! it indexes — and a load rebuilds its B⁺-trees by sort, which since
//! the build-by-sort costs about what decoding persisted postings did.
//!
//! * [`snapshot::Snapshot`] — save/load for the one structure a node
//!   serves, a [`pitract_engine::ShardedRelation`] (schema,
//!   partitioning, per-shard data, global-id maps, tombstones), with a
//!   WAL mark when it is a checkpoint; an unsharded relation is one
//!   shard. The file format (magic tag, format version, section table,
//!   XXH64 checksum — FNV-1a in versions 1 and 2) is documented in
//!   [`snapshot`]'s module docs; files of versions 1 to 4 are decoded
//!   by its private `legacy` module, whose docs hold their layouts.
//! * [`codec`] — the hand-rolled little-endian writer/reader underneath:
//!   zero dependencies, no serde, and **total** on the read side —
//!   arbitrary or truncated bytes produce a typed [`error::StoreError`],
//!   never a panic or an unbounded allocation.
//! * [`catalog::SnapshotCatalog`] — named snapshots in a directory with
//!   atomic (temp-file + rename) replacement: save and load. A save
//!   streams its file through one chunk ([`codec::CHUNK`]), whatever
//!   the file's size.
//! * [`storage`] — the one door to the disk for this crate,
//!   `pitract-wal` and `pitract-repl`: a [`storage::Dir`] pairs one of
//!   two private backends, the filesystem or an in-memory volume, with
//!   a path, and the two durability recipes (atomic replace, durable
//!   create) are written once over it; a [`storage::MemoryVolume`]
//!   loses its unflushed bytes on [`storage::MemoryVolume::crash`], the
//!   power loss crash tests use, and fails one call for each
//!   [`storage::Fault`] armed on it, the fault tests use.
//! * A checkpoint — a [`pitract_engine::LiveRelation`]'s state at one
//!   pinned epoch with that epoch and its WAL mark
//!   ([`Snapshot::mark`]), in one atomic file: what `pitract-wal`'s
//!   durable tier checkpoints to ([`SnapshotCatalog::save_checkpoint`],
//!   encoded in place and streamed) and recovers from.
//!
//! The correctness contract, enforced by unit, integration, and property
//! tests: for every persisted structure, `load(save(x))` answers every
//! query identically to the cold-rebuilt oracle — same Booleans, same row
//! ids (tombstones and global-id maps are persisted verbatim) — and
//! corrupted, truncated, or version-skewed files are rejected with a
//! typed error.
//!
//! ```
//! use pitract_engine::{ShardBy, ShardedRelation};
//! use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
//! use pitract_store::{Dir, Snapshot, SnapshotCatalog};
//!
//! let schema = Schema::new(&[("id", ColType::Int)]);
//! let rows = (0..1_000i64).map(|i| vec![Value::Int(i)]).collect();
//! let relation = Relation::from_rows(schema, rows).unwrap();
//!
//! // Π(D), paid once (one shard: an unsharded relation)…
//! let indexed = ShardedRelation::build(&relation, ShardBy::Hash { col: 0 }, 1, &[0]).unwrap();
//!
//! // …persisted (to an in-memory volume here; a path puts it on disk)…
//! let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
//! catalog.save("ids", &Snapshot::from(indexed)).unwrap();
//!
//! // …and warm-started by a fresh engine, the tree sorted from the rows.
//! let served = catalog.load("ids").unwrap().state;
//! assert!(served.answer(&SelectionQuery::point(0, 999i64)));
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

pub mod catalog;
pub mod codec;
pub mod error;
pub mod snapshot;
pub mod storage;

pub use catalog::SnapshotCatalog;
pub use error::StoreError;
pub use snapshot::{Snapshot, FORMAT_VERSION, MAGIC};
pub use storage::{Dir, MemoryVolume};
