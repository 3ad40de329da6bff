//! # pitract-engine — the sharded batch serving layer
//!
//! The paper's Definition 1 promises that after a one-time PTIME
//! preprocessing step `Π(D)`, every query is answerable in NC — *parallel*
//! polylog time. The sibling crates certify the polylog half with step
//! meters; this crate exercises the parallel half with real threads:
//!
//! * [`shard::ShardedRelation`] — `Π(D)` at scale, immutable: the data
//!   is hash- or range-partitioned across `S` shards, each an
//!   independently indexed [`pitract_relation::indexed::IndexedRelation`],
//!   and shard-key-aware routing prunes the shards a query can possibly
//!   match. It is what a build or a snapshot load produces; serving and
//!   updates go through [`live::LiveRelation`].
//! * [`idmap::IdMap`] — the one map between stable global row ids and
//!   `(shard, local)` row locations, and every change to it.
//! * [`planner::Planner`] — a small cost-based router: every query is
//!   assigned the cheapest access path (point probe < range probe <
//!   index-nested-loop conjunction < full scan) with an estimated step
//!   cost, mirroring exactly the routing the executor performs.
//! * [`batch::QueryBatch`] — the unit of traffic: a batch of selection
//!   queries in one of two [`batch::OutputMode`]s (Boolean or row-id),
//!   each shard answering its slice with a thread-local meter and the
//!   per-query meters aggregated into a [`batch::BatchReport`] cost
//!   report.
//! * [`live::LiveRelation`] — the concurrent serving tier: per-shard
//!   read/write locks so batches read-lock only the shards they route to
//!   while updates write-lock only the one shard a key routes to, with
//!   `|CHANGED|`-bounded maintenance accounting
//!   ([`pitract_incremental::bounded::UpdateRecord`]) and every update
//!   staged to one [`live::WalSink`], the log `pitract-wal` checkpoints
//!   and recovers from. [`live::LiveRelation::apply_batch`] applies a run
//!   of updates with one WAL commit for the whole batch. Reads are
//!   MVCC: every applied update bumps a monotonic
//!   [`pitract_core::epoch::Epoch`], a batch pins one epoch and sees
//!   exactly that database instance across all its shards
//!   ([`live::EpochPin`]), and writers copy-on-write superseded shard
//!   versions instead of blocking or being blocked
//!   ([`live::VersionStats`] accounts the retained memory).
//! * [`pool::PooledExecutor`] — the one way a batch runs: a sized
//!   worker pool spawned once per serving session, batches submitted as
//!   per-shard work items over a channel, an admission gate capping
//!   in-flight batches (queue depth and gate waits surfaced in
//!   [`pool::PoolStats`]), one pinned epoch per batch, worker panics
//!   contained to their batch, row ids gathered into one buffer and
//!   translated by the job that found them, and one assembly on the
//!   submitter. Anything implementing
//!   [`pool::BatchServe`] is served, and reports a [`status::NodeStatus`]:
//!   one snapshot of what it is doing, read by `status()`.
//! * [`error::EngineError`] — the typed failure surface of the builders
//!   and executors, so callers (including the `pitract-store` snapshot
//!   layer) can match on failure classes instead of parsing prose.
//!
//! The correctness contract — checked by unit, integration and property
//! tests — is that every batch answer equals the single-threaded scan
//! oracle [`pitract_relation::Relation::eval_scan`] on the same data.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Serving-stack panic hygiene (PR 9): no panicking escape hatches in
// non-test code. Individual invariant sites opt out locally with an
// `#[allow]` paired with a `// lint:allow(...)` justification that the
// `pitract-lint` pass checks.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::dbg_macro)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod error;
pub mod idmap;
pub mod live;
pub mod planner;
pub mod pool;
pub mod shard;
pub mod status;

pub use batch::{
    BatchAnswers, BatchReport, BatchRows, Exists, OutputMode, QueryBatch, QueryCost, Routing,
    RowIds,
};
pub use error::EngineError;
pub use idmap::{IdMap, IdMapView};
pub use live::{
    Applied, EpochPin, LiveRelation, PinnedRead, UpdateEntry, UpdateOp, VersionStats, WalSink,
};
pub use planner::{AccessPath, Planner, QueryPlan};
pub use pool::{BatchServe, PoolConfig, PoolStats, PooledExecutor};
pub use shard::{ShardBy, ShardedRelation};
pub use status::{CatchUpReport, NodeStatus, WalStatus};
