//! # pi-tractable — making queries tractable on big data with preprocessing
//!
//! A Rust reproduction of Fan, Geerts & Neven, *"Making Queries Tractable
//! on Big Data with Preprocessing (through the eyes of complexity theory)"*,
//! PVLDB 6(9), 2013.
//!
//! The paper proposes **Π-tractability**: a query class is feasible on big
//! data if a one-time PTIME preprocessing step `Π(D)` enables every query to
//! be answered in NC (parallel polylog time). This facade crate re-exports
//! the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] | languages of pairs, factorizations, schemes, `≤NC_F` / `≤NC_fa` reductions, cost model, curve fitting |
//! | [`pram`] | work/depth PRAM substrate (the executable NC model) |
//! | [`index`] | B⁺-trees, sorted/hash indexes, RMQ and LCA structures |
//! | [`graph`] | breadth-depth search, reachability indexes, SCC, query-preserving compression, generators |
//! | [`relation`] | typed relations, selection query classes, indexed evaluation, materialized views |
//! | [`engine`] | sharded batch serving: hash/range partitioning, cost-based planning, pooled batch execution, live serving under concurrent updates |
//! | [`store`] | persistent snapshots: versioned, checksummed serialization of preprocessed structures + a named catalog for warm starts and live checkpoints |
//! | [`wal`] | durable write-ahead log: fsync'd checksummed segments, group commit, torn-tail recovery, compaction, crash-consistent durable serving |
//! | [`repl`] | WAL-shipping replication: primary-side segment publisher with retention watermarks, checkpoint-bootstrapped followers serving epoch-pinned consistent replica reads |
//! | [`obs`] | zero-dependency observability: metrics registry (counters, gauges, log-bucket histograms), timing spans, bounded event tracing, Prometheus/JSON exporters |
//! | [`circuit`] | Boolean circuits and CVP (the Theorem 9 witness) |
//! | [`kernel`] | Vertex Cover with Buss kernelization |
//! | [`incremental`] | bounded incremental computation (|CHANGED| accounting) |
//! | [`reductions`] | concrete reductions between the case-study classes |
//! | [`analysis`] | invariant lints for this workspace's own sources (`pitract-lint`) |
//!
//! ## Quickstart
//!
//! ```
//! use pi_tractable::prelude::*;
//!
//! // The paper's Example 1: point selections, scan vs. index.
//! let schema = Schema::new(&[("id", ColType::Int)]);
//! let rows = (0..10_000i64).map(|i| vec![Value::Int(i)]).collect();
//! let relation = Relation::from_rows(schema, rows).unwrap();
//!
//! // No preprocessing: a linear scan per query.
//! let query = SelectionQuery::point(0, 9_999i64);
//! assert!(relation.eval_scan(&query));
//!
//! // PTIME preprocessing Π(D): build a B+-tree, answer in O(log n).
//! let indexed = IndexedRelation::build(&relation, &[0]).unwrap();
//! assert!(indexed.answer(&query));
//! ```
//!
//! ## Serving at scale
//!
//! The NC half of Definition 1 is about *parallel* answering. The
//! [`engine`] crate realizes it with real threads: a
//! [`ShardedRelation`](crate::engine::shard::ShardedRelation) hash- or
//! range-partitions the data across shards (each one an independently
//! indexed `Π(D)`) and is the immutable result of preprocessing;
//! [`LiveRelation::from_sharded`](crate::engine::live::LiveRelation::from_sharded)
//! takes it over to serve it. A [`Planner`](crate::engine::planner::Planner) routes
//! every query to its cheapest access path, and a
//! [`PooledExecutor`](crate::engine::pool::PooledExecutor) answers each
//! [`QueryBatch`](crate::engine::batch::QueryBatch) on a worker pool
//! spawned once per serving session: per-shard work items over a
//! channel, an admission gate capping concurrently admitted batches, a
//! worker panic returned as a typed error without poisoning the pool,
//! and answers plus per-query step meters merged into a batch cost
//! report. Any serving target works — a `LiveRelation`, a durable node
//! or a replica — via the
//! [`BatchServe`](crate::engine::pool::BatchServe) trait.
//!
//! ```
//! use pi_tractable::prelude::*;
//! use std::sync::Arc;
//!
//! let schema = Schema::new(&[("id", ColType::Int)]);
//! let rows = (0..10_000i64).map(|i| vec![Value::Int(i)]).collect();
//! let relation = Relation::from_rows(schema, rows).unwrap();
//!
//! // Π(D) at scale: 4 hash shards, each with a B+-tree on column 0.
//! let sharded = ShardedRelation::build(&relation, ShardBy::Hash { col: 0 }, 4, &[0]).unwrap();
//!
//! // One pool for the whole serving session; batches stream through it.
//! let served = LiveRelation::from_sharded(sharded);
//! let exec = PooledExecutor::with_default_pool(Arc::new(served));
//! let batch = QueryBatch::new((0..100i64).map(|k| SelectionQuery::point(0, k * 101)));
//! let result = exec.execute(&batch).unwrap();
//! assert!(result.answers.iter().filter(|&&a| a).count() == 100);
//! assert!(result.report.total_steps > 0);
//! assert!(exec.execute_rows(&batch).unwrap().rows[1] == vec![101]);
//! ```
//!
//! ## Persisting Π(D)
//!
//! Definition 1's preprocessing is *one-time* — so it should be paid
//! once, not on every process start. The [`store`] crate serializes the
//! relation a node serves to a versioned, checksummed snapshot and warm-
//! starts a fresh engine from disk. A relation is stored as its rows and
//! its indexed columns: a load sorts the B⁺-trees back out of the rows,
//! which costs about what reading them back from disk did:
//!
//! ```
//! use pi_tractable::prelude::*;
//!
//! # let schema = Schema::new(&[("id", ColType::Int)]);
//! # let rows = (0..1_000i64).map(|i| vec![Value::Int(i)]).collect();
//! # let relation = Relation::from_rows(schema, rows).unwrap();
//! let sharded = ShardedRelation::build(&relation, ShardBy::Hash { col: 0 }, 4, &[0]).unwrap();
//!
//! // Persist Π(D) under a name…
//! # let dir = std::env::temp_dir().join(format!("pitract-facade-{}", std::process::id()));
//! let catalog = SnapshotCatalog::open(&dir).unwrap();
//! catalog.save("ids", &Snapshot::from(sharded)).unwrap();
//!
//! // …and serve from the reloaded snapshot: same answers, same row ids,
//! // the trees re-sorted from the persisted rows.
//! let warm = catalog.load("ids").unwrap().state;
//! assert!(warm.answer(&SelectionQuery::point(0, 999i64)));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! ## Live serving
//!
//! A production tier answers queries *while* updates land. A
//! [`LiveRelation`](crate::engine::live::LiveRelation) puts each shard
//! behind its own read/write lock: a batch's shard jobs take read locks
//! on only the shards a query routes to, and an insert/delete write-locks
//! only the one shard its key routes to, so writers never stall the rest
//! of the fleet. Every update is `|CHANGED|`-accounted (Section 4(7)) in
//! running sums, and staged to the node's WAL sink if it has one — the
//! one update log, which checkpoint and recovery read (see Durability
//! below).
//! [`LiveRelation::apply_batch`](crate::engine::live::LiveRelation::apply_batch)
//! applies a run of updates with a single WAL commit (one fsync per
//! batch instead of per record).
//!
//! ```
//! use pi_tractable::prelude::*;
//! use std::sync::Arc;
//!
//! # let schema = Schema::new(&[("id", ColType::Int)]);
//! # let rows = (0..1_000i64).map(|i| vec![Value::Int(i)]).collect();
//! # let relation = Relation::from_rows(schema, rows).unwrap();
//! let live = Arc::new(LiveRelation::build(&relation, ShardBy::Hash { col: 0 }, 4, &[0]).unwrap());
//! let exec = PooledExecutor::new(
//!     Arc::clone(&live),
//!     PoolConfig { workers: 2, max_inflight: 4, ..PoolConfig::default() },
//! );
//!
//! // Updates go through a shared reference — no `&mut`, no global lock —
//! // one at a time or as a run covered by one commit.
//! live.insert(vec![Value::Int(5_000)]).unwrap();
//! let applied = live.apply_batch(vec![
//!     UpdateOp::Insert(vec![Value::Int(5_001)]),
//!     UpdateOp::Delete(3),
//! ]).unwrap();
//! assert!(matches!(applied[0], Applied::Inserted(1_001)));
//!
//! // Queries and whole batches serve concurrently with those updates.
//! assert!(live.answer(&SelectionQuery::point(0, 5_000i64)));
//! let batch = QueryBatch::new((0..50i64).map(|k| SelectionQuery::point(0, k * 17)));
//! let answers = exec.execute(&batch).unwrap();
//! assert_eq!(answers.answers.len(), 50);
//!
//! // Maintenance was |CHANGED|-accounted in running sums: three
//! // updates, each |ΔD| = 1 tuple and |ΔO| = the tuple plus one posting
//! // edit. A node that must survive a crash also stages every update to
//! // a WAL (`DurableLiveRelation`); the WAL is the one update log.
//! let report = live.boundedness_report();
//! assert_eq!(report.len(), 3);
//! assert_eq!(report.total_changed(), 3 * (1 + 2));
//! ```
//!
//! ## Consistent reads: one epoch-stamped cut per batch
//!
//! Per-shard locking alone would leave a batch *read-committed*: each
//! shard answering at whatever state it holds when its job runs, so a
//! racing writer could make one batch observe half an update. Every
//! write therefore ticks a global [`Epoch`](crate::core::epoch::Epoch)
//! clock, and the executor pins the clock once per batch ([`LiveRelation::pin`](crate::engine::live::LiveRelation::pin) /
//! [`EpochPin`](crate::engine::live::EpochPin)) and evaluates every
//! shard *at* that epoch — one consistent cut, recorded in
//! [`BatchReport::epoch`](crate::engine::batch::BatchReport::epoch).
//! Writers are never blocked by a pin: they push O(1) undo records onto
//! a per-shard ring and move on, readers roll the few post-pin writes
//! back at evaluation time, and the rings trim to the oldest live pin's
//! watermark ([`VersionStats`](crate::engine::live::VersionStats) counts
//! what is currently retained). Checkpoints persist the cut's epoch and
//! recovery resumes the clock exactly, so an epoch names the same
//! database state across restarts.
//!
//! ```
//! use pi_tractable::prelude::*;
//! use std::sync::Arc;
//!
//! # let schema = Schema::new(&[("id", ColType::Int)]);
//! # let rows = (0..1_000i64).map(|i| vec![Value::Int(i)]).collect();
//! # let relation = Relation::from_rows(schema, rows).unwrap();
//! let live = Arc::new(LiveRelation::build(&relation, ShardBy::Hash { col: 0 }, 4, &[0]).unwrap());
//!
//! // Pin a cut, then update: the writer is not blocked, the clock
//! // advances past the pin, and the undo ring retains what the pinned
//! // reader still needs.
//! let before = live.current_epoch();
//! let pin = live.pin();
//! live.insert(vec![Value::Int(5_000)]).unwrap();
//! assert!(live.current_epoch() > before);
//! assert!(live.version_stats().retained_versions > 0);
//!
//! // Releasing the pin reclaims the retained undo records.
//! drop(pin);
//! assert_eq!(live.version_stats().retained_versions, 0);
//!
//! // Every batch pins its own cut automatically and reports it.
//! let batch = QueryBatch::new((0..50i64).map(|k| SelectionQuery::point(0, k * 17)));
//! let exec = PooledExecutor::with_default_pool(Arc::clone(&live));
//! let result = exec.execute(&batch).unwrap();
//! assert_eq!(result.report.epoch, live.current_epoch());
//! ```
//!
//! ## Durability
//!
//! A plain live node keeps its state only in memory — a crash window the
//! [`wal`] crate closes. A
//! [`DurableLiveRelation`](crate::wal::DurableLiveRelation) stages every
//! update into an fsync'd, checksummed write-ahead log *before* it
//! becomes visible (inside the engine's global-id critical section, so
//! log order equals id order even under racing writers) and recovers
//! after a crash by loading the last checkpoint and replaying the WAL
//! tail past its mark — bit-identical answers and row ids, with a torn
//! tail (the residue of a crash mid-append) truncated, never an error.
//!
//! ```
//! use pi_tractable::prelude::*;
//!
//! # let schema = Schema::new(&[("id", ColType::Int)]);
//! # let rows = (0..1_000i64).map(|i| vec![Value::Int(i)]).collect();
//! # let relation = Relation::from_rows(schema, rows).unwrap();
//! let live = LiveRelation::build(&relation, ShardBy::Hash { col: 0 }, 4, &[0]).unwrap();
//! # let root = std::env::temp_dir().join(format!("pitract-facade-wal-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&root);
//! let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
//!
//! // Go durable: bootstrap checkpoint + write-ahead log.
//! let node = DurableLiveRelation::create(
//!     live, &catalog, "orders", root.join("wal"), WalConfig::default(),
//! ).unwrap();
//! node.insert(vec![Value::Int(5_000)]).unwrap();
//! node.delete(3).unwrap();
//! drop(node); // crash at any instant…
//!
//! // …and nothing confirmed is lost.
//! let recovered = DurableLiveRelation::recover(
//!     &catalog, "orders", root.join("wal"), WalConfig::default(),
//! ).unwrap();
//! assert!(recovered.answer(&SelectionQuery::point(0, 5_000i64)));
//! assert!(recovered.row(3).is_none());
//! # std::fs::remove_dir_all(&root).unwrap();
//! ```
//!
//! ## Replication
//!
//! The paper's preprocessing thesis makes single-node reads cheap;
//! serving "millions of users" needs reads to scale *out* while one
//! primary owns writes. The [`repl`] crate builds that from the pieces
//! durability already pays for — immutable WAL segments with explicit
//! LSNs, checkpoint cuts, and the epoch ↔ LSN dictionary. A
//! [`SegmentPublisher`](crate::repl::SegmentPublisher) exposes the
//! primary's log as a polled tail subscription (shipments are record
//! frames in the on-disk wire format, validated checksum-by-checksum on
//! arrival, capped at the durable frontier), and a
//! [`Follower`](crate::repl::Follower) bootstraps from the primary's
//! checkpoint, mirrors shipped frames locally (durability first, then
//! apply), and replays them into its own recovered engine. Served
//! batches pin **the epoch of the last LSN the follower replayed**:
//! every replica read is a consistent cut that is a true prefix of the
//! primary — bit-identical answers *and* global row ids. Attached
//! followers also impose a retention watermark, so the primary's
//! compactor never drops a segment a lagging follower still needs;
//! progress is a typed [`CatchUpReport`](crate::repl::CatchUpReport),
//! published through the follower's `status()` as `replication_lag_lsn`.
//!
//! ```
//! use pi_tractable::prelude::*;
//! use std::sync::Arc;
//!
//! # let schema = Schema::new(&[("id", ColType::Int)]);
//! # let rows = (0..100i64).map(|i| vec![Value::Int(i)]).collect();
//! # let relation = Relation::from_rows(schema, rows).unwrap();
//! let live = LiveRelation::build(&relation, ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
//! # let root = std::env::temp_dir().join(format!("pitract-facade-repl-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&root);
//! let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
//!
//! // A durable primary, published as a log-shipping source.
//! let primary = Arc::new(DurableLiveRelation::create(
//!     live, &catalog, "orders", root.join("wal"), WalConfig::default(),
//! ).unwrap());
//! let publisher = SegmentPublisher::new(Arc::clone(&primary));
//!
//! // A follower bootstraps from the primary's checkpoint and attaches.
//! let follower = Follower::bootstrap(
//!     &catalog, "orders", root.join("mirror"), WalConfig::default(),
//! ).unwrap();
//! let sub = follower.attach(&publisher);
//!
//! // Primary writes land; the follower streams and replays them.
//! let gid = primary.insert(vec![Value::Int(5_000)]).unwrap();
//! let report = follower.catch_up(&publisher, sub).unwrap();
//! assert_eq!(report.lag, 0);
//!
//! // Replica reads: bit-identical answers AND global row ids, at the
//! // epoch of the last LSN the follower replayed.
//! let q = SelectionQuery::point(0, 5_000i64);
//! assert_eq!(follower.matching_ids(&q), vec![gid]);
//! assert_eq!(follower.current_epoch(), follower.applied_epoch());
//! # std::fs::remove_dir_all(&root).unwrap();
//! ```
//!
//! ## Observability
//!
//! The paper's promise is a cost *profile* — query work bounded by the
//! accessed fraction, maintenance bounded by |CHANGED| — and the [`obs`]
//! crate makes that profile measurable on a live node instead of only
//! in offline experiments. One [`Recorder`](crate::obs::Recorder)
//! handle rides in the config each component is built from:
//! [`PoolConfig::recorder`](crate::engine::pool::PoolConfig::recorder)
//! for a pooled executor,
//! [`WalConfig::recorder`](crate::wal::WalConfig::recorder) for a
//! durable node or a follower (and a segment publisher counts into its
//! primary's); a standalone live relation takes one through
//! [`LiveRelation::set_recorder`](crate::engine::live::LiveRelation::set_recorder).
//! **Events are counted or timed where they happen** (`wal_*` fsyncs,
//! `pool_*` batch latency, `engine_*` plans and steps, `repl_*`
//! shipments). **State is read when someone calls `status()`**: one
//! [`NodeStatus`](crate::engine::status::NodeStatus) of versions, pool
//! load, `|CHANGED|` totals, WAL frontier and replica lag, whose
//! `publish` is the one place those series are set. A scraper calls
//! `status().publish(&recorder)`, then renders. The default
//! `Recorder` is disabled and costs the hot path one branch per touch;
//! an enabled one snapshots to Prometheus text or JSON losslessly.
//!
//! ```
//! use pi_tractable::prelude::*;
//! use std::sync::Arc;
//!
//! # let schema = Schema::new(&[("id", ColType::Int)]);
//! # let rows = (0..1_000i64).map(|i| vec![Value::Int(i)]).collect();
//! # let relation = Relation::from_rows(schema, rows).unwrap();
//! // One recorder for the whole serving session.
//! let recorder = Recorder::new();
//! let mut live = LiveRelation::build(&relation, ShardBy::Hash { col: 0 }, 4, &[0]).unwrap();
//! live.set_recorder(&recorder);
//! let exec = PooledExecutor::new(
//!     Arc::new(live),
//!     PoolConfig { workers: 2, max_inflight: 4, recorder: recorder.clone() },
//! );
//!
//! // Serve: every batch ticks plan counters, step meters, latencies.
//! exec.relation().insert(vec![Value::Int(5_000)]).unwrap();
//! let batch = QueryBatch::new((0..50i64).map(|k| SelectionQuery::point(0, k * 17)));
//! exec.execute(&batch).unwrap();
//!
//! // Scrape: publish the state once, then render Prometheus text for
//! // scrapers and JSON for artifacts — the JSON round-trips losslessly.
//! exec.status().publish(&recorder);
//! let snapshot = recorder.snapshot();
//! let text = pi_tractable::obs::to_prometheus(&snapshot);
//! assert!(text.contains("engine_queries_total 50"));
//! assert!(text.contains("mvcc_current_epoch 1") && text.contains("pool_inflight 0"));
//! let reparsed = MetricsSnapshot::from_json(&snapshot.to_json()).unwrap();
//! assert_eq!(reparsed, snapshot);
//! ```
//!
//! ## Correctness tooling
//!
//! Two guard rails keep the serving stack honest about its own
//! invariants. **Runtime lock-order checking**: every lock in the
//! serving tier ([`LiveRelation`](crate::engine::live::LiveRelation)'s
//! shard/id/epoch/log locks, the WAL writer's rotation/state locks) is
//! an [`OrderedRwLock`](crate::core::lockdep::OrderedRwLock) /
//! [`OrderedMutex`](crate::core::lockdep::OrderedMutex) carrying an
//! explicit [`LockRank`](crate::core::lockdep::LockRank); debug builds
//! keep a thread-local stack of held ranks and panic on any acquisition
//! that inverts the documented order, release builds compile the check
//! out entirely. The totals are part of a live relation's `status()`
//! and publish as `lockdep_checks_total` / `lockdep_violations_total`.
//! **Static invariant lints**: the [`analysis`] crate's `pitract-lint`
//! binary walks the workspace sources with a zero-dependency lexer and
//! denies panicking escape hatches in serving code, fsyncs under the
//! WAL state lock, bare thread spawns, benchmark artifacts written
//! under `target/`, and gauges set outside `NodeStatus::publish` — each
//! rule opt-out-able per site with a justified `// lint:allow(<rule>)`.
//!
//! ```
//! use pi_tractable::prelude::*;
//!
//! // Ranked locks: taking Gid then Epoch follows the documented order
//! // and costs nothing beyond the std lock in release builds. Inverting
//! // the order panics in debug builds instead of deadlocking in
//! // production.
//! let gids = OrderedRwLock::new(LockRank::Gid, vec![0u64]);
//! let epochs = OrderedMutex::new(LockRank::Epoch, Vec::new());
//! let ids = gids.read();
//! epochs.lock().push(ids[0]);
//! drop(ids);
//!
//! // The lint pass is a library too: this workspace lints itself clean.
//! let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
//! let report: LintReport = pi_tractable::analysis::lint_workspace(root);
//! assert!(report.is_clean(), "{report}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub use pitract_analysis as analysis;
pub use pitract_circuit as circuit;
pub use pitract_core as core;
pub use pitract_engine as engine;
pub use pitract_graph as graph;
pub use pitract_incremental as incremental;
pub use pitract_index as index;
pub use pitract_kernel as kernel;
pub use pitract_obs as obs;
pub use pitract_pram as pram;
pub use pitract_reductions as reductions;
pub use pitract_relation as relation;
pub use pitract_repl as repl;
pub use pitract_store as store;
pub use pitract_wal as wal;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use pitract_analysis::LintReport;
    pub use pitract_core::cost::{CostClass, Meter};
    pub use pitract_core::epoch::Epoch;
    pub use pitract_core::factor::{Factorization, FnFactorization};
    pub use pitract_core::fit::{best_fit, FitModel, Sample};
    pub use pitract_core::lang::{FnPairLanguage, PairLanguage};
    pub use pitract_core::lockdep::{LockRank, OrderedMutex, OrderedRwLock};
    pub use pitract_core::problem::{DecisionProblem, FnProblem};
    pub use pitract_core::reduce::{FReduction, FactorReduction};
    pub use pitract_core::scheme::Scheme;
    pub use pitract_engine::batch::{
        BatchAnswers, BatchReport, BatchRows, Exists, OutputMode, QueryBatch, Routing, RowIds,
        ShardResults, WorkerResults,
    };
    pub use pitract_engine::error::EngineError;
    pub use pitract_engine::live::{
        Applied, EpochPin, LiveRelation, PinnedRead, UpdateEntry, UpdateOp, VersionStats, WalSink,
    };
    pub use pitract_engine::planner::{AccessPath, Planner, QueryPlan};
    pub use pitract_engine::pool::{BatchServe, PoolConfig, PoolStats, PooledExecutor};
    pub use pitract_engine::shard::{ShardBy, ShardedRelation};
    pub use pitract_engine::status::{NodeStatus, WalStatus};
    pub use pitract_graph::bds::{bds_order, BdsIndex};
    pub use pitract_graph::compress::CompressedReach;
    pub use pitract_graph::reach::ReachIndex;
    pub use pitract_graph::Graph;
    pub use pitract_incremental::bounded::{BoundednessReport, UpdateRecord};
    pub use pitract_index::bptree::BPlusTree;
    pub use pitract_index::sorted::SortedIndex;
    pub use pitract_obs::{MetricsRegistry, MetricsSnapshot, Recorder, Span, TraceBuffer};
    pub use pitract_relation::indexed::{IndexedError, IndexedRelation};
    pub use pitract_relation::views::{MaterializedView, ViewSet};
    pub use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
    pub use pitract_repl::{CatchUpReport, Follower, ReplError, SegmentPublisher, Shipment};
    pub use pitract_store::{Dir, MemoryVolume, Snapshot, SnapshotCatalog, StoreError};
    pub use pitract_wal::{
        CompactionReport, Compactor, DurableLiveRelation, Recovered, SyncPolicy, WalConfig,
        WalError, WalReader, WalWriter,
    };
}
