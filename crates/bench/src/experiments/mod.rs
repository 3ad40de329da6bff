//! The experiments (see DESIGN.md §4 for the full index).
//!
//! Conventions shared by all experiments:
//!
//! * **Steps** are deterministic meter counts (comparisons, probes, node
//!   visits) — reproducible run-to-run, unlike wall clock.
//! * Every preprocessed structure is **verified against its baseline** on
//!   the measured workload before costs are reported; an experiment that
//!   produced a wrong answer would panic, not print.
//! * Growth verdicts come from `pitract_core::fit::best_fit` over the
//!   measured series.

mod dynamics;
mod engine;
mod graphs;
mod indexing;
mod live;
mod mvcc;
mod obs;
mod repl;
mod wal;

pub use dynamics::{run_e10, run_e11, run_e12, run_e13, run_e14};
pub use engine::{run_e15, shard_throughput_sweep, ShardSample, BATCH_QUERIES};
pub use graphs::{run_e06, run_e07, run_e08, run_e09};
pub use indexing::{run_e01, run_e02, run_e03, run_e04, run_e05};
pub use live::{live_throughput_sweep, run_e17, LiveSample, LIVE_BATCH_QUERIES, LIVE_SHARDS};
pub use mvcc::{
    mvcc_serving_sweep, run_e20, MvccSample, ReadCommitted, MVCC_BATCH_QUERIES, MVCC_SHARDS,
    MVCC_WRITERS,
};
pub use obs::{obs_overhead_sweep, run_obs_overhead, ObsSample, OBS_BATCH_QUERIES, OBS_SHARDS};
pub use repl::{
    repl_catchup_sweep, repl_serving_sweep, run_e21, ReplCatchUpSample, ReplServeSample,
    REPL_BATCH_QUERIES, REPL_SHARDS,
};
pub use wal::{
    run_e18, wal_recovery_sweep, wal_throughput_sweep, WalRecoverySample, WalThroughputSample,
    WAL_BATCH_OPS, WAL_SHARDS, WAL_WRITERS,
};
