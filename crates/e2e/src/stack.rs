//! The one file that calls into the system under test.
//!
//! Workloads, generators and checks reach the serving stack only
//! through the wrappers here, and the wrappers use only the plain
//! constructors and methods the benchmark's issue lists as its API
//! surface — no `*_observed` twin, no `Recorder`. When those
//! signatures move (ROADMAP item 3), this file is what a benchmark
//! change re-points; nothing else names a `pitract_*` crate.
//!
//! Configuration is fixed and identical on both sides of any
//! comparison: `PoolConfig::default()` (workers = cores, 2× in-flight),
//! `WalConfig::default()` (group commit, 4 MiB segments), hash sharding
//! on `id` over [`SHARDS`] shards, B⁺-trees on `id`, `ts`, `grp`.

use pitract_core::epoch::Epoch;
use pitract_engine::{BatchReport, BatchServe, LiveRelation, PoolConfig, PooledExecutor, ShardBy};
use pitract_relation::{ColType, Relation, Schema};
use pitract_repl::{Follower, SegmentPublisher, Shipment, SubscriptionId};
use pitract_store::{Snapshot, SnapshotCatalog};
use pitract_wal::{DurableLiveRelation, WalConfig, WalReader, WalWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

pub use pitract_engine::{
    Applied, BatchServe as Servable, LiveRelation as Live, QueryBatch, UpdateOp,
};
pub use pitract_relation::{SelectionQuery, Value};
pub use pitract_repl::{Follower as Replica, SegmentPublisher as Publisher};
pub use pitract_wal::DurableLiveRelation as Durable;

/// Harness-side result: every system error is reported as its message.
pub type Res<T> = Result<T, String>;

/// Shards everywhere.
pub const SHARDS: usize = 4;
/// Column numbers of the one schema every workload uses.
pub const COL_ID: usize = 0;
/// `ts` column.
pub const COL_TS: usize = 1;
/// `grp` column.
pub const COL_GRP: usize = 2;
/// Catalog name of a durable node's checkpoint.
const CHECKPOINT: &str = "node";

fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `id Int` (unique, shard key), `ts Int`, `grp Int`, `payload Str`.
fn schema() -> Schema {
    Schema::new(&[
        ("id", ColType::Int),
        ("ts", ColType::Int),
        ("grp", ColType::Int),
        ("payload", ColType::Str),
    ])
}

/// One tuple of the schema.
pub fn row(id: i64, ts: i64, grp: i64, payload: String) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Int(ts),
        Value::Int(grp),
        Value::Str(payload),
    ]
}

/// Preprocess: `Π(D)` — partition and index the rows for live serving.
/// Row `i` of `rows` gets global row id `i`.
pub fn build_live(rows: Vec<Vec<Value>>) -> Res<LiveRelation> {
    let relation = Relation::from_rows(schema(), rows)?;
    LiveRelation::build(
        &relation,
        ShardBy::Hash { col: COL_ID },
        SHARDS,
        &[COL_ID, COL_TS, COL_GRP],
    )
    .map_err(msg)
}

/// What the harness reads off a batch's cost report, beyond its steps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanStats {
    /// Σ shards each query was shipped to.
    pub shards_probed: usize,
    /// Σ planner-estimated steps.
    pub est_steps: u64,
    /// Queries per access path: point, range, index-nested-loop, scan.
    pub paths: [usize; 4],
    /// Time the batch waited at the pool's admission gate.
    pub admission_wait: Duration,
}

/// A served batch: its output, its metered steps, and the report the
/// traced run digs further into.
#[derive(Debug)]
pub struct Reply<T> {
    /// Answers (`Vec<bool>`) or global row ids per query.
    pub out: T,
    /// Metered steps across all queries and shards.
    pub steps: u64,
    report: BatchReport,
}

impl<T> Reply<T> {
    /// Digest the per-query report (walks every query: traced run only).
    pub fn plan_stats(&self) -> PlanStats {
        let mut paths = [0usize; 4];
        for (label, count) in self.report.path_histogram() {
            let slot = match label {
                "point-probe" => 0,
                "range-probe" => 1,
                "index-nested-loop" => 2,
                _ => 3,
            };
            paths[slot] += count;
        }
        PlanStats {
            shards_probed: self.report.shards_probed(),
            est_steps: self.report.per_query.iter().map(|c| c.plan.est_steps).sum(),
            paths,
            admission_wait: self.report.admission_wait.unwrap_or_default(),
        }
    }
}

/// A relation behind a pooled executor with the default pool.
#[derive(Debug)]
pub struct Served<R: BatchServe + 'static> {
    exec: PooledExecutor<R>,
}

impl<R: BatchServe + 'static> Served<R> {
    /// Spawn the pool (`PoolConfig::default()`).
    pub fn new(relation: Arc<R>) -> Self {
        Served {
            exec: PooledExecutor::new(relation, PoolConfig::default()),
        }
    }

    /// Boolean answers for a batch.
    pub fn execute(&self, batch: &QueryBatch) -> Res<Reply<Vec<bool>>> {
        let served = self.exec.execute(batch).map_err(msg)?;
        Ok(Reply {
            out: served.answers,
            steps: served.report.total_steps,
            report: served.report,
        })
    }

    /// Matching global row ids (ascending) for a batch.
    pub fn execute_rows(&self, batch: &QueryBatch) -> Res<Reply<Vec<Vec<usize>>>> {
        let served = self.exec.execute_rows(batch).map_err(msg)?;
        Ok(Reply {
            out: served.rows,
            steps: served.report.total_steps,
            report: served.report,
        })
    }

    /// Batches that found the admission gate full and had to wait.
    pub fn admission_waits(&self) -> u64 {
        self.exec.stats().admission_waits
    }
}

/// A batch routed by hand: what `execute` does before it dispatches.
#[derive(Debug)]
pub struct Routed {
    /// Per shard, the indices of the queries assigned to it.
    pub per_shard: Vec<Vec<usize>>,
}

/// Plan and shard-route `batch` directly (the planner layer alone).
pub fn route(relation: &impl BatchServe, batch: &QueryBatch) -> Res<Routed> {
    let (_plans, routed) = relation.route(batch.queries()).map_err(msg)?;
    let mut per_shard = vec![Vec::new(); relation.shard_count()];
    for (qi, shards) in routed.iter().enumerate() {
        for &s in shards {
            per_shard[s].push(qi);
        }
    }
    Ok(Routed { per_shard })
}

/// A pinned epoch on a live relation, for by-hand shard evaluation.
#[derive(Debug)]
pub struct Pin<'a> {
    _pin: pitract_engine::EpochPin<'a>,
    at: Epoch,
}

/// Pin the relation's current epoch.
pub fn pin(live: &LiveRelation) -> Pin<'_> {
    let pin = live.pin();
    Pin {
        at: pin.epoch(),
        _pin: pin,
    }
}

/// Evaluate one shard's share of a Boolean batch on the calling thread:
/// `(true answers, metered steps)`.
pub fn eval_bool_shard(
    live: &LiveRelation,
    pin: &Pin<'_>,
    shard: usize,
    batch: &QueryBatch,
    assigned: &[usize],
) -> (usize, u64) {
    let results = live.eval_bool(shard, pin.at, batch.queries(), assigned);
    let hits = results.iter().filter(|(_, hit, _)| *hit).count();
    (hits, results.iter().map(|(_, _, steps)| steps).sum())
}

/// Evaluate one shard's share of a row-id batch on the calling thread,
/// translating to global ids like the executor's merge does:
/// `(rows matched, metered steps)`.
pub fn eval_rows_shard(
    live: &LiveRelation,
    pin: &Pin<'_>,
    shard: usize,
    batch: &QueryBatch,
    assigned: &[usize],
) -> (usize, u64) {
    let results = live.eval_rows(shard, pin.at, batch.queries(), assigned);
    let mut rows = 0;
    let mut steps = 0;
    for (_, locals, s) in &results {
        rows += live.global_ids(shard, locals).len();
        steps += s;
    }
    (rows, steps)
}

/// Apply a run of updates with one commit; the outcome per op.
pub fn apply_batch(live: &LiveRelation, ops: Vec<UpdateOp>) -> Res<Vec<Applied>> {
    live.apply_batch(ops).map_err(msg)
}

/// Global ids of the live rows matching one query (read-committed).
pub fn matching_ids(live: &LiveRelation, q: &SelectionQuery) -> Vec<usize> {
    live.matching_ids(q)
}

/// Undo records the version rings retain right now.
pub fn retained_undo(live: &LiveRelation) -> usize {
    live.version_stats().retained_versions
}

/// `(worst work ÷ (|CHANGED|+1) of any update, Σ work ÷ Σ |CHANGED|)`
/// over every update applied since the relation was wrapped.
pub fn maintenance(live: &LiveRelation) -> (f64, f64) {
    let report = live.boundedness_report();
    let changed = report.total_changed();
    let per_changed = if changed == 0 {
        0.0
    } else {
        report.total_work() as f64 / changed as f64
    };
    (report.worst_ratio(), per_changed)
}

/// Live rows.
pub fn live_len(live: &LiveRelation) -> usize {
    live.len()
}

/// A durable primary: the live relation with a WAL under it, its
/// snapshot catalog, and the directories both live in.
#[derive(Debug)]
pub struct Primary {
    /// The node; derefs to its [`LiveRelation`].
    pub node: Arc<DurableLiveRelation>,
    catalog: SnapshotCatalog,
    root: PathBuf,
}

/// Seconds spent in the two halves of a checkpoint, and what the
/// compaction pass dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointCost {
    /// `checkpoint`: freeze + snapshot save + log truncation.
    pub checkpoint_s: f64,
    /// `compact_primary`.
    pub compact_s: f64,
    /// Records the compaction pass removed.
    pub records_dropped: usize,
    /// Size of the checkpoint snapshot written.
    pub snapshot_bytes: u64,
}

impl Primary {
    /// Go durable under `root`: bootstrap checkpoint in `root/snaps`,
    /// WAL in `root/wal`, `WalConfig::default()`.
    pub fn create(live: LiveRelation, root: &Path) -> Res<Self> {
        let catalog = SnapshotCatalog::open(root.join("snaps")).map_err(msg)?;
        let node = DurableLiveRelation::create(
            live,
            &catalog,
            CHECKPOINT,
            root.join("wal"),
            WalConfig::default(),
        )
        .map_err(msg)?;
        Ok(Primary {
            node: Arc::new(node),
            catalog,
            root: root.to_path_buf(),
        })
    }

    /// Restart from what `root` holds: load the checkpoint, replay the
    /// WAL tail. Returns the node and how many records replay applied.
    pub fn recover(root: &Path) -> Res<(Self, usize)> {
        let catalog = SnapshotCatalog::open(root.join("snaps")).map_err(msg)?;
        let node = DurableLiveRelation::recover(
            &catalog,
            CHECKPOINT,
            root.join("wal"),
            WalConfig::default(),
        )
        .map_err(msg)?;
        let replayed = node.recovery_summary().map_or(0, |r| r.replayed);
        Ok((
            Primary {
                node: Arc::new(node),
                catalog,
                root: root.to_path_buf(),
            },
            replayed,
        ))
    }

    /// Checkpoint, then compact the WAL through `publisher` so the
    /// attached follower keeps what it is still owed.
    pub fn checkpoint(&self, publisher: &SegmentPublisher) -> Res<CheckpointCost> {
        let started = std::time::Instant::now();
        let path = self
            .node
            .checkpoint(&self.catalog, CHECKPOINT)
            .map_err(msg)?;
        let checkpoint_s = started.elapsed().as_secs_f64();
        let snapshot_bytes = std::fs::metadata(&path).map_err(msg)?.len();
        let started = std::time::Instant::now();
        let report = publisher.compact_primary().map_err(msg)?;
        Ok(CheckpointCost {
            checkpoint_s,
            compact_s: started.elapsed().as_secs_f64(),
            records_dropped: report.records_before - report.records_after,
            snapshot_bytes,
        })
    }

    /// Bytes on disk: `(snapshot files, WAL segment files, segments)`.
    pub fn disk_bytes(&self) -> Res<(u64, u64, usize)> {
        let (snap, _) = dir_bytes(&self.root.join("snaps"))?;
        let (wal, segments) = dir_bytes(self.node.wal_dir())?;
        Ok((snap, wal, segments))
    }

    /// Publish this node's WAL for followers.
    pub fn publisher(&self) -> SegmentPublisher {
        SegmentPublisher::new(Arc::clone(&self.node))
    }
}

/// Bootstrap (or restart) a follower from the checkpoint under
/// `primary_root`, with its mirror segments in `mirror`.
pub fn bootstrap_follower(primary_root: &Path, mirror: &Path) -> Res<Arc<Follower>> {
    let catalog = SnapshotCatalog::open(primary_root.join("snaps")).map_err(msg)?;
    Follower::bootstrap(&catalog, CHECKPOINT, mirror, WalConfig::default())
        .map(Arc::new)
        .map_err(msg)
}

fn dir_bytes(dir: &Path) -> Res<(u64, usize)> {
    let mut bytes = 0;
    let mut files = 0;
    for entry in std::fs::read_dir(dir).map_err(msg)? {
        let meta = entry.map_err(msg)?.metadata().map_err(msg)?;
        if meta.is_file() {
            bytes += meta.len();
            files += 1;
        }
    }
    Ok((bytes, files))
}

/// A follower's subscription at a publisher.
#[derive(Debug, Clone, Copy)]
pub struct Subscription(SubscriptionId);

/// Register `follower` in `publisher`'s retention table.
pub fn attach(follower: &Follower, publisher: &SegmentPublisher) -> Subscription {
    Subscription(follower.attach(publisher))
}

/// Catch up to the primary's durable frontier; the lag left (0 when
/// nothing raced the call).
pub fn catch_up(follower: &Follower, publisher: &SegmentPublisher, sub: Subscription) -> Res<u64> {
    follower
        .catch_up(publisher, sub.0)
        .map(|report| report.lag)
        .map_err(msg)
}

/// What one poll shipped.
#[derive(Debug)]
pub struct Shipped {
    ship: Shipment,
    /// Record frames in the shipment.
    pub records: usize,
    /// Bytes of frames.
    pub bytes: u64,
    /// Segment files the poll read.
    pub segments_read: usize,
    /// Whether the shipment advances the follower at all.
    pub empty: bool,
}

/// `catch_up` by its public parts, first half: fetch every durable
/// record past the follower's cursor.
pub fn poll(publisher: &SegmentPublisher, follower: &Follower) -> Res<Shipped> {
    let ship = publisher.poll(follower.applied_lsn()).map_err(msg)?;
    Ok(Shipped {
        records: ship.records(),
        bytes: ship.frames().len() as u64,
        segments_read: ship.segments_read(),
        empty: ship.is_empty(),
        ship,
    })
}

/// Second half: validate, mirror and replay the shipment.
pub fn apply_shipment(follower: &Follower, shipped: &Shipped) -> Res<()> {
    follower.apply_shipment(&shipped.ship).map_err(msg)
}

/// Third half: release the primary's retention up to the shipment's end.
pub fn advance(publisher: &SegmentPublisher, sub: Subscription, shipped: &Shipped) {
    publisher.advance(sub.0, shipped.ship.end());
}

/// Live rows on the replica.
pub fn follower_len(follower: &Follower) -> usize {
    follower.len()
}

/// Global ids matching one query at the replica's cut.
pub fn follower_matching_ids(follower: &Follower, q: &SelectionQuery) -> Vec<usize> {
    follower.matching_ids(q)
}

/// Median and p99 of an fsync-bound commit, and the staging cost per
/// record, on a standalone WAL writer in `dir`: `commits` rounds of
/// `records` appends of `payload` bytes followed by one commit.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalProbe {
    /// Mean `append_payload` time per record, µs.
    pub stage_us_per_record: f64,
    /// Median `commit` time, µs.
    pub fsync_us_p50: f64,
    /// Tail `commit` time, µs (p99 from 1 000 commits up).
    pub fsync_us_p99: f64,
}

/// Run the WAL probe (group commit, default segments).
pub fn wal_probe(dir: &Path, commits: usize, records: usize, payload: &[u8]) -> Res<WalProbe> {
    let writer = WalWriter::open(dir, WalConfig::default()).map_err(msg)?;
    let mut stage = Duration::ZERO;
    let mut syncs = Vec::with_capacity(commits);
    for _ in 0..commits {
        let started = std::time::Instant::now();
        let mut last = 0;
        for _ in 0..records {
            last = writer.append_payload(payload).map_err(msg)?;
        }
        let staged = started.elapsed();
        writer.commit(last).map_err(msg)?;
        stage += staged;
        syncs.push((started.elapsed() - staged).as_secs_f64() * 1e6);
    }
    let s = crate::stats::summarize(&syncs);
    Ok(WalProbe {
        stage_us_per_record: stage.as_secs_f64() * 1e6 / (commits * records).max(1) as f64,
        fsync_us_p50: s.p50,
        fsync_us_p99: s.tail,
    })
}

/// Seconds to scan and decode a WAL directory, and the records found.
pub fn wal_scan(dir: &Path) -> Res<(f64, usize)> {
    let started = std::time::Instant::now();
    let reader = WalReader::open(dir).map_err(msg)?;
    Ok((started.elapsed().as_secs_f64(), reader.len()))
}

/// Seconds to save and to load a plain snapshot of `live`'s state in
/// `dir`, and its size: `(save_s, load_s, bytes)`.
pub fn snapshot_probe(live: &LiveRelation, dir: &Path) -> Res<(f64, f64, u64)> {
    let catalog = SnapshotCatalog::open(dir).map_err(msg)?;
    let state = Snapshot::from(live.to_sharded());
    let started = std::time::Instant::now();
    let path = catalog.save("probe", &state).map_err(msg)?;
    let save_s = started.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map_err(msg)?.len();
    drop(state);
    let started = std::time::Instant::now();
    let loaded = catalog.load("probe").map_err(msg)?;
    let load_s = started.elapsed().as_secs_f64();
    drop(loaded);
    Ok((save_s, load_s, bytes))
}
