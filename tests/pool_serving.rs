//! Integration tests for the serving session through the public
//! facade: the `PooledExecutor` must answer exactly like the scan
//! oracle on every `BatchServe` target and in both output modes,
//! contain worker panics as typed errors without poisoning the pool,
//! and serve custom `BatchServe` targets — while `apply_batch` keeps
//! the durable write side batch-committed and crash-consistent.

use pi_tractable::prelude::*;
use std::sync::Arc;

fn relation(n: i64) -> Relation {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 16))])
        .collect();
    Relation::from_rows(schema, rows).expect("valid rows")
}

fn mixed_batch(n: i64) -> QueryBatch {
    QueryBatch::new((0..128i64).map(|k| match k % 4 {
        0 => SelectionQuery::point(0, (k * 97) % (n + 50)),
        1 => SelectionQuery::range_closed(0, (k * 61) % n, (k * 61) % n + 40),
        2 => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 16).as_str()),
            SelectionQuery::range_closed(0, (k * 31) % n, (k * 31) % n + 300),
        ),
        _ => SelectionQuery::point(0, n + k),
    }))
}

/// What one target answered for one batch, in both output modes.
struct Served {
    answers: Vec<bool>,
    rows: Vec<Vec<usize>>,
    /// Per-query metered steps in `Exists` / `RowIds` mode.
    exists_steps: Vec<u64>,
    row_steps: Vec<u64>,
    pinned: bool,
}

fn serve_both_modes<R: BatchServe + 'static>(target: Arc<R>, batch: &QueryBatch) -> Served {
    let exec = PooledExecutor::with_default_pool(target);
    let steps = |report: &BatchReport| report.per_query.iter().map(|c| c.steps).collect();
    let bools = exec.execute(batch).expect("exists mode");
    let rows = exec.execute_rows(batch).expect("row-id mode");
    assert_eq!(bools.report.epoch, rows.report.epoch, "quiescent: one cut");
    Served {
        answers: bools.answers,
        exists_steps: steps(&bools.report),
        pinned: !rows.report.epoch.is_latest(),
        row_steps: steps(&rows.report),
        rows: rows.rows,
    }
}

/// Every `BatchServe` implementor carries one evaluation body shared by
/// both output modes, and the durable node and the follower forward to
/// the live relation's: the same data behind each of the three must
/// give the oracle's answers and global row ids and the same per-query
/// step counts, each batch at one pinned epoch.
#[test]
fn pooled_answers_match_the_oracle_on_every_target() {
    let n = 4_000i64;
    let base = relation(n);
    let batch = mixed_batch(n);
    let updates = || {
        (0..96i64).map(move |i| match i % 3 {
            2 => UpdateOp::Delete((i * 37) as usize),
            _ => UpdateOp::Insert(vec![Value::Int(n + i), Value::str("grp3")]),
        })
    };

    // Every target starts from the same *loaded* Π(D): a follower can
    // only ever start from a checkpoint, and a decoded B⁺-tree is packed
    // differently from an incrementally built one (descents differ by a
    // step or two), so the step comparison needs one physical shape.
    let built =
        ShardedRelation::build(&base, ShardBy::Hash { col: 0 }, 4, &[0, 1]).expect("valid spec");
    let bytes = Snapshot::from(built).to_bytes();
    let loaded = || {
        Snapshot::from_bytes(&bytes)
            .expect("own bytes decode")
            .state
    };

    // The oracle: the rows under their global ids (a build gives row
    // `i` id `i`), the updates applied to the vector.
    let mut model: Vec<Option<Vec<Value>>> = base.rows().map(|row| Some(row.to_vec())).collect();
    for op in updates() {
        match op {
            UpdateOp::Insert(row) => model.push(Some(row)),
            UpdateOp::Delete(gid) => assert!(model[gid].take().is_some(), "live row {gid}"),
        }
    }
    let oracle = Relation::from_rows(
        base.schema().clone(),
        model.iter().flatten().cloned().collect(),
    )
    .expect("valid rows");
    let matching = |q: &SelectionQuery| -> Vec<usize> {
        (0..model.len())
            .filter(|&gid| model[gid].as_ref().is_some_and(|row| q.matches(row)))
            .collect()
    };

    let live = LiveRelation::from_sharded(loaded());
    live.apply_batch(updates()).expect("live batch");

    // The durable primary takes them through its WAL; the follower
    // bootstraps from the primary's first checkpoint and replays them.
    let root = Dir::memory();
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog dir");
    let durable = Arc::new(
        DurableLiveRelation::create(
            LiveRelation::from_sharded(loaded()),
            &catalog,
            "node",
            root.join("wal"),
            WalConfig::default(),
        )
        .expect("fresh durable node"),
    );
    let publisher = SegmentPublisher::new(Arc::clone(&durable));
    let follower = Follower::bootstrap(&catalog, "node", root.join("mirror"), WalConfig::default())
        .expect("bootstrap");
    let sub = follower.attach(&publisher);
    durable.apply_batch(updates()).expect("durable batch");
    assert_eq!(follower.catch_up(&publisher, sub).expect("catch up").lag, 0);

    let table = [
        ("LiveRelation", serve_both_modes(Arc::new(live), &batch)),
        ("DurableLiveRelation", serve_both_modes(durable, &batch)),
        ("Follower", serve_both_modes(Arc::new(follower), &batch)),
    ];
    let (_, reference) = &table[0];
    for (target, got) in &table {
        for (qi, q) in batch.queries().iter().enumerate() {
            assert_eq!(got.answers[qi], oracle.eval_scan(q), "{target}: {q:?}");
            assert_eq!(got.rows[qi].len(), oracle.count_where(q), "{target}: {q:?}");
            assert_eq!(got.answers[qi], !got.rows[qi].is_empty(), "{target}: {q:?}");
            assert_eq!(got.rows[qi], matching(q), "{target}: {q:?} global row ids");
        }
        assert_eq!(got.rows, reference.rows, "{target}: global row ids");
        assert_eq!(got.exists_steps, reference.exists_steps, "{target}: steps");
        assert_eq!(
            got.row_steps, reference.row_steps,
            "{target}: row-mode steps"
        );
        assert!(got.pinned, "{target}: epoch pin");
    }
}

/// A `BatchServe` target that panics on one shard: the session must
/// surface a typed error and keep serving later batches — a standing
/// pool that dies with one bad batch is not a serving session.
#[derive(Debug)]
struct PanicOnShard {
    inner: LiveRelation,
    poison: usize,
}

impl BatchServe for PanicOnShard {
    fn route_shards(&self, queries: &[SelectionQuery]) -> Result<Routing, EngineError> {
        self.inner.route_shards(queries)
    }

    fn shard_count(&self) -> usize {
        BatchServe::shard_count(&self.inner)
    }

    fn pin_epoch(&self) -> Epoch {
        self.inner.pin_epoch()
    }

    fn unpin_epoch(&self, epoch: Epoch) {
        self.inner.unpin_epoch(epoch);
    }

    fn eval_shard<M: OutputMode>(
        &self,
        shard: usize,
        at: Epoch,
        queries: &[SelectionQuery],
        assigned: &[usize],
    ) -> ShardResults<M::Part> {
        assert_ne!(shard, self.poison, "injected shard failure");
        self.inner.eval_shard::<M>(shard, at, queries, assigned)
    }

    fn id_map<T>(&self, shard: usize, read: impl FnOnce(&[usize]) -> T) -> T {
        self.inner.id_map(shard, read)
    }
}

#[test]
fn worker_panic_is_typed_and_the_session_keeps_serving() {
    let n = 1_000i64;
    let rel = relation(n);
    let target = Arc::new(PanicOnShard {
        inner: LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 3, &[0]).expect("valid spec"),
        poison: 1,
    });
    let exec = PooledExecutor::new(
        Arc::clone(&target),
        PoolConfig {
            workers: 2,
            max_inflight: 2,
            ..PoolConfig::default()
        },
    );
    // A full scan routes to every shard, including the poisoned one.
    let all_shards = QueryBatch::new([SelectionQuery::point(1, "grp3")]);
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the injected panic quiet
    let err = exec.execute(&all_shards).expect_err("poisoned shard");
    std::panic::set_hook(prev_hook);
    assert!(
        matches!(err, EngineError::WorkerPanicked { shard: 1 }),
        "{err:?}"
    );
    // The pool survives: a batch avoiding shard 1 still serves. Point
    // queries on the shard key route to exactly one shard each.
    let safe: Vec<i64> = (0..200i64)
        .filter(|&k| {
            let (_, routed) =
                BatchServe::route(target.as_ref(), &[SelectionQuery::point(0, k)]).expect("route");
            routed[0] != vec![1]
        })
        .take(8)
        .collect();
    assert!(!safe.is_empty(), "some keys route off the poisoned shard");
    let batch = QueryBatch::new(safe.iter().map(|&k| SelectionQuery::point(0, k)));
    let got = exec.execute(&batch).expect("session survives the panic");
    assert!(got.answers.iter().all(|&a| a));
}

#[test]
fn apply_batch_through_the_session_is_durable_and_recovers() {
    let n = 500i64;
    let root = Dir::memory();
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog dir");
    let wal_dir = root.join("wal");
    let config = WalConfig {
        segment_bytes: 64 << 10,
        sync: SyncPolicy::GroupCommit,
        ..WalConfig::default()
    };
    let live =
        LiveRelation::build(&relation(n), ShardBy::Hash { col: 0 }, 4, &[0, 1]).expect("spec");
    let node = Arc::new(
        DurableLiveRelation::create(live, &catalog, "sess", &wal_dir, config.clone())
            .expect("fresh durable node"),
    );
    let exec = PooledExecutor::with_default_pool(Arc::clone(&node));

    // Batched writes interleave with pooled reads.
    let applied = node
        .apply_batch((0..64i64).map(|i| {
            if i % 4 == 3 {
                UpdateOp::Delete(i as usize)
            } else {
                UpdateOp::Insert(vec![Value::Int(n + i), Value::str("hot")])
            }
        }))
        .expect("durable batch");
    assert_eq!(applied.len(), 64);
    assert_eq!(node.wal().durable_lsn(), 64, "one commit covered the batch");
    let batch = QueryBatch::new((0..16i64).map(|k| SelectionQuery::point(0, n + k * 4)));
    let got = exec.execute(&batch).expect("pooled batch");
    assert!(got.answers.iter().all(|&a| a), "batched inserts visible");

    // Crash cold; every batched update must come back.
    let expected: Vec<Option<Vec<Value>>> =
        (0..(n as usize + 64)).map(|gid| node.row(gid)).collect();
    drop(exec);
    drop(node);
    let recovered =
        DurableLiveRelation::recover(&catalog, "sess", &wal_dir, config).expect("recovery");
    for (gid, expect) in expected.iter().enumerate() {
        assert_eq!(&recovered.row(gid), expect, "gid {gid}");
    }
}

/// After two writers race pinned pooled batches on a durable node and
/// everything quiesces, one `pin()`/drop later the executor's
/// `status()` reads idle: no pin, no batch in flight, no queued job, no
/// retained version — and the WAL is durable through its last record.
#[test]
fn status_reads_idle_once_racing_writers_and_batches_quiesce() {
    let root = Dir::memory();
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog");
    let live =
        LiveRelation::build(&relation(400), ShardBy::Hash { col: 0 }, 4, &[0, 1]).expect("valid");
    let config = WalConfig {
        sync: SyncPolicy::GroupCommit,
        ..WalConfig::default()
    };
    let node = Arc::new(
        DurableLiveRelation::create(live, &catalog, "node", root.join("wal"), config)
            .expect("create"),
    );
    let exec = PooledExecutor::new(
        Arc::clone(&node),
        PoolConfig {
            workers: 2,
            max_inflight: 2,
            ..PoolConfig::default()
        },
    );
    let batch = mixed_batch(400);
    std::thread::scope(|scope| {
        for w in 0..2i64 {
            let node = Arc::clone(&node);
            scope.spawn(move || {
                for i in 0..150i64 {
                    let key = 10_000 + w * 1_000 + i;
                    let gid = node
                        .insert(vec![Value::Int(key), Value::str("hot")])
                        .expect("insert");
                    if i % 3 == 0 {
                        node.delete(gid).expect("delete");
                    }
                }
            });
        }
        for _ in 0..12 {
            let got = exec.execute_rows(&batch).expect("pinned batch");
            assert!(!got.report.epoch.is_latest(), "every batch pins");
        }
    });
    // Quiesced. One more pin's release sweeps whatever the racing
    // batches' releases left retained on contended shards.
    drop(node.pin());

    let status = exec.status();
    let versions = status.versions.expect("a live node has versions");
    assert_eq!(versions.pins, 0);
    assert_eq!(versions.retained_versions, 0);
    assert_eq!(versions.retained_slots, 0);
    assert_eq!(versions.watermark, versions.current_epoch);
    let pool = status.pool.expect("the executor adds its pool");
    assert_eq!(pool.inflight, 0);
    assert_eq!(pool.queued_jobs, 0);
    assert_eq!(pool.batches_admitted, 12);
    let wal = status.wal.expect("a durable node has a WAL");
    assert_eq!(wal.durable_lsn, node.wal().next_lsn());
    assert_eq!(wal.durable_lsn, 400, "300 inserts and 100 deletes");
    assert_eq!(status.replica, None, "a primary trails nobody");
}
