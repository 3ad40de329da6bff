//! Replication, end to end through the public facade: a follower
//! bootstrapped from the primary's checkpoint and fed by the segment
//! publisher must serve batches that are **bit-identical** — answers
//! AND global row ids — to an oracle replay of the primary's WAL
//! prefix below the follower's applied LSN, even while primary writers
//! race the catch-up loop. The retention watermark must keep every
//! segment a lagging follower still needs across a primary compaction
//! cycle, and `replication_lag_lsn` must surface in the Prometheus
//! export.

use pi_tractable::prelude::*;
use std::sync::Arc;

fn config() -> WalConfig {
    // Tiny segments so every test exercises rotation and multi-segment
    // shipments.
    WalConfig {
        segment_bytes: 192,
        sync: SyncPolicy::GroupCommit,
        ..WalConfig::default()
    }
}

fn primary(
    root: &Dir,
    rows: i64,
    config: WalConfig,
) -> (Arc<DurableLiveRelation>, SnapshotCatalog) {
    let schema = Schema::new(&[("id", ColType::Int)]);
    let data: Vec<Vec<Value>> = (0..rows).map(|i| vec![Value::Int(i)]).collect();
    let rel = Relation::from_rows(schema, data).expect("valid rows");
    let live = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 3, &[0]).expect("valid spec");
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog");
    let node = Arc::new(
        DurableLiveRelation::create(live, &catalog, "node", root.join("wal"), config)
            .expect("create"),
    );
    (node, catalog)
}

/// The oracle: the checkpoint state plus a replay of exactly the
/// primary's WAL records below `below_lsn` — the state a perfect
/// replica of that prefix must hold.
fn oracle_at(catalog: &SnapshotCatalog, root: &Dir, below_lsn: u64) -> LiveRelation {
    let (state, mark, cut) = catalog
        .load("node")
        .expect("checkpoint exists")
        .into_checkpoint()
        .expect("live checkpoint");
    let oracle = LiveRelation::from_sharded(state);
    let reader = WalReader::open(root.join("wal")).expect("primary wal readable");
    let entries: Vec<UpdateEntry> = reader
        .records()
        .iter()
        .filter(|r| r.lsn >= mark && r.lsn < below_lsn)
        .map(|r| r.entry.clone())
        .collect();
    oracle.replay_entries(entries).expect("oracle replay");
    oracle.advance_epoch_to(Epoch::new(cut.get() + (below_lsn.max(mark) - mark)));
    oracle
}

/// Compare a follower against an oracle relation, bit for bit: live row
/// count, boolean answers, matching global ids, and raw rows by gid.
fn assert_bit_identical(follower: &Follower, oracle: &LiveRelation, probes: i64, tag: &str) {
    assert_eq!(follower.len(), oracle.len(), "{tag}: live row count");
    for key in 0..probes {
        let q = SelectionQuery::point(0, key);
        assert_eq!(
            follower.answer(&q),
            oracle.answer(&q),
            "{tag}: answer for {key}"
        );
        assert_eq!(
            follower.matching_ids(&q),
            oracle.matching_ids(&q),
            "{tag}: gids for {key}"
        );
    }
    for gid in 0..(oracle.len() + 16) {
        assert_eq!(follower.row(gid), oracle.row(gid), "{tag}: row {gid}");
    }
    // Bootstrapped from a loaded snapshot and fed by replay, each shard's
    // local → global id map still increases, as the row-id merge needs.
    for shard in 0..oracle.shard_count() {
        let map = follower.id_map(shard, <[usize]>::to_vec);
        assert!(map.windows(2).all(|w| w[0] < w[1]), "{tag}: shard {shard}");
        assert_eq!(map, oracle.id_map(shard, <[usize]>::to_vec), "{tag}");
    }
}

/// The headline contract: racing primary writers, a follower catching
/// up live, and pooled batches served from the follower — every batch
/// pinned at the epoch of the follower's applied LSN, and the final
/// state bit-identical to the primary. It runs on both storage
/// backends: in memory an append is never seen half done, so only the
/// filesystem run lets a poll read the active segment mid-append.
#[test]
fn follower_under_racing_writers_serves_consistent_prefixes() {
    racing_writers_and_catch_up(Dir::memory());
    let tmp = std::env::temp_dir().join(format!("pitract-replication-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    racing_writers_and_catch_up(Dir::from(&tmp));
    std::fs::remove_dir_all(&tmp).unwrap();
}

fn racing_writers_and_catch_up(root: Dir) {
    // One recorder in the config both nodes are built from: the
    // publisher counts into the primary's.
    let recorder = Recorder::new();
    let observed = WalConfig {
        recorder: recorder.clone(),
        ..config()
    };
    let (node, catalog) = primary(&root, 50, observed.clone());
    let publisher = SegmentPublisher::new(Arc::clone(&node));
    let follower = Arc::new(
        Follower::bootstrap(&catalog, "node", root.join("mirror"), observed).expect("bootstrap"),
    );
    let sub = follower.attach(&publisher);
    let exec = PooledExecutor::new(
        Arc::clone(&follower),
        PoolConfig {
            workers: 2,
            max_inflight: 2,
            ..PoolConfig::default()
        },
    );

    // Two racing writer threads on the primary while the follower keeps
    // catching up and serving pooled batches.
    std::thread::scope(|scope| {
        for w in 0..2i64 {
            let node = Arc::clone(&node);
            scope.spawn(move || {
                for i in 0..60i64 {
                    let key = 1_000 + w * 1_000 + i;
                    let gid = node.insert(vec![Value::Int(key)]).expect("insert");
                    if i % 5 == 0 {
                        node.delete(gid).expect("delete");
                    }
                }
            });
        }
        for _ in 0..8 {
            let report = follower.catch_up(&publisher, sub).expect("catch up");
            let batch =
                QueryBatch::new((0..32i64).map(|k| SelectionQuery::point(0, 1_000 + k * 7)));
            let result = exec.execute(&batch).expect("follower serves mid-race");
            // The batch pinned one consistent cut: the epoch named by
            // the follower's LSN dictionary, which the racing primary
            // cannot tear.
            let pinned = result.report.epoch;
            assert_eq!(
                follower.lsn_of_epoch(pinned),
                follower.applied_lsn(),
                "pinned epoch names the applied prefix (report: {report:?})"
            );
        }
    });

    // Quiesced: the follower drains the log and matches the primary bit
    // for bit — answers, gids, rows, and the epoch dictionary.
    node.wal().sync().expect("sync");
    let report = follower.catch_up(&publisher, sub).expect("final catch up");
    assert_eq!(report.lag, 0);
    assert_eq!(report.applied_lsn, node.wal().durable_lsn());
    let oracle = oracle_at(&catalog, &root, report.applied_lsn);
    assert_bit_identical(&follower, &oracle, 3_200, "quiesced");
    assert_eq!(follower.len(), node.len(), "matches the live primary too");
    assert_eq!(
        follower.current_epoch(),
        follower.applied_epoch(),
        "served cut is the applied cut"
    );

    // The lag is live in the Prometheus export once the follower's
    // status is published.
    follower.status().publish(&recorder);
    let text = pi_tractable::obs::to_prometheus(&recorder.snapshot());
    assert!(
        text.contains("replication_lag_lsn 0"),
        "missing live replication_lag_lsn in:\n{text}"
    );
    assert!(text.contains("repl_segments_shipped_total"), "{text}");
    assert!(text.contains("repl_replay_micros"), "{text}");
}

/// A follower stopped mid-stream is exact, not approximately caught up:
/// its state equals the oracle replay of precisely the records below
/// its applied LSN.
#[test]
fn partial_catch_up_is_an_exact_prefix() {
    let root = Dir::memory();
    let (node, catalog) = primary(&root, 10, config());
    let publisher = SegmentPublisher::new(Arc::clone(&node));
    let follower =
        Follower::bootstrap(&catalog, "node", root.join("mirror"), config()).expect("bootstrap");
    let sub = follower.attach(&publisher);

    let mut gids = Vec::new();
    for i in 0..80i64 {
        let gid = node.insert(vec![Value::Int(100 + i)]).expect("insert");
        gids.push(gid);
        if i % 3 == 0 {
            node.delete(gids[gids.len() / 2]).expect("delete");
        }
    }
    node.wal().sync().expect("sync");

    // Catch up in small byte-bounded steps; stop somewhere mid-stream.
    let mut applied = follower.applied_lsn();
    for _ in 0..5 {
        let report = follower
            .catch_up_step(&publisher, sub, 96)
            .expect("bounded step");
        applied = report.applied_lsn;
    }
    let durable = node.wal().durable_lsn();
    assert!(applied > 0, "steps made progress");
    assert!(
        applied < durable,
        "still mid-stream (applied {applied} of {durable})"
    );

    let oracle = oracle_at(&catalog, &root, applied);
    assert_bit_identical(&follower, &oracle, 200, "mid-stream");
    assert_eq!(follower.applied_epoch(), oracle.current_epoch());

    // And draining the rest converges on the primary.
    let report = follower.catch_up(&publisher, sub).expect("drain");
    assert_eq!(report.lag, 0);
    assert_eq!(follower.len(), node.len());
}

/// The retention watermark closes the compaction/replication race: a
/// slow attached follower can still fetch every segment at or above its
/// applied LSN after the primary checkpoints and compacts — while the
/// compaction pass really does reclaim the segments nobody needs.
#[test]
fn slow_follower_survives_a_primary_compaction_cycle() {
    let root = Dir::memory();
    let (node, catalog) = primary(&root, 0, config());
    let publisher = SegmentPublisher::new(Arc::clone(&node));
    let follower =
        Follower::bootstrap(&catalog, "node", root.join("mirror"), config()).expect("bootstrap");
    let sub = follower.attach(&publisher);

    for i in 0..30i64 {
        node.insert(vec![Value::Int(i)]).expect("insert");
    }
    // The follower fetches a few shipments — enough to clear a couple
    // of whole segments — then stalls mid-stream.
    let mut stalled_at = 0;
    for _ in 0..3 {
        let report = follower
            .catch_up_step(&publisher, sub, 160)
            .expect("bounded step");
        stalled_at = report.applied_lsn;
    }
    assert!(stalled_at > 0 && stalled_at < node.wal().durable_lsn());

    // The primary moves on: checkpoint (mark jumps past the stall
    // point), more traffic, rotate, compact through the publisher.
    node.checkpoint(&catalog, "node").expect("checkpoint");
    for i in 30..45i64 {
        node.insert(vec![Value::Int(i)]).expect("insert");
    }
    node.wal().rotate_now().expect("rotate");
    assert_eq!(publisher.retention_watermark(), Some(stalled_at));
    let compaction = publisher.compact_primary().expect("compact");
    assert!(
        compaction.segments_removed > 0,
        "the cycle reclaimed something, so retention was actually tested: {compaction:?}"
    );
    assert_eq!(
        publisher.compaction_floor(),
        stalled_at,
        "the floor stops at the slow follower's cursor, not the checkpoint mark"
    );

    // The stalled follower still drains to the end, bit for bit.
    let report = follower
        .catch_up(&publisher, sub)
        .expect("drain after compaction");
    assert_eq!(report.lag, 0);
    assert_eq!(follower.len(), node.len());
    for i in 0..45i64 {
        let q = SelectionQuery::point(0, i);
        assert_eq!(follower.answer(&q), node.answer(&q), "answer {i}");
        assert_eq!(follower.matching_ids(&q), node.matching_ids(&q), "gids {i}");
    }

    // Once the follower detaches, the next cycle reclaims its segments.
    publisher.detach(sub);
    node.checkpoint(&catalog, "node").expect("checkpoint");
    node.wal().rotate_now().expect("rotate");
    let after = publisher.compact_primary().expect("compact unretained");
    assert_eq!(publisher.retention_watermark(), None);
    assert!(after.segments_removed > 0, "{after:?}");
}

/// A fetch below the publisher's compaction floor is a typed staleness
/// signal, not a garbled shipment: the late follower learns it must
/// re-bootstrap.
#[test]
fn late_attachment_below_the_floor_is_typed_stale() {
    let root = Dir::memory();
    let (node, catalog) = primary(&root, 0, config());
    let publisher = SegmentPublisher::new(Arc::clone(&node));
    for i in 0..20i64 {
        node.insert(vec![Value::Int(i)]).expect("insert");
    }
    node.checkpoint(&catalog, "node").expect("checkpoint");
    node.wal().rotate_now().expect("rotate");
    publisher.compact_primary().expect("compact");
    assert!(publisher.compaction_floor() > 0);

    let err = publisher.poll(0).expect_err("below the floor");
    assert!(matches!(err, ReplError::Stale { from: 0, .. }), "{err}");

    // Re-bootstrapping from the fresh checkpoint starts above the floor
    // and catches up cleanly.
    let follower =
        Follower::bootstrap(&catalog, "node", root.join("mirror"), config()).expect("re-bootstrap");
    assert!(follower.applied_lsn() >= publisher.compaction_floor());
    let sub = follower.attach(&publisher);
    node.insert(vec![Value::Int(777)]).expect("insert");
    let report = follower.catch_up(&publisher, sub).expect("catch up");
    assert_eq!(report.lag, 0);
    let q = SelectionQuery::point(0, 777i64);
    assert_eq!(follower.matching_ids(&q), node.matching_ids(&q));
}

/// `status().publish` keeps the exported surface: with a durable
/// primary and its pool on one recorder and a follower on its own,
/// every series family the stack exported before `NodeStatus` existed
/// is still exported with its kind, the quiescent values are the same,
/// and a second publish leaves the snapshot unchanged (totals are
/// raised, never re-added). The follower's mirror is a `WalWriter`, so
/// its appends and flushes count into the follower's recorder too.
#[test]
fn status_publish_keeps_every_series_and_is_idempotent() {
    const PRIMARY_FAMILIES: &[&str] = &[
        "engine_batches_total counter",
        "engine_maintenance_changed_total counter",
        "engine_maintenance_updates_total counter",
        "engine_maintenance_work_total counter",
        "engine_plans_total counter",
        "engine_queries_total counter",
        "engine_steps_total counter",
        "engine_updates_total counter",
        "lockdep_checks_total counter",
        "lockdep_violations_total counter",
        "mvcc_retention_changed_total counter",
        "mvcc_retention_updates_total counter",
        "mvcc_retention_work_total counter",
        "pool_admission_wait_micros_total counter",
        "pool_admission_waits_total counter",
        "pool_batches_admitted_total counter",
        "pool_worker_panics_total counter",
        "repl_poll_bytes_read_total counter",
        "repl_segments_shipped_total counter",
        "wal_appended_bytes_total counter",
        "wal_appends_total counter",
        "wal_segment_rotations_total counter",
        "engine_maintenance_worst_ratio_milli gauge",
        "mvcc_current_epoch gauge",
        "mvcc_pins gauge",
        "mvcc_retained_slots gauge",
        "mvcc_retained_versions gauge",
        "mvcc_retention_worst_ratio_milli gauge",
        "mvcc_watermark gauge",
        "pool_inflight gauge",
        "pool_max_inflight gauge",
        "pool_queued_jobs gauge",
        "pool_workers gauge",
        "engine_apply_batch_ops histogram",
        "mvcc_rollback_entries histogram",
        "pool_admission_wait_micros histogram",
        "pool_batch_micros histogram",
        "wal_fsync_micros histogram",
        "wal_group_commit_records histogram",
    ];
    const PRIMARY_VALUES: &[&str] = &[
        "engine_batches_total 1",
        "engine_maintenance_changed_total 75",
        "engine_maintenance_updates_total 25",
        "engine_maintenance_work_total 125",
        "engine_plans_total{path=\"point-probe\"} 16",
        "engine_queries_total 16",
        "engine_updates_total 25",
        "mvcc_retention_updates_total 0",
        "pool_admission_waits_total 0",
        "pool_batches_admitted_total 1",
        "wal_appends_total 25",
        "engine_maintenance_worst_ratio_milli 1250",
        "mvcc_current_epoch 25",
        "mvcc_pins 0",
        "mvcc_retained_slots 0",
        "mvcc_retained_versions 0",
        "mvcc_watermark 25",
        "pool_inflight 0",
        "pool_max_inflight 2",
        "pool_queued_jobs 0",
        "pool_workers 2",
    ];
    const REPLICA_FAMILIES: &[&str] = &[
        "engine_plans_total counter",
        "engine_updates_total counter",
        "mvcc_pins gauge",
        "mvcc_retained_versions gauge",
        "replication_lag_lsn gauge",
        "engine_apply_batch_ops histogram",
        "mvcc_rollback_entries histogram",
        "repl_replay_micros histogram",
        "wal_appends_total counter",
        "wal_fsync_micros histogram",
    ];
    const REPLICA_VALUES: &[&str] = &[
        "engine_updates_total 25",
        "wal_appends_total 25",
        "mvcc_pins 0",
        "mvcc_retained_versions 0",
        "replication_lag_lsn 0",
    ];

    let root = Dir::memory();
    let observed = |recorder: &Recorder| WalConfig {
        recorder: recorder.clone(),
        ..config()
    };
    let recorder = Recorder::new();
    let (node, catalog) = primary(&root, 50, observed(&recorder));
    let publisher = SegmentPublisher::new(Arc::clone(&node));
    let exec = PooledExecutor::new(
        Arc::clone(&node),
        PoolConfig {
            workers: 2,
            max_inflight: 2,
            recorder: recorder.clone(),
        },
    );
    let replica = Recorder::new();
    let follower = Follower::bootstrap(&catalog, "node", root.join("mirror"), observed(&replica))
        .expect("bootstrap");
    let sub = follower.attach(&publisher);
    for i in 0..20i64 {
        let gid = node.insert(vec![Value::Int(1_000 + i)]).expect("insert");
        if i % 4 == 0 {
            node.delete(gid).expect("delete");
        }
    }
    let batch = QueryBatch::new((0..16i64).map(|k| SelectionQuery::point(0, k * 3)));
    exec.execute(&batch).expect("batch");
    follower.catch_up(&publisher, sub).expect("catch up");

    for (status, recorder, families, values) in [
        (exec.status(), &recorder, PRIMARY_FAMILIES, PRIMARY_VALUES),
        (
            follower.status(),
            &replica,
            REPLICA_FAMILIES,
            REPLICA_VALUES,
        ),
    ] {
        status.publish(recorder);
        let published = recorder.snapshot();
        let text = pi_tractable::obs::to_prometheus(&published);
        for family in families {
            let type_line = format!("# TYPE {family}");
            assert!(text.lines().any(|l| l == type_line), "{family}:\n{text}");
        }
        for value in values {
            assert!(text.lines().any(|l| l == *value), "{value}:\n{text}");
        }
        status.publish(recorder);
        assert_eq!(recorder.snapshot(), published, "republished");
    }
}
