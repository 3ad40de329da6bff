//! Integration suite for the live serving tier: concurrent writers +
//! query batches verified against a single-threaded oracle, recovery
//! (checkpoint + WAL replay) bit-identical to the live state, and a
//! churn property test interleaving every operation against a
//! `Vec`-backed model. Every node here is a `DurableLiveRelation` over
//! an in-memory volume: its WAL is the one update log, and the oracles
//! replay what `WalReader` reads back from it.

use pi_tractable::prelude::*;
use pi_tractable::wal::WalRecord;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)])
}

fn base_relation(n: i64) -> Relation {
    let rows = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 16))])
        .collect();
    Relation::from_rows(schema(), rows).unwrap()
}

/// Queries over the stable key region `[0, n)` — writers only ever touch
/// keys `>= n`, so these answers are invariant under the churn and the
/// cold scan oracle stays valid throughout.
fn stable_batch(n: i64) -> QueryBatch {
    QueryBatch::new((0..96i64).map(|k| match k % 3 {
        0 => SelectionQuery::point(0, (k * 37) % n),
        1 => SelectionQuery::range_closed(0, (k * 11) % n, (k * 11) % n + 25),
        _ => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 16).as_str()),
            SelectionQuery::range_closed(0, (k * 7) % n, (k * 7) % n + 200),
        ),
    }))
}

/// A serving session over `node` on the default pool.
fn serve<R: BatchServe>(node: &Arc<R>) -> PooledExecutor<R> {
    PooledExecutor::with_default_pool(Arc::clone(node))
}

/// A durable node over `base` on an in-memory volume under `root`, its
/// bootstrap checkpoint saved as `name` in `catalog`.
fn durable(
    base: &Relation,
    shards: usize,
    catalog: &SnapshotCatalog,
    name: &str,
    root: &Dir,
) -> DurableLiveRelation {
    let live = LiveRelation::build(base, ShardBy::Hash { col: 0 }, shards, &[0, 1]).unwrap();
    DurableLiveRelation::create(live, catalog, name, root.join("wal"), WalConfig::default())
        .unwrap()
}

/// The node's update history: every WAL record it wrote, oldest first.
fn history(root: &Dir) -> Vec<WalRecord> {
    WalReader::open(root.join("wal"))
        .unwrap()
        .records()
        .to_vec()
}

/// A fresh in-memory volume holding a copy of `root`'s snapshots and
/// WAL.
fn copy_volume(root: &Dir) -> Dir {
    let copy = Dir::memory();
    for sub in ["snaps", "wal"] {
        let (from, to) = (root.join(sub), copy.join(sub));
        to.create_dir_all().unwrap();
        for name in from.list().unwrap() {
            to.write_atomic(&name, &from.read(&name, 0).unwrap())
                .unwrap();
        }
    }
    copy
}

/// Recover the node checkpointed as `name` under `root`.
fn recover(catalog: &SnapshotCatalog, name: &str, root: &Dir) -> DurableLiveRelation {
    DurableLiveRelation::recover(catalog, name, root.join("wal"), WalConfig::default()).unwrap()
}

/// Queries answered during concurrent writes match the single-threaded
/// oracle, and the complete update log replays onto the base state to a
/// relation bit-identical with the live one — even though the updates
/// were issued by racing writers.
#[test]
fn concurrent_writers_and_batches_match_oracle() {
    let n = 4_000i64;
    let base = base_relation(n);
    let root = Dir::memory();
    let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
    let live = Arc::new(durable(&base, 4, &catalog, "base", &root));
    let exec = serve(&live);
    let batch = stable_batch(n);
    let oracle: Vec<bool> = batch.queries().iter().map(|q| base.eval_scan(q)).collect();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Four writers churn a disjoint volatile region: insert, then
        // delete every other insert, so tombstones accumulate too.
        let writers: Vec<_> = (0..4i64)
            .map(|w| {
                let live = &live;
                let stop = &stop;
                scope.spawn(move || {
                    let mut round = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        let key = n + w * 1_000_000 + round;
                        let gid = live
                            .insert(vec![Value::Int(key), Value::str("hot")])
                            .unwrap();
                        if round % 2 == 0 {
                            live.delete(gid).unwrap().unwrap();
                        }
                        round += 1;
                    }
                })
            })
            .collect();

        // Two reader threads serve batches the whole time.
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let exec = &exec;
                let batch = &batch;
                let oracle = &oracle;
                let base = &base;
                scope.spawn(move || {
                    for round in 0..15 {
                        let got = exec.execute(batch).unwrap();
                        assert_eq!(&got.answers, oracle, "round {round} diverged");
                        let rows = exec.execute_rows(batch).unwrap();
                        for (q, ids) in batch.queries().iter().zip(&rows.rows) {
                            assert!(ids.len() >= base.count_where(q), "{q:?} lost stable rows");
                        }
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    });

    // Replaying the full interleaved log onto the base state reproduces
    // the exact live state: same length, same rows under the same gids.
    let log: Vec<UpdateEntry> = history(&root).into_iter().map(|r| r.entry).collect();
    assert!(!log.is_empty(), "the writers actually wrote");
    let replayed = LiveRelation::build(&base, ShardBy::Hash { col: 0 }, 4, &[0, 1]).unwrap();
    replayed.replay_entries(log.clone()).unwrap();
    assert_eq!(replayed.len(), live.len());
    let total_gids = n as usize + log.len(); // upper bound on assigned gids
    for gid in 0..total_gids {
        assert_eq!(replayed.row(gid), live.row(gid), "gid {gid}");
    }

    // The maintenance of every one of those updates was |CHANGED|-
    // accounted and stays bounded up to the B⁺-tree descent factor.
    let report = live.boundedness_report();
    assert_eq!(report.len(), log.len(), "one record per logged update");
    assert!(
        report.is_amortized_bounded(64.0),
        "worst {}",
        report.worst_ratio()
    );
}

/// `recover()` = snapshot load + log replay is bit-identical to the live
/// state: same Boolean answers, same global row ids, same row contents
/// under every gid ever assigned.
#[test]
fn recover_after_checkpoint_equals_live() {
    let n = 2_000i64;
    let root = Dir::memory();
    let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
    let live = Arc::new(durable(&base_relation(n), 4, &catalog, "state", &root));

    // Pre-checkpoint churn.
    for i in 0..200i64 {
        live.insert(vec![Value::Int(n + i), Value::str("pre")])
            .unwrap();
    }
    for gid in (0..150).step_by(3) {
        live.delete(gid).unwrap().unwrap();
    }
    let at_checkpoint = live.boundedness_report();
    live.checkpoint(&catalog, "state").unwrap();
    assert_eq!(
        live.checkpoint_mark(),
        live.lsn_of_epoch(live.current_epoch()),
        "checkpoint covers the whole log"
    );

    // Post-checkpoint churn, captured only by the WAL tail.
    for i in 0..80i64 {
        live.insert(vec![Value::Int(n + 500 + i), Value::str("post")])
            .unwrap();
    }
    for gid in (500..560).step_by(2) {
        live.delete(gid).unwrap().unwrap();
    }

    // A WAL has one writer: recover from a copy of the volume, so the
    // live node stays up to compare against.
    let copy = copy_volume(&root);
    let copied = SnapshotCatalog::open(copy.join("snaps")).unwrap();
    let recovered = Arc::new(recover(&copied, "state", &copy));
    let summary = recovered.recovery_summary().unwrap();

    // Bit-identical: length, every gid's row, answers and row-id sets —
    // and the epoch clock resumed exactly where the live node's stands.
    assert_eq!(summary.epoch, live.current_epoch());
    assert_eq!(recovered.current_epoch(), live.current_epoch());
    assert_eq!(recovered.len(), live.len());
    for gid in 0..(n as usize + 280) {
        assert_eq!(recovered.row(gid), live.row(gid), "gid {gid}");
    }
    let probes = QueryBatch::new(vec![
        SelectionQuery::point(0, 0i64),
        SelectionQuery::point(0, n + 510),
        SelectionQuery::range_closed(0, 400i64, 600i64),
        SelectionQuery::point(1, "grp3"),
        SelectionQuery::and(
            SelectionQuery::point(1, "grp5"),
            SelectionQuery::range_closed(0, 0i64, 1_000i64),
        ),
    ]);
    let a = serve(&live).execute_rows(&probes).unwrap();
    let b = serve(&recovered).execute_rows(&probes).unwrap();
    assert_eq!(a.rows, b.rows, "global row ids identical after recovery");

    // Replay reproduced the maintenance accounting of the replayed
    // suffix exactly (it is deterministic in the pre-update shard
    // state): the live node's sums grew by exactly the recovered ones.
    let live_report = live.boundedness_report();
    let replay_report = recovered.boundedness_report();
    assert_eq!(replay_report.len(), live_report.len() - at_checkpoint.len());
    assert_eq!(
        replay_report.total_delta_input(),
        live_report.total_delta_input() - at_checkpoint.total_delta_input()
    );
    assert_eq!(
        replay_report.total_delta_output(),
        live_report.total_delta_output() - at_checkpoint.total_delta_output()
    );
    assert_eq!(
        replay_report.total_work(),
        live_report.total_work() - at_checkpoint.total_work()
    );
}

/// A checkpoint taken *while* writers and readers are running is a
/// consistent point-in-time snapshot: recovering from it plus the
/// WAL tail equals the final live state.
#[test]
fn checkpoint_under_concurrent_traffic_recovers_consistently() {
    let n = 2_000i64;
    let root = Dir::memory();
    let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
    let base = base_relation(n);
    let live = Arc::new(durable(&base, 4, &catalog, "midflight", &root));
    let exec = serve(&live);
    let batch = stable_batch(n);
    let oracle: Vec<bool> = batch.queries().iter().map(|q| base.eval_scan(q)).collect();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..3i64)
            .map(|w| {
                let live = &live;
                let stop = &stop;
                scope.spawn(move || {
                    let mut round = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        let gid = live
                            .insert(vec![
                                Value::Int(n + w * 1_000_000 + round),
                                Value::str("hot"),
                            ])
                            .unwrap();
                        if round % 3 == 0 {
                            live.delete(gid).unwrap().unwrap();
                        }
                        round += 1;
                    }
                })
            })
            .collect();

        // Serve, checkpoint mid-flight, serve some more.
        for _ in 0..3 {
            assert_eq!(exec.execute(&batch).unwrap().answers, oracle);
        }
        live.checkpoint(&catalog, "midflight").unwrap();
        for _ in 0..3 {
            assert_eq!(exec.execute(&batch).unwrap().answers, oracle);
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    });

    let copy = copy_volume(&root);
    let copied = SnapshotCatalog::open(copy.join("snaps")).unwrap();
    let recovered = recover(&copied, "midflight", &copy);
    assert_eq!(recovered.len(), live.len());
    assert_eq!(recovered.current_epoch(), live.current_epoch());
    let upper = n as usize + 3_000_000 + 100_000;
    for q in [
        SelectionQuery::point(0, 17i64),
        SelectionQuery::range_closed(0, 0i64, n + 50),
        SelectionQuery::range_closed(0, n, upper as i64),
    ] {
        assert_eq!(recovered.matching_ids(&q), live.matching_ids(&q), "{q:?}");
    }
}

/// The epoch clock survives checkpoint → recover exactly: the recovered
/// node stamps its next update with the same epoch the original would
/// have, so epoch-pinned reads mean the same instant before and after a
/// restart.
#[test]
fn recovery_resumes_the_epoch_clock() {
    let root = Dir::memory();
    let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
    let live = durable(&base_relation(100), 3, &catalog, "clock", &root);
    assert_eq!(live.current_epoch(), Epoch::ZERO);
    for i in 0..10i64 {
        live.insert(vec![Value::Int(1_000 + i), Value::str("pre")])
            .unwrap();
    }
    assert_eq!(live.current_epoch(), Epoch::new(10), "one tick per update");
    live.checkpoint(&catalog, "clock").unwrap();
    assert_eq!(
        live.current_epoch(),
        Epoch::new(10),
        "checkpointing is not an update"
    );
    for i in 0..5i64 {
        live.insert(vec![Value::Int(2_000 + i), Value::str("post")])
            .unwrap();
    }

    // Recover from a copy of the volume, so both nodes can write on.
    let copy = copy_volume(&root);
    let recovered = recover(
        &SnapshotCatalog::open(copy.join("snaps")).unwrap(),
        "clock",
        &copy,
    );
    let summary = recovered.recovery_summary().unwrap();
    assert_eq!(summary.epoch, Epoch::new(15));
    assert_eq!(recovered.current_epoch(), Epoch::new(15));

    // Both nodes stamp the next update identically.
    live.insert(vec![Value::Int(3_000), Value::str("next")])
        .unwrap();
    recovered
        .insert(vec![Value::Int(3_000), Value::str("next")])
        .unwrap();
    assert_eq!(recovered.current_epoch(), live.current_epoch());
    assert_eq!(recovered.current_epoch(), Epoch::new(16));
}

/// Reconstruct the exact database instance a pinned batch saw: epoch `E`
/// names the state produced by the WAL records below `lsn_of_epoch(E)`,
/// so replaying that prefix onto a fresh build must reproduce the
/// batch's row-id sets bit-identically.
fn epoch_prefix_oracle(
    base: &Relation,
    shards: usize,
    node: &DurableLiveRelation,
    log: &[WalRecord],
    epoch: Epoch,
) -> LiveRelation {
    let below = node.lsn_of_epoch(epoch);
    let prefix: Vec<UpdateEntry> = log
        .iter()
        .filter(|r| r.lsn < below)
        .map(|r| r.entry.clone())
        .collect();
    let oracle = LiveRelation::build(base, ShardBy::Hash { col: 0 }, shards, &[0, 1]).unwrap();
    oracle.replay_entries(prefix).unwrap();
    oracle
}

proptest! {
    /// MVCC consistency under churn: cross-shard batches served through
    /// the pooled executor while a writer races them are answered at one
    /// pinned epoch — reconstructing the state at exactly that epoch
    /// (base + log prefix of length E) reproduces every batch's row-id
    /// sets (and therefore its COUNTs) bit-identically. A read-committed
    /// executor could interleave shard reads with the writer and observe
    /// an instance that never existed; the pin makes that impossible.
    #[test]
    fn pinned_batches_match_the_epoch_prefix_oracle(
        seed_rows in 8i64..48,
        ops in prop::collection::vec((any::<bool>(), 0i64..64), 16..80),
    ) {
        let shards = 3;
        let base = base_relation(seed_rows);
        let root = Dir::memory();
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let live = Arc::new(durable(&base, shards, &catalog, "pinned", &root));
        let exec = serve(&live);
        // Cross-shard queries over the *whole* keyspace, volatile region
        // included — a torn (multi-instance) read would change these
        // row-id sets, so exact equality is the consistency proof.
        let batch = QueryBatch::new(vec![
            SelectionQuery::range_closed(0, 0i64, 100_000i64),
            SelectionQuery::point(1, "hot"),
            SelectionQuery::range_closed(0, seed_rows, 100_000i64),
            SelectionQuery::and(
                SelectionQuery::point(1, "hot"),
                SelectionQuery::range_closed(0, 0i64, 100_000i64),
            ),
        ]);

        let mut observed: Vec<(Epoch, Vec<Vec<usize>>)> = Vec::new();
        std::thread::scope(|scope| {
            let writer_live = Arc::clone(&live);
            let writer_ops = ops.clone();
            let writer = scope.spawn(move || {
                for (insert, key) in writer_ops {
                    if insert {
                        writer_live
                            .insert(vec![Value::Int(10_000 + key), Value::str("hot")])
                            .unwrap();
                    } else {
                        // Delete whatever gid the key picks; a miss on an
                        // already-dead slot applies (and logs) nothing.
                        let _ = writer_live.delete(key as usize % (seed_rows as usize + 8));
                    }
                }
            });
            for _ in 0..6 {
                let got = exec.execute_rows(&batch).unwrap();
                observed.push((got.report.epoch, got.rows));
            }
            writer.join().unwrap();
        });

        // Every batch matches the oracle at its own pinned epoch.
        let log = history(&root);
        for (epoch, rows) in &observed {
            prop_assert!(epoch.get() as usize <= log.len());
            let oracle = epoch_prefix_oracle(&base, shards, &live, &log, *epoch);
            let expect = serve(&Arc::new(oracle)).execute_rows(&batch).unwrap();
            prop_assert_eq!(&expect.rows, rows, "at pinned epoch {}", epoch);
        }

        // Pins were all released and superseded versions reclaimed.
        let stats = live.version_stats();
        prop_assert_eq!(stats.pins, 0);
        prop_assert_eq!(stats.retained_versions, 0);
        prop_assert_eq!(stats.current_epoch, live.current_epoch());
    }
}

proptest! {
    /// Churn property: a random interleaving of insert / delete /
    /// checkpoint / recover / query on a durable node agrees with a
    /// `Vec`-backed oracle on answers, global row ids, and boundedness
    /// totals. Ops are applied to whichever instance is "current" —
    /// after a recover, the *recovered* node becomes current, so the
    /// property also proves recovery is a seamless continuation point.
    #[test]
    fn live_churn_matches_vec_oracle(
        seed_rows in 0i64..12,
        ops in prop::collection::vec((0u8..5, 0i64..64, 0usize..96), 0..60)
    ) {
        let root = Dir::memory();
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let mut live = durable(&base_relation(seed_rows), 3, &catalog, "churn", &root);
        // The oracle: gid -> slot, exactly the logical id space.
        let mut model: Vec<Option<Vec<Value>>> = (0..seed_rows)
            .map(|i| Some(vec![Value::Int(i), Value::str(format!("grp{}", i % 16))]))
            .collect();

        for (op, key, pick) in ops {
            match op {
                // Insert: the live gid must equal the model's next slot.
                0 => {
                    let row = vec![Value::Int(key), Value::str(format!("grp{}", key % 16))];
                    let gid = live.insert(row.clone()).unwrap();
                    prop_assert_eq!(gid, model.len(), "gids assigned densely in order");
                    model.push(Some(row));
                }
                // Delete: any slot, live or tombstoned — results agree.
                1 if !model.is_empty() => {
                    let gid = pick % model.len();
                    let expect = model[gid].take();
                    prop_assert_eq!(live.delete(gid).unwrap(), expect, "delete gid {}", gid);
                }
                // Checkpoint: persists the state and moves the mark past
                // every logged update.
                2 => {
                    live.checkpoint(&catalog, "churn").unwrap();
                    prop_assert_eq!(
                        live.checkpoint_mark(),
                        live.lsn_of_epoch(live.current_epoch())
                    );
                }
                // Recover: replaces the current node; must be identical.
                3 => {
                    let tail = WalReader::open(root.join("wal"))
                        .unwrap()
                        .into_tail(live.checkpoint_mark());
                    // The log has one writer: the current node stops first.
                    let (len, epoch) = (live.len(), live.current_epoch());
                    drop(live);
                    let recovered = recover(&catalog, "churn", &root);
                    let summary = recovered.recovery_summary().unwrap();
                    prop_assert_eq!(recovered.len(), len);
                    prop_assert_eq!(summary.epoch, epoch);
                    // Recovery replays the whole WAL tail, no pair
                    // cancelled: one maintenance record per logged
                    // update, whose |CHANGED| components are pinned per
                    // update kind.
                    let replayed = tail.len();
                    let recovered_report = recovered.boundedness_report();
                    prop_assert_eq!(recovered_report.len(), replayed);
                    prop_assert_eq!(summary.replayed, replayed);
                    prop_assert_eq!(recovered_report.total_delta_input(), replayed as u64);
                    prop_assert_eq!(
                        recovered_report.total_delta_output(),
                        3 * replayed as u64,
                        "1 tuple + 2 indexed columns"
                    );
                    live = recovered;
                }
                // Query: answers and global row ids against the model.
                _ => {
                    let q = SelectionQuery::point(0, key);
                    let expect_ids: Vec<usize> = model
                        .iter()
                        .enumerate()
                        .filter_map(|(gid, slot)| {
                            slot.as_ref()
                                .filter(|row| row[0] == Value::Int(key))
                                .map(|_| gid)
                        })
                        .collect();
                    prop_assert_eq!(live.answer(&q), !expect_ids.is_empty(), "{:?}", &q);
                    prop_assert_eq!(live.matching_ids(&q), expect_ids, "{:?}", &q);
                }
            }
            prop_assert_eq!(
                live.len(),
                model.iter().flatten().count(),
                "live count tracks the model"
            );
        }

        // Final sweep: every gid agrees, and the maintenance accounting
        // covered every applied update since the last recover/build.
        for (gid, slot) in model.iter().enumerate() {
            prop_assert_eq!(&live.row(gid), slot, "gid {}", gid);
        }
        prop_assert!(live.boundedness_report().is_amortized_bounded(64.0));
    }
}
