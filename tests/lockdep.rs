//! Runtime lockdep, end to end through the public facade: a serving
//! target that acquires ranked locks in the wrong order on a pool
//! worker must be caught by the debug-build lock-order checker, surface
//! as a *typed* error (the pool converts the worker panic), and leave
//! the pool serving the next batch. Debug builds only — release builds
//! compile the checks (and this file) out.

#![cfg(debug_assertions)]

use pi_tractable::core::lockdep;
use pi_tractable::prelude::*;
use std::sync::Arc;

fn relation(n: i64) -> Relation {
    let schema = Schema::new(&[("id", ColType::Int)]);
    let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int(i)]).collect();
    Relation::from_rows(schema, rows).expect("valid rows")
}

fn batch(n: i64) -> QueryBatch {
    QueryBatch::new((0..64i64).map(|k| SelectionQuery::point(0, (k * 97) % (n + 20))))
}

/// A serving target that holds a Gid-ranked lock and then takes a
/// Shard-ranked lock — the exact inversion of the engine's documented
/// order — but only on one poisoned shard, and only when armed.
struct InvertedLocks {
    inner: LiveRelation,
    gid: OrderedRwLock<()>,
    shard: OrderedRwLock<()>,
    poison: usize,
    armed: std::sync::atomic::AtomicBool,
}

impl InvertedLocks {
    fn new(inner: LiveRelation, poison: usize) -> Self {
        InvertedLocks {
            inner,
            gid: OrderedRwLock::new(LockRank::Gid, ()),
            shard: OrderedRwLock::new(LockRank::Shard, ()),
            poison,
            armed: std::sync::atomic::AtomicBool::new(true),
        }
    }

    fn disarm(&self) {
        self.armed.store(false, std::sync::atomic::Ordering::SeqCst);
    }
}

impl BatchServe for InvertedLocks {
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
        if shard == self.poison && self.armed.load(std::sync::atomic::Ordering::SeqCst) {
            // Deliberately inverted acquisition: Gid (rank 20) is held
            // while Shard (rank 10) is requested. The lockdep stack on
            // this worker thread panics here in debug builds.
            let _gid = self.gid.read();
            let _shard = self.shard.read();
        }
        self.inner.eval_shard::<M>(shard, at, queries, assigned)
    }

    fn id_map<T>(&self, shard: usize, read: impl FnOnce(&[usize]) -> T) -> T {
        self.inner.id_map(shard, read)
    }
}

#[test]
fn inverted_acquisition_on_a_worker_is_typed_and_the_pool_survives() {
    let n = 2_000i64;
    let rel = relation(n);
    let violations_before = lockdep::stats().violations;
    let target = Arc::new(InvertedLocks::new(
        LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 3, &[0]).expect("valid spec"),
        1,
    ));
    let exec = PooledExecutor::new(
        Arc::clone(&target),
        PoolConfig {
            workers: 3,
            max_inflight: 2,
            ..PoolConfig::default()
        },
    );

    // The armed batch: the worker that draws the poisoned shard hits the
    // rank inversion, panics, and the pool reports it typed.
    let err = exec.execute(&batch(n)).expect_err("inversion must surface");
    assert!(
        matches!(err, EngineError::WorkerPanicked { shard: 1 }),
        "unexpected error: {err:?}"
    );
    assert!(
        lockdep::stats().violations > violations_before,
        "the violation was counted"
    );

    // The same session keeps serving once the target behaves: no
    // poisoned worker, no wedged admission slot.
    target.disarm();
    let ok = exec.execute(&batch(n)).expect("pool still serves");
    let oracle: Vec<bool> = batch(n)
        .queries()
        .iter()
        .map(|q| rel.eval_scan(q))
        .collect();
    assert_eq!(ok.answers, oracle);
}

/// The replication rank: `FollowerCatchup` (45) sits between the engine
/// tiers and the WAL tiers; the publisher's table holds it at sub-order
/// 0, and sub-order 1 stands in for any later lock of the same rank. Two
/// inversions the design forbids must be caught in debug builds: holding
/// a catch-up lock while entering replay (replay takes Epoch, rank 30),
/// and descending sub-orders within the rank. The legal chain — sub 0,
/// then sub 1, then a WAL-tier flush — must stay panic-free.
#[test]
fn follower_catchup_rank_inversions_are_caught_and_the_legal_chain_is_not() {
    let violations_before = lockdep::stats().violations;
    // These closures *expect* panics; silence the default hook so the
    // test output stays clean (restored below).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // Inversion 1: catch-up bookkeeping held across a replay-tier
    // acquisition. Replay re-enters the engine's ranks (Shard..Epoch), so
    // a catch-up section reaching rank 30 while holding 45 is exactly
    // the hold-across-replay bug the repl crate's turnstile exists to
    // make impossible.
    let outcome = std::panic::catch_unwind(|| {
        let sub1 = OrderedMutex::with_sub_order(LockRank::FollowerCatchup, 1, ());
        let epochs = OrderedMutex::new(LockRank::Epoch, ());
        let _m = sub1.lock();
        let _e = epochs.lock();
    });
    assert!(
        outcome.is_err(),
        "FollowerCatchup held across an Epoch-ranked acquisition must panic in debug builds"
    );

    // Inversion 2: within the rank, sub 1 before the table (sub 0).
    let outcome = std::panic::catch_unwind(|| {
        let sub1 = OrderedMutex::with_sub_order(LockRank::FollowerCatchup, 1, ());
        let table = OrderedMutex::with_sub_order(LockRank::FollowerCatchup, 0, ());
        let _m = sub1.lock();
        let _t = table.lock();
    });
    assert!(
        outcome.is_err(),
        "descending sub-order inside FollowerCatchup must panic in debug builds"
    );
    std::panic::set_hook(hook);
    assert!(
        lockdep::stats().violations >= violations_before + 2,
        "both inversions were counted"
    );

    // The documented legal chain: publisher table, a sub-order-1 lock,
    // then a WAL-tier lock (a catch-up section may flush WAL state).
    let table = OrderedMutex::with_sub_order(LockRank::FollowerCatchup, 0, ());
    let sub1 = OrderedMutex::with_sub_order(LockRank::FollowerCatchup, 1, ());
    let wal_state = OrderedMutex::new(LockRank::WalState, ());
    let _t = table.lock();
    let _m = sub1.lock();
    let _s = wal_state.lock();
}

#[test]
fn lockdep_totals_publish_through_the_metrics_registry() {
    let n = 500i64;
    let rel = relation(n);
    let recorder = Recorder::new();
    let mut live = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 2, &[0]).expect("valid");
    live.set_recorder(&recorder);
    live.insert(vec![Value::Int(n + 1)]).expect("insert");
    live.status().publish(&recorder);

    let snapshot = recorder.snapshot();
    let text = pi_tractable::obs::to_prometheus(&snapshot);
    assert!(
        text.contains("lockdep_checks_total"),
        "missing lockdep_checks_total in:\n{text}"
    );
    assert!(text.contains("lockdep_violations_total"), "{text}");
    // Debug builds really check: the ordered locks taken by the insert
    // above guarantee a nonzero total.
    let checks = lockdep::stats().checks;
    assert!(checks > 0, "debug builds count lock acquisitions");
}
