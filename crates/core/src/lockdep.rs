//! Runtime lock-ordering discipline ("lockdep") for the serving stack.
//!
//! The concurrent tiers above this crate — `LiveRelation`'s sharded
//! state, the WAL writer — are deadlock-free only because every path
//! acquires its locks in one fixed order. That order used to exist
//! purely as comments; this module makes it executable. Each lock in
//! the serving stack is wrapped in an [`OrderedMutex`] or
//! [`OrderedRwLock`] carrying a [`LockRank`], and a thread-local stack
//! of currently-held ranks is checked on every *blocking* acquisition:
//!
//! * In **debug builds** (`cfg(debug_assertions)`), acquiring a lock
//!   whose `(rank, sub_order)` is not strictly greater than every rank
//!   already held by the thread **panics** with the full held stack —
//!   so the ordinary test suite exercises the discipline on every run,
//!   and a violation inside a pool worker surfaces as the pool's typed
//!   `WorkerPanicked` error instead of a silent deadlock.
//! * In **release builds** the wrappers compile to a passthrough over
//!   `std::sync` — no thread-local access, no atomic traffic — so the
//!   serving path pays nothing (priced by the `analysis` bench target's
//!   `lockdep_micro` group).
//!
//! Same-rank locks (the per-shard `RwLock`s) disambiguate with a
//! `sub_order` (the shard index): acquiring shards in ascending index
//! order is legal, descending or re-entrant acquisition is not.
//!
//! The bookkeeping itself ([`note_acquire`] / [`note_release`]) is
//! compiled unconditionally so the release-build benchmark can price
//! exactly what debug builds pay; the *wrappers* only call it under
//! `debug_assertions`.
//!
//! Like the rest of the serving stack, the wrappers absorb poison
//! (`PoisonError::into_inner`): a panicking writer already left the
//! protected state consistent-or-reported at a higher level, and the
//! pool's panic containment depends on later lock users not cascading.
//!
//! The workspace rank table (gaps left for future ranks):
//!
//! | rank | lock |
//! |---|---|
//! | `Shard` (10) | `LiveRelation` per-shard slot, sub-ordered by shard index (ascending) |
//! | `Gid` (20) | `LiveRelation` global-id maps |
//! | `Epoch` (30) | `LiveRelation` MVCC clock + pin table |
//! | `FollowerCatchup` (45) | replication bookkeeping: the publisher's subscription table (a follower's mirror is a `WalWriter`, under the WAL ranks) |
//! | `WalRotation` (50) | `WalWriter` rotation turnstile (taken strictly before the writer state) |
//! | `WalState` (60) | `WalWriter` append state |
//!
//! `FollowerCatchup` sits *between* the engine tiers and the WAL tiers
//! deliberately: a catch-up critical section may flush WAL state (ranks
//! 50/60) while held, but must never be held across a replay into the
//! engine — replay re-enters the full update path (ranks 10–30), which
//! the checker would (correctly) flag as an inversion.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, TryLockError};

/// The workspace-wide lock ranks, in the one legal acquisition order
/// (ascending). See the module docs for the full table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum LockRank {
    /// A `LiveRelation` per-shard slot (sub-ordered by shard index).
    Shard = 10,
    /// The `LiveRelation` global-id maps (gid → location).
    Gid = 20,
    /// The `LiveRelation` MVCC epoch clock and pin table.
    Epoch = 30,
    /// Replication catch-up bookkeeping (`pitract-repl`): the
    /// publisher's subscription/retention table. Held while flushing WAL
    /// state (ranks above), never across engine replay (ranks below).
    FollowerCatchup = 45,
    /// The WAL writer's rotation turnstile.
    WalRotation = 50,
    /// The WAL writer's append state.
    WalState = 60,
}

/// Process-wide count of ordering checks performed (one per blocking
/// acquisition noted).
static CHECKS: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of ordering violations detected.
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The `(rank, sub_order)` pairs this thread currently holds, in
    /// acquisition order.
    static HELD: RefCell<Vec<(LockRank, u32)>> = const { RefCell::new(Vec::new()) };
}

/// Point-in-time totals of the lockdep bookkeeping, suitable for
/// publishing into a metrics registry as `lockdep_checks_total` /
/// `lockdep_violations_total` (monotonic counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockdepStats {
    /// Blocking acquisitions order-checked so far, process-wide.
    pub checks: u64,
    /// Rank inversions detected so far, process-wide.
    pub violations: u64,
}

/// Process-wide lockdep totals.
pub fn stats() -> LockdepStats {
    LockdepStats {
        checks: CHECKS.load(Ordering::Relaxed),
        violations: VIOLATIONS.load(Ordering::Relaxed),
    }
}

/// A detected rank inversion: the attempted acquisition and the full
/// stack the thread held at that moment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderViolation {
    /// The `(rank, sub_order)` the thread tried to blocking-acquire.
    pub attempted: (LockRank, u32),
    /// Everything the thread already held, in acquisition order.
    pub held: Vec<(LockRank, u32)>,
}

impl fmt::Display for OrderViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acquiring {:?}#{} while holding [",
            self.attempted.0, self.attempted.1
        )?;
        for (i, (rank, sub)) in self.held.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{rank:?}#{sub}")?;
        }
        write!(f, "] inverts the lock order")
    }
}

impl std::error::Error for OrderViolation {}

/// Note a *blocking* acquisition of `(rank, sub)`: check it against the
/// thread's held stack and push it. On a violation the entry is **not**
/// pushed (the wrapper panics before the lock is taken, so the stack
/// stays truthful) and the violation counter ticks.
///
/// Compiled unconditionally so release builds can price it; the lock
/// wrappers only call it under `debug_assertions`.
pub fn note_acquire(rank: LockRank, sub: u32) -> Result<(), OrderViolation> {
    CHECKS.fetch_add(1, Ordering::Relaxed);
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        let inverted = held.iter().any(|&(r, s)| (r, s) >= (rank, sub));
        if inverted {
            VIOLATIONS.fetch_add(1, Ordering::Relaxed);
            return Err(OrderViolation {
                attempted: (rank, sub),
                held: held.clone(),
            });
        }
        held.push((rank, sub));
        Ok(())
    })
}

/// Note a successful *non-blocking* (`try_*`) acquisition: pushed
/// without an ordering check, because an acquisition that cannot block
/// cannot deadlock — but once held it still participates in checks
/// against later blocking acquisitions.
pub fn note_try_acquire(rank: LockRank, sub: u32) {
    let _ = HELD.try_with(|held| held.borrow_mut().push((rank, sub)));
}

/// Note a release of `(rank, sub)`: removes the most recent matching
/// entry (guards may drop out of LIFO order). Unknown entries are
/// ignored so drops during thread teardown stay panic-free.
pub fn note_release(rank: LockRank, sub: u32) {
    let _ = HELD.try_with(|held| {
        let mut held = held.borrow_mut();
        if let Some(at) = held.iter().rposition(|&e| e == (rank, sub)) {
            held.remove(at);
        }
    });
}

/// How many ranked locks the current thread holds right now. The lock
/// wrappers record only in debug builds, so in release this reads 0.
pub fn held_depth() -> usize {
    HELD.with(|held| held.borrow().len())
}

/// How many locks of `rank` the current thread holds right now (0 in
/// release builds, like [`held_depth`]).
pub fn held_of(rank: LockRank) -> usize {
    HELD.with(|held| held.borrow().iter().filter(|(r, _)| *r == rank).count())
}

#[cfg(debug_assertions)]
fn debug_acquire(rank: LockRank, sub: u32) {
    if let Err(v) = note_acquire(rank, sub) {
        panic!("lockdep: {v}");
    }
}

/// A `Mutex` carrying a [`LockRank`]: rank-checked in debug builds, a
/// plain poison-absorbing mutex in release builds.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    rank: LockRank,
    sub: u32,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A ranked mutex with sub-order 0 (the common case: one lock per
    /// rank).
    pub fn new(rank: LockRank, value: T) -> Self {
        Self::with_sub_order(rank, 0, value)
    }

    /// A ranked mutex disambiguated by `sub` within its rank (same-rank
    /// locks must be acquired in ascending `sub` order).
    pub fn with_sub_order(rank: LockRank, sub: u32, value: T) -> Self {
        OrderedMutex {
            rank,
            sub,
            inner: Mutex::new(value),
        }
    }

    /// This lock's rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquire, blocking. Panics in debug builds if the acquisition
    /// inverts the lock order; absorbs poison like the rest of the
    /// serving stack.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        debug_acquire(self.rank, self.sub);
        OrderedMutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            rank: self.rank,
            sub: self.sub,
        }
    }

    /// Exclusive access without locking (the borrow checker proves no
    /// guard exists).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Guard returned by [`OrderedMutex::lock`].
#[derive(Debug)]
pub struct OrderedMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    rank: LockRank,
    sub: u32,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        note_release(self.rank, self.sub);
        #[cfg(not(debug_assertions))]
        let _ = (self.rank, self.sub);
    }
}

/// An `RwLock` carrying a [`LockRank`]: rank-checked in debug builds, a
/// plain poison-absorbing rwlock in release builds. Readers and writers
/// obey the same rank rules — a read acquisition can block on (and
/// deadlock against) a queued writer just as a write can.
#[derive(Debug)]
pub struct OrderedRwLock<T> {
    rank: LockRank,
    sub: u32,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// A ranked rwlock with sub-order 0.
    pub fn new(rank: LockRank, value: T) -> Self {
        Self::with_sub_order(rank, 0, value)
    }

    /// A ranked rwlock disambiguated by `sub` within its rank (e.g. the
    /// shard index; same-rank locks must be acquired in ascending `sub`
    /// order).
    pub fn with_sub_order(rank: LockRank, sub: u32, value: T) -> Self {
        OrderedRwLock {
            rank,
            sub,
            inner: RwLock::new(value),
        }
    }

    /// This lock's rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquire shared, blocking. Panics in debug builds on a rank
    /// inversion; absorbs poison.
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        debug_acquire(self.rank, self.sub);
        OrderedRwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            rank: self.rank,
            sub: self.sub,
        }
    }

    /// Acquire exclusive, blocking. Panics in debug builds on a rank
    /// inversion; absorbs poison.
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        debug_acquire(self.rank, self.sub);
        OrderedRwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            rank: self.rank,
            sub: self.sub,
        }
    }

    /// Try to acquire exclusive without blocking: `None` if the lock is
    /// contended. Exempt from the ordering check (a non-blocking
    /// acquisition cannot deadlock) but the held entry is still
    /// recorded; absorbs poison.
    pub fn try_write(&self) -> Option<OrderedRwLockWriteGuard<'_, T>> {
        let inner = match self.inner.try_write() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        #[cfg(debug_assertions)]
        note_try_acquire(self.rank, self.sub);
        Some(OrderedRwLockWriteGuard {
            inner,
            rank: self.rank,
            sub: self.sub,
        })
    }

    /// Exclusive access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Guard returned by [`OrderedRwLock::read`].
#[derive(Debug)]
pub struct OrderedRwLockReadGuard<'a, T> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    rank: LockRank,
    sub: u32,
}

impl<T> std::ops::Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        note_release(self.rank, self.sub);
        #[cfg(not(debug_assertions))]
        let _ = (self.rank, self.sub);
    }
}

/// Guard returned by [`OrderedRwLock::write`] / [`OrderedRwLock::try_write`].
#[derive(Debug)]
pub struct OrderedRwLockWriteGuard<'a, T> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    rank: LockRank,
    sub: u32,
}

impl<T> std::ops::Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        note_release(self.rank, self.sub);
        #[cfg(not(debug_assertions))]
        let _ = (self.rank, self.sub);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` with the panic hook silenced (these tests *expect*
    /// panics; the default hook would spray backtraces into the output).
    fn catch_silent<R: Send>(f: impl FnOnce() -> R + Send + std::panic::UnwindSafe) -> Option<R> {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = std::panic::catch_unwind(f).ok();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn ascending_acquisition_is_clean() {
        let shard = OrderedRwLock::with_sub_order(LockRank::Shard, 3, 1u32);
        let gid = OrderedRwLock::new(LockRank::Gid, 2u32);
        let epoch = OrderedMutex::new(LockRank::Epoch, 3u32);
        let s = shard.write();
        let g = gid.read();
        let e = epoch.lock();
        assert_eq!(*s + *g + *e, 6);
        // Release builds record nothing: the wrappers are a passthrough.
        let recorded = if cfg!(debug_assertions) { 3 } else { 0 };
        assert_eq!(held_depth(), recorded);
        assert_eq!(held_of(LockRank::Shard), recorded / 3);
        drop((s, g, e));
        assert_eq!(held_depth(), 0);
    }

    #[test]
    fn same_rank_ascending_sub_order_is_clean() {
        let shards: Vec<_> = (0..4)
            .map(|i| OrderedRwLock::with_sub_order(LockRank::Shard, i, i))
            .collect();
        let guards: Vec<_> = shards.iter().map(|s| s.read()).collect();
        assert_eq!(guards.len(), 4);
        drop(guards);
        assert_eq!(held_depth(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn rank_inversion_panics_in_debug_and_leaves_the_stack_clean() {
        let before = stats().violations;
        let outcome = catch_silent(|| {
            let gid = OrderedRwLock::new(LockRank::Gid, ());
            let shard = OrderedRwLock::with_sub_order(LockRank::Shard, 0, ());
            let _g = gid.write();
            let _s = shard.write(); // Gid held, Shard wanted: inverted.
        });
        assert!(outcome.is_none(), "the inversion must panic");
        assert!(stats().violations > before, "violation counted");
        // The violating acquisition was never pushed and the unwound
        // guards popped: later correctly-ordered work is unaffected.
        assert_eq!(held_depth(), 0);
        let shard = OrderedRwLock::with_sub_order(LockRank::Shard, 0, ());
        let gid = OrderedRwLock::new(LockRank::Gid, ());
        let _s = shard.write();
        let _g = gid.write();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_rank_descending_sub_order_panics_in_debug() {
        let outcome = catch_silent(|| {
            let a = OrderedRwLock::with_sub_order(LockRank::Shard, 5, ());
            let b = OrderedRwLock::with_sub_order(LockRank::Shard, 2, ());
            let _a = a.read();
            let _b = b.read(); // shard 5 then shard 2: descending.
        });
        assert!(outcome.is_none());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn reacquiring_the_same_rank_panics_in_debug() {
        let outcome = catch_silent(|| {
            let a = OrderedMutex::new(LockRank::Epoch, ());
            let b = OrderedMutex::new(LockRank::Epoch, ());
            let _a = a.lock();
            let _b = b.lock(); // distinct lock, same (rank, sub): still a self-deadlock shape.
        });
        assert!(outcome.is_none());
    }

    #[test]
    fn try_write_is_exempt_from_ordering_but_recorded() {
        let epoch = OrderedMutex::new(LockRank::Epoch, ());
        let shard = OrderedRwLock::with_sub_order(LockRank::Shard, 1, ());
        let _e = epoch.lock();
        // Epoch held, Shard tried: out of order, but try_* cannot block.
        let s = shard.try_write();
        assert!(s.is_some());
        #[cfg(debug_assertions)]
        assert_eq!(held_depth(), 2);
        drop(s);
        #[cfg(debug_assertions)]
        assert_eq!(held_depth(), 1);
    }

    #[test]
    fn try_write_reports_contention_as_none() {
        let lock = std::sync::Arc::new(OrderedRwLock::new(LockRank::Shard, ()));
        let held = lock.write();
        let other = std::sync::Arc::clone(&lock);
        std::thread::scope(|scope| {
            let contended = scope.spawn(move || other.try_write().is_none());
            assert!(contended.join().unwrap_or(false));
        });
        drop(held);
        assert!(lock.try_write().is_some());
    }

    #[test]
    fn note_functions_count_checks_and_absorb_unknown_releases() {
        let before = stats().checks;
        note_acquire(LockRank::WalRotation, 0).expect("empty stack");
        note_acquire(LockRank::WalState, 0).expect("ascending");
        assert!(stats().checks >= before + 2);
        note_release(LockRank::WalState, 0);
        note_release(LockRank::WalRotation, 0);
        // Releasing something never acquired is a no-op, not a panic.
        note_release(LockRank::Epoch, 7);
        assert_eq!(held_depth(), 0);
    }

    #[test]
    fn violation_display_names_the_attempt_and_the_stack() {
        let v = OrderViolation {
            attempted: (LockRank::Shard, 2),
            held: vec![(LockRank::Gid, 0), (LockRank::Epoch, 0)],
        };
        assert_eq!(
            v.to_string(),
            "acquiring Shard#2 while holding [Gid#0, Epoch#0] inverts the lock order"
        );
    }

    #[test]
    fn poisoned_locks_are_absorbed() {
        let lock = std::sync::Arc::new(OrderedMutex::new(LockRank::Epoch, 7u32));
        let poisoner = std::sync::Arc::clone(&lock);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::thread::spawn(move || {
            let _g = poisoner.lock();
            panic!("poison");
        })
        .join();
        std::panic::set_hook(hook);
        assert_eq!(*lock.lock(), 7, "poison absorbed, value served");
    }
}
