//! The submitter's allocation budget, as a regression gate: a batch may
//! cost O(|batch|) words but not O(|batch|) heap allocations. This
//! binary installs a counting global allocator (process-wide, so pool
//! workers are counted too) and asserts that
//!
//! * one Boolean `execute` of 4 096 shard-key points allocates at most
//!   [`SLACK`] more times than one of 256 — only the doublings of the
//!   per-shard work lists may grow with the batch; and
//! * `execute_rows` allocates **once per non-empty answer** — the
//!   answer's row vector, at its exact size, however many shards fed
//!   it — on top of that same constant: nothing per query that
//!   returned no rows, nothing per per-shard result (a shard job
//!   gathers all its ids into one buffer).
//!
//! One `#[test]` only: a second test running beside it would allocate
//! into the same counter. Allocation counts depend on the build profile
//! (inlining decides which temporaries exist; debug builds add lockdep
//! bookkeeping), so the bounds carry slack and CI runs this binary in
//! both: `cargo test`, and the `stress` job's `--release` line. When
//! last measured, both profiles counted 37 / 53 allocations for the
//! 256- / 4 096-query Boolean batches, 41 for the all-miss 256-query
//! row-id batch, and 462 for the mixed one: those 41, one per each of
//! its 368 non-empty answers — 256 shard-key hits and 112 fanned-out
//! points, ranges and conjunctions — and 53 for its longer work lists
//! and the growth of the four jobs' id buffers (an answer per per-shard
//! result, as the executor allocated before its jobs shared one buffer,
//! made the older, points-only mixed batch cost 505 instead of 411). A
//! job allocates its result vector and its id buffer, never a buffer
//! per query or per group: a conjunction's candidates are filtered
//! where they lie in the id buffer.

use pi_tractable::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocations a 4 096-query batch may make beyond a 256-query one.
const SLACK: u64 = 64;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every `alloc` and `realloc`.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter bump that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made, process-wide, while `run` executes.
fn allocations<T>(run: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = run();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

const ROWS: i64 = 8_192;
const GROUPS: i64 = 512;

/// `n` shard-key points; every `hit_every`-th one names a stored id, the
/// rest miss.
fn points(n: i64, hit_every: i64) -> QueryBatch {
    QueryBatch::new((0..n).map(|k| {
        let key = if k % hit_every == 0 { k } else { ROWS + k };
        SelectionQuery::point(0, key)
    }))
}

#[test]
fn a_batch_costs_the_submitter_words_not_allocations() {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Int)]);
    let rows = (0..ROWS)
        .map(|i| vec![Value::Int(i), Value::Int(i % GROUPS)])
        .collect();
    let relation = Relation::from_rows(schema, rows).expect("valid rows");
    let live = LiveRelation::build(&relation, ShardBy::Hash { col: 0 }, 4, &[0, 1]).expect("spec");
    let exec = PooledExecutor::new(
        Arc::new(live),
        PoolConfig {
            workers: 2,
            max_inflight: 2,
            ..PoolConfig::default()
        },
    );

    // --- Boolean mode: 256 vs 4 096 queries --------------------------------
    let (small, large) = (points(256, 2), points(4_096, 2));
    for batch in [&small, &large] {
        exec.execute(batch).expect("warm-up"); // thread-locals, queue blocks
    }
    let (small_allocs, got) = allocations(|| exec.execute(&small).expect("small batch"));
    assert_eq!(got.answers.iter().filter(|&&hit| hit).count(), 128);
    let (large_allocs, got) = allocations(|| exec.execute(&large).expect("large batch"));
    assert_eq!(got.answers.iter().filter(|&&hit| hit).count(), 2_048);
    assert!(
        large_allocs <= small_allocs + SLACK,
        "Boolean execute: {large_allocs} allocations for 4096 queries vs {small_allocs} for 256 \
         — something allocates per query again"
    );

    // --- Row-id mode: nothing per query that returned no rows --------------
    // (`k % i64::MAX == 0` only for k = 0: one hit, everything else misses.)
    let (small, large) = (points(256, i64::MAX), points(4_096, i64::MAX));
    for batch in [&small, &large] {
        exec.execute_rows(batch).expect("warm-up");
    }
    let (small_allocs, _) = allocations(|| exec.execute_rows(&small).expect("small batch"));
    let (large_allocs, got) = allocations(|| exec.execute_rows(&large).expect("large batch"));
    assert_eq!(got.rows.iter().filter(|ids| !ids.is_empty()).count(), 1);
    assert!(
        large_allocs <= small_allocs + SLACK,
        "execute_rows, all misses: {large_allocs} allocations for 4096 queries vs \
         {small_allocs} for 256"
    );
    let floor = small_allocs;

    // --- Row-id mode: one allocation per non-empty answer -------------------
    // 4 096 shard-key points, one in 16 a hit (one shard, one row each),
    // plus queries on the other indexed column that fan out to all four
    // shards: points, ranges, and conjunctions driven by a point and by
    // a range. Each finds rows on several shards — about as many
    // per-shard results as hits again, which a budget per per-shard
    // result would have to pay for — and the conjunctions check their
    // candidates in place.
    let fanned: Vec<SelectionQuery> = (0..64)
        .map(|g| SelectionQuery::point(1, g))
        .chain((64..80).map(|g| SelectionQuery::range_closed(1, 2 * g, 2 * g + 1)))
        .chain((160..176).map(|g| {
            SelectionQuery::and(
                SelectionQuery::point(1, g),
                SelectionQuery::range_closed(0, 0, ROWS / 2 - 1),
            )
        }))
        .chain((176..192).map(|g| {
            SelectionQuery::and(
                SelectionQuery::range_closed(1, g, g),
                SelectionQuery::range_closed(0, 0, ROWS / 4 - 1),
            )
        }))
        .collect();
    let mixed = QueryBatch::new(points(4_096, 16).queries().iter().chain(&fanned).cloned());
    let expect: Vec<usize> = mixed
        .queries()
        .iter()
        .map(|q| relation.count_where(q))
        .collect();
    exec.execute_rows(&mixed).expect("warm-up");
    let (allocs, got) = allocations(|| exec.execute_rows(&mixed).expect("mixed batch"));
    assert_eq!(got.rows.iter().map(Vec::len).collect::<Vec<_>>(), expect);
    // Each hit and each fanned-out query is one non-empty answer, the
    // latter fed by up to four shards.
    let answers = expect.iter().filter(|&&rows| rows > 0).count() as u64;
    assert_eq!(answers, 4_096 / 16 + fanned.len() as u64);
    assert!(
        allocs >= answers,
        "every non-empty answer is at least its own row vector: {allocs} < {answers} \
         — is the counting allocator installed?"
    );
    assert!(
        allocs <= floor + SLACK + answers,
        "execute_rows: {allocs} allocations for {answers} non-empty answers \
         (budget {floor} + {SLACK} + 1 each)"
    );
}
