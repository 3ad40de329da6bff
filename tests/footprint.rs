//! What Π(D) costs in bytes, as a regression gate. `peak_rss_mb` in the
//! end-to-end benchmark carries a 5 % bound on a whole process; this
//! binary installs a byte-counting global allocator and pins the four
//! structures that bound cannot see on their own:
//!
//! * the heap the input relation keeps once [`Relation::from_rows`] has
//!   consumed its rows stays within [`INPUT_BYTES_PER_ROW`] — the rows
//!   sit in typed columns, not in the caller's `Vec<Vec<Value>>`;
//! * the heap held by the rows and the id maps — a build with no index
//!   at all — stays within [`ROW_BYTES_PER_ROW`];
//! * the heap held by the secondary indexes — built-with-indexes minus
//!   built-without — stays within [`INDEX_BYTES_PER_ROW`]; and
//! * while [`LiveRelation::build`] runs, live bytes never exceed the
//!   finished relation by more than [`BUILD_SLACK_PER_ROW`]: the build
//!   holds one column's `(key, id)` pairs and the packed entries made
//!   from them, never every column's at once, and never a staging copy
//!   of the rows (even a columnar one would cost ~48 B/row).
//!
//! The relation is the end-to-end benchmark's: `id` (unique), `ts`
//! (nearly unique), `grp` (1 024 values) indexed, a 16-byte `payload`
//! not, hash-sharded four ways on `id`. Byte counts do not depend on the
//! build profile; CI still runs this beside `alloc_budget` in release,
//! the profile the benchmark is built with.
//!
//! One `#[test]` only: a second test running beside it would allocate
//! into the same counters.

use pi_tractable::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Heap bytes the input relation may hold per row. When written: 48 —
/// the same typed columns a shard keeps (8 for each `Int` column, 16
/// arena bytes plus an 8-byte end offset for `payload`) and a live bit.
/// The `Vec<Vec<Value>>` the relation used to keep held 136: a 24-byte
/// row header, a heap block of four 24-byte `Value`s, and the payload's
/// 16-byte `String` block.
const INPUT_BYTES_PER_ROW: usize = 56;
/// Heap bytes the rows and the id maps may hold per row. When written:
/// 80 — 48 for the typed columns (8 for each of the three `Int`
/// columns, and for `payload` 16 arena bytes plus an 8-byte end offset)
/// and 32 for the id maps (8 local → global, 24 global → location). The
/// `Vec<Option<Vec<Value>>>` slots the columns replaced held 136 of
/// their own, 168 with the maps.
const ROW_BYTES_PER_ROW: usize = 96;
/// Heap bytes the three indexes may hold per row. When written: 83
/// (`id` and `ts` ~36 each — 8 key + 24 posting bytes and the node
/// around them — and `grp` ~11, its ids 8 bytes apiece in shared
/// postings); the `Value`-keyed trees with a heap posting per key that
/// these replaced held 227 by the same count.
const INDEX_BYTES_PER_ROW: usize = 96;
/// Bytes per row the build may hold beyond what it returns. When
/// written: 5.
const BUILD_SLACK_PER_ROW: usize = 48;

const ROWS: usize = 1 << 16;
const SHARDS: usize = 4;
const GROUPS: u64 = 1_024;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, tracking live bytes and their high-water mark.
struct Tracking;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is relaxed
// counter arithmetic that touches no allocator state.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Build the relation on `cols`; returns it with the bytes it holds and
/// the most the build held beyond them.
fn build(relation: &Relation, cols: &[usize]) -> (LiveRelation, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let live = LiveRelation::build(relation, ShardBy::Hash { col: 0 }, SHARDS, cols).expect("spec");
    let held = LIVE.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;
    (live, held, peak - held)
}

#[test]
fn indexes_and_their_build_stay_within_their_bytes_per_row() {
    let schema = Schema::new(&[
        ("id", ColType::Int),
        ("ts", ColType::Int),
        ("grp", ColType::Int),
        ("payload", ColType::Str),
    ]);
    let before = LIVE.load(Ordering::Relaxed);
    // splitmix64: `ts` uniform in [0, 16·|D|), `grp` in [0, GROUPS).
    let mut state = 7u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let rows = (0..ROWS)
        .map(|id| {
            vec![
                Value::Int(id as i64),
                Value::Int((next() % (16 * ROWS as u64)) as i64),
                Value::Int((next() % GROUPS) as i64),
                Value::str(format!("{:016x}", next())),
            ]
        })
        .collect();
    let relation = Relation::from_rows(schema, rows).expect("valid rows");
    // The consumed rows are freed: what is left is the relation's columns.
    let input_bytes = LIVE.load(Ordering::Relaxed) - before;

    let (bare, bare_bytes, _) = build(&relation, &[]);
    let (indexed, indexed_bytes, build_slack) = build(&relation, &[0, 1, 2]);
    assert_eq!((bare.len(), indexed.len()), (ROWS, ROWS));

    assert!(
        input_bytes <= INPUT_BYTES_PER_ROW * ROWS,
        "the input relation holds {} B/row, over the {INPUT_BYTES_PER_ROW} allowed",
        input_bytes / ROWS
    );
    assert!(
        bare_bytes <= ROW_BYTES_PER_ROW * ROWS,
        "the rows and id maps hold {} B/row, over the {ROW_BYTES_PER_ROW} allowed",
        bare_bytes / ROWS
    );
    let index_bytes = indexed_bytes - bare_bytes;
    assert!(
        index_bytes <= INDEX_BYTES_PER_ROW * ROWS,
        "the three indexes hold {} B/row, over the {INDEX_BYTES_PER_ROW} allowed",
        index_bytes / ROWS
    );
    assert!(
        build_slack <= BUILD_SLACK_PER_ROW * ROWS,
        "the build held {} B/row beyond the relation it returned, over the {BUILD_SLACK_PER_ROW} allowed",
        build_slack / ROWS
    );
    println!(
        "input relation {} B/row; indexes {} B/row on top of {} B/row of rows and id maps; build slack {} B/row",
        input_bytes / ROWS,
        index_bytes / ROWS,
        bare_bytes / ROWS,
        build_slack / ROWS
    );
}
