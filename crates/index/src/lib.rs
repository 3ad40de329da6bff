//! # pitract-index — the preprocessing structures of the paper's case studies
//!
//! Section 4 of the Π-tractability paper lists concrete query classes that
//! become answerable in (poly)logarithmic or constant time after PTIME
//! preprocessing. This crate implements every auxiliary structure those case
//! studies rely on, each with an instrumented (`*_metered`) query path so
//! tests can verify the claimed bounds with step counts:
//!
//! * [`bptree::BPlusTree`] — the B⁺-tree of Example 1 / Section 4(1):
//!   O(n log n)-ish construction, O(log n) point and range probes, plus
//!   insert/delete maintenance for the incremental-preprocessing story.
//! * [`sorted::SortedIndex`] — Section 4(2) "searching in a list": sort once
//!   (O(n log n)), binary-search per query (O(log n)).
//! * [`hash::HashIndex`] — the practical O(1)-expected alternative for point
//!   selections, used as a baseline in E1.
//! * [`rmq`] — Section 4(3) minimum range queries [Fischer & Heun]:
//!   a naive O(n)-per-query baseline, an O(n²)/O(1) table, an
//!   O(n log n)/O(1) sparse table, an O(n)/O(log n) segment tree (with
//!   point updates), and the O(n)/O(1) Fischer–Heun block structure.
//! * [`lca`] — Section 4(4) lowest common ancestors [Bender et al.]:
//!   Euler-tour + RMQ (trees, O(1) query), binary lifting (O(log n) query),
//!   and the all-pairs DAG structure (O(n³/word) preprocessing, O(1) query).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// The B⁺-tree's prefetch hint is the workspace's one `unsafe` block: it
// carries the only `#[allow(unsafe_code)]`, and its `// SAFETY:` comment
// is enforced. Every other library crate forbids `unsafe` outright.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bptree;
pub mod hash;
pub mod lca;
pub mod rmq;
pub mod sorted;
