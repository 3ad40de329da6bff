//! # pitract-incremental — bounded incremental computation
//!
//! Section 4(7) of the paper (following Ramalingam & Reps \[35\]): an
//! incremental algorithm should be measured against
//! `|CHANGED| = |ΔD| + |ΔO|` — the size of the input change plus the size
//! of the output change it *inherently* causes — not against |D|. An
//! algorithm is **bounded** if its cost is a function of |CHANGED| alone.
//! The paper uses incremental evaluation both as a query-answering strategy
//! (compute `Q(D)` once, then maintain it) and as *incremental
//! preprocessing* (maintain `Π(D)` under ΔD instead of re-preprocessing).
//!
//! * [`bounded`] — the accounting layer: per-update `(|ΔD|, |ΔO|, work)`
//!   records and boundedness verdicts, consumed by tests and E10.
//! * [`reach`] — incremental single-source reachability under edge
//!   insertions: amortized O(1) per newly-reached node, vs. recompute.
//! * [`closure`] — Italiano-style incremental transitive closure: one
//!   row-OR sweep per inserted edge, vs. full recomputation.
//! * [`index_maint`] — incremental *preprocessing* maintenance: keeping a
//!   sorted index current under inserts three ways (full re-sort, sorted
//!   vector shifting, B⁺-tree), showing why maintainable structures matter.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod bounded;
pub mod closure;
pub mod index_maint;
pub mod reach;
