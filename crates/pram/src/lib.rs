//! # pitract-pram — a work/depth PRAM substrate for NC claims
//!
//! Definition 1 of the Π-tractability paper requires query answering to be
//! in **NC**: solvable in `O(log^O(1) n)` time on a PRAM with `n^O(1)`
//! processors. Claims about a PRAM cannot be checked by wall-clock
//! measurements on a laptop; they are claims about **work** (total
//! operations) and **depth** (longest chain of dependent operations), since
//! by Brent's theorem a computation with work `W` and depth `D` runs in
//! `W/p + D` time on `p` processors.
//!
//! This crate therefore implements the classic NC toolkit *with explicit
//! work/depth accounting*:
//!
//! * [`machine::Cost`] — the `(work, depth)` semiring: sequential
//!   composition adds both; parallel composition adds work and takes the
//!   max depth.
//! * [`primitives`] — `par_map`, tree `par_reduce`, Blelloch `par_scan`
//!   (prefix sums), `par_filter`: O(log n)-depth building blocks.
//! * [`sort`] — parallel merge sort (rank-based parallel merge):
//!   O(log² n) depth.
//! * [`listrank`] — pointer jumping list ranking: O(log n) rounds.
//! * [`matrix`] — packed Boolean matrices, O(log n)-depth multiply, and
//!   transitive closure by repeated squaring: O(log² n) depth — the
//!   standard witness that reachability (Example 3 of the paper, the
//!   NL-complete GAP problem) is in NC.
//!
//! Every algorithm returns its result **and** its [`machine::Cost`], and the
//! test suite asserts the polylog depth bounds mechanically — this is how
//! the workspace *checks*, rather than assumes, the "NC side" of each
//! Π-tractability scheme (experiment E14).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod connectivity;
pub mod listrank;
pub mod machine;
pub mod matrix;
pub mod primitives;
pub mod sort;

pub use machine::{brent_time, Cost};
