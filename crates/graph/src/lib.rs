//! # pitract-graph — the graph substrate behind BDS, reachability and
//! query-preserving compression
//!
//! Three of the paper's central artifacts are graph problems:
//!
//! * **Breadth-Depth Search (BDS)** — Example 2, the P-complete problem
//!   shown ΠTP-complete under `≤NC_fa` (Theorem 5). [`bds`] implements the
//!   search itself (the "preprocess nothing" factorization Υ′ of Figure 1,
//!   which must re-run the full PTIME search per query) and the
//!   preprocessed visit-order index of Example 5 (the Υ_BDS factorization:
//!   O(1)/O(log n) per query).
//! * **Reachability** — Example 3, the NL-complete GAP problem: [`reach`]
//!   provides the per-query BFS baseline and the all-pairs closure index
//!   ("answer all queries in O(1) time by using the matrix").
//! * **Query-preserving compression** — Section 4(5) [Fan et al.]:
//!   [`compress`] collapses strongly connected components and merges
//!   reachability-equivalent nodes, producing a smaller graph that answers
//!   *exactly* the same reachability queries.
//!
//! Supporting modules: [`repr`] (adjacency representation), [`traverse`]
//! (BFS/DFS/components), [`scc`] (Tarjan condensation), [`generate`]
//! (workload generators for every experiment).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod bds;
pub mod compress;
pub mod generate;
pub mod grail;
pub mod hop;
pub mod reach;
pub mod repr;
pub mod scc;
pub mod traverse;

pub use repr::Graph;
