//! # pitract-kernel — parameterized preprocessing: Vertex Cover
//!
//! Section 4(9) of the paper: VC is NP-complete, hence (Corollary 7) it can
//! never be made Π-tractable — **unless the parameter K is fixed**, in
//! which case Buss kernelization preprocesses an instance in O(|E|) down to
//! a kernel whose size depends only on K, and deciding the kernel is O(1)
//! with respect to |G|. That is the paper's bridge between its framework
//! and parameterized complexity [Flum & Grohe]; experiment E12 measures
//! the query time staying flat as |G| grows for fixed K.
//!
//! Modules:
//!
//! * [`vc`] — the problem itself: cover checking, brute-force and
//!   bounded-search-tree exact solvers, greedy 2-approximation.
//! * [`buss`] — the kernelization: high-degree rule + isolated-vertex
//!   rule + edge-count cutoff, with the `≤ K²` edge / `≤ K²+K` vertex
//!   kernel bound asserted in tests, and the end-to-end
//!   `solve_via_kernel` pipeline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod buss;
pub mod vc;
