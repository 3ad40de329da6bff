//! # pitract-circuit — Boolean circuits and the Circuit Value Problem
//!
//! CVP ("is output y of circuit α true on inputs x₁…xₙ?") is the paper's
//! chosen P-complete problem, and it does double duty:
//!
//! * **Theorem 9's witness.** Under the factorization `Υ₀` that leaves
//!   *nothing* to preprocess (`π₁(x) = ε`), CVP cannot be Π-tractable
//!   unless P = NC: any preprocessing of the empty string is a constant,
//!   so the answering step faces the whole P-complete instance online.
//!   [`factor::upsilon0_scheme`] models this honestly — its per-query cost
//!   grows with circuit size, and its cost annotations *fail*
//!   `claims_pi_tractable`.
//! * **Corollary 6's promise.** Re-factorized so the circuit-plus-inputs
//!   is the data part and the designated gate is the query,
//!   CVP becomes Π-tractable: preprocess by evaluating every gate once
//!   (PTIME), then answer any gate query in O(1)
//!   ([`factor::gate_table_scheme`]).
//!
//! Experiment E11 measures the two factorizations side by side; the
//! `pitract-reductions` crate reuses these schemes for the Lemma 3 /
//! `make_tractable` demonstrations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod circuit;
pub mod factor;
pub mod generate;
pub mod simplify;

pub use circuit::{Circuit, CircuitError, Gate};
