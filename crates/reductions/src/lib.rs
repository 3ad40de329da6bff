//! # pitract-reductions — the paper's reductions, made concrete
//!
//! Sections 5–7 of the paper are about *transformations between query
//! classes*: F-reductions `≤NC_F` preserve the data/query split, NC-factor
//! reductions `≤NC_fa` may re-factorize, and together with Lemma 3 they
//! carry Π-tractability schemes from one class to another. This crate
//! instantiates that machinery on the workspace's real query classes:
//!
//! | reduction | kind | paper hook |
//! |---|---|---|
//! | [`list_to_selection`] ListSearch → PointSelection | `≤NC_F` | Ex. 4: L_s and Q₁ are the same class in two outfits |
//! | [`point_to_range`] PointSelection → RangeSelection | `≤NC_F` | §4(1): point = degenerate range |
//! | [`rmq_lca`] RMQ → tree LCA (Cartesian tree) | `≤NC_fa` | §4(3)↔(4): the classic equivalence, data side |
//! | [`lca_to_rmq`] tree LCA → RMQ (Euler tour) | `≤NC_fa` | §4(4): Bender et al.'s route |
//! | [`connectivity_to_bds`] source-connectivity → BDS | `≤NC_fa` | Theorem 5's flavor: reducing *into* the complete problem |
//! | [`cvp_refactor`] CVP@Υ₀ → CVP@Υ_gate | `make_tractable` | Corollary 6 executed: a class that is not Π-tractable as factored becomes so after re-factorization |
//!
//! Every reduction is **verified** (both sides of the iff on randomized
//! probes) and **exercised** (the target's Π-tractability scheme is
//! transferred backwards and shown to answer the source class) — the
//! constructive content of Lemmas 2, 3, 8 and Corollary 6, running in CI
//! rather than sitting in prose.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod connectivity_to_bds;
pub mod cvp_refactor;
pub mod lca_to_rmq;
pub mod list_to_selection;
pub mod point_to_range;
pub mod rmq_lca;
