//! # pitract-core — a framework for Π-tractability
//!
//! This crate is the executable core of *"Making Queries Tractable on Big
//! Data with Preprocessing (through the eyes of complexity theory)"*
//! (Fan, Geerts, Neven — PVLDB 6(9), 2013).
//!
//! The paper studies query classes that become feasible on very large data
//! once a **one-time PTIME preprocessing step** is allowed, after which every
//! query is answered in **NC** (parallel polylog time). This crate turns the
//! paper's definitions into values and traits that the rest of the workspace
//! instantiates with concrete data structures:
//!
//! * [`lang::PairLanguage`] — a language of pairs `S ⊆ Σ* × Σ*` encoding a
//!   Boolean query class (Section 3, "Notations").
//! * [`factor::Factorization`] — a triple `Υ = (π₁, π₂, ρ)` splitting a
//!   problem instance into a data part and a query part (Section 3).
//! * [`scheme::Scheme`] — a Π-tractability witness: a preprocessing function
//!   `Π(·)` plus a fast answering function, with declared cost classes
//!   (Definition 1).
//! * [`reduce::FReduction`] and [`reduce::FactorReduction`] — the paper's two
//!   reduction notions `≤NC_F` (Definition 7) and `≤NC_fa` (Definition 4),
//!   including the constructive contents of Lemma 2 (transitivity via
//!   padding), Lemma 3 (compatibility with ΠTP) and Lemma 8.
//! * [`cost`] — step meters and symbolic cost classes, so tests can check
//!   "O(log n) after preprocessing" claims mechanically.
//! * [`fit`] — least-squares growth-curve classification used by the
//!   benchmark harness to label measured scaling behaviour.
//! * [`encode`] — Σ*-style byte encodings giving every data/query value a
//!   well-defined size `|D|`, `|Q|`, plus the unambiguous pairing that
//!   replaces the paper's `@` padding symbol.
//!
//! The crate is deliberately free of data-structure implementations: B⁺-trees,
//! RMQ/LCA structures, graphs, circuits and so on live in sibling crates and
//! plug into these traits.
//!
//! ## Map from paper to code
//!
//! | Paper | Code |
//! |---|---|
//! | language of pairs `S` | [`lang::PairLanguage`], [`lang::FnPairLanguage`] |
//! | decision problem `L` | [`problem::DecisionProblem`], [`problem::FnProblem`] |
//! | factorization `Υ = (π₁, π₂, ρ)` | [`factor::FnFactorization`] |
//! | `S(L,Υ)` | [`problem::induced_pair_language`] |
//! | Π-tractable (Def. 1) | [`scheme::Scheme`] + [`scheme::Scheme::verify_against`] |
//! | `≤NC_F` (Def. 7) | [`reduce::FReduction`] |
//! | `≤NC_fa` (Def. 4) | [`reduce::FactorReduction`] |
//! | Lemma 2 padding proof | [`reduce::FactorReduction::compose`] |
//! | Lemma 3 transfer | [`reduce::FactorReduction::transfer`], [`reduce::FReduction::transfer`] |
//! | Proposition 1 | [`factor::Factorization::check_roundtrip`] |

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod encode;
pub mod epoch;
pub mod factor;
pub mod fit;
pub mod hash;
pub mod lang;
pub mod lockdep;
pub mod problem;
pub mod reduce;
pub mod scheme;
pub mod search;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::cost::{CostClass, Meter};
    pub use crate::encode::{Encode, Encoded};
    pub use crate::epoch::Epoch;
    pub use crate::factor::{Factorization, FnFactorization};
    pub use crate::fit::{best_fit, FitModel, Sample};
    pub use crate::lang::{FnPairLanguage, PairLanguage};
    pub use crate::lockdep::{LockRank, OrderedMutex, OrderedRwLock};
    pub use crate::problem::{induced_pair_language, DecisionProblem, FnProblem};
    pub use crate::reduce::{FReduction, FactorReduction};
    pub use crate::scheme::Scheme;
    pub use crate::search::SearchScheme;
}
