//! # pitract-relation — the relational substrate of Example 1
//!
//! The paper opens with the class **Q₁ of point-selection queries**: does
//! relation `D` contain a tuple `t` with `t[A] = c`? Its running argument —
//! a linear scan of 1 PB takes 1.9 days, a B⁺-tree probe takes seconds —
//! is the E1 experiment, and this crate supplies everything it needs:
//!
//! * [`value::Value`] / [`schema::Schema`] — a small typed value and
//!   schema layer (ints and strings; enough for every workload the paper
//!   sketches, with validation at row-insert time).
//! * [`relation::Relation`] — plain relations with scan-based
//!   (no-preprocessing) query evaluation, metered per comparison. Their
//!   rows live in typed columns ([`columns::Columns`], the crate's one
//!   row store), filled straight from the caller's rows.
//! * [`query::SelectionQuery`] — the Boolean query classes of Section
//!   4(1): point selections, range selections, and conjunctions.
//! * [`indexed::IndexedRelation`] — the preprocessed form: per-column
//!   B⁺-tree secondary indexes with O(log n) Boolean answers and
//!   incremental maintenance under inserts/deletes (the paper's
//!   "incremental preprocessing" requirement), over rows stored as typed
//!   columns ([`columns`]) and read through borrowed [`RowRef`]s.
//! * [`views::ViewSet`] — Section 4(6) "query answering using views":
//!   materialized selection views, a query-rewriting function λ(·) that
//!   routes queries to a covering view, and incremental view maintenance.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod columns;
pub mod indexed;
pub mod join;
pub mod query;
pub mod relation;
pub mod schema;
pub mod value;
pub mod views;

pub use columns::{Columns, RowRef, Tuple};
pub use indexed::{IndexedError, IndexedRelation};
pub use query::SelectionQuery;
pub use relation::Relation;
pub use schema::{ColType, Schema};
pub use value::{Value, ValueRef};
