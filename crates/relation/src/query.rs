//! Boolean selection query classes — Section 4(1) of the paper.
//!
//! * **Point selection** (the class Q₁ of Example 1): is there a tuple with
//!   `t[A] = c`?
//! * **Range selection**: is there a tuple with `c₁ ≤ t[A] ≤ c₂`?
//! * **Conjunction**: both of the above on (possibly) different columns —
//!   closed under the rewriting used by the views case study.
//!
//! Queries reference columns by index; [`SelectionQuery::validate`] checks
//! them against a schema before evaluation, so malformed queries fail
//! loudly instead of silently returning false.

use crate::columns::Tuple;
use crate::schema::Schema;
use crate::value::Value;
use std::ops::Bound;

/// A Boolean selection query.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectionQuery {
    /// `∃t : t[col] = value`.
    Point {
        /// Column index.
        col: usize,
        /// The constant `c`.
        value: Value,
    },
    /// `∃t : lo ≤ t[col] ≤ hi` (bounds as given).
    Range {
        /// Column index.
        col: usize,
        /// Lower bound.
        lo: Bound<Value>,
        /// Upper bound.
        hi: Bound<Value>,
    },
    /// Both sub-queries are witnessed **by the same tuple**.
    And(Box<SelectionQuery>, Box<SelectionQuery>),
}

impl SelectionQuery {
    /// Convenience constructor: point selection.
    pub fn point(col: usize, value: impl Into<Value>) -> Self {
        SelectionQuery::Point {
            col,
            value: value.into(),
        }
    }

    /// Convenience constructor: closed-interval range selection.
    pub fn range_closed(col: usize, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        SelectionQuery::Range {
            col,
            lo: Bound::Included(lo.into()),
            hi: Bound::Included(hi.into()),
        }
    }

    /// Convenience constructor: conjunction.
    pub fn and(a: SelectionQuery, b: SelectionQuery) -> Self {
        SelectionQuery::And(Box::new(a), Box::new(b))
    }

    /// Check column references and type compatibility against a schema.
    pub fn validate(&self, schema: &Schema) -> Result<(), String> {
        match self {
            SelectionQuery::Point { col, value } => {
                if *col >= schema.arity() {
                    return Err(format!("column {col} out of range"));
                }
                if !schema.col_type(*col).admits(value) {
                    return Err(format!(
                        "point value {value} has wrong type for column {:?}",
                        schema.name(*col)
                    ));
                }
                Ok(())
            }
            SelectionQuery::Range { col, lo, hi } => {
                if *col >= schema.arity() {
                    return Err(format!("column {col} out of range"));
                }
                for b in [lo, hi] {
                    if let Bound::Included(v) | Bound::Excluded(v) = b {
                        if !schema.col_type(*col).admits(v) {
                            return Err(format!(
                                "range bound {v} has wrong type for column {:?}",
                                schema.name(*col)
                            ));
                        }
                    }
                }
                Ok(())
            }
            SelectionQuery::And(a, b) => {
                a.validate(schema)?;
                b.validate(schema)
            }
        }
    }

    /// Does a single tuple satisfy the query? The tuple is a row of
    /// owned values (`&[Value]`, `&Vec<Value>`) or a [`RowRef`] into
    /// column storage; both compare cells as [`ValueRef`]s, in
    /// [`Value`]'s order.
    ///
    /// [`RowRef`]: crate::columns::RowRef
    /// [`ValueRef`]: crate::value::ValueRef
    pub fn matches(&self, tuple: impl Tuple) -> bool {
        match self {
            SelectionQuery::Point { col, value } => tuple.cell(*col) == value.as_ref(),
            SelectionQuery::Range { col, lo, hi } => {
                let v = tuple.cell(*col);
                let above = match lo {
                    Bound::Unbounded => true,
                    Bound::Included(l) => v >= l.as_ref(),
                    Bound::Excluded(l) => v > l.as_ref(),
                };
                let below = match hi {
                    Bound::Unbounded => true,
                    Bound::Included(h) => v <= h.as_ref(),
                    Bound::Excluded(h) => v < h.as_ref(),
                };
                above && below
            }
            SelectionQuery::And(a, b) => a.matches(tuple) && b.matches(tuple),
        }
    }

    /// Flatten the conjunction tree into its leaf conjuncts, left to right.
    ///
    /// A `Point`/`Range` query is its own single conjunct; nested `And`s of
    /// any shape — `And(And(p, q), r)`, `And(p, And(q, r))` — flatten to the
    /// same leaf list. (Index routing does not allocate this list: it
    /// walks the tree with [`Self::driving_conjunct`].)
    pub fn conjuncts(&self) -> Vec<&SelectionQuery> {
        let mut out = Vec::new();
        self.collect_conjuncts(&mut out);
        out
    }

    fn collect_conjuncts<'a>(&'a self, out: &mut Vec<&'a SelectionQuery>) {
        match self {
            SelectionQuery::And(a, b) => {
                a.collect_conjuncts(out);
                b.collect_conjuncts(out);
            }
            leaf => out.push(leaf),
        }
    }

    /// The conjunct an index-nested-loop drives through: the first leaf
    /// (left to right) that is a point selection on an `indexed` column,
    /// else the first that is a range selection on one. One walk of the
    /// `And` tree, no allocation — the single routing policy shared by
    /// `IndexedRelation`'s executor and the `pitract-engine` planner.
    pub fn driving_conjunct(&self, indexed: &impl Fn(usize) -> bool) -> Option<&SelectionQuery> {
        let mut first_range = None;
        self.first_indexed_point(indexed, &mut first_range)
            .or(first_range)
    }

    fn first_indexed_point<'a>(
        &'a self,
        indexed: &impl Fn(usize) -> bool,
        first_range: &mut Option<&'a SelectionQuery>,
    ) -> Option<&'a SelectionQuery> {
        match self {
            SelectionQuery::And(a, b) => a
                .first_indexed_point(indexed, first_range)
                .or_else(|| b.first_indexed_point(indexed, first_range)),
            SelectionQuery::Point { col, .. } if indexed(*col) => Some(self),
            SelectionQuery::Range { col, .. } if indexed(*col) => {
                first_range.get_or_insert(self);
                None
            }
            _ => None,
        }
    }

    /// All columns the query touches (used by index routing and views).
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            SelectionQuery::Point { col, .. } | SelectionQuery::Range { col, .. } => out.push(*col),
            SelectionQuery::And(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColType;

    fn schema() -> Schema {
        Schema::new(&[("id", ColType::Int), ("city", ColType::Str)])
    }

    #[test]
    fn point_matches_equal_cells() {
        let q = SelectionQuery::point(0, 7i64);
        assert!(q.matches(&[Value::Int(7), Value::str("x")]));
        assert!(!q.matches(&[Value::Int(8), Value::str("x")]));
    }

    #[test]
    fn range_bound_combinations() {
        let t = [Value::Int(5), Value::str("x")];
        assert!(SelectionQuery::range_closed(0, 5i64, 5i64).matches(&t));
        assert!(SelectionQuery::Range {
            col: 0,
            lo: Bound::Excluded(Value::Int(4)),
            hi: Bound::Unbounded,
        }
        .matches(&t));
        assert!(!SelectionQuery::Range {
            col: 0,
            lo: Bound::Excluded(Value::Int(5)),
            hi: Bound::Unbounded,
        }
        .matches(&t));
        assert!(!SelectionQuery::Range {
            col: 0,
            lo: Bound::Unbounded,
            hi: Bound::Excluded(Value::Int(5)),
        }
        .matches(&t));
    }

    #[test]
    fn and_requires_one_witnessing_tuple() {
        let q = SelectionQuery::and(
            SelectionQuery::point(0, 1i64),
            SelectionQuery::point(1, "rome"),
        );
        assert!(q.matches(&[Value::Int(1), Value::str("rome")]));
        assert!(!q.matches(&[Value::Int(1), Value::str("oslo")]));
    }

    #[test]
    fn validate_catches_bad_columns_and_types() {
        let s = schema();
        assert!(SelectionQuery::point(0, 1i64).validate(&s).is_ok());
        assert!(SelectionQuery::point(5, 1i64).validate(&s).is_err());
        assert!(SelectionQuery::point(0, "str").validate(&s).is_err());
        assert!(SelectionQuery::range_closed(1, 1i64, 2i64)
            .validate(&s)
            .is_err());
        let nested_bad = SelectionQuery::and(
            SelectionQuery::point(0, 1i64),
            SelectionQuery::point(9, 1i64),
        );
        assert!(nested_bad.validate(&s).is_err());
    }

    #[test]
    fn conjuncts_flatten_every_and_shape() {
        let p = SelectionQuery::point(0, 1i64);
        let q = SelectionQuery::point(1, "a");
        let r = SelectionQuery::range_closed(0, 1i64, 2i64);
        let left_deep = SelectionQuery::and(SelectionQuery::and(p.clone(), q.clone()), r.clone());
        let right_deep = SelectionQuery::and(p.clone(), SelectionQuery::and(q.clone(), r.clone()));
        let expect = vec![&p, &q, &r];
        assert_eq!(left_deep.conjuncts(), expect);
        assert_eq!(right_deep.conjuncts(), expect);
        assert_eq!(p.conjuncts(), vec![&p], "a leaf is its own conjunct");
    }

    /// The non-allocating walk picks exactly what a search of the
    /// flattened conjunct list picks, in every tree shape.
    #[test]
    fn driving_conjunct_prefers_the_first_indexed_point_then_range() {
        let p0 = SelectionQuery::point(0, 1i64);
        let p1 = SelectionQuery::point(1, "a");
        let r0 = SelectionQuery::range_closed(0, 1i64, 2i64);
        let r2 = SelectionQuery::range_closed(2, 1i64, 2i64);
        let shapes = [
            SelectionQuery::and(SelectionQuery::and(r0.clone(), p1.clone()), p0.clone()),
            SelectionQuery::and(r0.clone(), SelectionQuery::and(p1.clone(), p0.clone())),
            SelectionQuery::and(
                SelectionQuery::and(r2.clone(), r0.clone()),
                SelectionQuery::and(p1.clone(), p0.clone()),
            ),
            p0.clone(),
            r0.clone(),
        ];
        for q in &shapes {
            for cols in [&[][..], &[0], &[1], &[2], &[0, 1], &[0, 2], &[0, 1, 2]] {
                let indexed = |c: usize| cols.contains(&c);
                let leaves = q.conjuncts();
                let oracle = leaves
                    .iter()
                    .find(|c| matches!(c, SelectionQuery::Point { col, .. } if indexed(*col)))
                    .or_else(|| {
                        leaves.iter().find(
                            |c| matches!(c, SelectionQuery::Range { col, .. } if indexed(*col)),
                        )
                    })
                    .copied();
                assert_eq!(q.driving_conjunct(&indexed), oracle, "{q:?} on {cols:?}");
            }
        }
    }

    #[test]
    fn columns_are_collected_and_deduped() {
        let q = SelectionQuery::and(
            SelectionQuery::point(1, "a"),
            SelectionQuery::and(
                SelectionQuery::range_closed(0, 1i64, 2i64),
                SelectionQuery::point(1, "b"),
            ),
        );
        assert_eq!(q.columns(), vec![0, 1]);
    }
}
