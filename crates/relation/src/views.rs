//! Query answering using views — Section 4(6) of the paper.
//!
//! "Given a query Q ∈ Q and a set V of view definitions, reformulate Q into
//! Q′ such that Q and Q′ are equivalent and Q′ refers only to V and its
//! extensions V(D)." The paper's tractability conditions: (a) the views are
//! materialized in PTIME (here: one scan per view), and (b) Q(D) is
//! computed from V(D) alone — which is fast exactly when V(D) ≪ D, the
//! effect E9 measures.
//!
//! Views here are single-column range selections (the shape that covers
//! the paper's Q₁ and range classes); covering is decided syntactically by
//! bound containment — the rewriting function λ of the remark below
//! Definition 1 is [`ViewSet::rewrite`], which returns both the chosen
//! view and the (unchanged) residual query to run against it.

use crate::columns::RowRef;
use crate::query::SelectionQuery;
use crate::relation::Relation;
use crate::value::Value;
use pitract_core::cost::Meter;
use std::ops::Bound;

/// A materialized single-column range view: `V = σ_{lo ≤ col ≤ hi}(D)`.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    name: String,
    col: usize,
    lo: Bound<Value>,
    hi: Bound<Value>,
    /// The extension V(D), kept as plain rows (scans over it are already
    /// |V(D)|-bounded; callers wanting polylog probes can index the view).
    rows: Vec<Vec<Value>>,
}

impl MaterializedView {
    /// Define and materialize a view over a base relation (one PTIME scan).
    pub fn materialize(
        name: impl Into<String>,
        base: &Relation,
        col: usize,
        lo: Bound<Value>,
        hi: Bound<Value>,
    ) -> Self {
        let def = SelectionQuery::Range {
            col,
            lo: lo.clone(),
            hi: hi.clone(),
        };
        let rows = base
            .rows()
            .filter(|&r| def.matches(r))
            .map(RowRef::to_vec)
            .collect();
        MaterializedView {
            name: name.into(),
            col,
            lo,
            hi,
            rows,
        }
    }

    /// View name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of materialized tuples |V(D)|.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the extension empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The view definition as a query.
    pub fn definition(&self) -> SelectionQuery {
        SelectionQuery::Range {
            col: self.col,
            lo: self.lo.clone(),
            hi: self.hi.clone(),
        }
    }

    /// Does this view's region contain the query's region (same column)?
    /// A contained query can be answered from the extension alone.
    pub fn covers(&self, q: &SelectionQuery) -> bool {
        match q {
            SelectionQuery::Point { col, value } => {
                *col == self.col && self.definition().matches_value(value)
            }
            SelectionQuery::Range { col, lo, hi } => {
                *col == self.col
                    && bound_ge(lo, &self.lo) // query lower bound at/above view's
                    && bound_le(hi, &self.hi) // query upper bound at/below view's
            }
            // Conjunctions are covered when either conjunct is: the view
            // retains whole tuples, so the residual conjunct can still be
            // verified on the materialized rows.
            SelectionQuery::And(a, b) => self.covers(a) || self.covers(b),
        }
    }

    /// Evaluate a covered query against the extension, metered per tuple.
    pub fn answer_metered(&self, q: &SelectionQuery, meter: &Meter) -> bool {
        for row in &self.rows {
            meter.tick();
            if q.matches(row) {
                return true;
            }
        }
        false
    }

    /// Incremental view maintenance: apply a base-relation insert.
    pub fn on_insert(&mut self, row: &[Value]) {
        if self.definition().matches(row) {
            self.rows.push(row.to_vec());
        }
    }

    /// Incremental view maintenance: apply a base-relation delete.
    pub fn on_delete(&mut self, row: &[Value]) {
        if let Some(pos) = self.rows.iter().position(|r| r[..] == *row) {
            self.rows.swap_remove(pos);
        }
    }
}

impl SelectionQuery {
    /// Does a single value fall inside this (single-column) query's region?
    /// Only meaningful for `Point`/`Range`; conjunctions recurse.
    pub(crate) fn matches_value(&self, v: &Value) -> bool {
        match self {
            SelectionQuery::Point { value, .. } => v == value,
            SelectionQuery::Range { lo, hi, .. } => {
                (match lo {
                    Bound::Unbounded => true,
                    Bound::Included(l) => v >= l,
                    Bound::Excluded(l) => v > l,
                }) && (match hi {
                    Bound::Unbounded => true,
                    Bound::Included(h) => v <= h,
                    Bound::Excluded(h) => v < h,
                })
            }
            SelectionQuery::And(a, b) => a.matches_value(v) && b.matches_value(v),
        }
    }
}

/// Is lower bound `a` at-or-above lower bound `b`?
fn bound_ge(a: &Bound<Value>, b: &Bound<Value>) -> bool {
    match (a, b) {
        (_, Bound::Unbounded) => true,
        (Bound::Unbounded, _) => false,
        (Bound::Included(x), Bound::Included(y)) => x >= y,
        (Bound::Excluded(x), Bound::Included(y)) => x >= y,
        (Bound::Included(x), Bound::Excluded(y)) => x > y,
        (Bound::Excluded(x), Bound::Excluded(y)) => x >= y,
    }
}

/// Is upper bound `a` at-or-below upper bound `b`?
fn bound_le(a: &Bound<Value>, b: &Bound<Value>) -> bool {
    match (a, b) {
        (_, Bound::Unbounded) => true,
        (Bound::Unbounded, _) => false,
        (Bound::Included(x), Bound::Included(y)) => x <= y,
        (Bound::Excluded(x), Bound::Included(y)) => x <= y,
        (Bound::Included(x), Bound::Excluded(y)) => x < y,
        (Bound::Excluded(x), Bound::Excluded(y)) => x <= y,
    }
}

/// The outcome of view-based rewriting.
#[derive(Debug)]
pub enum Rewrite<'a> {
    /// Query answered from this view (λ(Q) = Q targeted at the view).
    Covered(&'a MaterializedView),
    /// No view covers the query; the caller must fall back to the base.
    NoCoveringView,
}

/// A set of materialized views with rewriting and maintenance.
#[derive(Debug, Default)]
pub struct ViewSet {
    views: Vec<MaterializedView>,
}

impl ViewSet {
    /// Empty view set.
    pub fn new() -> Self {
        ViewSet::default()
    }

    /// Register a materialized view.
    pub fn add(&mut self, view: MaterializedView) {
        self.views.push(view);
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The rewriting function λ: pick the smallest covering view.
    pub fn rewrite(&self, q: &SelectionQuery) -> Rewrite<'_> {
        self.views
            .iter()
            .filter(|v| v.covers(q))
            .min_by_key(|v| v.len())
            .map_or(Rewrite::NoCoveringView, Rewrite::Covered)
    }

    /// Answer using views only; `Err` when no view covers the query (the
    /// caller decides whether to scan the base or reject).
    #[allow(clippy::result_unit_err)] // Err carries no info beyond "not covered"
    pub fn answer_metered(&self, q: &SelectionQuery, meter: &Meter) -> Result<bool, ()> {
        match self.rewrite(q) {
            Rewrite::Covered(v) => Ok(v.answer_metered(q, meter)),
            Rewrite::NoCoveringView => Err(()),
        }
    }

    /// How many views' extensions would a row change (their definitions
    /// match it)? Used by |CHANGED|-accounted maintenance.
    pub fn affected_by(&self, row: &[Value]) -> usize {
        self.views
            .iter()
            .filter(|v| v.definition().matches(row))
            .count()
    }

    /// Propagate a base insert to every view.
    pub fn on_insert(&mut self, row: &[Value]) {
        for v in &mut self.views {
            v.on_insert(row);
        }
    }

    /// Propagate a base delete to every view.
    pub fn on_delete(&mut self, row: &[Value]) {
        for v in &mut self.views {
            v.on_delete(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, Schema};

    fn base(n: i64) -> Relation {
        let schema = Schema::new(&[("id", ColType::Int), ("tier", ColType::Str)]);
        let rows = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i % 100 == 0 { "gold" } else { "basic" }),
                ]
            })
            .collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    fn id_view(rel: &Relation, lo: i64, hi: i64) -> MaterializedView {
        MaterializedView::materialize(
            format!("ids_{lo}_{hi}"),
            rel,
            0,
            Bound::Included(Value::Int(lo)),
            Bound::Included(Value::Int(hi)),
        )
    }

    #[test]
    fn materialization_selects_the_region() {
        let rel = base(1000);
        let v = id_view(&rel, 100, 199);
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn covering_is_bound_containment() {
        let rel = base(1000);
        let v = id_view(&rel, 100, 199);
        assert!(v.covers(&SelectionQuery::point(0, 150i64)));
        assert!(!v.covers(&SelectionQuery::point(0, 50i64)));
        assert!(v.covers(&SelectionQuery::range_closed(0, 120i64, 130i64)));
        assert!(!v.covers(&SelectionQuery::range_closed(0, 180i64, 220i64)));
        assert!(!v.covers(&SelectionQuery::point(1, "gold")), "wrong column");
        // Conjunction covered through its first conjunct.
        assert!(v.covers(&SelectionQuery::and(
            SelectionQuery::point(0, 150i64),
            SelectionQuery::point(1, "basic"),
        )));
    }

    #[test]
    fn view_answers_agree_with_base_scans() {
        let rel = base(2000);
        let v = id_view(&rel, 0, 999);
        let meter = Meter::new();
        let queries = [
            SelectionQuery::point(0, 500i64),
            SelectionQuery::range_closed(0, 10i64, 20i64),
            SelectionQuery::and(
                SelectionQuery::point(0, 100i64),
                SelectionQuery::point(1, "gold"),
            ),
            SelectionQuery::and(
                SelectionQuery::point(0, 101i64),
                SelectionQuery::point(1, "gold"),
            ),
        ];
        for q in &queries {
            assert!(v.covers(q), "{q:?}");
            assert_eq!(v.answer_metered(q, &meter), rel.eval_scan(q), "{q:?}");
        }
    }

    #[test]
    fn view_scan_is_cheaper_than_base_scan() {
        let rel = base(10_000);
        let v = id_view(&rel, 0, 99);
        let meter = Meter::new();
        // A miss inside the region: the view scans 100 rows, base 10 000.
        let q = SelectionQuery::and(
            SelectionQuery::range_closed(0, 0i64, 99i64),
            SelectionQuery::point(1, "platinum"),
        );
        v.answer_metered(&q, &meter);
        let view_cost = meter.take();
        rel.eval_scan_metered(&q, &meter);
        let base_cost = meter.take();
        assert!(view_cost <= 100);
        assert_eq!(base_cost, 10_000);
    }

    #[test]
    fn viewset_rewrites_to_smallest_covering_view() {
        let rel = base(1000);
        let mut vs = ViewSet::new();
        vs.add(id_view(&rel, 0, 999));
        vs.add(id_view(&rel, 100, 199));
        let q = SelectionQuery::point(0, 150i64);
        match vs.rewrite(&q) {
            Rewrite::Covered(v) => assert_eq!(v.name(), "ids_100_199"),
            Rewrite::NoCoveringView => panic!("query should be covered"),
        }
        let uncovered = SelectionQuery::point(0, 5000i64);
        // 5000 is outside every region? ids_0_999 covers points 0..=999 only.
        assert!(matches!(vs.rewrite(&uncovered), Rewrite::NoCoveringView));
    }

    #[test]
    fn viewset_answer_falls_back_with_err() {
        let rel = base(100);
        let mut vs = ViewSet::new();
        vs.add(id_view(&rel, 0, 49));
        let meter = Meter::new();
        assert_eq!(
            vs.answer_metered(&SelectionQuery::point(0, 10i64), &meter),
            Ok(true)
        );
        assert_eq!(
            vs.answer_metered(&SelectionQuery::point(0, 90i64), &meter),
            Err(())
        );
    }

    #[test]
    fn incremental_maintenance_tracks_base_changes() {
        let rel = base(100);
        let mut vs = ViewSet::new();
        vs.add(id_view(&rel, 0, 49));
        let meter = Meter::new();

        let new_row = vec![Value::Int(25), Value::str("gold")];
        vs.on_insert(&new_row);
        let q = SelectionQuery::and(
            SelectionQuery::point(0, 25i64),
            SelectionQuery::point(1, "gold"),
        );
        assert_eq!(vs.answer_metered(&q, &meter), Ok(true));

        vs.on_delete(&new_row);
        assert_eq!(vs.answer_metered(&q, &meter), Ok(false));

        // Inserts outside the region don't grow the view.
        let outside = vec![Value::Int(90), Value::str("gold")];
        vs.on_insert(&outside);
        assert_eq!(
            vs.answer_metered(&SelectionQuery::point(0, 90i64), &meter),
            Err(()),
            "outside rows must not sneak into covered answering"
        );
    }

    #[test]
    fn unbounded_view_covers_everything_on_its_column() {
        let rel = base(100);
        let v = MaterializedView::materialize("all", &rel, 0, Bound::Unbounded, Bound::Unbounded);
        assert_eq!(v.len(), 100);
        assert!(v.covers(&SelectionQuery::point(0, -5i64)));
        assert!(v.covers(&SelectionQuery::range_closed(0, 0i64, 1_000_000i64)));
    }
}
