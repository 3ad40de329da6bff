//! Incremental view maintenance with |CHANGED| accounting — where the
//! paper's Sections 4(6) and 4(7) meet.
//!
//! A materialized view is preprocessed state `Π(D)`; under updates ΔD the
//! paper wants `ΔΠ` computed at a cost governed by the change, not by |D|.
//! For single-column range views this is genuinely bounded: deciding
//! whether a new row belongs to a view is O(1) per view, and |ΔO| is the
//! number of view extensions that actually change. [`MaintainedViews`]
//! wraps a `ViewSet` with [`UpdateRecord`] bookkeeping so E10-style
//! boundedness verdicts extend to the views case study.

use crate::bounded::{BoundednessReport, UpdateRecord};
use pitract_relation::value::Value;
use pitract_relation::views::{MaterializedView, ViewSet};

/// A view set whose maintenance is |CHANGED|-accounted.
#[derive(Debug, Default)]
pub struct MaintainedViews {
    views: ViewSet,
    view_count: u64,
    report: BoundednessReport,
}

impl MaintainedViews {
    /// Empty maintained set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a materialized view.
    pub fn add(&mut self, view: MaterializedView) {
        self.views.add(view);
        self.view_count += 1;
    }

    /// The underlying view set (for query answering).
    pub fn views(&self) -> &ViewSet {
        &self.views
    }

    /// Apply a base insert: each view pays one membership test; views the
    /// row belongs to also pay one append (the |ΔO| part).
    pub fn on_insert(&mut self, row: &[Value]) {
        let delta_output = self.count_affected(row);
        self.views.on_insert(row);
        self.report.push(UpdateRecord {
            delta_input: 1,
            delta_output,
            // One predicate test per view plus one append per affected view.
            work: self.view_count + delta_output,
        });
    }

    /// Apply a base delete (mirrors [`MaintainedViews::on_insert`]).
    ///
    /// Deletion inside a view uses swap-remove: O(1) once the row is
    /// located; locating costs up to |V(D)| in this implementation, which
    /// the record reports honestly (a production system would keep a
    /// per-view row index to make this O(1) too).
    pub fn on_delete(&mut self, row: &[Value], located_cost: u64) {
        let delta_output = self.count_affected(row);
        self.views.on_delete(row);
        self.report.push(UpdateRecord {
            delta_input: 1,
            delta_output,
            work: self.view_count + delta_output + located_cost,
        });
    }

    fn count_affected(&self, row: &[Value]) -> u64 {
        // Count views whose definition matches the row (those will change).
        // ViewSet doesn't expose iteration; replicate via rewriting: a
        // point query on the row's first column covered by a view whose
        // definition matches the row is a good proxy — instead we simply
        // re-run the membership predicate through on_insert semantics.
        // For accounting we conservatively test with the definitions via
        // the public covers() API using a degenerate range query.
        self.views.affected_by(row) as u64
    }

    /// The |CHANGED| accounting of the maintenance run.
    pub fn report(&self) -> &BoundednessReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitract_core::cost::Meter;
    use pitract_relation::{ColType, Relation, Schema, SelectionQuery};
    use std::ops::Bound;

    fn setup() -> (Relation, MaintainedViews) {
        let schema = Schema::new(&[("ts", ColType::Int)]);
        let rows = (0..1000i64).map(|t| vec![Value::Int(t)]).collect();
        let base = Relation::from_rows(schema, rows).unwrap();
        let mut mv = MaintainedViews::new();
        mv.add(MaterializedView::materialize(
            "low",
            &base,
            0,
            Bound::Included(Value::Int(0)),
            Bound::Excluded(Value::Int(100)),
        ));
        mv.add(MaterializedView::materialize(
            "high",
            &base,
            0,
            Bound::Included(Value::Int(900)),
            Bound::Unbounded,
        ));
        (base, mv)
    }

    #[test]
    fn inserts_update_only_matching_views() {
        let (_, mut mv) = setup();
        let meter = Meter::new();
        mv.on_insert(&[Value::Int(50)]);
        assert_eq!(
            mv.views()
                .answer_metered(&SelectionQuery::point(0, 50i64), &meter),
            Ok(true)
        );
        // The one update so far.
        let report = mv.report();
        assert_eq!(report.len(), 1);
        assert_eq!(
            report.total_delta_output(),
            1,
            "only the 'low' view changes"
        );
        assert_eq!(report.total_work(), 3, "two tests + one append");
    }

    #[test]
    fn inserts_outside_all_views_cost_only_the_tests() {
        let (_, mut mv) = setup();
        mv.on_insert(&[Value::Int(500)]);
        let report = mv.report();
        assert_eq!(report.len(), 1);
        assert_eq!(report.total_delta_output(), 0);
        assert_eq!(report.total_work(), 2);
    }

    #[test]
    fn maintenance_run_is_bounded() {
        let (_, mut mv) = setup();
        for t in 0..5000i64 {
            mv.on_insert(&[Value::Int(t % 1200)]);
        }
        // Work per update is (views + affected) — a function of the change
        // and the (constant) number of views, never of |D|.
        assert!(mv.report().is_per_update_bounded(3.0));
    }

    #[test]
    fn deletes_remove_from_views() {
        let (_, mut mv) = setup();
        let meter = Meter::new();
        let row = [Value::Int(950)];
        assert_eq!(
            mv.views()
                .answer_metered(&SelectionQuery::point(0, 950i64), &meter),
            Ok(true)
        );
        mv.on_delete(&row, 100);
        assert_eq!(
            mv.views()
                .answer_metered(&SelectionQuery::point(0, 950i64), &meter),
            Ok(false)
        );
        let report = mv.report();
        assert_eq!(report.len(), 1, "the delete is the one update");
        assert_eq!(report.total_delta_output(), 1);
    }
}
