//! Cost-based access-path routing for selection queries.
//!
//! A real executor does not answer every query the same way; it picks the
//! cheapest access path the preprocessing supports. The [`Planner`]
//! encodes the routing policy of
//! [`pitract_relation::indexed::IndexedRelation::answer_metered`] as an
//! explicit, inspectable plan: point probe < range probe <
//! index-nested-loop conjunction < full scan. The batch executor uses the
//! plan for shard routing and for the batch cost report (estimated vs
//! metered steps per query); a plan/executor agreement test keeps the two
//! from drifting apart.

use pitract_core::cost::log2_floor;
use pitract_relation::SelectionQuery;

/// The access path a query is routed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPath {
    /// One B⁺-tree descent on an indexed column; the posting list's
    /// existence is the answer. O(log n).
    PointProbe {
        /// The probed column.
        col: usize,
    },
    /// One descent to the range start plus a non-emptiness check. O(log n).
    RangeProbe {
        /// The probed column.
        col: usize,
    },
    /// Conjunction routed through one indexed conjunct; candidates are
    /// verified against the full predicate. O(log n + candidates).
    IndexNestedLoop {
        /// The column of the driving (indexed) conjunct.
        col: usize,
    },
    /// No usable index: every live tuple is inspected. O(n).
    FullScan,
}

impl AccessPath {
    /// How many access paths there are — the length of any table keyed
    /// by [`AccessPath::index`].
    pub const COUNT: usize = 4;

    /// [`AccessPath::label`] by [`AccessPath::index`], cheapest first.
    pub const LABELS: [&'static str; Self::COUNT] = [
        "point-probe",
        "range-probe",
        "index-nested-loop",
        "full-scan",
    ];

    /// The path's position in cheapest-first order (`0..COUNT`): what
    /// histograms and per-path counters key on, instead of comparing
    /// label strings.
    pub fn index(&self) -> usize {
        match self {
            AccessPath::PointProbe { .. } => 0,
            AccessPath::RangeProbe { .. } => 1,
            AccessPath::IndexNestedLoop { .. } => 2,
            AccessPath::FullScan => 3,
        }
    }

    /// Short label for reports and histograms.
    pub fn label(&self) -> &'static str {
        Self::LABELS[self.index()]
    }
}

/// A routed query: the chosen path and its estimated step cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPlan {
    /// The chosen access path.
    pub path: AccessPath,
    /// Estimated meter steps on a relation of the planned size. Estimates
    /// use unit constants (2·log₂ n per descent, like the executor's
    /// descent charge) and a 1/16 selectivity guess for conjunction
    /// candidate verification.
    pub est_steps: u64,
}

/// Routes each query to the cheapest access path the indexes support.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner;

impl Planner {
    /// Plan `q` against a relation of `slots` row slots (live rows *plus*
    /// tombstones) with B⁺-trees on `indexed_cols`.
    ///
    /// The policy mirrors the executor exactly: an indexed point
    /// (sub)query beats an indexed range (sub)query beats a scan, and a
    /// conjunction drives through its first indexed point conjunct,
    /// falling back to its first indexed range conjunct — found by the
    /// executor's own walk ([`SelectionQuery::driving_conjunct`]).
    ///
    /// Scans are estimated against the **slot count**, not the live-row
    /// count: the executor's scan walks every slot including tombstones,
    /// so after heavy churn (many deletes) a live-count estimate was an
    /// undercount — metered steps exceeded the estimate and scan vs index
    /// paths could be mis-ranked. Callers thread `slot_count()` through
    /// here (see `ShardedRelation::slot_count`).
    pub fn plan(indexed_cols: &[usize], slots: usize, q: &SelectionQuery) -> QueryPlan {
        let descent = 2 * u64::from(log2_floor(slots.max(2) as u64)).max(1);
        let candidates = (slots as u64 / 16).max(1);
        let indexed = |col: usize| indexed_cols.contains(&col);
        match q {
            SelectionQuery::Point { col, .. } if indexed(*col) => QueryPlan {
                path: AccessPath::PointProbe { col: *col },
                est_steps: descent,
            },
            SelectionQuery::Range { col, .. } if indexed(*col) => QueryPlan {
                path: AccessPath::RangeProbe { col: *col },
                est_steps: descent + 1,
            },
            SelectionQuery::And(_, _) => match q.driving_conjunct(&indexed) {
                Some(SelectionQuery::Point { col, .. } | SelectionQuery::Range { col, .. }) => {
                    QueryPlan {
                        path: AccessPath::IndexNestedLoop { col: *col },
                        est_steps: descent + candidates,
                    }
                }
                _ => QueryPlan {
                    path: AccessPath::FullScan,
                    est_steps: slots as u64,
                },
            },
            _ => QueryPlan {
                path: AccessPath::FullScan,
                est_steps: slots as u64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitract_core::cost::Meter;
    use pitract_relation::indexed::IndexedRelation;
    use pitract_relation::{ColType, Relation, Schema, Value};

    fn plan(cols: &[usize], rows: usize, q: &SelectionQuery) -> AccessPath {
        Planner::plan(cols, rows, q).path
    }

    #[test]
    fn routes_each_shape_to_its_cheapest_path() {
        let point = SelectionQuery::point(0, 1i64);
        let range = SelectionQuery::range_closed(1, 1i64, 2i64);
        assert_eq!(plan(&[0], 100, &point), AccessPath::PointProbe { col: 0 });
        assert_eq!(plan(&[1], 100, &point), AccessPath::FullScan);
        assert_eq!(plan(&[1], 100, &range), AccessPath::RangeProbe { col: 1 });
        assert_eq!(plan(&[], 100, &range), AccessPath::FullScan);

        let conj = SelectionQuery::and(range.clone(), point.clone());
        assert_eq!(
            plan(&[0, 1], 100, &conj),
            AccessPath::IndexNestedLoop { col: 0 },
            "a point conjunct beats a range conjunct"
        );
        assert_eq!(
            plan(&[1], 100, &conj),
            AccessPath::IndexNestedLoop { col: 1 },
            "an indexed range conjunct beats a scan"
        );
        assert_eq!(plan(&[], 100, &conj), AccessPath::FullScan);

        let nested = SelectionQuery::and(
            SelectionQuery::and(range, SelectionQuery::point(2, 5i64)),
            SelectionQuery::point(3, 7i64),
        );
        assert_eq!(
            plan(&[3], 100, &nested),
            AccessPath::IndexNestedLoop { col: 3 },
            "routing sees through nested And shapes"
        );
    }

    #[test]
    fn estimates_order_paths_cheapest_first() {
        let rows = 1 << 16;
        let point = Planner::plan(&[0], rows, &SelectionQuery::point(0, 1i64));
        let range = Planner::plan(&[0], rows, &SelectionQuery::range_closed(0, 1i64, 2i64));
        let conj = Planner::plan(
            &[0],
            rows,
            &SelectionQuery::and(
                SelectionQuery::point(0, 1i64),
                SelectionQuery::point(1, "x"),
            ),
        );
        let scan = Planner::plan(&[], rows, &SelectionQuery::point(0, 1i64));
        assert!(point.est_steps < range.est_steps);
        assert!(range.est_steps < conj.est_steps);
        assert!(conj.est_steps < scan.est_steps);
    }

    /// The planner's policy and the executor's routing must agree: on a
    /// relation where the plan says "indexed path", the metered execution
    /// must cost far less than a scan, and vice versa.
    #[test]
    fn plans_agree_with_executor_costs() {
        let n = 4096i64;
        let schema = Schema::new(&[("id", ColType::Int), ("tag", ColType::Str)]);
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("t{}", i % 8))])
            .collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let ir = IndexedRelation::build(&rel, &[0]).unwrap();
        let meter = Meter::new();
        let queries = [
            SelectionQuery::point(0, n + 1),
            SelectionQuery::range_closed(0, n + 1, n + 50),
            SelectionQuery::and(
                SelectionQuery::point(0, 17i64),
                SelectionQuery::point(1, "t1"),
            ),
            SelectionQuery::point(1, "absent"),
        ];
        for q in &queries {
            let plan = Planner::plan(&ir.indexed_columns(), ir.slot_count(), q);
            meter.take();
            ir.answer_metered(q, &meter);
            let steps = meter.take();
            match plan.path {
                AccessPath::FullScan => assert!(
                    steps >= ir.len() as u64 / 2,
                    "{q:?}: planned scan but executor spent only {steps}"
                ),
                _ => assert!(
                    steps < ir.len() as u64 / 4,
                    "{q:?}: planned {} but executor spent {steps} (scan-like)",
                    plan.path.label()
                ),
            }
        }
    }

    /// Regression: the full-scan estimate used the live-row count, but the
    /// executor's scan walks every slot including tombstones. On a heavily
    /// churned relation the metered steps then exceeded the estimate
    /// (estimate 100, actual 1000 below), which could mis-rank scan vs
    /// index paths. Planning against slot count restores the invariant
    /// that a scan's metered cost never exceeds its estimate.
    #[test]
    fn scan_plan_covers_metered_cost_on_churned_relation() {
        let n = 1000i64;
        let schema = Schema::new(&[("id", ColType::Int), ("tag", ColType::Str)]);
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("t{}", i % 8))])
            .collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let mut ir = IndexedRelation::build(&rel, &[0]).unwrap();
        // Heavy churn: delete 90% of the rows; slots stay at 1000.
        for id in 0..(n as usize) {
            if id % 10 != 0 {
                ir.delete(id);
            }
        }
        assert_eq!(ir.len(), 100);
        assert_eq!(ir.slot_count(), 1000);

        // Unindexed-column point query: a full scan on both plan and meter.
        let q = SelectionQuery::point(1, "absent");
        let plan = Planner::plan(&ir.indexed_columns(), ir.slot_count(), &q);
        assert_eq!(plan.path, AccessPath::FullScan);
        let meter = Meter::new();
        ir.answer_metered(&q, &meter);
        let steps = meter.take();
        assert_eq!(steps, 1000, "the scan walks every slot, tombstones too");
        assert!(
            plan.est_steps >= steps,
            "estimate {} must cover the metered scan cost {steps}",
            plan.est_steps
        );

        // Same agreement on the enumeration path.
        ir.matching_ids_metered(&q, &meter);
        let steps = meter.take();
        assert!(plan.est_steps >= steps, "enumeration scan {steps} covered");
    }
}
