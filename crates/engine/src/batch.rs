//! The batch vocabulary: what a unit of serving traffic is, what it
//! costs, and how one shard's slice of it is metered.
//!
//! A [`QueryBatch`] is the unit of traffic: many independent selection
//! queries answered together by the one executor,
//! [`crate::pool::PooledExecutor`]. A batch runs in one of two
//! [`OutputMode`]s — [`Exists`] (Boolean answers, OR-ed across shards)
//! or [`RowIds`] (matching rows, translated to global ids and unioned) —
//! and every shard answers its slice through `eval_assigned` with a
//! thread-local [`Meter`] (deliberately not shared: the paper's NC bound
//! is per processor, so each shard accounts its own steps). Per-query
//! meters aggregate into a [`BatchReport`]. Within a slice, the points on
//! an indexed column descend that column's tree together, in groups,
//! and each is charged exactly what it would cost alone.
//!
//! Shard routing happens before the fan-out (`route_batch`): a query
//! whose shard-key constraints prove most shards irrelevant is simply
//! never shipped to them, so a well-partitioned point-lookup workload
//! does O(1) shards of work per query while still spreading the batch
//! across all shards.
//!
//! # What a batch costs the submitter
//!
//! O(|batch|) *words*, never O(|batch|) *allocations*: `route_batch`
//! validates, plans and routes each query in one pass, straight into the
//! per-shard work lists of a [`Routing`]; workers evaluate **and**
//! translate row ids (the mode's `finish`); the submitter folds each
//! triple into its query's slot (`fold`). Nothing outside the result
//! rows allocates per query (`tests/alloc_budget.rs` is the gate).

use crate::error::EngineError;
use crate::live::Rollback;
use crate::planner::{AccessPath, Planner, QueryPlan};
use crate::pool::BatchServe;
use crate::shard::{relevant_shards_for, ShardBy};
use pitract_core::cost::Meter;
use pitract_core::epoch::Epoch;
use pitract_relation::indexed::IndexedRelation;
use pitract_relation::{Schema, SelectionQuery, Value};
use std::sync::Arc;
use std::time::Duration;

/// A batch of Boolean selection queries to serve together.
///
/// The queries live behind an `Arc` so that submitting the batch to the
/// [`crate::pool::PooledExecutor`] — whose workers outlive the borrow —
/// shares them by reference count instead of cloning the whole batch
/// per shard.
#[derive(Debug, Clone)]
pub struct QueryBatch {
    queries: Arc<[SelectionQuery]>,
}

/// One shard worker's output: `(query index, result, metered steps)` per
/// assigned query, in ascending query order — what
/// [`BatchServe::eval_shard`] returns.
pub type WorkerResults<T> = Vec<(usize, T, u64)>;

/// A batch validated, planned and shard-routed, in the form the executor
/// consumes — what [`BatchServe::route_shards`] returns.
#[derive(Debug, Clone)]
pub struct Routing {
    /// One plan per query, in batch order.
    pub plans: Vec<QueryPlan>,
    /// One `(shard, assigned query indices, ascending)` work item per
    /// shard some query routes to. The shard id travels with its list:
    /// nothing downstream infers it from a position.
    pub jobs: Vec<(usize, Vec<usize>)>,
    /// Per query, how many shards it was shipped to.
    pub shards_probed: Vec<usize>,
}

/// Per-query accounting in a batch report.
#[derive(Debug, Clone)]
pub struct QueryCost {
    /// The access path the planner routed this query through.
    pub plan: QueryPlan,
    /// Metered steps actually spent, summed over all shards probed.
    pub steps: u64,
    /// How many shards the query was shipped to after routing.
    pub shards_probed: usize,
}

/// Aggregated cost accounting for one executed batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One entry per query, in batch order.
    pub per_query: Vec<QueryCost>,
    /// Total metered steps across the whole batch (all queries, all
    /// shards).
    pub total_steps: u64,
    /// The epoch the whole batch was pinned to — the one database
    /// instance every answer is exact against. `None` when the target
    /// has no epoch clock (a [`crate::shard::ShardedRelation`] is
    /// immutable while served).
    pub epoch: Option<Epoch>,
    /// How long the batch waited at the executor's admission gate
    /// before running.
    pub admission_wait: Option<Duration>,
}

/// Boolean answers plus the cost report.
#[derive(Debug, Clone)]
pub struct BatchAnswers {
    /// One Boolean answer per query, in batch order.
    pub answers: Vec<bool>,
    /// The aggregated cost report.
    pub report: BatchReport,
}

/// Row-id answers (global ids, ascending) plus the cost report.
#[derive(Debug, Clone)]
pub struct BatchRows {
    /// Matching global row ids per query, in batch order.
    pub rows: Vec<Vec<usize>>,
    /// The aggregated cost report.
    pub report: BatchReport,
}

impl BatchReport {
    /// Zip a served batch's plans, folded per-query step counts and
    /// routing fan-out into the report.
    pub(crate) fn new(
        plans: Vec<QueryPlan>,
        steps: Vec<u64>,
        shards_probed: Vec<usize>,
        epoch: Option<Epoch>,
        admission_wait: Duration,
    ) -> Self {
        let total_steps = steps.iter().sum();
        let per_query = plans
            .into_iter()
            .zip(steps)
            .zip(shards_probed)
            .map(|((plan, steps), shards_probed)| QueryCost {
                plan,
                steps,
                shards_probed,
            })
            .collect();
        BatchReport {
            per_query,
            total_steps,
            epoch,
            admission_wait: Some(admission_wait),
        }
    }

    /// How many queries ran through each access path, in a stable
    /// (cheapest-first) label order.
    pub fn path_histogram(&self) -> Vec<(&'static str, usize)> {
        let mut counts = [0usize; AccessPath::COUNT];
        for cost in &self.per_query {
            counts[cost.plan.path.index()] += 1;
        }
        AccessPath::LABELS
            .into_iter()
            .zip(counts)
            .filter(|&(_, count)| count > 0)
            .collect()
    }

    /// Total shards probed across the batch (the fan-out volume).
    pub fn shards_probed(&self) -> usize {
        self.per_query.iter().map(|c| c.shards_probed).sum()
    }
}

impl QueryBatch {
    /// A batch from any sequence of queries.
    pub fn new(queries: impl IntoIterator<Item = SelectionQuery>) -> Self {
        QueryBatch {
            queries: queries.into_iter().collect(),
        }
    }

    /// The queries, in batch order.
    pub fn queries(&self) -> &[SelectionQuery] {
        &self.queries
    }

    /// The shared handle to the queries — what the pooled executor ships
    /// to workers (jobs must be `'static`, so they hold a count, not a
    /// borrow).
    pub(crate) fn queries_shared(&self) -> Arc<[SelectionQuery]> {
        Arc::clone(&self.queries)
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Validate, plan, and shard-route a slice of queries against a logical
/// relation described by its schema, indexed columns, total slot count
/// (live + tombstones — what a scan walks) and partitioning: one pass,
/// each query appended straight to the work list of every shard in its
/// run ([`relevant_shards_for`]). The one routing body — shared by the
/// static and the live [`BatchServe::route_shards`], so the two plan and
/// route identically.
pub(crate) fn route_batch(
    queries: &[SelectionQuery],
    schema: &Schema,
    indexed_cols: &[usize],
    slots: usize,
    shard_by: &ShardBy,
    shard_count: usize,
) -> Result<Routing, EngineError> {
    let mut plans = Vec::with_capacity(queries.len());
    let mut shards_probed = Vec::with_capacity(queries.len());
    let mut work: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
    for (qi, q) in queries.iter().enumerate() {
        q.validate(schema).map_err(|e| EngineError::InvalidQuery {
            index: qi,
            reason: e,
        })?;
        plans.push(Planner::plan(indexed_cols, slots, q));
        let run = relevant_shards_for(shard_by, shard_count, q);
        shards_probed.push(run.len());
        for assigned in &mut work[run] {
            assigned.push(qi);
        }
    }
    // Shards no query routes to get no job.
    let jobs = work
        .into_iter()
        .enumerate()
        .filter(|(_, assigned)| !assigned.is_empty())
        .collect();
    Ok(Routing {
        plans,
        jobs,
        shards_probed,
    })
}

/// What a batch asks of every shard a query routes to, and how the
/// per-shard results fold into the query's answer: [`Exists`] or
/// [`RowIds`]. [`BatchServe::eval_shard`] is generic over the mode, so a
/// relation writes its per-shard evaluation once and both
/// [`crate::pool::PooledExecutor::execute`] and
/// [`crate::pool::PooledExecutor::execute_rows`] monomorphise it.
///
/// Sealed: the two modes are the whole set, and the probes they select
/// are the engine's own (the items live on a crate-private supertrait).
pub trait OutputMode: sealed::Mode {}

/// Boolean mode — does any row match? Per-shard hits OR together.
#[derive(Debug, Clone, Copy)]
pub struct Exists;

/// Row-id mode — which rows match? Per-shard local ids are translated
/// to global ids on the worker and merged ascending.
#[derive(Debug, Clone, Copy)]
pub struct RowIds;

impl OutputMode for Exists {}
impl OutputMode for RowIds {}

// The supertrait's items name the crate-private `Rollback`. No other
// crate can name this module, so none can implement or call through it.
#[allow(private_interfaces)]
mod sealed {
    use super::{
        BatchServe, Exists, IndexedRelation, Meter, Rollback, RowIds, SelectionQuery, Value,
        WorkerResults,
    };

    pub trait Mode: 'static {
        /// One query's result — per shard, and (after `fold`) per batch.
        type Out: Send + Default + 'static;

        /// Probe the shard's current state.
        fn current(shard: &IndexedRelation, q: &SelectionQuery, meter: &Meter) -> Self::Out;

        /// Probe the shard's current state for many points on the
        /// indexed column `col` at once: `found(tag, out, steps)` per
        /// probe, each what `current` returns and charges for it.
        fn points<'q>(
            shard: &IndexedRelation,
            col: usize,
            probes: impl Iterator<Item = (usize, &'q Value)> + Clone,
            found: impl FnMut(usize, Self::Out, u64),
        );

        /// Probe the shard as of a pinned epoch, through its rollback.
        fn rolled_back(
            rollback: &Rollback,
            shard: &IndexedRelation,
            q: &SelectionQuery,
            meter: &Meter,
        ) -> Self::Out;

        /// Worker-side completion of one shard job's results, run after
        /// `eval_shard` has returned (so after its shard guard dropped).
        /// The job carries its `shard` id — nothing about a result's
        /// position says which shard produced it.
        fn finish<R: BatchServe>(_: &R, _shard: usize, _: &mut WorkerResults<Self::Out>) {}

        /// Fold one shard's result for a query into the query's slot.
        fn fold(slot: &mut Self::Out, part: Self::Out);

        /// Put every folded slot into its final form.
        fn seal(_: &mut [Self::Out]) {}
    }

    impl Mode for Exists {
        type Out = bool;

        fn current(shard: &IndexedRelation, q: &SelectionQuery, meter: &Meter) -> bool {
            shard.answer_metered(q, meter)
        }

        fn points<'q>(
            shard: &IndexedRelation,
            col: usize,
            probes: impl Iterator<Item = (usize, &'q Value)> + Clone,
            found: impl FnMut(usize, bool, u64),
        ) {
            shard.answer_points_metered(col, probes, found);
        }

        fn rolled_back(
            rollback: &Rollback,
            shard: &IndexedRelation,
            q: &SelectionQuery,
            meter: &Meter,
        ) -> bool {
            rollback.answer(shard, q, meter)
        }

        fn fold(slot: &mut bool, part: bool) {
            *slot |= part;
        }
    }

    impl Mode for RowIds {
        type Out = Vec<usize>;

        fn current(shard: &IndexedRelation, q: &SelectionQuery, meter: &Meter) -> Vec<usize> {
            shard.matching_ids_metered(q, meter)
        }

        fn points<'q>(
            shard: &IndexedRelation,
            col: usize,
            probes: impl Iterator<Item = (usize, &'q Value)> + Clone,
            found: impl FnMut(usize, Vec<usize>, u64),
        ) {
            shard.matching_points_metered(col, probes, found);
        }

        fn rolled_back(
            rollback: &Rollback,
            shard: &IndexedRelation,
            q: &SelectionQuery,
            meter: &Meter,
        ) -> Vec<usize> {
            rollback.matching_ids(shard, q, meter)
        }

        /// Local → global ids, in place, under one acquisition of the
        /// relation's id map for the whole job.
        fn finish<R: BatchServe>(
            relation: &R,
            shard: usize,
            results: &mut WorkerResults<Vec<usize>>,
        ) {
            relation.id_map(shard, |global| {
                for id in results.iter_mut().flat_map(|(_, ids, _)| ids) {
                    *id = global[*id];
                }
            });
        }

        /// The first non-empty part is moved in, not copied.
        fn fold(slot: &mut Vec<usize>, mut part: Vec<usize>) {
            if slot.is_empty() {
                *slot = part;
            } else {
                slot.append(&mut part);
            }
        }

        /// Shards are disjoint, so ascending order is all that is left.
        fn seal(rows: &mut [Vec<usize>]) {
            rows.iter_mut().for_each(|ids| ids.sort_unstable());
        }
    }
}

/// Answer one shard's slice of a batch in mode `M`: every assigned
/// query evaluated against `shard` — corrected by `rollback` when the
/// batch's pin predates writes to it — with a per-query metered step
/// count. The single worker-side metering protocol every
/// [`BatchServe::eval_shard`] body goes through — the cost accounting
/// cannot drift between relations or modes.
///
/// The job is split in two. Points on an indexed column of the current
/// state are grouped per column and descend that column's tree
/// together ([`IndexedRelation::answer_points_metered`]), so their cache
/// misses overlap; each is still charged exactly what it costs alone.
/// Everything else — ranges, conjunctions, points on an unindexed
/// column, and every query of a rolled-back job — is evaluated one query
/// at a time, the meter reset around each via `take`. Either way the
/// triples come back in ascending query order, and the job allocates
/// its result vector and nothing per query.
pub(crate) fn eval_assigned<M: OutputMode>(
    queries: &[SelectionQuery],
    shard: &IndexedRelation,
    assigned: &[usize],
    rollback: Option<&Rollback>,
) -> WorkerResults<M::Out> {
    let grouped = |qi: usize| match (&queries[qi], rollback) {
        (SelectionQuery::Point { col, value }, None) if shard.is_indexed(*col) => {
            Some((*col, value))
        }
        _ => None,
    };
    // Every column a grouped point names lies in `first..end`.
    let (mut first, mut end) = (usize::MAX, 0);
    let meter = Meter::new();
    let mut results: WorkerResults<M::Out> = assigned
        .iter()
        .map(|&qi| {
            if let Some((col, _)) = grouped(qi) {
                (first, end) = (first.min(col), end.max(col + 1));
                // Filled in by the column's group descent below.
                return (qi, M::Out::default(), 0);
            }
            meter.take();
            let out = match rollback {
                None => M::current(shard, &queries[qi], &meter),
                Some(rollback) => M::rolled_back(rollback, shard, &queries[qi], &meter),
            };
            (qi, out, meter.take())
        })
        .collect();
    for col in (first..end).filter(|&col| shard.is_indexed(col)) {
        let points = assigned
            .iter()
            .enumerate()
            .filter_map(|(at, &qi)| match grouped(qi) {
                Some((c, value)) if c == col => Some((at, value)),
                _ => None,
            });
        M::points(shard, col, points, |at, out, steps| {
            (results[at].1, results[at].2) = (out, steps);
        });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveRelation;
    use crate::planner::AccessPath;
    use crate::pool::PooledExecutor;
    use crate::shard::{ShardBy, ShardedRelation};
    use pitract_relation::{ColType, Relation, Schema, Value};

    fn serve(sr: &Arc<ShardedRelation>) -> PooledExecutor<ShardedRelation> {
        PooledExecutor::with_default_pool(Arc::clone(sr))
    }

    fn relation(n: i64) -> Relation {
        let schema = Schema::new(&[("id", ColType::Int), ("city", ColType::Str)]);
        let rows = (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("city{}", i % 10))])
            .collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    fn mixed_batch(n: i64) -> QueryBatch {
        QueryBatch::new((0..60i64).map(|k| match k % 3 {
            0 => SelectionQuery::point(0, (k * 37) % (n + 20)),
            1 => SelectionQuery::range_closed(0, k * 11, k * 11 + 25),
            _ => SelectionQuery::and(
                SelectionQuery::point(1, format!("city{}", k % 10).as_str()),
                SelectionQuery::range_closed(0, k * 7, k * 7 + 40),
            ),
        }))
    }

    #[test]
    fn batch_rows_match_count_oracle() {
        let n = 300i64;
        let rel = relation(n);
        let sr =
            Arc::new(ShardedRelation::build(&rel, ShardBy::Hash { col: 1 }, 4, &[0, 1]).unwrap());
        let batch = mixed_batch(n);
        let got = serve(&sr).execute_rows(&batch).unwrap();
        for (q, ids) in batch.queries().iter().zip(&got.rows) {
            assert_eq!(ids.len(), rel.count_where(q), "{q:?}");
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            for &gid in ids {
                assert!(q.matches(sr.row(gid).unwrap()), "{q:?} id {gid}");
            }
        }
    }

    #[test]
    fn report_accounts_every_query_and_path() {
        let n = 400i64;
        let sr = Arc::new(
            ShardedRelation::build(&relation(n), ShardBy::Hash { col: 0 }, 4, &[0]).unwrap(),
        );
        let batch = QueryBatch::new([
            SelectionQuery::point(0, 3i64),
            SelectionQuery::range_closed(0, 10i64, 20i64),
            SelectionQuery::and(
                SelectionQuery::point(0, 3i64),
                SelectionQuery::point(1, "city3"),
            ),
            SelectionQuery::point(1, "absent"),
        ]);
        let got = serve(&sr).execute(&batch).unwrap();
        let report = &got.report;
        assert_eq!(report.per_query.len(), 4);
        assert_eq!(
            report.total_steps,
            report.per_query.iter().map(|c| c.steps).sum::<u64>()
        );
        assert_eq!(
            report.path_histogram(),
            vec![
                ("point-probe", 1),
                ("range-probe", 1),
                ("index-nested-loop", 1),
                ("full-scan", 1),
            ]
        );
        // The shard-key point queries were routed to a single shard; the
        // unindexed-column scan had to visit all four.
        assert_eq!(report.per_query[0].shards_probed, 1);
        assert_eq!(report.per_query[2].shards_probed, 1);
        assert_eq!(report.per_query[3].shards_probed, 4);
        // The scan dominates the metered work.
        assert!(report.per_query[3].steps >= n as u64 / 2);
        assert!(report.per_query[0].steps < 64);
        // Plans carried through the report match the planner's routing.
        assert_eq!(
            report.per_query[0].plan.path,
            AccessPath::PointProbe { col: 0 }
        );
    }

    /// The per-query path `eval_assigned` splits grouped points off
    /// from: every assigned query on its own, the meter reset around it.
    fn per_query<M: OutputMode>(
        queries: &[SelectionQuery],
        shard: &IndexedRelation,
        assigned: &[usize],
        rollback: Option<&Rollback>,
    ) -> WorkerResults<M::Out> {
        let meter = Meter::new();
        assigned
            .iter()
            .map(|&qi| {
                meter.take();
                let q = &queries[qi];
                let out = match rollback {
                    None => M::current(shard, q, &meter),
                    Some(rollback) => M::rolled_back(rollback, shard, q, &meter),
                };
                (qi, out, meter.take())
            })
            .collect()
    }

    /// `id`, `grp` (Int) and `city` (Str) are indexed; `note` is not.
    fn four_columns(n: i64) -> Relation {
        let schema = Schema::new(&[
            ("id", ColType::Int),
            ("grp", ColType::Int),
            ("city", ColType::Str),
            ("note", ColType::Str),
        ]);
        let rows = (0..n).map(|i| four_column_row(i, n)).collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    fn four_column_row(i: i64, n: i64) -> Vec<Value> {
        vec![
            Value::Int(i),
            Value::Int(i % 17),
            Value::str(format!("city{}", i % (n / 20))),
            Value::str(format!("note{}", i % 7)),
        ]
    }

    /// One job of every kind `eval_assigned` meets: Int points on two
    /// indexed columns and Str points on a third (hits, misses and
    /// repeats, more than a group of each), mistyped points, points on
    /// the unindexed column, ranges and nested conjunctions.
    fn mixed_job(n: i64) -> Vec<SelectionQuery> {
        let mut queries = Vec::new();
        for k in 0..40i64 {
            queries.push(SelectionQuery::point(0, (k * 37) % (n + 40) - 20));
            queries.push(SelectionQuery::point(1, k % 20));
            queries.push(SelectionQuery::point(2, format!("city{}", k % 30).as_str()));
            match k % 8 {
                0 => queries.push(SelectionQuery::point(0, format!("city{k}").as_str())),
                1 => queries.push(SelectionQuery::point(2, k)),
                2 => queries.push(SelectionQuery::point(3, format!("note{}", k % 9).as_str())),
                3 => queries.push(SelectionQuery::range_closed(0, k * 5, k * 5 + 12)),
                4 => queries.push(SelectionQuery::range_closed(1, k % 17, 16)),
                5 => queries.push(SelectionQuery::and(
                    SelectionQuery::and(
                        SelectionQuery::range_closed(0, 0, n),
                        SelectionQuery::point(1, k % 17),
                    ),
                    SelectionQuery::point(3, "note3"),
                )),
                6 => queries.push(SelectionQuery::and(
                    SelectionQuery::point(3, "note1"),
                    SelectionQuery::range_closed(0, k, k + 30),
                )),
                _ => queries.push(SelectionQuery::point(0, k)),
            }
        }
        queries
    }

    /// The grouped job equals the per-query path triple by triple —
    /// query index, output, steps — in ascending query order.
    fn assert_same<T: PartialEq + std::fmt::Debug>(
        grouped: WorkerResults<T>,
        single: WorkerResults<T>,
        assigned: &[usize],
    ) {
        assert_eq!(grouped, single);
        let order: Vec<usize> = grouped.iter().map(|(qi, _, _)| *qi).collect();
        assert_eq!(order, assigned, "one triple per query, ascending");
    }

    /// [`mixed_job`] with every fifth query left out of the job, so a
    /// result's position and its query index differ.
    fn job() -> (Vec<SelectionQuery>, Vec<usize>) {
        let queries = mixed_job(300);
        let assigned = (0..queries.len()).filter(|qi| qi % 5 != 4).collect();
        (queries, assigned)
    }

    fn sharded_matches_per_query<M: OutputMode>(sr: &ShardedRelation)
    where
        M::Out: PartialEq + std::fmt::Debug,
    {
        let (queries, assigned) = job();
        for (shard, current) in sr.shards().iter().enumerate() {
            assert_same(
                sr.eval_shard::<M>(shard, Epoch::LATEST, &queries, &assigned),
                per_query::<M>(&queries, current, &assigned, None),
                &assigned,
            );
        }
    }

    /// As [`sharded_matches_per_query`], read at `at`, which must (or
    /// must not) need a rollback.
    fn live_matches_per_query<M: OutputMode>(live: &LiveRelation, at: Epoch, rolled_back: bool)
    where
        M::Out: PartialEq + std::fmt::Debug,
    {
        let (queries, assigned) = job();
        for shard in 0..live.shard_count() {
            let single = live.read_shard_at(shard, at, |current, rollback| {
                assert_eq!(rollback.is_some(), rolled_back, "shard {shard}");
                per_query::<M>(&queries, current, &assigned, rollback)
            });
            assert_same(
                live.eval_shard::<M>(shard, at, &queries, &assigned),
                single,
                &assigned,
            );
        }
    }

    #[test]
    fn grouped_points_match_the_per_query_path() {
        let n = 300;
        let rel = four_columns(n);
        let sr = ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, 3, &[0, 1, 2]).unwrap();
        sharded_matches_per_query::<Exists>(&sr);
        sharded_matches_per_query::<RowIds>(&sr);

        // Writes before the pin leave tombstones and new rows in the
        // current state, which then serves the pin as it stands.
        let live = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 3, &[0, 1, 2]).unwrap();
        for gid in (0..n as usize).step_by(11) {
            live.delete(gid).unwrap();
        }
        for i in n..n + 30 {
            live.insert(four_column_row(i, n)).unwrap();
        }
        let pin = live.pin();
        live_matches_per_query::<Exists>(&live, pin.epoch(), false);
        live_matches_per_query::<RowIds>(&live, pin.epoch(), false);

        // Writes past the pin: every shard reads through a rollback.
        for gid in (1..n as usize).step_by(7) {
            live.delete(gid).unwrap();
        }
        for i in n + 30..n + 60 {
            live.insert(four_column_row(i, n)).unwrap();
        }
        live_matches_per_query::<Exists>(&live, pin.epoch(), true);
        live_matches_per_query::<RowIds>(&live, pin.epoch(), true);
    }

    #[test]
    fn concurrent_batches_share_one_sharded_relation() {
        let n = 400i64;
        let rel = relation(n);
        let sr =
            Arc::new(ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, 4, &[0, 1]).unwrap());
        let exec = serve(&sr);
        let batch = mixed_batch(n);
        let expected: Vec<bool> = batch.queries().iter().map(|q| rel.eval_scan(q)).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| exec.execute(&batch).unwrap().answers))
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), expected);
            }
        });
    }
}
