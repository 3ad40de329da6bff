//! The batch vocabulary: what a unit of serving traffic is, what it
//! costs, and how one shard's slice of it is metered.
//!
//! A [`QueryBatch`] is the unit of traffic: many independent selection
//! queries answered together by the one executor,
//! [`crate::pool::PooledExecutor`]. A batch runs in one of two
//! [`OutputMode`]s — [`Exists`] (Boolean answers, OR-ed across shards)
//! or [`RowIds`] (matching rows, translated to global ids and merged) —
//! and every shard answers its slice through `eval_assigned` with a
//! thread-local [`Meter`] (deliberately not shared: the paper's NC bound
//! is per processor, so each shard accounts its own steps). Per-query
//! meters aggregate into a [`BatchReport`]. Within a slice, the queries
//! that probe one indexed column — points, ranges, and conjunctions
//! through their driving conjunct — descend that column's tree
//! together, in groups, and each is charged exactly what it would cost
//! alone.
//!
//! Shard routing happens before the fan-out
//! ([`BatchServe::route_shards`]): a query
//! whose shard-key constraints prove most shards irrelevant is simply
//! never shipped to them, so a well-partitioned point-lookup workload
//! does O(1) shards of work per query while still spreading the batch
//! across all shards.
//!
//! # What a batch costs the submitter
//!
//! O(|batch|) *words*, never O(|batch|) *allocations*: routing
//! validates, plans and routes each query in one pass, straight into the
//! per-shard work lists of a [`Routing`]; workers evaluate **and**
//! translate row ids, each job into one id buffer ([`ShardResults`]);
//! the submitter assembles every query's answer from its triples (the
//! mode's `assemble`). A row-id answer is allocated once, at its exact
//! size, and its shards' ascending runs, at most one each, are merged
//! into it; nothing else allocates per query (`tests/alloc_budget.rs`
//! is the gate).

use crate::live::Rollback;
use crate::planner::{AccessPath, QueryPlan};
#[cfg(doc)]
use crate::pool::BatchServe;
use pitract_core::cost::Meter;
use pitract_core::epoch::Epoch;
use pitract_relation::indexed::IndexedRelation;
use pitract_relation::SelectionQuery;
use std::ops::Range;
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

/// `(query index, result, metered steps)` per assigned query of one
/// shard job, in ascending query order — what [`BatchServe::eval_bool`]
/// and [`BatchServe::eval_rows`] return.
pub type WorkerResults<T> = Vec<(usize, T, u64)>;

/// One shard job's output, what [`BatchServe::eval_shard`] returns: a
/// triple per assigned query, and the one id buffer the job's row-id
/// results point into.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardResults<T> {
    /// `(query index, result, metered steps)` per assigned query, in
    /// ascending query order. In [`RowIds`] mode a result is the span
    /// of [`Self::ids`] holding that query's ids.
    pub results: WorkerResults<T>,
    /// Every row id the job matched, each query's span ascending; empty
    /// in [`Exists`] mode. Shard-local as evaluated, global once the
    /// executor has translated it in place.
    pub ids: Vec<usize>,
}

impl ShardResults<Range<usize>> {
    /// The row-id triples with each span copied out of the buffer.
    pub(crate) fn into_rows(self) -> WorkerResults<Vec<usize>> {
        let ids = self.ids;
        self.results
            .into_iter()
            .map(|(qi, span, steps)| (qi, ids[span].to_vec(), steps))
            .collect()
    }
}

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
    /// instance every answer is exact against.
    pub epoch: Epoch,
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
        epoch: Epoch,
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

/// What a batch asks of every shard a query routes to, and how the
/// per-shard results become the query's answer: [`Exists`] or
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

/// Row-id mode — which rows match? Each shard job gathers its matches
/// into one id buffer and translates it to global ids on the worker;
/// the submitter merges each query's ascending runs into an answer
/// allocated at its exact size.
#[derive(Debug, Clone, Copy)]
pub struct RowIds;

impl OutputMode for Exists {}
impl OutputMode for RowIds {}

// The supertrait's items name the crate-private `Rollback`. No other
// crate can name this module, so none can implement or call through it.
#[allow(private_interfaces)]
mod sealed {
    use super::{
        Exists, IndexedRelation, Merge, Meter, Range, Rollback, RowIds, SelectionQuery,
        ShardResults,
    };

    pub trait Mode: 'static {
        /// One query's result from one shard job.
        type Part: Send + Default + 'static;
        /// One query's answer to the batch.
        type Out: Send + 'static;

        /// Probe the shard's current state; row ids go to `ids`.
        fn current(
            shard: &IndexedRelation,
            q: &SelectionQuery,
            meter: &Meter,
            ids: &mut Vec<usize>,
        ) -> Self::Part;

        /// Probe the shard's current state for many queries that probe
        /// the index on `col` at once: `found(tag, part, steps)` per
        /// query, each what `current` returns and charges for it.
        fn grouped<'q>(
            shard: &'q IndexedRelation,
            col: usize,
            queries: impl Iterator<Item = (usize, &'q SelectionQuery)>,
            ids: &mut Vec<usize>,
            found: impl FnMut(usize, Self::Part, u64),
        );

        /// Probe the shard as of a pinned epoch, through its rollback.
        fn rolled_back(
            rollback: &Rollback,
            shard: &IndexedRelation,
            q: &SelectionQuery,
            meter: &Meter,
            ids: &mut Vec<usize>,
        ) -> Self::Part;

        /// Every query's answer and steps from the batch's jobs, which
        /// may come in any order.
        fn assemble(
            queries: usize,
            jobs: Vec<ShardResults<Self::Part>>,
        ) -> (Vec<Self::Out>, Vec<u64>);
    }

    impl Mode for Exists {
        type Part = bool;
        type Out = bool;

        fn current(
            shard: &IndexedRelation,
            q: &SelectionQuery,
            meter: &Meter,
            _: &mut Vec<usize>,
        ) -> bool {
            shard.answer_metered(q, meter)
        }

        fn grouped<'q>(
            shard: &'q IndexedRelation,
            col: usize,
            queries: impl Iterator<Item = (usize, &'q SelectionQuery)>,
            _: &mut Vec<usize>,
            found: impl FnMut(usize, bool, u64),
        ) {
            shard.answer_many_metered(col, queries, found);
        }

        fn rolled_back(
            rollback: &Rollback,
            shard: &IndexedRelation,
            q: &SelectionQuery,
            meter: &Meter,
            _: &mut Vec<usize>,
        ) -> bool {
            rollback.answer(shard, q, meter)
        }

        fn assemble(queries: usize, jobs: Vec<ShardResults<bool>>) -> (Vec<bool>, Vec<u64>) {
            let (mut answers, mut steps) = (vec![false; queries], vec![0u64; queries]);
            for (qi, hit, spent) in jobs.into_iter().flat_map(|job| job.results) {
                answers[qi] |= hit;
                steps[qi] += spent;
            }
            (answers, steps)
        }
    }

    impl Mode for RowIds {
        type Part = Range<usize>;
        type Out = Vec<usize>;

        fn current(
            shard: &IndexedRelation,
            q: &SelectionQuery,
            meter: &Meter,
            ids: &mut Vec<usize>,
        ) -> Range<usize> {
            let start = ids.len();
            shard.matching_ids_into(q, meter, ids);
            start..ids.len()
        }

        fn grouped<'q>(
            shard: &'q IndexedRelation,
            col: usize,
            queries: impl Iterator<Item = (usize, &'q SelectionQuery)>,
            ids: &mut Vec<usize>,
            found: impl FnMut(usize, Range<usize>, u64),
        ) {
            shard.matching_many_into(col, queries, ids, found);
        }

        fn rolled_back(
            rollback: &Rollback,
            shard: &IndexedRelation,
            q: &SelectionQuery,
            meter: &Meter,
            ids: &mut Vec<usize>,
        ) -> Range<usize> {
            let start = ids.len();
            rollback.matching_ids_into(shard, q, meter, ids);
            start..ids.len()
        }

        /// One pass over the queries with a cursor per job: each job's
        /// triples are in ascending query order, so a query's runs are
        /// the triples under the cursors that name it. Its answer is
        /// allocated once, at the runs' total length.
        fn assemble(
            queries: usize,
            jobs: Vec<ShardResults<Range<usize>>>,
        ) -> (Vec<Vec<usize>>, Vec<u64>) {
            let mut steps = vec![0u64; queries];
            let mut cursors = vec![0usize; jobs.len()];
            let mut runs: Vec<&[usize]> = Vec::with_capacity(jobs.len());
            let mut merge = Merge::default();
            let rows = (0..queries)
                .map(|qi| {
                    runs.clear();
                    for (job, at) in jobs.iter().zip(&mut cursors) {
                        let Some((_, span, spent)) = job.results.get(*at).filter(|t| t.0 == qi)
                        else {
                            continue;
                        };
                        *at += 1;
                        steps[qi] += spent;
                        if !span.is_empty() {
                            runs.push(&job.ids[span.clone()]);
                        }
                    }
                    merge.runs(&runs)
                })
                .collect();
            debug_assert!(
                jobs.iter()
                    .zip(&cursors)
                    .all(|(job, &at)| at == job.results.len()),
                "every job's triples are in ascending query order"
            );
            (rows, steps)
        }
    }
}

/// Scratch space for [`Merge::runs`], reused across a batch's queries:
/// the runs a merge pass reads, where each of them ends, and the
/// buffer the pass writes.
#[derive(Debug, Default)]
struct Merge {
    from: Vec<usize>,
    ends: Vec<usize>,
    into: Vec<usize>,
}

impl Merge {
    /// The union of ascending, pairwise disjoint `runs`, ascending, in
    /// one allocation of exactly their total length. Shards hold
    /// disjoint rows and each shard's local → global id map is strictly
    /// increasing, so one query's per-shard runs are exactly that. Runs
    /// merge pairwise, in ⌈log₂ runs⌉ passes, the last into the answer.
    fn runs(&mut self, runs: &[&[usize]]) -> Vec<usize> {
        let total = runs.iter().map(|run| run.len()).sum();
        let mut merged = vec![0; total];
        match *runs {
            [] => {}
            [run] => merged.copy_from_slice(run),
            [a, b] => merge_two(a, b, &mut merged),
            _ => {
                let Merge { from, ends, into } = self;
                // Every pass writes all of `..total`: what lies there
                // from an earlier query is never read.
                for buf in [&mut *from, &mut *into] {
                    buf.resize(buf.len().max(total), 0);
                }
                ends.clear();
                let mut start = 0;
                for pair in runs.chunks(2) {
                    let (a, b) = (pair[0], pair.get(1).map_or(&[][..], |run| run));
                    let end = start + a.len() + b.len();
                    merge_two(a, b, &mut from[start..end]);
                    ends.push(end);
                    start = end;
                }
                while ends.len() > 2 {
                    let mut start = 0;
                    for pair in 0..ends.len().div_ceil(2) {
                        let mid = ends[2 * pair];
                        let end = ends.get(2 * pair + 1).map_or(mid, |&end| end);
                        merge_two(&from[start..mid], &from[mid..end], &mut into[start..end]);
                        // Read above before it is overwritten: pair ≤ 2·pair.
                        ends[pair] = end;
                        start = end;
                    }
                    ends.truncate(ends.len().div_ceil(2));
                    std::mem::swap(from, into);
                }
                let (a, b) = from[..total].split_at(ends[0]);
                merge_two(a, b, &mut merged);
            }
        }
        debug_assert!(
            merged.windows(2).all(|w| w[0] < w[1]),
            "runs were ascending and disjoint"
        );
        merged
    }
}

/// Merge the ascending runs `a` and `b` into `out`, which is exactly
/// as long as both. The front of `out` fills from the smallest ids up
/// while its back fills from the largest down: two independent chains
/// that a core runs side by side. Which run gives the next id is a
/// select on the comparison, not a branch, since the runs of different
/// shards interleave at random. An exhausted run reads as `usize::MAX`
/// at the front and, with ids shifted up by one, as 0 at the back; no
/// row id reaches `usize::MAX`.
fn merge_two(a: &[usize], b: &[usize], out: &mut [usize]) {
    let n = out.len();
    debug_assert_eq!(n, a.len() + b.len(), "`out` holds exactly both runs");
    let (mut front_a, mut front_b) = (0, 0);
    let (mut back_a, mut back_b) = (a.len(), b.len());
    for k in 0..n / 2 {
        let x = a.get(front_a).map_or(usize::MAX, |&id| id);
        let y = b.get(front_b).map_or(usize::MAX, |&id| id);
        out[k] = x.min(y);
        let took_a = usize::from(x < y);
        (front_a, front_b) = (front_a + took_a, front_b + 1 - took_a);
        let x = a.get(back_a.wrapping_sub(1)).map_or(0, |&id| id + 1);
        let y = b.get(back_b.wrapping_sub(1)).map_or(0, |&id| id + 1);
        out[n - 1 - k] = x.max(y) - 1;
        let took_a = usize::from(x > y);
        (back_a, back_b) = (back_a - took_a, back_b + took_a - 1);
    }
    if n % 2 == 1 {
        let x = a.get(front_a).map_or(usize::MAX, |&id| id);
        let y = b.get(front_b).map_or(usize::MAX, |&id| id);
        out[n / 2] = x.min(y);
    }
}

/// Answer one shard's slice of a batch in mode `M`: every assigned
/// query evaluated against `shard` — corrected by `rollback` when the
/// batch's pin predates writes to it — with a per-query metered step
/// count. The single worker-side metering protocol every
/// [`BatchServe::eval_shard`] body goes through — the cost accounting
/// cannot drift between relations or modes.
///
/// Each query of a job without a rollback is classified by the indexed
/// probe it drives ([`IndexedRelation::probed_column`]): a point, a
/// range, or a conjunction's driving conjunct. The queries that probe
/// one column are answered together
/// ([`IndexedRelation::answer_many_metered`] and its row-id twin): their
/// probes descend the column's tree in groups, points and range starts
/// alike, so their cache misses overlap, and each query is still
/// charged exactly what it costs alone. Scans, and every query of a
/// rolled-back job, are evaluated one query at a time, the meter reset
/// around each via `take`. Either way the triples come back in
/// ascending query order, and the job allocates its result vector and
/// its one id buffer, nothing per query.
pub(crate) fn eval_assigned<M: OutputMode>(
    queries: &[SelectionQuery],
    shard: &IndexedRelation,
    assigned: &[usize],
    rollback: Option<&Rollback>,
) -> ShardResults<M::Part> {
    let meter = Meter::new();
    let mut ids = Vec::new();
    if let Some(rollback) = rollback {
        let results = assigned
            .iter()
            .map(|&qi| {
                meter.take();
                let part = M::rolled_back(rollback, shard, &queries[qi], &meter, &mut ids);
                (qi, part, meter.take())
            })
            .collect();
        return ShardResults { results, ids };
    }
    // Every column a grouped query probes lies in `first..end`.
    let (mut first, mut end) = (usize::MAX, 0);
    let mut results: WorkerResults<M::Part> = assigned
        .iter()
        .map(|&qi| {
            let q = &queries[qi];
            if let Some(col) = shard.probed_column(q) {
                (first, end) = (first.min(col), end.max(col + 1));
                // Filled in by the column's group descent below.
                return (qi, M::Part::default(), 0);
            }
            meter.take();
            let part = M::current(shard, q, &meter, &mut ids);
            (qi, part, meter.take())
        })
        .collect();
    for col in (first..end).filter(|&col| shard.is_indexed(col)) {
        let probing = assigned
            .iter()
            .enumerate()
            .map(|(at, &qi)| (at, &queries[qi]))
            .filter(|&(_, q)| shard.probed_column(q) == Some(col));
        M::grouped(shard, col, probing, &mut ids, |at, part, steps| {
            (results[at].1, results[at].2) = (part, steps);
        });
    }
    ShardResults { results, ids }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveRelation;
    use crate::planner::AccessPath;
    use crate::pool::BatchServe;
    use crate::pool::PooledExecutor;
    use crate::shard::ShardBy;
    use pitract_relation::{ColType, Relation, Schema, Value};
    use std::ops::Bound;

    fn serve(lr: &Arc<LiveRelation>) -> PooledExecutor<LiveRelation> {
        PooledExecutor::with_default_pool(Arc::clone(lr))
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
        let lr = Arc::new(LiveRelation::build(&rel, ShardBy::Hash { col: 1 }, 4, &[0, 1]).unwrap());
        let batch = mixed_batch(n);
        let got = serve(&lr).execute_rows(&batch).unwrap();
        for (q, ids) in batch.queries().iter().zip(&got.rows) {
            assert_eq!(ids.len(), rel.count_where(q), "{q:?}");
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            for &gid in ids {
                assert!(q.matches(&lr.row(gid).unwrap()), "{q:?} id {gid}");
            }
        }
    }

    #[test]
    fn report_accounts_every_query_and_path() {
        let n = 400i64;
        let lr =
            Arc::new(LiveRelation::build(&relation(n), ShardBy::Hash { col: 0 }, 4, &[0]).unwrap());
        let batch = QueryBatch::new([
            SelectionQuery::point(0, 3i64),
            SelectionQuery::range_closed(0, 10i64, 20i64),
            SelectionQuery::and(
                SelectionQuery::point(0, 3i64),
                SelectionQuery::point(1, "city3"),
            ),
            SelectionQuery::point(1, "absent"),
        ]);
        let got = serve(&lr).execute(&batch).unwrap();
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

    /// The per-query path `eval_assigned` splits grouped probes off
    /// from: every assigned query on its own, the meter reset around it.
    fn per_query<M: OutputMode>(
        queries: &[SelectionQuery],
        shard: &IndexedRelation,
        assigned: &[usize],
        rollback: Option<&Rollback>,
    ) -> ShardResults<M::Part> {
        let meter = Meter::new();
        let mut ids = Vec::new();
        let results = assigned
            .iter()
            .map(|&qi| {
                meter.take();
                let q = &queries[qi];
                let part = match rollback {
                    None => M::current(shard, q, &meter, &mut ids),
                    Some(rollback) => M::rolled_back(rollback, shard, q, &meter, &mut ids),
                };
                (qi, part, meter.take())
            })
            .collect();
        ShardResults { results, ids }
    }

    /// A job's triples with each result in its answer's form.
    trait Resolve: OutputMode {
        fn resolve(job: ShardResults<Self::Part>) -> WorkerResults<Self::Out>;
    }

    impl Resolve for Exists {
        fn resolve(job: ShardResults<bool>) -> WorkerResults<bool> {
            job.results
        }
    }

    /// Also checks the buffer: the spans tile it, and each is ascending
    /// and free of duplicates.
    impl Resolve for RowIds {
        fn resolve(job: ShardResults<Range<usize>>) -> WorkerResults<Vec<usize>> {
            let spanned: usize = job.results.iter().map(|(_, span, _)| span.len()).sum();
            assert_eq!(spanned, job.ids.len(), "the spans tile the buffer");
            let rows = job.into_rows();
            for (qi, ids, _) in &rows {
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "query {qi}: {ids:?}");
            }
            rows
        }
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
    /// repeats, more than a group of each), Int and Str ranges of every
    /// bound kind (more than a group on one column), conjunctions driven
    /// by a point and by a range, in nested shapes, mistyped points,
    /// ranges and conjuncts, and points, ranges and conjunctions on the
    /// unindexed column alone.
    fn mixed_job(n: i64) -> Vec<SelectionQuery> {
        let range = |col, lo: Bound<Value>, hi: Bound<Value>| SelectionQuery::Range { col, lo, hi };
        let city = |k: i64| Value::str(format!("city{k}"));
        let mut queries = Vec::new();
        for k in 0..40i64 {
            queries.push(SelectionQuery::point(0, (k * 37) % (n + 40) - 20));
            queries.push(SelectionQuery::point(1, k % 20));
            queries.push(SelectionQuery::point(2, format!("city{}", k % 30).as_str()));
            queries.push(match k % 3 {
                0 => SelectionQuery::range_closed(0, k * 7 - 10, k * 7 + 12),
                1 => range(0, Bound::Excluded(Value::Int(k * 7)), Bound::Unbounded),
                _ => range(0, Bound::Unbounded, Bound::Excluded(Value::Int(k * 3))),
            });
            // Point-driven: the `grp` point proves itself, the rest is
            // checked; range-driven: no conjunct is an indexed point.
            queries.push(SelectionQuery::and(
                SelectionQuery::point(1, k % 17),
                SelectionQuery::range_closed(0, k * 5, k * 5 + 90),
            ));
            queries.push(SelectionQuery::and(
                range(
                    2,
                    Bound::Included(city(k % 15)),
                    Bound::Excluded(city(k % 15 + 3)),
                ),
                SelectionQuery::point(3, format!("note{}", k % 7).as_str()),
            ));
            match k % 8 {
                0 => queries.push(SelectionQuery::point(0, format!("city{k}").as_str())),
                1 => queries.push(SelectionQuery::point(2, k)),
                2 => queries.push(SelectionQuery::point(3, format!("note{}", k % 9).as_str())),
                3 => queries.push(SelectionQuery::range_closed(0, "a", "z")),
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
                _ => queries.push(SelectionQuery::and(
                    range(2, Bound::Included(Value::Int(k)), Bound::Unbounded),
                    SelectionQuery::point(1, "mistyped"),
                )),
            }
            if k % 5 == 0 {
                queries.push(SelectionQuery::range_closed(3, "note2", "note4"));
            }
        }
        queries
    }

    /// The grouped job equals the per-query path triple by triple —
    /// query index, output, steps — in ascending query order.
    fn assert_same<M: Resolve>(
        grouped: ShardResults<M::Part>,
        single: ShardResults<M::Part>,
        assigned: &[usize],
    ) where
        M::Out: PartialEq + std::fmt::Debug,
    {
        let (grouped, single) = (M::resolve(grouped), M::resolve(single));
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

    /// Every shard's grouped job against the per-query path, read at
    /// `at`, which must (or must not) need a rollback.
    fn live_matches_per_query<M: Resolve>(live: &LiveRelation, at: Epoch, rolled_back: bool)
    where
        M::Out: PartialEq + std::fmt::Debug,
    {
        let (queries, assigned) = job();
        for shard in 0..live.shard_count() {
            let single = live.read_shard_at(shard, at, |current, rollback| {
                assert_eq!(rollback.is_some(), rolled_back, "shard {shard}");
                per_query::<M>(&queries, current, &assigned, rollback)
            });
            assert_same::<M>(
                live.eval_shard::<M>(shard, at, &queries, &assigned),
                single,
                &assigned,
            );
        }
    }

    /// Every grouped probe — point, range, point- or range-driven
    /// conjunction, mistyped or not — answers and charges exactly what
    /// the per-query path does, in both modes, on the current state and
    /// through rollbacks.
    #[test]
    fn grouped_points_match_the_per_query_path() {
        let n = 300;
        let rel = four_columns(n);
        let live = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 3, &[0, 1, 2]).unwrap();
        live_matches_per_query::<Exists>(&live, Epoch::LATEST, false);
        live_matches_per_query::<RowIds>(&live, Epoch::LATEST, false);

        // Writes before the pin leave tombstones and new rows in the
        // current state, which then serves the pin as it stands.
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

    /// Up to nine ascending, disjoint runs, some empty, merge into their
    /// sorted union at exactly its length — also after a longer merge
    /// left more in the scratch buffers.
    #[test]
    fn merged_runs_equal_the_sorted_concatenation() {
        let mut merge = Merge::default();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for case in 0..300usize {
            let mut runs = vec![Vec::new(); case % 10];
            for id in 0..(case * 7) % 90 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if let Some(run) = runs.get_mut(state as usize % (case % 10).max(1)) {
                    run.push(3 * id + state as usize % 3);
                }
            }
            let slices: Vec<&[usize]> = runs.iter().map(Vec::as_slice).collect();
            let mut expect = runs.concat();
            expect.sort_unstable();
            let got = merge.runs(&slices);
            assert_eq!(got, expect, "case {case}");
            assert_eq!(got.capacity(), expect.len(), "one exact allocation");
        }
    }

    #[test]
    fn concurrent_batches_share_one_sharded_relation() {
        let n = 400i64;
        let rel = relation(n);
        let lr = Arc::new(LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 4, &[0, 1]).unwrap());
        let exec = serve(&lr);
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
