//! `fanout_read`: small row-returning batches with no shard-key
//! conjunct at |D| = 2^17.
//!
//! 70 % of the queries are `ts` ranges of width [`RANGE_WIDTH`] (≈ 32
//! rows), 30 % a `grp` point joined with a `ts` range of width
//! [`AND_WIDTH`] (≈ 4 rows). Neither names `id`, so every query goes to
//! all shards: `planner.route`, per-shard job dispatch, the row-id merge
//! and gid translation dominate, and `index` probes are a minority.
//! Shard pruning, dispatch batching and merge work show here and not on
//! `point_read`.

use crate::gen::{self, Base, SplitMix64, TsOrder, GROUPS, TS_SPREAD};
use crate::harness::{self, stream, Ctx};
use crate::reads::{self, Expect, ReadBatch};
use crate::report::Outcome;
use crate::stack::{self, QueryBatch, Res, SelectionQuery};

/// Width of the plain `ts` ranges: 512 ÷ 16 ≈ 32 rows.
pub const RANGE_WIDTH: i64 = 512;
/// Width of the `ts` range joined with a `grp` point:
/// 65 536 ÷ 16 ÷ 1 024 ≈ 4 rows.
pub const AND_WIDTH: i64 = 65_536;
/// Plain ranges per ten queries.
const RANGES_PER_TEN: u64 = 7;

/// `distinct` batches of `batch` queries with the row ids the base data
/// says each must return (ascending — the base row id is the global id).
fn fanout_batches(
    rng: &mut SplitMix64,
    base: &Base,
    order: &TsOrder,
    distinct: usize,
    batch: usize,
) -> Vec<ReadBatch> {
    let domain = TS_SPREAD * base.len() as i64;
    (0..distinct)
        .map(|_| {
            let mut queries = Vec::with_capacity(batch);
            let mut rows = Vec::with_capacity(batch);
            for _ in 0..batch {
                let plain = rng.below(10) < RANGES_PER_TEN;
                let width = if plain { RANGE_WIDTH } else { AND_WIDTH }.min(domain);
                let lo = rng.below_i64(domain - width + 1);
                let hi = lo + width - 1;
                let range = SelectionQuery::range_closed(stack::COL_TS, lo, hi);
                let in_range = order.range(lo, hi).iter().map(|&(_, row)| row);
                let mut ids: Vec<usize> = if plain {
                    queries.push(range);
                    in_range.collect()
                } else {
                    let g = rng.below_i64(GROUPS);
                    queries.push(SelectionQuery::and(
                        SelectionQuery::point(stack::COL_GRP, g),
                        range,
                    ));
                    in_range.filter(|&row| base.grp[row] == g).collect()
                };
                ids.sort_unstable();
                rows.push(ids);
            }
            ReadBatch {
                batch: QueryBatch::new(queries),
                expect: Expect::Rows(rows),
            }
        })
        .collect()
}

/// Run the workload.
pub fn run(ctx: &Ctx<'_>) -> Res<Outcome> {
    let plan = ctx.scale.fanout();
    let n = 1usize << plan.rows_log2;
    let root = SplitMix64::new(ctx.seed);
    let (_, base) = gen::base(&mut root.fork(stream::DATA), n);
    let batches = fanout_batches(
        &mut root.fork(stream::QUERIES),
        &base,
        &TsOrder::new(&base),
        plan.distinct,
        plan.batch,
    );
    let warm = &batches[..plan.warmup.min(batches.len())];
    let mut o = Outcome::new("fanout_read", ctx.traced);

    let (stack, setup_s) = harness::repeat_setup(|_| reads::setup(&root, n, warm))?;
    reads::measure(ctx, &mut o, &stack, setup_s, &batches, plan.batches)?;
    Ok(o)
}
