//! `point_read`: big batches of single-shard point probes at |D| = 2^20.
//!
//! Most of the time goes to B⁺-tree descents in `index`; `pool` and
//! `planner` are a small share and `wal`, `repl` and MVCC rollback are
//! idle — an index or cache-layout gain shows here, and a WAL,
//! replication or fan-out change must show no movement.
//!
//! Before the timed region an untimed **scale probe** serves one fixed
//! batch on 2^12- and 2^16-row copies and on the full relation, and
//! checks the Π-tractability claim as a curve: metered steps per query
//! divided by log₂²|D| must not rise from the smallest size to the
//! largest by more than [`FLATNESS_SLACK`].

use crate::gen::SplitMix64;
use crate::harness::{self, stream, Ctx};
use crate::reads::{self, Expect, ReadBatch};
use crate::report::Outcome;
use crate::stack::{self, QueryBatch, Res, SelectionQuery};
use crate::trace::Tracer;
use std::time::Duration;

/// How far steps/query ÷ log₂²|D| may rise across the probe sizes.
pub const FLATNESS_SLACK: f64 = 0.25;

/// `distinct` batches of `batch` point queries on `id`, keys uniform in
/// `[0, 2n)`: ids below `n` exist, so about half hit.
fn point_batches(rng: &mut SplitMix64, n: usize, distinct: usize, batch: usize) -> Vec<ReadBatch> {
    (0..distinct)
        .map(|_| {
            let keys: Vec<i64> = (0..batch).map(|_| rng.below_i64(2 * n as i64)).collect();
            ReadBatch {
                expect: Expect::Bools(keys.iter().map(|&k| k < n as i64).collect()),
                batch: QueryBatch::new(
                    keys.into_iter()
                        .map(|k| SelectionQuery::point(stack::COL_ID, k)),
                ),
            }
        })
        .collect()
}

/// Metered steps per query of one fixed batch on a fresh `2^log2`-row
/// relation.
fn probe_steps(seed: u64, log2: u32, batch: usize) -> Res<f64> {
    let n = 1usize << log2;
    let root = SplitMix64::new(seed).fork(stream::PROBE + u64::from(log2));
    let batches = point_batches(&mut root.fork(stream::QUERIES), n, 1, batch);
    // Serving the batch as "warm-up" already checks its answers.
    let stack = reads::setup(&root, n, &batches)?;
    let log = reads::drive(
        &stack.served,
        &stack.live,
        &batches,
        0..1,
        Duration::MAX,
        &mut Tracer::off(),
    )?;
    Ok(log.steps as f64 / log.queries as f64)
}

/// Run the workload.
pub fn run(ctx: &Ctx<'_>) -> Res<Outcome> {
    let plan = ctx.scale.point();
    let n = 1usize << plan.rows_log2;
    let root = SplitMix64::new(ctx.seed);
    let batches = point_batches(
        &mut root.fork(stream::QUERIES),
        n,
        plan.distinct,
        plan.batch,
    );
    let warm = &batches[..plan.warmup.min(batches.len())];
    let mut o = Outcome::new("point_read", ctx.traced);

    let mut curve = Vec::new();
    for log2 in plan.probe_log2 {
        curve.push((log2, probe_steps(ctx.seed, log2, plan.batch)?));
    }

    let (stack, setup_s) = harness::repeat_setup(|_| reads::setup(&root, n, warm))?;
    let full = reads::drive(
        &stack.served,
        &stack.live,
        &batches,
        0..1,
        Duration::MAX,
        &mut Tracer::off(),
    )?;
    o.attempted = full.queries;
    o.failed = full.wrong;
    curve.push((plan.rows_log2, full.steps as f64 / full.queries as f64));
    let normalised = |&(log2, steps): &(u32, f64)| steps / f64::from(log2 * log2);
    let (first, last) = (normalised(&curve[0]), normalised(&curve[curve.len() - 1]));
    o.check(
        "polylog flatness",
        last <= first * (1.0 + FLATNESS_SLACK),
        format!(
            "steps/query {} ; ÷ log2²|D| goes {first:.4} -> {last:.4}",
            curve
                .iter()
                .map(|(log2, steps)| format!("2^{log2}: {steps:.2}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );

    reads::measure(ctx, &mut o, &stack, setup_s, &batches, plan.batches)?;
    if ctx.traced {
        for (name, (_, steps)) in [
            "index.steps_per_query.d12",
            "index.steps_per_query.d16",
            "index.steps_per_query.d20",
        ]
        .into_iter()
        .zip(&curve)
        {
            o.set(name, *steps);
        }
    }
    Ok(o)
}
