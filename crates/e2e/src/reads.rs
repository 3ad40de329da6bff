//! Serving and checking read batches — shared by all four workloads.
//!
//! A [`ReadBatch`] carries the answers the benchmark's own model expects,
//! computed before the timed region. [`serve`] times the one blocking
//! call and compares afterwards, so checking never sits inside a
//! latency sample. [`by_hand`] is the traced run's outside-in
//! attribution: the same batch routed and evaluated shard by shard on
//! the generator thread.

use crate::gen::{self, SplitMix64};
use crate::harness::{self, stream, Ctx, Walls};
use crate::report::{peak_rss_mb, Outcome};
use crate::sizing::BY_HAND_EVERY;
use crate::stack::{self, PlanStats, QueryBatch, Res, Served};
use crate::stats::{self, Window};
use crate::trace::{Counts, Span, Tracer};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The answers a batch must produce.
#[derive(Debug, Clone)]
pub enum Expect {
    /// One Boolean per query.
    Bools(Vec<bool>),
    /// A Boolean batch of which only the leading answers are modelled;
    /// the caller checks the rest (`contended_rw`'s window probes).
    Prefix(Vec<bool>),
    /// Ascending global row ids per query.
    Rows(Vec<Vec<usize>>),
}

/// A pre-generated batch with its expected answers.
#[derive(Debug, Clone)]
pub struct ReadBatch {
    /// The queries.
    pub batch: QueryBatch,
    /// What they must answer.
    pub expect: Expect,
}

/// One served batch.
#[derive(Debug)]
pub struct ServedBatch {
    /// Seconds inside `execute` / `execute_rows`.
    pub secs: f64,
    /// Metered steps.
    pub steps: u64,
    /// Queries whose answer differed from the model (all of them when
    /// the call itself erred).
    pub wrong: u64,
    /// Rows returned (row batches) or `true` answers (Boolean batches).
    pub rows: u64,
    /// The Boolean answers, for checks the caller layers on top.
    pub answers: Vec<bool>,
    /// The report digest (traced run only).
    pub plan: Option<PlanStats>,
}

/// Serve `rb` on `served`, time the call, then compare with the model.
/// `span` names the traced span; `parent`/`request` place it.
pub fn serve<R: stack::Servable>(
    served: &Served<R>,
    rb: &ReadBatch,
    tracer: &mut Tracer,
    span: &'static str,
    parent: u32,
    request: u32,
) -> ServedBatch {
    let queries = rb.batch.len() as u64;
    let open = tracer.begin(span, parent, request);
    let started = Instant::now();
    let outcome = match &rb.expect {
        Expect::Bools(_) | Expect::Prefix(_) => served.execute(&rb.batch).map(Answer::Bools),
        Expect::Rows(_) => served.execute_rows(&rb.batch).map(Answer::Rows),
    };
    let secs = started.elapsed().as_secs_f64();
    let outcome = outcome.ok();
    let (steps, rows) = outcome.as_ref().map_or((0, 0), Answer::counts);
    tracer.end(
        open,
        Counts {
            steps,
            rows,
            records: queries,
            bytes: 0,
        },
    );
    let plan = outcome
        .as_ref()
        .filter(|_| tracer.enabled())
        .map(Answer::plan_stats);
    let (wrong, answers) = match (outcome, &rb.expect) {
        (Some(Answer::Bools(reply)), Expect::Bools(want)) => {
            (mismatches(&reply.out, want), reply.out)
        }
        (Some(Answer::Bools(reply)), Expect::Prefix(want)) if reply.out.len() >= want.len() => {
            (mismatches(&reply.out[..want.len()], want), reply.out)
        }
        (Some(Answer::Rows(reply)), Expect::Rows(want)) => {
            (mismatches(&reply.out, want), Vec::new())
        }
        // An erred (or short) reply: every query of the batch failed.
        _ => (queries, Vec::new()),
    };
    ServedBatch {
        secs,
        steps,
        wrong,
        rows,
        answers,
        plan,
    }
}

enum Answer {
    Bools(stack::Reply<Vec<bool>>),
    Rows(stack::Reply<Vec<Vec<usize>>>),
}

impl Answer {
    /// `(metered steps, rows or true answers returned)`.
    fn counts(&self) -> (u64, u64) {
        match self {
            Answer::Bools(reply) => (
                reply.steps,
                reply.out.iter().filter(|&&hit| hit).count() as u64,
            ),
            Answer::Rows(reply) => (reply.steps, reply.out.iter().map(|r| r.len() as u64).sum()),
        }
    }

    fn plan_stats(&self) -> PlanStats {
        match self {
            Answer::Bools(reply) => reply.plan_stats(),
            Answer::Rows(reply) => reply.plan_stats(),
        }
    }
}

/// Positions where `got` and `want` differ, a length mismatch counting
/// for every missing position.
fn mismatches<T: PartialEq>(got: &[T], want: &[T]) -> u64 {
    let differing = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (differing + got.len().abs_diff(want.len())) as u64
}

/// Route `rb` and evaluate each shard's share in turn under one pin, on
/// the calling thread, recording `planner.route`, `live.pin` and one
/// `index.eval` span per shard under `parent`.
pub fn by_hand(
    live: &stack::Live,
    rb: &ReadBatch,
    tracer: &mut Tracer,
    parent: u32,
    request: u32,
) -> Res<()> {
    let open = tracer.begin("planner.route", parent, request);
    let routed = stack::route(live, &rb.batch)?;
    tracer.end(
        open,
        Counts {
            records: rb.batch.len() as u64,
            ..Counts::default()
        },
    );
    let open = tracer.begin("live.pin", parent, request);
    let pin = stack::pin(live);
    tracer.end(open, Counts::default());
    for (shard, assigned) in routed.per_shard.iter().enumerate() {
        if assigned.is_empty() {
            continue;
        }
        let open = tracer.begin("index.eval", parent, request);
        let (rows, steps) = match rb.expect {
            Expect::Bools(_) | Expect::Prefix(_) => {
                stack::eval_bool_shard(live, &pin, shard, &rb.batch, assigned)
            }
            Expect::Rows(_) => stack::eval_rows_shard(live, &pin, shard, &rb.batch, assigned),
        };
        tracer.end(
            open,
            Counts {
                steps,
                rows: rows as u64,
                records: assigned.len() as u64,
                bytes: 0,
            },
        );
    }
    Ok(())
}

/// What a run of served batches added up to.
#[derive(Debug, Default)]
pub struct ReadLog {
    /// Seconds inside the serving call, per batch, in issue order.
    pub secs: Vec<f64>,
    /// Queries issued.
    pub queries: u64,
    /// Metered steps.
    pub steps: u64,
    /// Queries answered wrongly or not at all.
    pub wrong: u64,
    /// Rows (or `true` answers) returned.
    pub rows: u64,
    /// Σ of the report digests (traced requests only), and how many
    /// batches, queries and metered steps those digests cover.
    pub plan: PlanStats,
    /// `(batches, queries, steps)` behind [`Self::plan`].
    pub planned: (u64, u64, u64),
    /// Wall-clock seconds the batches took, checks and spans included.
    pub wall_s: f64,
    /// The same, split by reference and traced requests.
    pub walls: Walls,
}

impl ReadLog {
    /// Account one served batch of `queries` queries.
    pub fn push(&mut self, served: &ServedBatch, queries: usize) {
        self.secs.push(served.secs);
        self.queries += queries as u64;
        self.steps += served.steps;
        self.wrong += served.wrong;
        self.rows += served.rows;
        if let Some(plan) = served.plan {
            self.planned.0 += 1;
            self.planned.1 += queries as u64;
            self.planned.2 += served.steps;
            self.plan.shards_probed += plan.shards_probed;
            self.plan.est_steps += plan.est_steps;
            self.plan.admission_wait += plan.admission_wait;
            for (total, n) in self.plan.paths.iter_mut().zip(plan.paths) {
                *total += n;
            }
        }
    }
}

/// Serve requests `requests` (request `i` is batch `i mod len`) in a
/// closed loop from the calling thread, stopping early once `deadline`
/// has passed. The traced run wraps each in a `request` span and
/// re-evaluates every [`BY_HAND_EVERY`]-th by hand — except its
/// reference requests, served as the untraced run would.
pub fn drive(
    served: &Served<stack::Live>,
    live: &stack::Live,
    batches: &[ReadBatch],
    requests: Range<usize>,
    deadline: Duration,
    tracer: &mut Tracer,
) -> Res<ReadLog> {
    let mut log = ReadLog::default();
    log.secs.reserve(requests.len());
    let mut off = Tracer::off();
    let started = Instant::now();
    for i in requests {
        if started.elapsed() > deadline {
            break;
        }
        let reference = Walls::is_reference(tracer, i);
        let tracer = if reference { &mut off } else { &mut *tracer };
        let rb = &batches[i % batches.len()];
        let request = i as u32 + 1;
        let began = Instant::now();
        let root = tracer.begin("request", 0, request);
        let served_batch = serve(served, rb, tracer, "pool.execute", root.id, request);
        if tracer.enabled() && i % BY_HAND_EVERY == 1 {
            by_hand(live, rb, tracer, root.id, request)?;
        }
        tracer.end(root, Counts::default());
        log.walls.add(reference, began);
        log.push(&served_batch, rb.batch.len());
    }
    log.wall_s = started.elapsed().as_secs_f64();
    Ok(log)
}

/// The read half of the end-to-end metrics, from an untraced log of
/// batches of `batch` queries each: throughput from window `which`, the
/// tail as the median of the windows' tails. The caller names the
/// median latency (`request_p50_ms` or `read_batch_p50_ms`).
pub fn end_to_end(o: &mut Outcome, log: &ReadLog, batch: usize, which: Window) -> stats::Windowed {
    let w = stats::windowed(&log.secs, batch as f64);
    o.set("read_qps", w.rate.at(which));
    o.set("read_batch_p99_ms", w.tail.median * 1e3);
    o.set(
        "steps_per_query",
        log.steps as f64 / log.queries.max(1) as f64,
    );
    o.notes.push(format!(
        "reads of {batch} queries ({which:?} window reported): {}",
        w.describe()
    ));
    w
}

/// Median and tail of a traced log's read batches, as [`end_to_end`]
/// takes them.
pub fn latency_layers(o: &mut Outcome, log: &ReadLog, batch: usize, which: Window) {
    let w = stats::windowed(&log.secs, batch as f64);
    o.set("pool.read_batch_p50_ms", w.p50.at(which) * 1e3);
    o.set("pool.read_batch_p99_ms", w.tail.median * 1e3);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the traced batches' cost reports add up to: fan-out, access
/// paths, planner accuracy, gate waits, output size.
pub fn report_layers(o: &mut Outcome, log: &ReadLog) {
    let (batches, queries, steps) = log.planned;
    let queries = queries as f64;
    o.set(
        "planner.shards_per_query",
        ratio(log.plan.shards_probed as f64, queries),
    );
    for (name, count) in [
        "planner.path_share.point",
        "planner.path_share.range",
        "planner.path_share.inl",
        "planner.path_share.scan",
    ]
    .into_iter()
    .zip(log.plan.paths)
    {
        o.set(name, ratio(count as f64, queries));
    }
    o.set(
        "planner.est_over_metered",
        ratio(log.plan.est_steps as f64, steps as f64),
    );
    o.set(
        "pool.admission_wait_us",
        ratio(log.plan.admission_wait.as_secs_f64() * 1e6, batches as f64),
    );
    o.set(
        "pool.rows_per_query",
        ratio(log.rows as f64, log.queries as f64),
    );
}

/// Planner, index, pool and pin attribution from the by-hand spans: they
/// give the parts, the `pool.execute` spans of the same requests the
/// whole, and the difference is the pool's own overhead (dispatch,
/// wake-up, merge, gid translation).
pub fn by_hand_layers(o: &mut Outcome, spans: &[Span]) {
    #[derive(Default)]
    struct Parts {
        route: f64,
        pin: f64,
        eval_sum: f64,
        eval_max: f64,
        execute: f64,
        steps: u64,
        by_hand: bool,
    }
    let mut requests: BTreeMap<u32, Parts> = BTreeMap::new();
    for s in spans {
        let us = s.dur_ns() as f64 / 1e3;
        let parts = requests.entry(s.request).or_default();
        match s.name {
            "planner.route" => parts.route += us,
            "live.pin" => parts.pin += us,
            "pool.execute" => parts.execute += us,
            "index.eval" => {
                parts.eval_sum += us;
                parts.eval_max = parts.eval_max.max(us);
                parts.steps += s.counts.steps;
                parts.by_hand = true;
            }
            _ => {}
        }
    }
    let sampled: Vec<&Parts> = requests.values().filter(|p| p.by_hand).collect();
    let n = sampled.len() as f64;
    let mean = |f: fn(&Parts) -> f64| ratio(sampled.iter().map(|p| f(p)).sum(), n);
    let (route, eval, eval_max, execute) = (
        mean(|p| p.route),
        mean(|p| p.eval_sum),
        mean(|p| p.eval_max),
        mean(|p| p.execute),
    );
    let steps: u64 = sampled.iter().map(|p| p.steps).sum();
    o.set("planner.route_us_per_batch", route);
    o.set("index.eval_us_per_batch", eval);
    o.set("index.eval_max_shard_us", eval_max);
    o.set("index.ns_per_step", ratio(eval * n * 1e3, steps as f64));
    o.set("pool.execute_us_per_batch", execute);
    o.set("pool.overhead_us_per_batch", execute - route - eval_max);
    o.set("live.pin_us", mean(|p| p.pin));
    o.notes.push(format!(
        "by-hand attribution over {} of {} traced batches",
        sampled.len(),
        requests.len()
    ));
}

/// A live relation behind its pooled executor: the whole stack of the
/// two read-only workloads.
pub struct ReadStack {
    /// The relation.
    pub live: Arc<stack::Live>,
    /// Its serving session.
    pub served: Served<stack::Live>,
    /// Seconds `Π(D)` took to build.
    pub build_s: f64,
}

/// Generate `n` base rows from `root`'s data stream, build, spawn the
/// pool, and serve the `warm` batches untimed.
pub fn setup(root: &SplitMix64, n: usize, warm: &[ReadBatch]) -> Res<ReadStack> {
    let (rows, _) = gen::base(&mut root.fork(stream::DATA), n);
    let started = Instant::now();
    let live = Arc::new(stack::build_live(rows)?);
    let build_s = started.elapsed().as_secs_f64();
    let served = Served::new(Arc::clone(&live));
    let warmed = drive(
        &served,
        &live,
        warm,
        0..warm.len(),
        Duration::MAX,
        &mut Tracer::off(),
    )?;
    if warmed.wrong > 0 {
        return Err(format!("{} wrong answers during warm-up", warmed.wrong));
    }
    Ok(ReadStack {
        live,
        served,
        build_s,
    })
}

/// The window the two read-only workloads report: their data is static
/// and every window does the same work.
const WINDOW: Window = Window::Quietest;

/// The timed region and the report of a read-only workload: serve
/// `requests` batches of `batch` queries, then fill `o` with the
/// end-to-end metrics (untraced) or the per-layer ones (traced).
pub fn measure(
    ctx: &Ctx<'_>,
    o: &mut Outcome,
    stack: &ReadStack,
    setup_s: f64,
    batches: &[ReadBatch],
    requests: usize,
) -> Res<()> {
    let mut tracer = if ctx.traced {
        Tracer::on(Instant::now(), 0, requests * 4)
    } else {
        Tracer::off()
    };
    let log = drive(
        &stack.served,
        &stack.live,
        batches,
        0..requests,
        ctx.scale.deadline(),
        &mut tracer,
    )?;
    let spans = harness::collect_spans(ctx, vec![tracer])?;
    harness::note_if_cut(o, log.secs.len(), requests, "read batches");

    o.attempted += log.queries;
    o.failed += log.wrong;
    o.timed_s = log.wall_s;
    if ctx.traced {
        report_layers(o, &log);
        by_hand_layers(o, &spans);
        o.notes.extend(harness::span_table(ctx, &spans));
        o.set(
            "pool.admission_waits",
            stack.served.admission_waits() as f64,
        );
        harness::build_layers(o, stack.build_s, stack::live_len(&stack.live));
        o.set("trace.wall_ratio", log.walls.ratio());
        latency_layers(o, &log, batches[0].batch.len(), WINDOW);
    } else {
        let w = end_to_end(o, &log, batches[0].batch.len(), WINDOW);
        // The read batch is these workloads' defining request.
        o.set("request_p50_ms", w.p50.at(WINDOW) * 1e3);
        o.set("setup_s", setup_s);
        o.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_count_differences_and_missing_answers() {
        assert_eq!(mismatches(&[true, false], &[true, false]), 0);
        assert_eq!(mismatches(&[true, true], &[true, false]), 1);
        assert_eq!(mismatches(&[true], &[true, false, true]), 2);
        assert_eq!(mismatches::<bool>(&[], &[]), 0);
    }
}
