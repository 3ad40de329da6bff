//! `contended_rw`: writes beside reads on the same `live` layer.
//!
//! A writer thread issues durable 64-op batches **open loop** at a
//! fixed rate (≈ ¼ of the measured closed-loop capacity): 32 inserts of
//! monotonically increasing ids and 32 deletes of the oldest ids of a
//! sliding window, so the live window ids are always one contiguous
//! interval. A reader thread serves 256-query pinned Boolean batches in
//! a closed loop: 80 % `point(id)`, 20 % `ts` ranges, 16 of the points
//! probing ascending ids across both window edges.
//!
//! This is the only workload where undo rings fill, pinned readers roll
//! back, and shard, gid and epoch locks are contended. The fixed write
//! rate keeps a read-side speed-up from "stealing" the writer's CPU and
//! showing up as a write regression. Write latency is timed from each
//! batch's due time, and how late the generator ran is reported.
//!
//! Consistency is checked per batch: the ordered window probes must
//! read `false* true* false*` — any pinned cut, even one taken between
//! two ops of a write batch, sees a contiguous window — and every static
//! query must answer as in the base data.

use crate::gen::{self, Base, SplitMix64, TsOrder, GROUPS, TS_SPREAD};
use crate::harness::{self, stream, Ctx, Walls};
use crate::reads::{self, Expect, ReadBatch, ReadLog};
use crate::report::{peak_rss_mb, Outcome};
use crate::sizing::ContendedPlan;
use crate::stack::{
    self, Applied, Primary, QueryBatch, Res, SelectionQuery, Served, UpdateOp, Value,
};
use crate::stats::{self, Window};
use crate::trace::{self, Counts, Tracer};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Undo rings grow, WAL segments rotate and the window slides as the
/// run goes on: every phase of it counts.
const WINDOW: Window = Window::Median;

/// Width of the Boolean `ts` ranges (≈ 32 static rows: true w.h.p.).
const RANGE_WIDTH: i64 = 512;
/// A write batch issued later than this after its due time is "late".
const LATE: Duration = Duration::from_millis(1);

/// Where ids and gids of the sliding window sit: window ids start at
/// `2n`, above every static id and every static miss probe; their rows
/// follow the `n` static rows, so window id `2n + k` has gid `n + k`.
#[derive(Debug, Clone, Copy)]
struct Layout {
    n: usize,
    window: usize,
    half: usize,
}

impl Layout {
    fn id(&self, k: usize) -> i64 {
        (2 * self.n + k) as i64
    }

    fn gid(&self, k: usize) -> usize {
        self.n + k
    }

    /// A window row: its `ts` lies above the queried domain, so `ts`
    /// ranges depend on the static rows alone.
    fn row(&self, k: usize, rng: &mut SplitMix64) -> Vec<Value> {
        stack::row(
            self.id(k),
            TS_SPREAD * self.n as i64 + k as i64,
            rng.below_i64(GROUPS),
            rng.payload(),
        )
    }

    /// Ascending probe ids across both edges of the window as it stands
    /// after `applied` write batches: half of them around the lower
    /// edge, half around the upper, one write batch's worth apart.
    fn probes(&self, applied: usize, count: usize) -> impl Iterator<Item = i64> + '_ {
        let lo = (applied * self.half) as i64;
        let hi = lo + self.window as i64;
        let per_edge = (count / 2) as i64;
        let step = self.half as i64;
        [lo, hi].into_iter().flat_map(move |edge| {
            (0..per_edge).map(move |j| self.id(0) + edge + step * (j - per_edge / 2))
        })
    }
}

/// The modelled part of a read batch: static points and `ts` ranges.
struct StaticPart {
    queries: Vec<SelectionQuery>,
    expect: Vec<bool>,
}

fn static_parts(
    rng: &mut SplitMix64,
    base: &Base,
    order: &TsOrder,
    plan: &ContendedPlan,
) -> Vec<StaticPart> {
    let n = base.len() as i64;
    let ranges = plan.read_batch / 5;
    let points = plan.read_batch - ranges - plan.probes;
    (0..plan.distinct)
        .map(|_| {
            let mut queries = Vec::with_capacity(plan.read_batch);
            let mut expect = Vec::with_capacity(plan.read_batch);
            for _ in 0..points {
                let key = rng.below_i64(2 * n);
                queries.push(SelectionQuery::point(stack::COL_ID, key));
                expect.push(key < n);
            }
            for _ in 0..ranges {
                let lo = rng.below_i64(TS_SPREAD * n - RANGE_WIDTH + 1);
                let hi = lo + RANGE_WIDTH - 1;
                queries.push(SelectionQuery::range_closed(stack::COL_TS, lo, hi));
                expect.push(!order.range(lo, hi).is_empty());
            }
            StaticPart { queries, expect }
        })
        .collect()
}

/// One pre-generated write batch and the gids its inserts must get.
struct WriteBatch {
    ops: Vec<UpdateOp>,
    first_gid: usize,
}

fn write_batches(rng: &mut SplitMix64, layout: Layout, count: usize) -> Vec<WriteBatch> {
    (0..count)
        .map(|b| {
            let first = layout.window + b * layout.half;
            let mut ops: Vec<UpdateOp> = (first..first + layout.half)
                .map(|k| UpdateOp::Insert(layout.row(k, rng)))
                .collect();
            ops.extend(
                (b * layout.half..(b + 1) * layout.half).map(|k| UpdateOp::Delete(layout.gid(k))),
            );
            WriteBatch {
                ops,
                first_gid: layout.gid(first),
            }
        })
        .collect()
}

/// Updates whose outcome differs from the model: inserts get the next
/// gids in order, every delete removes a row.
fn wrong_outcomes(applied: &[Applied], batch: &WriteBatch, half: usize) -> u64 {
    let mut wrong = applied.len().abs_diff(batch.ops.len());
    for (i, outcome) in applied.iter().enumerate() {
        let ok = match outcome {
            Applied::Inserted(gid) => i < half && *gid == batch.first_gid + i,
            Applied::Deleted(row) => i >= half && row.is_some(),
        };
        wrong += usize::from(!ok);
    }
    wrong as u64
}

/// `false* true* false*`: the probes saw one contiguous window.
fn one_cut(answers: &[bool]) -> bool {
    let rest = answers.iter().skip_while(|&&a| !a).skip_while(|&&a| a);
    rest.into_iter().all(|&a| !a)
}

/// Everything both generator threads work from.
struct Scene<'a> {
    stack: &'a Stack,
    layout: Layout,
    plan: &'a ContendedPlan,
    parts: &'a [StaticPart],
}

struct Stack {
    primary: Primary,
    served: Served<stack::Durable>,
    build_s: f64,
    /// Median seconds of the read batches served before any writer ran.
    quiesced_p50_s: f64,
}

fn setup(
    ctx: &Ctx<'_>,
    round: usize,
    layout: Layout,
    plan: &ContendedPlan,
    parts: &[StaticPart],
) -> Res<Stack> {
    if round > 0 {
        let _ = std::fs::remove_dir_all(ctx.dir.join(&format!("node-{}", round - 1)));
    }
    let root = SplitMix64::new(ctx.seed);
    let (mut rows, _) = gen::base(&mut root.fork(stream::DATA), layout.n);
    let mut window_rng = root.fork(stream::UPDATES + 1);
    rows.extend((0..layout.window).map(|k| layout.row(k, &mut window_rng)));
    let started = Instant::now();
    let live = stack::build_live(rows)?;
    let build_s = started.elapsed().as_secs_f64();
    let primary = Primary::create(live, &ctx.dir.join(&format!("node-{round}")))?;
    let served = Served::new(Arc::clone(&primary.node));
    let mut stack = Stack {
        primary,
        served,
        build_s,
        quiesced_p50_s: 0.0,
    };
    let scene = Scene {
        stack: &stack,
        layout,
        plan,
        parts,
    };
    let quiesced = read_loop(
        &scene,
        &AtomicUsize::new(0),
        Some(plan.quiesced),
        &AtomicBool::new(false),
        &mut Tracer::off(),
    );
    if quiesced.failed() > 0 {
        return Err(format!("{} failed reads during warm-up", quiesced.failed()));
    }
    stack.quiesced_p50_s = stats::median(&quiesced.reads.secs);
    Ok(stack)
}

#[derive(Default)]
struct ReaderLog {
    reads: ReadLog,
    broken_cuts: u64,
    retained_max: usize,
}

impl ReaderLog {
    fn failed(&self) -> u64 {
        self.reads.wrong + self.broken_cuts
    }
}

/// Closed-loop reads from the calling thread: `limit` batches, or until
/// `done` when there is no limit.
fn read_loop(
    scene: &Scene<'_>,
    applied: &AtomicUsize,
    limit: Option<usize>,
    done: &AtomicBool,
    tracer: &mut Tracer,
) -> ReaderLog {
    let Scene {
        stack,
        layout,
        plan,
        parts,
    } = *scene;
    let mut log = ReaderLog::default();
    let mut off = Tracer::off();
    let started = Instant::now();
    let mut i = 0;
    while limit.map_or(!done.load(Ordering::Acquire), |l| i < l) {
        let reference = Walls::is_reference(tracer, i);
        let tracer = if reference { &mut off } else { &mut *tracer };
        let began = Instant::now();
        let part = &parts[i % parts.len()];
        // The static part is pre-generated; only the probes are aimed,
        // outside the timed call, at where the window stands now.
        let probes = layout
            .probes(applied.load(Ordering::Acquire), plan.probes)
            .map(|id| SelectionQuery::point(stack::COL_ID, id));
        let rb = ReadBatch {
            batch: QueryBatch::new(part.queries.iter().cloned().chain(probes)),
            expect: Expect::Prefix(part.expect.clone()),
        };
        let request = i as u32 + 1;
        let served = reads::serve(&stack.served, &rb, tracer, "pool.execute", 0, request);
        let cut_ok =
            served.answers.len() == rb.batch.len() && one_cut(&served.answers[part.expect.len()..]);
        log.broken_cuts += u64::from(!cut_ok);
        log.reads.push(&served, rb.batch.len());
        if tracer.enabled() {
            log.retained_max = log
                .retained_max
                .max(stack::retained_undo(&stack.primary.node));
        }
        log.reads.walls.add(reference, began);
        i += 1;
    }
    log.reads.wall_s = started.elapsed().as_secs_f64();
    log
}

#[derive(Default)]
struct WriterLog {
    /// Seconds from each batch's due time to its durable acknowledgement.
    from_due_s: Vec<f64>,
    /// Seconds inside `apply_batch`.
    call_s: Vec<f64>,
    late: u64,
    updates: u64,
    wrong_updates: u64,
}

/// Open-loop writes: batch `k` is due `k / rate` seconds after the loop
/// starts, whether or not the one before has returned. A writer that has
/// fallen behind its schedule past `deadline` stops issuing.
fn write_loop(
    scene: &Scene<'_>,
    batches: &[WriteBatch],
    applied: &AtomicUsize,
    deadline: Duration,
    tracer: &mut Tracer,
) -> Res<WriterLog> {
    let mut log = WriterLog::default();
    let period = Duration::from_secs_f64(1.0 / scene.plan.write_rate as f64);
    let started = Instant::now();
    for (k, batch) in batches.iter().enumerate() {
        if started.elapsed() > deadline {
            break;
        }
        let ops = batch.ops.clone();
        let due = started + period * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let open = tracer.begin("wal.apply_batch", 0, k as u32 + 1);
        let issued = Instant::now();
        let outcomes = stack::apply_batch(&scene.stack.primary.node, ops)?;
        let acknowledged = Instant::now();
        tracer.end(open, Counts::records(outcomes.len()));
        applied.store(k + 1, Ordering::Release);
        log.from_due_s.push((acknowledged - due).as_secs_f64());
        log.call_s.push((acknowledged - issued).as_secs_f64());
        log.late += u64::from(issued.saturating_duration_since(due) > LATE);
        log.updates += batch.ops.len() as u64;
        log.wrong_updates += wrong_outcomes(&outcomes, batch, scene.layout.half);
    }
    Ok(log)
}

/// Tells the reader the writer is gone — from a drop, so an error return
/// and a panic unwinding through the writer both release the reader,
/// which would otherwise loop (and the scope wait) forever.
struct Done<'a>(&'a AtomicBool);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The timed region: the writer on its own thread, the reader on this
/// one, until the writer has issued every batch.
fn contend(
    scene: &Scene<'_>,
    batches: &[WriteBatch],
    deadline: Duration,
    (mut write_tracer, mut read_tracer): (Tracer, Tracer),
) -> Res<(WriterLog, ReaderLog, Vec<Tracer>)> {
    let applied = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let (written, read) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let _done = Done(&done);
            write_loop(scene, batches, &applied, deadline, &mut write_tracer)
        });
        let read = read_loop(scene, &applied, None, &done, &mut read_tracer);
        (writer.join(), read)
    });
    let written = written.map_err(|_| "the writer thread panicked".to_string())??;
    Ok((written, read, vec![write_tracer, read_tracer]))
}

/// Run the workload.
pub fn run(ctx: &Ctx<'_>) -> Res<Outcome> {
    let plan = ctx.scale.contended();
    let layout = Layout {
        n: 1 << plan.rows_log2,
        window: plan.window,
        half: plan.ops / 2,
    };
    let root = SplitMix64::new(ctx.seed);
    let (_, base) = gen::base(&mut root.fork(stream::DATA), layout.n);
    let parts = static_parts(
        &mut root.fork(stream::QUERIES),
        &base,
        &TsOrder::new(&base),
        &plan,
    );
    let batches = write_batches(&mut root.fork(stream::UPDATES), layout, plan.write_batches);
    let mut o = Outcome::new("contended_rw", ctx.traced);

    let (stack, setup_s) = harness::repeat_setup(|round| setup(ctx, round, layout, &plan, &parts))?;
    let (_, wal_before, _) = stack.primary.disk_bytes()?;

    let tracers = if ctx.traced {
        let origin = Instant::now();
        // Reads outnumber writes; both buffers are sized for the reads a
        // run of this length can serve.
        let capacity = plan.write_batches * 64;
        (
            Tracer::on(origin, 0, capacity),
            Tracer::on(origin, 1, capacity),
        )
    } else {
        (Tracer::off(), Tracer::off())
    };
    let scene = Scene {
        stack: &stack,
        layout,
        plan: &plan,
        parts: &parts,
    };
    let (written, read, tracers) = contend(&scene, &batches, ctx.scale.deadline(), tracers)?;
    let spans = harness::collect_spans(ctx, tracers)?;
    let done = written.call_s.len();
    harness::note_if_cut(&mut o, done, plan.write_batches, "write batches");

    // At quiesce the window is exactly where the model says.
    let lo = done * layout.half;
    let hi = lo + layout.window;
    let ids = |k: usize| {
        stack::matching_ids(
            &stack.primary.node,
            &SelectionQuery::point(stack::COL_ID, layout.id(k)),
        )
    };
    let edges_ok = lo.checked_sub(1).is_none_or(|k| ids(k).is_empty())
        && ids(lo) == [layout.gid(lo)]
        && ids(hi - 1) == [layout.gid(hi - 1)]
        && ids(hi).is_empty();
    let rows = stack::live_len(&stack.primary.node);
    o.check(
        "window at quiesce",
        edges_ok && rows == layout.n + layout.window,
        format!(
            "{rows} rows (model {}), window edges {}",
            layout.n + layout.window,
            if edges_ok { "exact" } else { "wrong" }
        ),
    );

    o.attempted = written.updates + read.reads.queries;
    o.failed = written.wrong_updates + read.failed();
    o.timed_s = read.reads.wall_s;
    let from_due = stats::windowed(&written.from_due_s, plan.ops as f64);
    let calls = stats::windowed(&written.call_s, plan.ops as f64);
    if ctx.traced {
        let layers = trace::by_name(&spans);
        let us = |name: &str| layers.get(name).map_or(0.0, trace::Layer::mean_us);
        o.set("wal.write_ups", calls.rate.at(WINDOW));
        o.set("wal.write_batch_p50_ms", from_due.p50.at(WINDOW) * 1e3);
        o.set("wal.write_batch_p99_ms", from_due.tail.median * 1e3);
        reads::latency_layers(&mut o, &read.reads, plan.read_batch, WINDOW);
        o.set("wal.commits", written.call_s.len() as f64);
        let (_, wal_after, segments) = stack.primary.disk_bytes()?;
        o.set(
            "wal.bytes_per_update",
            wal_after.saturating_sub(wal_before) as f64 / written.updates.max(1) as f64,
        );
        o.set("wal.segments", segments as f64);
        harness::wal_probe_layers(ctx, &mut o, plan.wal_probe_commits, plan.ops)?;
        o.set("live.retained_undo_max", read.retained_max as f64);
        o.set(
            "live.read_under_write_ratio",
            stats::median(&read.reads.secs) / stack.quiesced_p50_s,
        );
        harness::maintenance_layers(&mut o, &stack.primary.node);
        o.set(
            "gen.late_share",
            written.late as f64 / written.call_s.len().max(1) as f64,
        );
        reads::report_layers(&mut o, &read.reads);
        o.set("pool.execute_us_per_batch", us("pool.execute"));
        o.set(
            "pool.admission_waits",
            stack.served.admission_waits() as f64,
        );
        harness::build_layers(&mut o, stack.build_s, layout.n + layout.window);
        o.set("trace.wall_ratio", read.reads.walls.ratio());
        o.notes.push(format!(
            "{} write batches and {} read batches traced; quiesced read p50 {:.4} ms",
            written.call_s.len(),
            read.reads.secs.len(),
            stack.quiesced_p50_s * 1e3
        ));
        o.notes.extend(harness::span_table(ctx, &spans));
    } else {
        let reads = reads::end_to_end(&mut o, &read.reads, plan.read_batch, WINDOW);
        o.set("read_batch_p50_ms", reads.p50.at(WINDOW) * 1e3);
        o.set("request_p50_ms", from_due.p50.at(WINDOW) * 1e3);
        o.set("write_batch_p99_ms", from_due.tail.median * 1e3);
        o.set("write_ups", calls.rate.at(WINDOW));
        o.set("setup_s", setup_s);
        o.set("peak_rss_mb", peak_rss_mb());
        o.notes.push(format!(
            "requests: write batches at {}/s timed from their due time, {} issued > 1 ms late: {}",
            plan.write_rate,
            written.late,
            from_due.describe()
        ));
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cut_accepts_exactly_false_true_false() {
        assert!(one_cut(&[]));
        assert!(one_cut(&[false, false]));
        assert!(one_cut(&[true, true]));
        assert!(one_cut(&[false, true, true, false]));
        assert!(one_cut(&[true, false]));
        assert!(!one_cut(&[true, false, true]));
        assert!(!one_cut(&[false, true, false, true, false]));
    }

    #[test]
    fn a_panicking_writer_still_releases_the_reader() {
        let done = AtomicBool::new(false);
        let joined = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let _done = Done(&done);
                panic!("the writer died mid-run");
            });
            while !done.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            writer.join()
        });
        assert!(joined.is_err());
    }

    #[test]
    fn probes_ascend_across_both_edges_of_the_current_window() {
        let layout = Layout {
            n: 1_024,
            window: 256,
            half: 8,
        };
        let probes: Vec<i64> = layout.probes(3, 16).collect();
        assert_eq!(probes.len(), 16);
        assert!(probes.windows(2).all(|w| w[0] < w[1]), "{probes:?}");
        // After 3 batches the window is ids [2n+24, 2n+280).
        let (lo, hi) = (layout.id(24), layout.id(280));
        assert!(probes.contains(&lo) && probes.contains(&hi));
        assert!(probes[0] < lo && probes[15] > hi);
        // Before the first write the lowest probes fall among the
        // static misses, below every window id.
        assert!(layout.probes(0, 16).next().unwrap() < layout.id(0));
    }

    #[test]
    fn write_batches_slide_the_window_by_half_a_batch() {
        let layout = Layout {
            n: 100,
            window: 32,
            half: 2,
        };
        let batches = write_batches(&mut SplitMix64::new(1), layout, 3);
        assert_eq!(batches[1].first_gid, 100 + 32 + 2);
        assert_eq!(batches[1].ops.len(), 4);
        assert!(
            matches!(&batches[1].ops[0], UpdateOp::Insert(row) if row[0] == Value::Int(200 + 32 + 2))
        );
        assert_eq!(batches[1].ops[2], UpdateOp::Delete(100 + 2));
        assert_eq!(batches[1].ops[3], UpdateOp::Delete(100 + 3));
    }
}
