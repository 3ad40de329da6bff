//! `write_replicate`: the whole durable path, in order and alone.
//!
//! One generator thread runs sequential cycles against a durable
//! primary (|D| = 2^17) and one attached follower, each behind its own
//! pooled executor:
//!
//! 1. durable `apply_batch` of 64 ops — 32 inserts of fresh ids, 32
//!    deletes of seeded-random live rows, so |D| is stationary;
//! 2. `follower.catch_up` to lag 0 (the traced run performs it by its
//!    public parts: poll → apply shipment → advance → empty poll);
//! 3. one 256-query Boolean batch on the follower — the 32 ids just
//!    inserted must answer true, the 32 just deleted false, the rest are
//!    uniform points — and
//! 4. the same batch on the primary.
//!
//! Every `checkpoint_every` cycles the primary checkpoints and compacts
//! its WAL through the publisher. At the end the follower, the primary
//! and an in-memory shadow that was fed the same ops must agree on
//! length and on a key sample (answers and global ids); then everything
//! is dropped and the primary is recovered, and the follower restarted,
//! from what is on disk.
//!
//! With no concurrency the counts repeat exactly and each layer's time
//! is separable: `wal`, `repl`, `store` and `live` apply do the work,
//! `index` probes little.

use crate::gen::{self, SplitMix64, GROUPS, TS_SPREAD};
use crate::harness::{self, stream, Ctx, Walls};
use crate::reads::{self, Expect, ReadBatch, ReadLog};
use crate::report::{peak_rss_mb, Outcome};
use crate::sizing::ReplicatePlan;
use crate::stack::{
    self, Applied, CheckpointCost, Primary, QueryBatch, Res, SelectionQuery, Served, UpdateOp,
};
use crate::stats::{self, Window};
use crate::trace::{self, Counts, Tracer};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Write → visible grows as the active WAL segment fills (every poll
/// re-reads it) and checkpoints sit between cycles: every phase of the
/// run counts.
const WINDOW: Window = Window::Median;

/// One pre-generated cycle.
struct Cycle {
    ops: Vec<UpdateOp>,
    /// What `apply_batch` must report, op by op: the gid an insert is
    /// assigned, or the id of the row a delete removes.
    outcomes: Vec<Want>,
    read: ReadBatch,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Want {
    Inserted(usize),
    Deleted(i64),
}

/// The benchmark's model of the relation: which ids are live. Fresh ids
/// continue the base's numbering, so a row's global id equals its id.
struct Model {
    alive: Vec<bool>,
    live: Vec<usize>,
}

fn pregenerate(seed: u64, n: usize, plan: &ReplicatePlan, count: usize) -> (Vec<Cycle>, Model) {
    let root = SplitMix64::new(seed);
    let mut updates = root.fork(stream::UPDATES);
    let mut queries = root.fork(stream::QUERIES);
    let half = plan.ops / 2;
    let domain = 2 * n as i64;
    let mut model = Model {
        alive: (0..n + count * half).map(|id| id < n).collect(),
        live: (0..n).collect(),
    };
    let mut next = n;
    let cycles = (0..count)
        .map(|_| {
            let mut ops = Vec::with_capacity(plan.ops);
            let mut outcomes = Vec::with_capacity(plan.ops);
            // Deletes are drawn from the rows live before this cycle,
            // so what it inserts is still there when it is read back.
            let deleted: Vec<usize> = (0..half)
                .map(|_| {
                    let at = updates.below(model.live.len() as u64) as usize;
                    model.live.swap_remove(at)
                })
                .collect();
            let inserted: Vec<usize> = (next..next + half).collect();
            next += half;
            for &id in &inserted {
                ops.push(UpdateOp::Insert(stack::row(
                    id as i64,
                    updates.below_i64(TS_SPREAD * n as i64),
                    updates.below_i64(GROUPS),
                    updates.payload(),
                )));
                outcomes.push(Want::Inserted(id));
                model.alive[id] = true;
                model.live.push(id);
            }
            for &gid in &deleted {
                ops.push(UpdateOp::Delete(gid));
                outcomes.push(Want::Deleted(gid as i64));
                model.alive[gid] = false;
            }
            let keys: Vec<i64> = inserted
                .iter()
                .chain(&deleted)
                .map(|&id| id as i64)
                .chain((plan.ops..plan.read_batch).map(|_| queries.below_i64(domain)))
                .collect();
            let read = ReadBatch {
                expect: Expect::Bools(
                    keys.iter()
                        .map(|&k| model.alive.get(k as usize).copied().unwrap_or(false))
                        .collect(),
                ),
                batch: QueryBatch::new(
                    keys.into_iter()
                        .map(|k| SelectionQuery::point(stack::COL_ID, k)),
                ),
            };
            Cycle {
                ops,
                outcomes,
                read,
            }
        })
        .collect();
    (cycles, model)
}

/// Updates whose reported outcome differs from the model's.
fn wrong_outcomes(applied: &[Applied], want: &[Want]) -> u64 {
    let matches = |(got, want): (&Applied, &Want)| match (got, want) {
        (Applied::Inserted(gid), Want::Inserted(w)) => gid == w,
        (Applied::Deleted(Some(row)), Want::Deleted(id)) => {
            row.first() == Some(&stack::Value::Int(*id))
        }
        _ => false,
    };
    let wrong = applied.iter().zip(want).filter(|&p| !matches(p)).count();
    (wrong + applied.len().abs_diff(want.len())) as u64
}

struct Stack {
    root: PathBuf,
    primary: Primary,
    served: Served<stack::Durable>,
    publisher: stack::Publisher,
    follower: Arc<stack::Replica>,
    replica: Served<stack::Replica>,
    sub: stack::Subscription,
    build_s: f64,
    bootstrap_s: f64,
}

fn setup(ctx: &Ctx<'_>, round: usize, n: usize, warm: &[Cycle]) -> Res<Stack> {
    if round > 0 {
        // The previous round's stack is dropped; its files go too.
        let _ = std::fs::remove_dir_all(ctx.dir.join(&format!("node-{}", round - 1)));
    }
    let root = ctx.dir.join(&format!("node-{round}"));
    let (rows, _) = gen::base(&mut SplitMix64::new(ctx.seed).fork(stream::DATA), n);
    let started = Instant::now();
    let live = stack::build_live(rows)?;
    let build_s = started.elapsed().as_secs_f64();
    let primary_root = root.join("primary");
    let primary = Primary::create(live, &primary_root)?;
    let served = Served::new(Arc::clone(&primary.node));
    let publisher = primary.publisher();
    let started = Instant::now();
    let follower = stack::bootstrap_follower(&primary_root, &root.join("mirror"))?;
    let bootstrap_s = started.elapsed().as_secs_f64();
    let sub = stack::attach(&follower, &publisher);
    let replica = Served::new(Arc::clone(&follower));
    let stack = Stack {
        root,
        primary,
        served,
        publisher,
        follower,
        replica,
        sub,
        build_s,
        bootstrap_s,
    };
    let warmed = drive(
        &stack,
        None,
        warm,
        0..warm.len(),
        (usize::MAX, Duration::MAX),
        &mut Tracer::off(),
    )?;
    if warmed.failed() > 0 {
        return Err(format!(
            "{} failed operations during warm-up",
            warmed.failed()
        ));
    }
    Ok(stack)
}

/// What a run of cycles added up to.
#[derive(Default)]
struct CycleLog {
    /// Seconds inside the durable `apply_batch`, per cycle.
    write_s: Vec<f64>,
    /// Seconds from `apply_batch` start until the follower is at lag 0.
    visible_s: Vec<f64>,
    replica: ReadLog,
    primary: ReadLog,
    updates: u64,
    wrong_updates: u64,
    /// Cycles after whose catch-up the follower still lagged.
    lagging: u64,
    checkpoints: Vec<CheckpointCost>,
    /// Σ segment files the traced polls read.
    segments_read: u64,
    wall_s: f64,
    walls: Walls,
}

impl CycleLog {
    fn attempted(&self) -> u64 {
        self.updates + self.replica.queries + self.primary.queries
    }

    fn failed(&self) -> u64 {
        self.wrong_updates + self.lagging + self.replica.wrong + self.primary.wrong
    }
}

/// Run cycles `range` from the calling thread, stopping early once
/// `deadline` has passed. `shadow`, when given, is fed the same ops after
/// each cycle and must report the same outcomes.
fn drive(
    stack: &Stack,
    shadow: Option<&stack::Live>,
    cycles: &[Cycle],
    range: Range<usize>,
    (checkpoint_every, deadline): (usize, Duration),
    tracer: &mut Tracer,
) -> Res<CycleLog> {
    let mut log = CycleLog::default();
    let mut off = Tracer::off();
    let started = Instant::now();
    for c in range {
        if started.elapsed() > deadline {
            break;
        }
        let reference = Walls::is_reference(tracer, c);
        let tracer = if reference { &mut off } else { &mut *tracer };
        let cycle = &cycles[c];
        let request = c as u32 + 1;
        let ops = cycle.ops.clone();
        let began = Instant::now();
        let root = tracer.begin("request", 0, request);

        let open = tracer.begin("wal.apply_batch", root.id, request);
        let write_started = Instant::now();
        let applied = stack::apply_batch(&stack.primary.node, ops)?;
        log.write_s.push(write_started.elapsed().as_secs_f64());
        tracer.end(open, Counts::records(applied.len()));

        let lag = if tracer.enabled() {
            catch_up_by_parts(stack, &mut log, tracer, root.id, request)?
        } else {
            stack::catch_up(&stack.follower, &stack.publisher, stack.sub)?
        };
        log.visible_s.push(write_started.elapsed().as_secs_f64());
        log.lagging += u64::from(lag > 0);

        let on_replica = reads::serve(
            &stack.replica,
            &cycle.read,
            tracer,
            "pool.execute.replica",
            root.id,
            request,
        );
        let on_primary = reads::serve(
            &stack.served,
            &cycle.read,
            tracer,
            "pool.execute",
            root.id,
            request,
        );
        tracer.end(root, Counts::default());
        log.walls.add(reference, began);

        log.replica.push(&on_replica, cycle.read.batch.len());
        log.primary.push(&on_primary, cycle.read.batch.len());
        log.updates += cycle.ops.len() as u64;
        log.wrong_updates += wrong_outcomes(&applied, &cycle.outcomes);

        if let Some(shadow) = shadow {
            let ops = cycle.ops.clone();
            let open = tracer.begin("live.shadow_apply", 0, request);
            let mirrored = stack::apply_batch(shadow, ops)?;
            tracer.end(open, Counts::records(mirrored.len()));
            if mirrored != applied {
                log.wrong_updates += 1;
            }
        }

        if (c + 1).is_multiple_of(checkpoint_every) {
            let open = tracer.begin("wal.checkpoint", 0, request);
            let cost = stack.primary.checkpoint(&stack.publisher)?;
            tracer.end(
                open,
                Counts::moved(cost.records_dropped, cost.snapshot_bytes),
            );
            log.checkpoints.push(cost);
        }
    }
    log.wall_s = started.elapsed().as_secs_f64();
    Ok(log)
}

/// `catch_up` by its public parts, one span each; the lag left is 0
/// exactly when the closing poll comes back empty.
fn catch_up_by_parts(
    stack: &Stack,
    log: &mut CycleLog,
    tracer: &mut Tracer,
    parent: u32,
    request: u32,
) -> Res<u64> {
    let open = tracer.begin("repl.poll", parent, request);
    let shipped = stack::poll(&stack.publisher, &stack.follower)?;
    tracer.end(open, Counts::moved(shipped.records, shipped.bytes));
    log.segments_read += shipped.segments_read as u64;
    if !shipped.empty {
        let open = tracer.begin("repl.apply", parent, request);
        stack::apply_shipment(&stack.follower, &shipped)?;
        tracer.end(open, Counts::moved(shipped.records, shipped.bytes));
        let open = tracer.begin("repl.advance", parent, request);
        stack::advance(&stack.publisher, stack.sub, &shipped);
        tracer.end(open, Counts::default());
    }
    let open = tracer.begin("repl.poll_empty", parent, request);
    let closing = stack::poll(&stack.publisher, &stack.follower)?;
    tracer.end(open, Counts::default());
    Ok(closing.records as u64)
}

/// Expected matching gids of `point(id, key)` under the model.
fn expected_ids(model: &Model, key: i64) -> Vec<usize> {
    match model.alive.get(key as usize) {
        Some(true) => vec![key as usize],
        _ => Vec::new(),
    }
}

/// Follower ≡ primary ≡ shadow ≡ model, on length and on a key sample.
fn quiesce_check(
    o: &mut Outcome,
    stack: &Stack,
    shadow: &stack::Live,
    model: &Model,
    keys: &[i64],
) {
    let lens = [
        stack::live_len(&stack.primary.node),
        stack::follower_len(&stack.follower),
        stack::live_len(shadow),
        model.live.len(),
    ];
    let mut differing = 0;
    for &key in keys {
        let q = SelectionQuery::point(stack::COL_ID, key);
        let want = expected_ids(model, key);
        let same = stack::matching_ids(&stack.primary.node, &q) == want
            && stack::follower_matching_ids(&stack.follower, &q) == want
            && stack::matching_ids(shadow, &q) == want;
        differing += usize::from(!same);
    }
    o.check(
        "replica equivalence at quiesce",
        lens.iter().all(|&l| l == lens[0]) && differing == 0,
        format!(
            "rows primary/follower/shadow/model = {lens:?}; {differing} of {} sampled keys differ",
            keys.len()
        ),
    );
}

/// What restarting from disk cost and found.
struct Restart {
    scan_s: f64,
    recover_s: f64,
    replayed: usize,
    restart_s: f64,
    save_s: f64,
    load_s: f64,
}

/// Recover the primary and restart the follower from what `root` holds
/// (everything that had them open is already dropped), checking both
/// against the model.
fn restart(
    ctx: &Ctx<'_>,
    o: &mut Outcome,
    root: &Path,
    model: &Model,
    keys: &[i64],
    tail_records: usize,
) -> Res<Restart> {
    let primary_root = root.join("primary");
    let (scan_s, _) = if ctx.traced {
        stack::wal_scan(&primary_root.join("wal"))?
    } else {
        (0.0, 0)
    };
    let started = Instant::now();
    let (recovered, replayed) = Primary::recover(&primary_root)?;
    let first = keys.first().copied().unwrap_or(0);
    let first_ok = stack::matching_ids(
        &recovered.node,
        &SelectionQuery::point(stack::COL_ID, first),
    ) == expected_ids(model, first);
    let recover_s = started.elapsed().as_secs_f64();
    let differing = keys
        .iter()
        .filter(|&&key| {
            stack::matching_ids(&recovered.node, &SelectionQuery::point(stack::COL_ID, key))
                != expected_ids(model, key)
        })
        .count();
    let rows = stack::live_len(&recovered.node);
    o.check(
        "recovery",
        first_ok && differing == 0 && rows == model.live.len() && replayed <= tail_records,
        format!(
            "{rows} rows (model {}), {differing} of {} sampled keys differ, replayed {replayed} of a {tail_records}-record tail",
            model.live.len(),
            keys.len()
        ),
    );

    let started = Instant::now();
    let follower = stack::bootstrap_follower(&primary_root, &root.join("mirror"))?;
    let restart_s = started.elapsed().as_secs_f64();
    let rows = stack::follower_len(&follower);
    o.check(
        "follower restart",
        rows == model.live.len(),
        format!(
            "{rows} rows after re-bootstrap from the mirror (model {})",
            model.live.len()
        ),
    );

    let (save_s, load_s, _) = if ctx.traced {
        stack::snapshot_probe(&recovered.node, &ctx.dir.join("probe-snaps"))?
    } else {
        (0.0, 0.0, 0)
    };
    Ok(Restart {
        scan_s,
        recover_s,
        replayed,
        restart_s,
        save_s,
        load_s,
    })
}

/// Run the workload.
pub fn run(ctx: &Ctx<'_>) -> Res<Outcome> {
    let plan = ctx.scale.replicate();
    let n = 1usize << plan.rows_log2;
    let total = plan.warmup + plan.cycles;
    let (cycles, model) = pregenerate(ctx.seed, n, &plan, total);
    let mut sample = SplitMix64::new(ctx.seed).fork(stream::SAMPLE);
    let keys: Vec<i64> = (0..plan.sample_keys)
        .map(|_| sample.below_i64(2 * n as i64))
        .collect();
    let mut o = Outcome::new("write_replicate", ctx.traced);

    let (stack, setup_s) =
        harness::repeat_setup(|round| setup(ctx, round, n, &cycles[..plan.warmup]))?;

    // The shadow is the benchmark's oracle, not the system: built and
    // brought past the warm-up outside `setup_s`.
    let (rows, _) = gen::base(&mut SplitMix64::new(ctx.seed).fork(stream::DATA), n);
    let shadow = stack::build_live(rows)?;
    for cycle in &cycles[..plan.warmup] {
        stack::apply_batch(&shadow, cycle.ops.clone())?;
    }

    let mut tracer = if ctx.traced {
        Tracer::on(Instant::now(), 0, plan.cycles * 10)
    } else {
        Tracer::off()
    };
    let log = drive(
        &stack,
        Some(&shadow),
        &cycles,
        plan.warmup..total,
        (plan.checkpoint_every, ctx.scale.deadline()),
        &mut tracer,
    )?;
    let spans = harness::collect_spans(ctx, vec![tracer])?;
    let done = log.write_s.len();
    harness::note_if_cut(&mut o, done, plan.cycles, "cycles");
    // A cut run stopped at a prefix of the cycles: the model is that
    // prefix's (same seed, same stream, fewer draws).
    let (total, model) = if done < plan.cycles {
        let total = plan.warmup + done;
        (total, pregenerate(ctx.seed, n, &plan, total).1)
    } else {
        (total, model)
    };

    quiesce_check(&mut o, &stack, &shadow, &model, &keys);
    let (snap_bytes, wal_bytes, segments) = stack.primary.disk_bytes()?;
    if ctx.traced {
        harness::maintenance_layers(&mut o, &stack.primary.node);
    }
    let gate_waits = stack.served.admission_waits();
    let tail_records = (total % plan.checkpoint_every) * plan.ops;
    let (root, build_s, bootstrap_s) = (stack.root.clone(), stack.build_s, stack.bootstrap_s);
    // Drop the executors, the publisher, the follower and the primary:
    // nothing may hold the directories open across a restart.
    drop(stack);
    let restarted = restart(ctx, &mut o, &root, &model, &keys, tail_records)?;

    o.attempted = log.attempted();
    o.failed = log.failed();
    o.timed_s = log.wall_s;
    let rows = model.live.len() as f64;
    if ctx.traced {
        let layers = trace::by_name(&spans);
        let us = |name: &str| layers.get(name).map_or(0.0, trace::Layer::mean_us);
        let p50 = |name: &str| {
            layers
                .get(name)
                .map_or(0.0, |l| stats::median(&l.durations_us))
        };
        let writes = stats::windowed(&log.write_s, plan.ops as f64);
        o.set("wal.write_ups", writes.rate.at(WINDOW));
        o.set("wal.write_batch_p50_ms", writes.p50.at(WINDOW) * 1e3);
        o.set("wal.write_batch_p99_ms", writes.tail.median * 1e3);
        // The same ops, durably on the primary and in memory on the
        // shadow: the difference is what the WAL adds to a batch.
        o.set(
            "live.apply_us_per_update",
            us("live.shadow_apply") / plan.ops as f64,
        );
        o.set(
            "wal.share_us_per_batch",
            us("wal.apply_batch") - us("live.shadow_apply"),
        );
        let polls = layers.get("repl.poll").cloned().unwrap_or_default();
        let shipments = polls.calls.max(1) as f64;
        o.set(
            "wal.bytes_per_update",
            polls.counts.bytes as f64 / polls.counts.records.max(1) as f64,
        );
        o.set("wal.commits", log.write_s.len() as f64);
        o.set("wal.segments", segments as f64);
        let checkpoints: Vec<f64> = log.checkpoints.iter().map(|c| c.checkpoint_s).collect();
        let compactions: Vec<f64> = log.checkpoints.iter().map(|c| c.compact_s).collect();
        o.set("wal.checkpoint_s", stats::median(&checkpoints));
        o.set("wal.compact_s", stats::median(&compactions));
        o.set(
            "wal.compact_records_dropped",
            log.checkpoints
                .iter()
                .map(|c| c.records_dropped)
                .sum::<usize>() as f64,
        );
        o.set("wal.scan_s", restarted.scan_s);
        o.set(
            "wal.replay_s",
            (restarted.recover_s - restarted.load_s - restarted.scan_s).max(0.0),
        );
        o.set("wal.recover_s", restarted.recover_s);
        o.set("wal.recover_replayed_records", restarted.replayed as f64);
        harness::wal_probe_layers(ctx, &mut o, plan.wal_probe_commits, plan.ops)?;
        o.set("store.checkpoint_bytes", snap_bytes as f64);
        o.set("store.bytes_per_row", snap_bytes as f64 / rows);
        o.set(
            "store.disk_bytes_per_row",
            (snap_bytes + wal_bytes) as f64 / rows,
        );
        o.set("store.save_s", restarted.save_s);
        o.set("store.load_s", restarted.load_s);
        o.set("store.load_over_build", restarted.load_s / build_s);
        o.set("repl.poll_us_p50", p50("repl.poll"));
        o.set("repl.apply_us_p50", p50("repl.apply"));
        let (first, last) = harness::first_last_decile(&polls.durations_us);
        o.set("repl.poll_us_first_decile", first);
        o.set("repl.poll_us_last_decile", last);
        o.set(
            "repl.records_per_shipment",
            polls.counts.records as f64 / shipments,
        );
        o.set(
            "repl.bytes_per_shipment",
            polls.counts.bytes as f64 / shipments,
        );
        o.set(
            "repl.segments_read_per_poll",
            log.segments_read as f64 / shipments,
        );
        o.set("repl.bootstrap_s", bootstrap_s);
        o.set("repl.restart_s", restarted.restart_s);
        o.set(
            "repl.replica_read_over_primary",
            stats::median(&log.replica.secs) / stats::median(&log.primary.secs),
        );
        reads::report_layers(&mut o, &log.primary);
        o.set("pool.execute_us_per_batch", us("pool.execute"));
        o.set("pool.admission_waits", gate_waits as f64);
        harness::build_layers(&mut o, build_s, n);
        o.set("trace.wall_ratio", log.walls.ratio());
        reads::latency_layers(&mut o, &log.replica, plan.read_batch, WINDOW);
        let visible = stats::windowed(&log.visible_s, 1.0);
        o.set("repl.visible_p50_ms", visible.p50.at(WINDOW) * 1e3);
        o.set("repl.visible_p99_ms", visible.tail.median * 1e3);
        o.notes.push(format!(
            "{} cycles traced, {} checkpoints, {} shipments",
            log.write_s.len(),
            log.checkpoints.len(),
            polls.calls
        ));
        o.notes.extend(harness::span_table(ctx, &spans));
    } else {
        let reads = reads::end_to_end(&mut o, &log.replica, plan.read_batch, WINDOW);
        o.set("read_batch_p50_ms", reads.p50.at(WINDOW) * 1e3);
        let visible = stats::windowed(&log.visible_s, 1.0);
        o.set("request_p50_ms", visible.p50.at(WINDOW) * 1e3);
        o.set("replica_visible_p99_ms", visible.tail.median * 1e3);
        let writes = stats::windowed(&log.write_s, plan.ops as f64);
        o.set("write_ups", writes.rate.at(WINDOW));
        o.set("write_batch_p50_ms", writes.p50.at(WINDOW) * 1e3);
        o.set("write_batch_p99_ms", writes.tail.median * 1e3);
        let stalls: Vec<f64> = log
            .checkpoints
            .iter()
            .map(|c| c.checkpoint_s + c.compact_s)
            .collect();
        o.set("checkpoint_s", stats::median(&stalls));
        o.set("recover_s", restarted.recover_s);
        o.set("disk_bytes_per_row", (snap_bytes + wal_bytes) as f64 / rows);
        o.set("setup_s", setup_s);
        o.set("peak_rss_mb", peak_rss_mb());
        o.notes.push(format!(
            "requests: write->visible cycles with {} checkpoints between them: {}",
            log.checkpoints.len(),
            visible.describe()
        ));
        o.notes.push(format!(
            "writes of {} updates: {}",
            plan.ops,
            writes.describe()
        ));
        o.notes.push(format!(
            "recovery replayed {} records; follower restart {:.4} s",
            restarted.replayed, restarted.restart_s
        ));
    }
    Ok(o)
}
