//! What every workload's `run` shares: the run context, the repeated
//! set-up behind `setup_s`, the untraced reference requests of a traced
//! run, and writing the span file.

use crate::datadir::RunDir;
use crate::report::Outcome;
use crate::sizing::{Scale, DEADLINE_FACTOR, REFERENCE_EVERY, SETUPS};
use crate::stack::{self, Res};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use std::time::Instant;

/// One workload run's inputs.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// `--seed`.
    pub seed: u64,
    /// How much work to do.
    pub scale: Scale,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub traced: bool,
    /// The run's private directory.
    pub dir: &'a RunDir,
}

/// Independent generator streams forked off the run's seed.
pub mod stream {
    /// Base relation rows.
    pub const DATA: u64 = 1;
    /// Read batches.
    pub const QUERIES: u64 = 2;
    /// Update batches.
    pub const UPDATES: u64 = 3;
    /// Keys sampled by whole-run checks.
    pub const SAMPLE: u64 = 4;
    /// Scale-probe inputs (plus the probe's log₂ size).
    pub const PROBE: u64 = 16;
}

/// Set the stack up [`SETUPS`] times, one alive at a time, keep the
/// last and report the median seconds — one set-up alone would make
/// `setup_s` as noisy as its slowest page fault.
pub fn repeat_setup<S>(mut setup: impl FnMut(usize) -> Res<S>) -> Res<(S, f64)> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for round in 0..SETUPS {
        // Free the previous stack first: peak memory is one stack's.
        drop(last.take());
        let started = Instant::now();
        last = Some(setup(round)?);
        secs.push(started.elapsed().as_secs_f64());
    }
    let stack = last.ok_or("no set-up ran")?;
    Ok((stack, stats::median(&secs)))
}

/// Wall-clock seconds spent on the two kinds of request a traced run
/// serves: every [`REFERENCE_EVERY`]-th exactly as an untraced run would
/// (the reference), the rest with spans and by-hand re-evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Walls {
    reference: (f64, usize),
    traced: (f64, usize),
}

impl Walls {
    /// Is request `i` of a run recorded by `tracer` a reference request?
    pub fn is_reference(tracer: &Tracer, i: usize) -> bool {
        tracer.enabled() && i.is_multiple_of(REFERENCE_EVERY)
    }

    /// Account one request that began at `began`.
    pub fn add(&mut self, reference: bool, began: Instant) {
        let slot = if reference {
            &mut self.reference
        } else {
            &mut self.traced
        };
        slot.0 += began.elapsed().as_secs_f64();
        slot.1 += 1;
    }

    /// Wall seconds per traced request over wall seconds per reference
    /// request: what tracing (and the by-hand re-evaluation) costs.
    pub fn ratio(&self) -> f64 {
        let per = |(wall, n): (f64, usize)| if n == 0 { 0.0 } else { wall / n as f64 };
        let base = per(self.reference);
        if base == 0.0 {
            0.0
        } else {
            per(self.traced) / base
        }
    }
}

/// Merge the generator threads' buffers in start order and write them
/// to the run's span file — after the last timed op.
pub fn collect_spans(ctx: &Ctx<'_>, tracers: Vec<Tracer>) -> Res<Vec<Span>> {
    let mut spans: Vec<Span> = tracers.into_iter().flat_map(Tracer::into_spans).collect();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    if ctx.traced {
        trace::write_jsonl(&spans, ctx.dir.span_file()).map_err(|e| e.to_string())?;
    }
    Ok(spans)
}

/// Say so when a timed region hit its deadline before its fixed work
/// was done: what it reports is not comparable with a full run's.
pub fn note_if_cut(o: &mut Outcome, done: usize, planned: usize, what: &str) {
    if done < planned {
        o.notes.push(format!(
            "CUT SHORT at the deadline ({DEADLINE_FACTOR} x --seconds): {done} of {planned} {what} \
             done; this box is too slow for the sized work and the figures are a partial run's"
        ));
    }
}

/// What building `Π(D)` over `rows` rows cost.
pub fn build_layers(o: &mut Outcome, build_s: f64, rows: usize) {
    o.set("index.build_s", build_s);
    o.set("index.build_ns_per_row", build_s * 1e9 / rows.max(1) as f64);
}

/// The |CHANGED| accounting of every update `live` has applied.
pub fn maintenance_layers(o: &mut Outcome, live: &stack::Live) {
    let (worst_ratio, work_per_changed) = stack::maintenance(live);
    o.set("live.maintenance_worst_ratio", worst_ratio);
    o.set("live.maintenance_work_per_changed", work_per_changed);
}

/// Staging and fsync cost on a standalone WAL writer in the run's
/// directory: `commits` rounds of `records` 64-byte appends and one
/// commit, the shape of the workloads' write batches.
pub fn wal_probe_layers(ctx: &Ctx<'_>, o: &mut Outcome, commits: usize, records: usize) -> Res<()> {
    let probe = stack::wal_probe(&ctx.dir.join("probe-wal"), commits, records, &[0x5A; 64])?;
    o.set("wal.stage_us_per_record", probe.stage_us_per_record);
    o.set("wal.fsync_us_p50", probe.fsync_us_p50);
    o.set("wal.fsync_us_p99", probe.fsync_us_p99);
    Ok(())
}

/// Where the spans went, then one line per span name — calls, mean and
/// mean self time — for the traced report: the outside-in profile the
/// per-layer metrics come from.
pub fn span_table(ctx: &Ctx<'_>, spans: &[Span]) -> Vec<String> {
    let written = format!(
        "{} spans written to {}",
        spans.len(),
        ctx.dir.span_file().display()
    );
    let by_name = trace::by_name(spans);
    let lines = by_name.iter().map(|(name, layer)| {
        format!(
            "span {name:<22} x{:<7} mean {:>10.1} us  self {:>10.1} us",
            layer.calls,
            layer.mean_us(),
            layer.self_ns as f64 / 1e3 / layer.calls.max(1) as f64
        )
    });
    std::iter::once(written).chain(lines).collect()
}

/// Median, in µs, of the first and of the last tenth of a series.
pub fn first_last_decile(series_us: &[f64]) -> (f64, f64) {
    let tenth = (series_us.len() / 10).max(1).min(series_us.len());
    (
        stats::median(&series_us[..tenth]),
        stats::median(&series_us[series_us.len() - tenth..]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_repeats_keep_the_last_and_report_the_median() {
        let mut rounds = Vec::new();
        let (last, secs) = repeat_setup(|round| {
            rounds.push(round);
            Ok(round * 10)
        })
        .unwrap();
        assert_eq!(rounds, (0..SETUPS).collect::<Vec<_>>());
        assert_eq!(last, (SETUPS - 1) * 10);
        assert!(secs >= 0.0);
        assert!(repeat_setup::<()>(|_| Err("boom".to_string())).is_err());
    }

    #[test]
    fn a_traced_run_serves_every_eighth_request_as_reference() {
        let on = Tracer::on(Instant::now(), 0, 0);
        assert!(Walls::is_reference(&on, 0) && Walls::is_reference(&on, 8));
        assert!(!Walls::is_reference(&on, 1));
        assert!(!Walls::is_reference(&Tracer::off(), 0));
        let walls = Walls {
            reference: (1.0, 8),
            traced: (3.0, 16),
        };
        assert_eq!(walls.ratio(), 1.5);
        assert_eq!(Walls::default().ratio(), 0.0);
    }

    #[test]
    fn deciles_of_a_growing_series() {
        let series: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(first_last_decile(&series), (4.5, 94.5));
        assert_eq!(first_last_decile(&[7.0]), (7.0, 7.0));
        assert_eq!(first_last_decile(&[]), (0.0, 0.0));
    }
}
