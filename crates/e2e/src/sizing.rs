//! The one constants block: how much work each workload does.
//!
//! Work is **fixed, not timed**, because several costs depend on
//! progress (WAL segment fill, log length): two commits compared with
//! the same `--seconds` do identical work. The counts below are sized
//! so that the timed region of each workload takes about
//! [`REFERENCE_SECONDS`] on the 2-core box the harness was written on;
//! a run scales every count by `--seconds / REFERENCE_SECONDS`. The one
//! factor that fits the benchmark contract's total-time cap is recorded
//! once, as `run_seconds` in `BENCHMARK.json`. Data sizes do not scale.

use std::time::Duration;

/// Run length the reference op counts are sized for.
pub const REFERENCE_SECONDS: usize = 30;

/// `--seconds` when none is given: `run_seconds` of the `BENCHMARK.json`
/// this binary was built beside.
pub fn run_seconds() -> usize {
    let (_, rest) = crate::metrics::BENCHMARK_JSON
        .split_once("\"run_seconds\":")
        .expect("BENCHMARK.json declares run_seconds");
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .expect("run_seconds in BENCHMARK.json is a whole number")
}

/// A timed region still running after this many times its `--seconds`
/// stops issuing work and reports what it has, saying so. The work is
/// fixed and sized to take `--seconds` here; on a box gone several times
/// slower, finishing it would push the run past the driver's per-run
/// limit, and a cut run is worth more than a killed one.
pub const DEADLINE_FACTOR: u32 = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The traced run re-evaluates every n-th read batch by hand (route +
/// per-shard eval on the generator thread) for the planner, index and
/// pool attribution.
pub const BY_HAND_EVERY: usize = 4;

/// The traced run serves every n-th request untraced, exactly as the
/// untraced run would; `trace.wall_ratio` compares the two kinds, side
/// by side in time and in progress.
pub const REFERENCE_EVERY: usize = 8;

/// Sizes of `point_read`.
#[derive(Debug, Clone)]
pub struct PointPlan {
    /// log₂ |D|.
    pub rows_log2: u32,
    /// log₂ of the two smaller scale-probe sizes.
    pub probe_log2: [u32; 2],
    /// Queries per batch.
    pub batch: usize,
    /// Distinct pre-generated batches, cycled.
    pub distinct: usize,
    /// Batches served in the timed region.
    pub batches: usize,
    /// Untimed batches served first.
    pub warmup: usize,
}

/// Sizes of `fanout_read`.
#[derive(Debug, Clone)]
pub struct FanoutPlan {
    /// log₂ |D|.
    pub rows_log2: u32,
    /// Queries per batch.
    pub batch: usize,
    /// Distinct pre-generated batches, cycled.
    pub distinct: usize,
    /// Batches served in the timed region.
    pub batches: usize,
    /// Untimed batches served first.
    pub warmup: usize,
}

/// Sizes of `write_replicate`.
#[derive(Debug, Clone)]
pub struct ReplicatePlan {
    /// log₂ |D|.
    pub rows_log2: u32,
    /// Write → replicate → read cycles in the timed region.
    pub cycles: usize,
    /// Updates per write batch: half inserts, half deletes.
    pub ops: usize,
    /// Queries per read batch.
    pub read_batch: usize,
    /// Checkpoint + compaction every this many cycles.
    pub checkpoint_every: usize,
    /// Keys compared across primary, follower and shadow at quiesce.
    pub sample_keys: usize,
    /// Untimed cycles run first.
    pub warmup: usize,
    /// Commits of the standalone WAL probe (traced run).
    pub wal_probe_commits: usize,
}

/// Sizes of `contended_rw`.
#[derive(Debug, Clone)]
pub struct ContendedPlan {
    /// log₂ of the static rows.
    pub rows_log2: u32,
    /// Open-loop write batches per second.
    pub write_rate: usize,
    /// Write batches in the timed region.
    pub write_batches: usize,
    /// Updates per write batch: half inserts, half deletes.
    pub ops: usize,
    /// Ids in the sliding window the writer keeps live.
    pub window: usize,
    /// Queries per read batch, the window probes included.
    pub read_batch: usize,
    /// Ordered window probes per read batch.
    pub probes: usize,
    /// Distinct pre-generated static read parts, cycled.
    pub distinct: usize,
    /// Read batches served before the writer starts; their median is
    /// the quiesced baseline.
    pub quiesced: usize,
    /// Commits of the standalone WAL probe (traced run).
    pub wal_probe_commits: usize,
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Op counts for `--seconds` of timed work per workload.
    Seconds(usize),
    /// |D| = 2^10 and a few dozen requests: what the smoke tests run,
    /// and nothing else.
    #[cfg_attr(not(test), allow(dead_code))]
    Toy,
}

impl Scale {
    /// A reference count scaled to this run, never 0.
    fn ops(self, reference: usize, toy: usize) -> usize {
        match self {
            Scale::Seconds(s) => (reference * s).div_ceil(REFERENCE_SECONDS).max(1),
            Scale::Toy => toy,
        }
    }

    fn size<T>(self, full: T, toy: T) -> T {
        match self {
            Scale::Seconds(_) => full,
            Scale::Toy => toy,
        }
    }

    /// How long a timed region may run before it is cut short.
    pub fn deadline(self) -> Duration {
        match self {
            Scale::Seconds(s) => Duration::from_secs(s as u64) * DEADLINE_FACTOR,
            Scale::Toy => Duration::MAX,
        }
    }

    /// `point_read` at this scale.
    pub fn point(self) -> PointPlan {
        PointPlan {
            rows_log2: self.size(20, 10),
            probe_log2: self.size([12, 16], [6, 8]),
            batch: self.size(4_096, 256),
            distinct: self.size(128, 8),
            batches: self.ops(16_000, 40),
            warmup: self.size(64, 4),
        }
    }

    /// `fanout_read` at this scale.
    pub fn fanout(self) -> FanoutPlan {
        FanoutPlan {
            rows_log2: self.size(17, 10),
            batch: self.size(256, 32),
            distinct: self.size(128, 8),
            batches: self.ops(20_000, 40),
            warmup: self.size(64, 4),
        }
    }

    /// `write_replicate` at this scale.
    pub fn replicate(self) -> ReplicatePlan {
        ReplicatePlan {
            rows_log2: self.size(17, 10),
            cycles: self.ops(4_096, 48),
            ops: self.size(64, 16),
            read_batch: self.size(256, 32),
            checkpoint_every: self.ops(1_000, 20),
            sample_keys: self.size(4_096, 256),
            warmup: self.size(16, 2),
            wal_probe_commits: self.ops(1_000, 20),
        }
    }

    /// `contended_rw` at this scale.
    pub fn contended(self) -> ContendedPlan {
        ContendedPlan {
            rows_log2: self.size(17, 10),
            write_rate: self.size(250, 500),
            write_batches: self.ops(7_500, 50),
            ops: self.size(64, 16),
            window: self.size(4_096, 256),
            read_batch: self.size(256, 64),
            probes: 16,
            distinct: self.size(128, 8),
            quiesced: self.size(200, 20),
            wal_probe_commits: self.ops(1_000, 20),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_reproduce_the_reference_counts() {
        let s = Scale::Seconds(REFERENCE_SECONDS);
        assert_eq!(s.point().batches, 16_000);
        assert_eq!(s.fanout().batches, 20_000);
        assert_eq!(s.replicate().cycles, 4_096);
        assert_eq!(s.replicate().checkpoint_every, 1_000);
        assert_eq!(s.contended().write_batches, 7_500);
    }

    #[test]
    fn counts_scale_with_seconds_and_data_sizes_do_not() {
        let s = Scale::Seconds(10);
        assert_eq!(s.point().batches, 5_334);
        assert_eq!(s.replicate().cycles, 1_366);
        assert_eq!(s.contended().write_batches, 2_500);
        assert_eq!(s.point().rows_log2, 20);
        assert_eq!(Scale::Seconds(0).fanout().batches, 1);
        // The fresh ids write_replicate inserts fit in the probed half
        // of the key domain, so ≈ half of the uniform points keep
        // hitting at every scale up to the reference.
        let r = Scale::Seconds(REFERENCE_SECONDS).replicate();
        assert!(r.cycles * r.ops / 2 <= 1 << r.rows_log2);
    }

    #[test]
    fn the_default_run_length_is_the_one_benchmark_json_records() {
        assert!((1..=60).contains(&run_seconds()));
        assert!(crate::metrics::BENCHMARK_JSON
            .contains(&format!("\"run_seconds\": {},", run_seconds())));
    }

    #[test]
    fn toy_scale_is_small() {
        assert_eq!(Scale::Toy.point().rows_log2, 10);
        assert!(Scale::Toy.replicate().cycles <= 50);
        assert!(Scale::Toy.contended().write_batches <= 50);
    }
}
