//! Order statistics for the harness: windowed medians and tails, the
//! "highest percentile the sample supports" rule, and the relative
//! difference the repeat check and the bounds are stated in.
//!
//! A timing is summarised over the run's equal windows, and reported
//! from its median or its quietest window — see [`Window`].

/// Windows a timed region is cut into, at most.
pub const WINDOWS: usize = 20;

/// Samples a window must hold: with fewer, one outlier moves a window's
/// mean rate by a tenth, so a short series gets fewer, fuller windows.
pub const MIN_PER_WINDOW: usize = 128;

/// A tail is reported as p99 only from this many samples up; below it
/// the tail is the order statistic with [`TAIL_BEYOND`] samples past it.
pub const P99_MIN_SAMPLES: usize = 1_000;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of an ascending slice (mean of the middle two when even).
/// Empty input reads 0.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of an unordered sample.
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values))
}

/// An ascending copy (timings are never NaN; `total_cmp` keeps the sort
/// total regardless).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which order statistic stands for "the tail" of `n` samples:
/// `(index into the ascending sample, percentile it represents)`.
///
/// From [`P99_MIN_SAMPLES`] up it is the nearest-rank p99. Below that
/// it is the highest percentile that still has [`TAIL_BEYOND`] samples
/// beyond it, and never lower than the median (tiny samples).
pub fn tail_rank(n: usize) -> (usize, f64) {
    if n == 0 {
        return (0, 0.0);
    }
    let index = if n >= P99_MIN_SAMPLES {
        (n * 99).div_ceil(100) - 1
    } else {
        n.saturating_sub(TAIL_BEYOND + 1).max(n / 2)
    };
    (index, 100.0 * (index + 1) as f64 / n as f64)
}

/// Median, tail and sample count of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// The tail order statistic chosen by [`tail_rank`].
    pub tail: f64,
    /// The percentile `tail` stands for (99.0 when the sample allows).
    pub tail_pct: f64,
    /// Sample count.
    pub samples: usize,
}

/// Summarise one unordered sample.
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    let (index, tail_pct) = tail_rank(s.len());
    Summary {
        p50: median_sorted(&s),
        tail: s.get(index).copied().unwrap_or(0.0),
        tail_pct,
        samples: s.len(),
    }
}

/// Which of a run's windows a workload reports its timings from.
///
/// A workload whose cost depends on progress — a WAL segment filling,
/// undo rings growing, a checkpoint or a segment rotation every so many
/// cycles — reports the **median** window: every phase of the run counts,
/// and a stall that hits part of it moves the number.
///
/// A workload over static data, whose windows all do the same work,
/// reports the **quietest** window. Differences between such windows are
/// the machine's, not the program's: on the shared box this was written
/// on, an idle ALU loop takes anything from 22 to 36 ms for the same
/// work, in stretches of seconds, and the median window flips between
/// those regimes with the share of the run each happened to take. The
/// quietest window is still a median of [`MIN_PER_WINDOW`] or more
/// samples, and the median and worst windows are printed beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// The window with the best value.
    Quietest,
    /// The window with the median value.
    Median,
}

/// One statistic taken over a run's windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    /// The best window's value: lowest latency, highest rate.
    pub quiet: f64,
    /// The median window's value.
    pub median: f64,
    /// The worst window's value.
    pub worst: f64,
}

impl Pick {
    /// The value of the window `which` names.
    pub fn at(&self, which: Window) -> f64 {
        match which {
            Window::Quietest => self.quiet,
            Window::Median => self.median,
        }
    }

    fn of(values: &[f64], higher_is_better: bool) -> Pick {
        let s = sorted(values);
        let (low, high) = (
            s.first().copied().unwrap_or(0.0),
            s.last().copied().unwrap_or(0.0),
        );
        let (quiet, worst) = if higher_is_better {
            (high, low)
        } else {
            (low, high)
        };
        Pick {
            quiet,
            median: median_sorted(&s),
            worst,
        }
    }
}

/// A timed region summarised window by window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// The windows' medians, seconds.
    pub p50: Pick,
    /// The windows' tails, seconds.
    pub tail: Pick,
    /// The percentile the window tails stand for (the smallest window
    /// decides, so the label never overstates).
    pub tail_pct: f64,
    /// The windows' rates: work units per second of call time.
    pub rate: Pick,
    /// Samples in the whole region.
    pub samples: usize,
    /// Samples in the smallest window.
    pub per_window: usize,
}

impl Windowed {
    /// The run's own spread, for the printed report: sample counts, and
    /// the quietest / median / worst window's median and tail in ms.
    pub fn describe(&self) -> String {
        format!(
            "{} samples, {} per window; window p50 {:.4} / {:.4} / {:.4} ms, \
             p{:.1} {:.4} / {:.4} / {:.4} ms, rate {:.0} / {:.0} / {:.0} per s \
             (quietest / median / worst window)",
            self.samples,
            self.per_window,
            self.p50.quiet * 1e3,
            self.p50.median * 1e3,
            self.p50.worst * 1e3,
            self.tail_pct,
            self.tail.quiet * 1e3,
            self.tail.median * 1e3,
            self.tail.worst * 1e3,
            self.rate.quiet,
            self.rate.median,
            self.rate.worst,
        )
    }
}

/// Cut `durations` (seconds per call, in issue order) into up to
/// [`WINDOWS`] equal runs of at least [`MIN_PER_WINDOW`] samples and
/// summarise each. Every call did `units` of work (queries or updates),
/// which sets the rate. A series shorter than two windows is one window.
pub fn windowed(durations: &[f64], units: f64) -> Windowed {
    let n = durations.len();
    let windows = (n / MIN_PER_WINDOW).clamp(1, WINDOWS);
    let mut p50s = Vec::with_capacity(windows);
    let mut tails = Vec::with_capacity(windows);
    let mut rates = Vec::with_capacity(windows);
    let mut tail_pct = f64::MAX;
    let mut per_window = usize::MAX;
    for w in 0..windows {
        let chunk = &durations[w * n / windows..(w + 1) * n / windows];
        let s = summarize(chunk);
        p50s.push(s.p50);
        tails.push(s.tail);
        tail_pct = tail_pct.min(s.tail_pct);
        per_window = per_window.min(s.samples);
        let busy: f64 = chunk.iter().sum();
        rates.push(if busy > 0.0 {
            units * chunk.len() as f64 / busy
        } else {
            0.0
        });
    }
    Windowed {
        p50: Pick::of(&p50s, false),
        tail: Pick::of(&tails, false),
        tail_pct: if n == 0 { 0.0 } else { tail_pct },
        rate: Pick::of(&rates, true),
        samples: n,
        per_window: if n == 0 { 0 } else { per_window },
    }
}

/// `(b − a) / a`: how far `b` sits from the base `a`, as a share of the
/// base. Two zeros differ by 0; a zero base with a non-zero `b` reads
/// infinite rather than hiding the change.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY
    } else {
        (b - a) / a.abs()
    }
}

/// By how much `b` is *worse* than the base `a`, as a share of `a`
/// (negative when better). `higher_is_better` picks the direction.
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let d = rel_diff(a, b);
    if higher_is_better {
        -d
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_tiny_and_empty_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_p99_from_a_thousand_samples_up() {
        // 1000 samples: nearest-rank p99 is the 990th, ten lie beyond.
        assert_eq!(tail_rank(1_000), (989, 99.0));
        // 5000 samples: the 4950th, fifty beyond.
        assert_eq!(tail_rank(5_000), (4_949, 99.0));
    }

    #[test]
    fn smaller_samples_fall_back_to_ten_beyond() {
        // 700 samples: index 689 leaves exactly ten beyond → p98.57.
        let (index, pct) = tail_rank(700);
        assert_eq!(index, 689);
        assert_eq!(700 - index - 1, TAIL_BEYOND);
        assert!((pct - 98.571).abs() < 0.001, "{pct}");
        // 100 samples: the 89th-index value is p90.
        assert_eq!(tail_rank(100), (89, 90.0));
        // 21 samples: index 10 is exactly the median, ten beyond.
        assert_eq!(tail_rank(21).0, 10);
    }

    #[test]
    fn tiny_samples_never_report_a_tail_below_the_median() {
        assert_eq!(tail_rank(0), (0, 0.0));
        assert_eq!(tail_rank(1), (0, 100.0));
        assert_eq!(tail_rank(4).0, 2);
        assert_eq!(tail_rank(12).0, 6);
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.p50, s.tail, s.samples), (2.5, 3.0, 4));
    }

    #[test]
    fn constant_samples_summarise_to_the_constant() {
        let s = summarize(&[2.5; 64]);
        assert_eq!((s.p50, s.tail, s.samples), (2.5, 2.5, 64));
        let w = windowed(&[0.002; 2_560], 256.0);
        assert_eq!(
            (w.p50.quiet, w.p50.median, w.p50.worst),
            (0.002, 0.002, 0.002)
        );
        assert_eq!(w.tail.median, 0.002);
        assert_eq!((w.samples, w.per_window), (2_560, 128));
        assert!((w.rate.quiet - 128_000.0).abs() < 1e-6, "{}", w.rate.quiet);
    }

    #[test]
    fn the_quiet_window_ignores_a_disturbed_stretch_the_median_window_sees() {
        // Twenty windows of 128: the first eleven at 2 ms (a busy
        // neighbour), the last nine at 1 ms. The median window reads
        // 2 ms; the quietest reads the undisturbed 1 ms, whichever share
        // of the run the disturbance took.
        let mut d = vec![0.002; 11 * 128];
        d.extend(vec![0.001; 9 * 128]);
        let w = windowed(&d, 1.0);
        assert_eq!(
            (w.p50.quiet, w.p50.median, w.p50.worst),
            (0.001, 0.002, 0.002)
        );
        assert_eq!((w.tail.quiet, w.tail.median), (0.001, 0.002));
        assert_eq!(w.p50.at(Window::Quietest), 0.001);
        assert_eq!(w.p50.at(Window::Median), 0.002);
        assert!((w.rate.quiet - 1_000.0).abs() < 1e-6);
        assert!((w.rate.median - 500.0).abs() < 1e-6);
        assert!((w.rate.worst - 500.0).abs() < 1e-6);
        assert_eq!(w.per_window, 128);
        assert!((w.tail_pct - 100.0 * 118.0 / 128.0).abs() < 1e-9);
    }

    #[test]
    fn short_series_get_fewer_fuller_windows() {
        let w = windowed(&[], 1.0);
        assert_eq!((w.samples, w.per_window, w.tail_pct), (0, 0, 0.0));
        assert_eq!((w.p50.quiet, w.rate.quiet), (0.0, 0.0));
        // Three samples: one window.
        let w = windowed(&[0.5, 0.25, 1.0], 2.0);
        assert_eq!((w.samples, w.per_window), (3, 3));
        assert_eq!((w.p50.quiet, w.p50.median, w.p50.worst), (0.5, 0.5, 0.5));
        assert!((w.rate.quiet - 6.0 / 1.75).abs() < 1e-12);
        // 1 366 samples: ten windows of 136 or 137, not twenty of 68.
        let w = windowed(&vec![0.001; 1_366], 1.0);
        assert_eq!(w.per_window, 136);
        // Plenty of samples: never more than twenty windows.
        assert_eq!(windowed(&vec![0.001; 40_000], 1.0).per_window, 2_000);
    }

    #[test]
    fn relative_difference_and_direction() {
        assert_eq!(rel_diff(100.0, 110.0), 0.1);
        assert_eq!(rel_diff(100.0, 90.0), -0.1);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(0.0, 1.0), f64::INFINITY);
        // A latency that grew 10 % is worse by 0.1; a rate that grew
        // 10 % is better by 0.1.
        assert_eq!(worse_by(100.0, 110.0, false), 0.1);
        assert_eq!(worse_by(100.0, 110.0, true), -0.1);
        assert_eq!(worse_by(100.0, 90.0, true), 0.1);
    }
}
