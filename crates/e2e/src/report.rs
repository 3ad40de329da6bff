//! What one workload run produces, and how it is printed: a table of
//! named metrics with units and sample counts for people, and the one
//! JSON line the benchmark contract asks for.

use crate::metrics::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// One armed correctness check and how it came out.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The evidence, for the printed report.
    pub detail: String,
}

/// The result of one workload run (traced or untraced).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted: queries plus updates.
    pub attempted: u64,
    /// Operations that erred, were refused, or answered wrongly.
    pub failed: u64,
    /// Whole-run checks (replica equivalence, recovery, flatness, …).
    pub checks: Vec<Check>,
    /// Metric values by registered name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and tail percentiles, printed beside the timings.
    pub notes: Vec<String>,
    /// Wall-clock seconds of the timed region.
    pub timed_s: f64,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Outcome {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            timed_s: 0.0,
        }
    }

    /// Record a metric. The name must be registered for this kind of
    /// run — a typo would otherwise vanish from the output silently.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = if self.traced {
            PER_LAYER.iter().any(|m| m.name == name)
        } else {
            END_TO_END.iter().any(|m| m.name == name)
        };
        assert!(
            known,
            "unregistered metric {name} (traced: {})",
            self.traced
        );
        self.metrics.insert(name, value);
    }

    /// Record a whole-run check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    /// Every operation succeeded, every check held, every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|c| c.ok)
            && self.metrics.values().all(|v| v.is_finite())
    }

    /// The metrics of this kind of run, in registry order: name, unit,
    /// and whether the result line must carry it (every per-layer metric;
    /// the bounded end-to-end ones).
    fn registered(&self) -> Vec<(&'static str, &'static str, bool)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit, true)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, m.bound.is_some()))
                .collect()
        }
    }

    /// A metric's value. Per-layer metrics of an idle layer read 0;
    /// `failed_share` is the result line's two counts as a ratio.
    pub fn value(&self, name: &str) -> f64 {
        if name == "failed_share" {
            return self.failed as f64 / self.attempted.max(1) as f64;
        }
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// The human-readable block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} ({}) — {:.2} s timed, {} operations, {} failed\n",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.timed_s,
            self.attempted,
            self.failed
        );
        let mut idle = 0;
        for (name, unit, in_result) in self.registered() {
            if self.metrics.contains_key(name) || name == "failed_share" {
                let v = self.value(name);
                let mark = if in_result { "" } else { "  (no bound)" };
                out.push_str(&format!("  {name:<36} {v:>16.4} {unit}{mark}\n"));
            } else if self.traced {
                idle += 1;
            }
        }
        if idle > 0 {
            out.push_str(&format!(
                "  # {idle} metrics of layers this workload leaves idle read 0\n"
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("  # {note}\n"));
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            out.push_str(&format!("  [{verdict}] {}: {}\n", c.name, c.detail));
        }
        out
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics` — every per-layer metric of a traced run,
    /// every bounded end-to-end metric of an untraced one.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .registered()
            .into_iter()
            .filter(|&(_, _, in_result)| in_result)
            .map(|(name, unit, _)| {
                let v = self.value(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The value of metric `name` as a report [`Outcome::render`] wrote
/// prints it (four decimals), if it prints it.
pub fn printed_value(report: &str, name: &str) -> Option<f64> {
    report.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next()? == name).then(|| fields.next()?.parse().ok())?
    })
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 off Linux. A
/// high-water mark of the whole process: one workload run per process,
/// or it is the largest run's.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut o = Outcome::new("point_read", false);
        o.attempted = 10;
        o.set("setup_s", 1.25);
        o.set("request_p50_ms", 2e6);
        o.set("recover_s", 0.5);
        let line = o.json_line();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        for m in END_TO_END {
            assert_eq!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                m.bound.is_some(),
                "{}: the result line carries exactly the bounded metrics",
                m.name
            );
        }
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"request_p50_ms\": {\"value\": 2000000, \"unit\": \"ms\"}"));
        assert!(!line.contains('\n'));
        // A metric without a bound is printed, not part of the result.
        assert!(!line.contains("recover_s"));
        let report = o.render();
        // What the repeat check reads back out of a run's report.
        assert_eq!(printed_value(&report, "setup_s"), Some(1.25));
        assert_eq!(printed_value(&report, "recover_s"), Some(0.5));
        assert_eq!(printed_value(&report, "failed_share"), Some(0.0));
        assert_eq!(printed_value(&report, "write_ups"), None);
    }

    #[test]
    fn a_failed_operation_check_or_nan_makes_the_run_incorrect() {
        let mut o = Outcome::new("point_read", true);
        assert!(o.correct());
        o.check("flat", false, "rose".to_string());
        assert!(!o.correct());
        let mut o = Outcome::new("point_read", true);
        o.failed = 1;
        assert!(!o.correct());
        let mut o = Outcome::new("point_read", true);
        o.set("index.ns_per_step", f64::NAN);
        assert!(!o.correct());
        assert!(o
            .json_line()
            .contains("\"index.ns_per_step\": {\"value\": 0,"));
    }

    #[test]
    #[should_panic(expected = "unregistered metric")]
    fn a_misspelt_metric_name_is_refused() {
        Outcome::new("point_read", false).set("index.ns_per_step", 1.0);
    }

    #[test]
    fn peak_rss_reads_a_positive_number_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
