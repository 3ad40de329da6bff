//! Machine-readable lint findings.

use pitract_obs::Json;
use std::fmt;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What was found and why it is a violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The outcome of one lint run: every surviving finding, plus the
/// counts that make "0 findings" meaningful (how much was scanned, how
/// much was explicitly excused).
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Findings not excused by a `lint:allow`, in path/line order.
    pub findings: Vec<Finding>,
    /// Source files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by `lint:allow` directives.
    pub suppressed: usize,
}

impl LintReport {
    /// Whether the run produced no findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The report as JSON (the `pitract-lint --json` output).
    pub fn to_json(&self) -> Json {
        let findings: Vec<Json> = self
            .findings
            .iter()
            .map(|f| {
                Json::obj()
                    .set("rule", f.rule)
                    .set("path", f.path.as_str())
                    .set("line", u64::from(f.line))
                    .set("message", f.message.as_str())
            })
            .collect();
        Json::obj()
            .set("files_scanned", self.files_scanned as u64)
            .set("suppressed", self.suppressed as u64)
            .set("findings", findings)
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        write!(
            f,
            "{} finding(s) across {} file(s) ({} suppressed by lint:allow)",
            self.findings.len(),
            self.files_scanned,
            self.suppressed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_file_line_rule_message() {
        let f = Finding {
            rule: "no-unwrap-in-serving",
            path: "crates/engine/src/live.rs".into(),
            line: 42,
            message: "`.unwrap()` on a serving path".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/engine/src/live.rs:42: [no-unwrap-in-serving] `.unwrap()` on a serving path"
        );
    }

    #[test]
    fn json_shape_has_counts_and_findings() {
        let report = LintReport {
            findings: vec![Finding {
                rule: "no-bare-thread-spawn",
                path: "crates/engine/src/x.rs".into(),
                line: 7,
                message: "m".into(),
            }],
            files_scanned: 3,
            suppressed: 2,
        };
        let text = report.to_json().render();
        assert!(text.contains("\"files_scanned\":3"));
        assert!(text.contains("\"suppressed\":2"));
        assert!(text.contains("\"rule\":\"no-bare-thread-spawn\""));
        assert!(text.contains("\"line\":7"));
    }
}
