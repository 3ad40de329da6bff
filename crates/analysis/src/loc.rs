//! Non-test lines per crate: the one line count simplicity changes are
//! measured by.
//!
//! A line counts when it carries at least one token of library source
//! (`src/`, binaries included) outside the test mask [`SourceFile`]
//! computes for the lint rules — so blank lines, comments, `#[test]` /
//! `#[cfg(test)]` items, and files declared as test-only modules
//! (`#[cfg(test)] mod name;`) never count. `tests/`, `benches/` and
//! `examples/` are not library source and are not counted.

use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Non-test lines per crate, in crate-name order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LineCount {
    /// `(crate name, non-test lines)`.
    pub crates: Vec<(String, usize)>,
}

impl LineCount {
    /// Count `files` (as [`crate::walk::walk_workspace`] returns them).
    pub fn of(files: &[SourceFile]) -> Self {
        let test_only: BTreeSet<String> = files.iter().flat_map(test_module_files).collect();
        let mut per_crate: BTreeMap<&str, usize> = BTreeMap::new();
        for file in files {
            if file.kind == FileKind::Lib && !test_only.contains(&file.rel_path) {
                *per_crate.entry(&file.crate_name).or_default() += non_test_lines(file);
            }
        }
        LineCount {
            crates: per_crate
                .into_iter()
                .map(|(name, lines)| (name.to_string(), lines))
                .collect(),
        }
    }

    /// The sum over every crate.
    pub fn total(&self) -> usize {
        self.crates.iter().map(|(_, lines)| lines).sum()
    }
}

impl fmt::Display for LineCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<24} {:>14}", "crate", "non-test lines")?;
        for (name, lines) in &self.crates {
            writeln!(f, "{name:<24} {lines:>14}")?;
        }
        write!(f, "{:<24} {:>14}", "total", self.total())
    }
}

/// Distinct lines holding a token outside the test mask. Tokens come in
/// source order, so equal lines are adjacent.
fn non_test_lines(file: &SourceFile) -> usize {
    let mut lines: Vec<u32> = file
        .tokens
        .iter()
        .zip(&file.test_mask)
        .filter(|(_, &test)| !test)
        .map(|(token, _)| token.line)
        .collect();
    lines.dedup();
    lines.len()
}

/// The paths of the modules `file` declares test-only with
/// `#[cfg(test)] mod name;` — both places the module's file may live.
fn test_module_files(file: &SourceFile) -> Vec<String> {
    let path = &file.rel_path;
    let stem = path.strip_suffix(".rs").unwrap_or(path);
    // `lib.rs`, `main.rs` and `mod.rs` own their directory; `foo.rs`
    // owns `foo/`.
    let dir = match stem.rsplit_once('/') {
        Some((parent, "lib" | "main" | "mod")) => parent,
        _ => stem,
    };
    let t = &file.tokens;
    (0..t.len().saturating_sub(2))
        .filter(|&i| file.test_mask[i] && t[i].is_ident("mod") && t[i + 2].is_punct(';'))
        .flat_map(|i| {
            let name = &t[i + 1].text;
            [format!("{dir}/{name}.rs"), format!("{dir}/{name}/mod.rs")]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(crate_name: &str, path: &str, src: &str) -> SourceFile {
        SourceFile::from_source(crate_name, path, FileKind::Lib, src)
    }

    #[test]
    fn counts_code_lines_outside_tests_comments_and_blanks() {
        let f = lib(
            "pitract-engine",
            "crates/engine/src/live.rs",
            concat!(
                "//! Module docs do not count.\n",
                "\n",
                "fn serve() {\n",
                "    let s = \"a\n",
                "    string\";\n",
                "}\n",
                "#[cfg(test)]\n",
                "mod tests {\n",
                "    #[test]\n",
                "    fn t() {}\n",
                "}\n",
            ),
        );
        assert_eq!(LineCount::of(&[f]).total(), 4, "lines 3, 4, 5 (`;`), 6");
    }

    #[test]
    fn test_only_module_files_and_test_targets_are_not_counted() {
        let files = [
            lib(
                "pitract-relation",
                "crates/relation/src/indexed.rs",
                "fn a() {}\n#[cfg(test)]\nmod oracle;\n",
            ),
            lib(
                "pitract-relation",
                "crates/relation/src/indexed/oracle.rs",
                "fn check() {}\nfn more() {}\n",
            ),
            lib(
                "pitract-relation",
                "crates/relation/src/lib.rs",
                "mod indexed;\n",
            ),
            SourceFile::from_source(
                "pitract-relation",
                "crates/relation/tests/it.rs",
                FileKind::Test,
                "fn t() {}\n",
            ),
            lib("pitract-wal", "crates/wal/src/lib.rs", "fn w() {}\n"),
        ];
        let count = LineCount::of(&files);
        assert_eq!(
            count.crates,
            [
                ("pitract-relation".to_string(), 2),
                ("pitract-wal".to_string(), 1)
            ]
        );
        assert_eq!(count.total(), 3);
        let table = count.to_string();
        assert!(table.lines().last().unwrap().ends_with('3'), "{table}");
    }
}
