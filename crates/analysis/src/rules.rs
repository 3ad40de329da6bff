//! The lint rules. Rules are data over the token stream: each one
//! implements [`Rule`], scopes itself to the crates/targets it governs,
//! and emits [`Finding`]s; [`run_rules`] applies the `lint:allow`
//! escape hatch and assembles the [`LintReport`].

use crate::lexer::{TokKind, Token};
use crate::report::{Finding, LintReport};
use crate::source::{FileKind, SourceFile};

/// The crates whose library code is a *serving path*: a panic there
/// rides a pool worker or a caller's write and voids the serving SLO.
pub const SERVING_CRATES: &[&str] = &[
    "pitract-engine",
    "pitract-wal",
    "pitract-store",
    "pitract-repl",
    "pitract-obs",
];

/// One token-level lint rule.
pub trait Rule {
    /// The rule's name — what `lint:allow(<name>)` must say to excuse a
    /// finding.
    fn name(&self) -> &'static str;
    /// Scan one file, pushing findings (allows are applied later by
    /// [`run_rules`]).
    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>);
}

/// The deny-by-default rule set the `pitract-lint` binary runs.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoUnwrapInServing),
        Box::new(NoFsyncUnderLock),
        Box::new(NoBareThreadSpawn),
        Box::new(NoBlockingSyscallsOnPoolWorkers),
        Box::new(GaugeOutsideStatus),
        Box::new(FsOutsideStorage),
    ]
}

/// Run `rules` over `files`, apply `lint:allow` suppressions, and
/// assemble the report (findings in scan order).
pub fn run_rules(files: &[SourceFile], rules: &[Box<dyn Rule>]) -> LintReport {
    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    for file in files {
        for rule in rules {
            let mut found = Vec::new();
            rule.check(file, &mut found);
            for finding in found {
                if file.allowed(finding.rule, finding.line) {
                    report.suppressed += 1;
                } else {
                    report.findings.push(finding);
                }
            }
        }
    }
    report
}

/// Is `tokens[i]` an identifier that is being *called as a method*
/// (`.name(`)?
fn is_method_call(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens[i].is_ident(name)
        && i > 0
        && tokens[i - 1].is_punct('.')
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// Is `tokens[i]` the identifier head of a macro invocation (`name!`)?
fn is_macro_call(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens[i].is_ident(name) && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
}

/// `no-unwrap-in-serving`: no `unwrap`/`expect`/`panic!`/`unreachable!`
/// (or `dbg!` debris) in non-test library code of the serving crates —
/// a panic on a serving path either aborts the process or burns a pool
/// worker's batch; errors there must be typed.
pub struct NoUnwrapInServing;

impl Rule for NoUnwrapInServing {
    fn name(&self) -> &'static str {
        "no-unwrap-in-serving"
    }

    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib || !SERVING_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        for i in 0..file.tokens.len() {
            if file.test_mask[i] {
                continue;
            }
            let what = if is_method_call(&file.tokens, i, "unwrap") {
                Some("`.unwrap()`")
            } else if is_method_call(&file.tokens, i, "expect") {
                Some("`.expect(…)`")
            } else if is_macro_call(&file.tokens, i, "panic") {
                Some("`panic!`")
            } else if is_macro_call(&file.tokens, i, "unreachable") {
                Some("`unreachable!`")
            } else if is_macro_call(&file.tokens, i, "dbg") {
                Some("`dbg!`")
            } else {
                None
            };
            if let Some(what) = what {
                findings.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line: file.tokens[i].line,
                    message: format!(
                        "{what} on a serving path in `{}` — return a typed error instead",
                        file.crate_name
                    ),
                });
            }
        }
    }
}

/// `no-fsync-under-lock`: no `sync_all`/`sync_data` (or the WAL's
/// `timed_sync` wrapper) lexically inside a region holding the WAL
/// writer-state guard. A disk flush under that mutex serializes every
/// concurrent stager behind the disk — the exact convoy the two-phase
/// stage/commit design exists to prevent.
///
/// The detection is lexical: a `let` whose initializer (at its own
/// brace depth) contains a writer-state guard marker (`self.lock()` or
/// `….state.lock()`) opens a guard region that closes at the end of the
/// enclosing block or at an explicit `drop(<binding>)`; a guard marker
/// used as a statement temporary holds only to the end of its
/// statement. The rotation turnstile (`….rotation.lock()`) is
/// deliberately *not* a marker — it is taken strictly before the state
/// lock and never wraps a flush region by itself.
pub struct NoFsyncUnderLock;

/// Contiguous token-text sequences that mean "a writer-state guard was
/// just produced".
const GUARD_MARKERS: &[&[&str]] = &[&["self", ".", "lock", "("], &["state", ".", "lock", "("]];

/// Method names that hit the disk.
const SYNC_CALLS: &[&str] = &["sync_all", "sync_data", "timed_sync"];

/// Does the marker sequence `pat` start at `tokens[i]`?
fn marker_at(tokens: &[Token], i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, want)| {
        tokens
            .get(i + k)
            .is_some_and(|t| t.kind != TokKind::Str && t.text == *want)
    })
}

/// Does any guard marker start at `tokens[i]`?
fn any_marker_at(tokens: &[Token], i: usize) -> bool {
    GUARD_MARKERS.iter().any(|pat| marker_at(tokens, i, pat))
}

impl Rule for NoFsyncUnderLock {
    fn name(&self) -> &'static str {
        "no-fsync-under-lock"
    }

    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib || file.crate_name != "pitract-wal" {
            return;
        }
        let tokens = &file.tokens;
        // Open guard regions: (binding name or "" for patterns, brace
        // depth of the `let` statement).
        let mut regions: Vec<(String, usize)> = Vec::new();
        let mut depth = 0usize;
        for i in 0..tokens.len() {
            if file.test_mask[i] {
                continue;
            }
            let t = &tokens[i];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                // A region opened by a `let` at depth d dies with its
                // enclosing block.
                regions.retain(|&(_, d)| d <= depth);
            } else if t.is_ident("let") {
                if let Some(region) = guard_let(tokens, i, depth) {
                    regions.push(region);
                }
            } else if t.is_ident("drop")
                && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'))
            {
                if let Some(arg) = tokens.get(i + 2) {
                    if let Some(at) = regions
                        .iter()
                        .rposition(|(b, _)| !b.is_empty() && *b == arg.text)
                    {
                        regions.remove(at);
                    }
                }
            } else if SYNC_CALLS.iter().any(|s| is_method_call(tokens, i, s)) {
                let under_let_guard = !regions.is_empty();
                let under_stmt_guard = statement_has_marker_before(tokens, i);
                if under_let_guard || under_stmt_guard {
                    findings.push(Finding {
                        rule: self.name(),
                        path: file.rel_path.clone(),
                        line: t.line,
                        message: format!(
                            "`{}` while a writer-state guard is held — flush via a cloned \
                             handle outside the lock",
                            t.text
                        ),
                    });
                }
            }
        }
    }
}

/// If the `let` at `tokens[i]` binds a writer-state guard, return the
/// region `(binding, depth)`. The initializer is scanned to its `;`,
/// and markers only count at the initializer's own brace depth — a
/// marker inside a nested `{ … }` block belongs to that block's scope
/// (the flush-via-cloned-handle pattern) and must not leak out.
fn guard_let(tokens: &[Token], i: usize, depth: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let binding = match tokens.get(j) {
        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
        _ => String::new(), // tuple/struct pattern: track depth only
    };
    let mut rel = 0usize;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('{') {
            rel += 1;
        } else if t.is_punct('}') {
            if rel == 0 {
                return None; // ill-formed; bail
            }
            rel -= 1;
        } else if t.is_punct(';') && rel == 0 {
            return None;
        } else if rel == 0 && any_marker_at(tokens, j) {
            return Some((binding, depth));
        }
        j += 1;
    }
    None
}

/// Does the statement containing `tokens[i]` start with a guard marker
/// before `i` (a statement-temporary guard like
/// `self.lock().file.sync_all()`)?
fn statement_has_marker_before(tokens: &[Token], i: usize) -> bool {
    let mut start = i;
    while start > 0 {
        let t = &tokens[start - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        start -= 1;
    }
    (start..i).any(|j| any_marker_at(tokens, j))
}

/// `no-bare-thread-spawn`: threads go through `WorkerPool` (named
/// threads, admission, panic containment, drain-on-drop) — not
/// `thread::spawn` or a raw `thread::Builder`, in any crate's library
/// code. In the serving crates scoped threads (`thread::scope` /
/// `scope.spawn`) are rejected too: the `PooledExecutor` is the one way
/// a batch fans out, and a scoped fan-out beside it would be a second
/// executor with its own panic handling and no admission gate.
pub struct NoBareThreadSpawn;

impl Rule for NoBareThreadSpawn {
    fn name(&self) -> &'static str {
        "no-bare-thread-spawn"
    }

    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib {
            return;
        }
        let tokens = &file.tokens;
        let serving = SERVING_CRATES.contains(&file.crate_name.as_str());
        for i in 0..tokens.len() {
            if file.test_mask[i] || tokens.get(i + 1).is_none_or(|t| !t.is_punct('(')) {
                continue;
            }
            let after = |pat: &[&str]| i >= pat.len() && marker_at(tokens, i - pat.len(), pat);
            let on_thread_path = after(&["thread", ":", ":"]);
            let spawn = tokens[i].is_ident("spawn");
            // `thread::Builder::new()…spawn(…)`: a builder mentioned a
            // few tokens back in the same expression chain.
            let builder_spawn = spawn
                && after(&["."])
                && tokens[i.saturating_sub(40)..i]
                    .iter()
                    .any(|t| t.is_ident("Builder"));
            let message = if spawn && on_thread_path || builder_spawn {
                "bare thread spawn — route workers through `WorkerPool`"
            } else if serving
                && (tokens[i].is_ident("scope") && on_thread_path
                    || spawn && after(&["scope", "."]))
            {
                "scoped threads in a serving crate — batches fan out through \
                 `PooledExecutor` only"
            } else {
                continue;
            };
            findings.push(Finding {
                rule: self.name(),
                path: file.rel_path.clone(),
                line: tokens[i].line,
                message: message.to_string(),
            });
        }
    }
}

/// `no-blocking-syscalls-on-pool-workers`: no blocking file I/O inside
/// a `fn eval_*` body in the serving crates. `BatchServe::eval_shard`
/// is exactly what `WorkerPool` workers execute per shard per batch
/// (`eval_bool`/`eval_rows` are its two monomorphic wrappers); one disk
/// touch there multiplies by every shard of every admitted batch and
/// stalls a worker the admission gate thinks is compute-bound. Durability belongs on the write path (the WAL), never
/// on the batch-evaluation path.
///
/// The detection is lexical: a `fn` whose name starts with `eval_` opens
/// a region at its body's brace; inside any such region the rule flags
/// flush calls (`sync_all`/`sync_data`/`timed_sync`), file opens
/// (`File::open`/`File::create`/`OpenOptions::new`), and `fs::…` path
/// calls.
pub struct NoBlockingSyscallsOnPoolWorkers;

/// Method calls that block a pool worker on the disk.
const BLOCKING_METHOD_CALLS: &[&str] = &["sync_all", "sync_data", "timed_sync"];

/// `Type::assoc(` heads that open or hit a file.
const BLOCKING_PATH_CALLS: &[(&str, &str)] =
    &[("File", "open"), ("File", "create"), ("OpenOptions", "new")];

/// Is `tokens[i]` the identifier `head` of a `head::assoc(` path call?
fn is_path_call(tokens: &[Token], i: usize, head: &str, assoc: Option<&str>) -> bool {
    tokens[i].is_ident(head)
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 3).is_some_and(|t| match assoc {
            Some(name) => t.is_ident(name),
            None => t.kind == TokKind::Ident,
        })
        && tokens.get(i + 4).is_some_and(|t| t.is_punct('('))
}

impl Rule for NoBlockingSyscallsOnPoolWorkers {
    fn name(&self) -> &'static str {
        "no-blocking-syscalls-on-pool-workers"
    }

    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib || !SERVING_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        let tokens = &file.tokens;
        let mut depth = 0usize;
        // Brace depths at which an `eval_*` body opened.
        let mut regions: Vec<usize> = Vec::new();
        // A `fn eval_*` signature was seen; the next `{` is its body
        // (Rust signatures contain no braces), a `;` first means a
        // bodiless trait declaration.
        let mut pending = false;
        for i in 0..tokens.len() {
            let t = &tokens[i];
            if t.is_punct('{') {
                depth += 1;
                if pending {
                    regions.push(depth);
                    pending = false;
                }
                continue;
            }
            if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                regions.retain(|&d| d <= depth);
                continue;
            }
            if file.test_mask[i] {
                continue;
            }
            if t.is_punct(';') {
                pending = false;
            } else if t.is_ident("fn")
                && tokens
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokKind::Ident && t.text.starts_with("eval_"))
            {
                pending = true;
            } else if !regions.is_empty() {
                let what = if BLOCKING_METHOD_CALLS
                    .iter()
                    .any(|m| is_method_call(tokens, i, m))
                {
                    Some(format!("`.{}()`", t.text))
                } else if BLOCKING_PATH_CALLS
                    .iter()
                    .any(|&(head, assoc)| is_path_call(tokens, i, head, Some(assoc)))
                {
                    Some(format!("`{}::{}`", t.text, tokens[i + 3].text))
                } else if is_path_call(tokens, i, "fs", None) {
                    Some(format!("`fs::{}`", tokens[i + 3].text))
                } else {
                    None
                };
                if let Some(what) = what {
                    findings.push(Finding {
                        rule: self.name(),
                        path: file.rel_path.clone(),
                        line: t.line,
                        message: format!(
                            "{what} inside `fn eval_…` in `{}` — pool workers must stay \
                             syscall-free; stage I/O on the write path, not per batch",
                            file.crate_name
                        ),
                    });
                }
            }
        }
    }
}

/// `gauge-outside-status`: no `.gauge(` in library code outside
/// `crates/engine/src/status.rs`, whose `NodeStatus::publish` is the one
/// writer of every status series. Tokens cannot tell a registry intern
/// from a snapshot lookup, so both fire: library code reads state
/// through `status()`, not back out of a registry. Tests and
/// `pitract-obs` are exempt.
pub struct GaugeOutsideStatus;

impl Rule for GaugeOutsideStatus {
    fn name(&self) -> &'static str {
        "gauge-outside-status"
    }

    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        let status = file.rel_path == "crates/engine/src/status.rs";
        let exempt = file.crate_name == "pitract-obs" || status;
        if file.kind != FileKind::Lib || exempt {
            return;
        }
        for i in 0..file.tokens.len() {
            if !file.test_mask[i] && is_method_call(&file.tokens, i, "gauge") {
                findings.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line: file.tokens[i].line,
                    message: "`.gauge(` outside `crates/engine/src/status.rs` — status \
                              series are named only by `NodeStatus::publish`; read state \
                              through `status()`"
                        .to_string(),
                });
            }
        }
    }
}

/// `fs-outside-storage`: no `std::fs`, `fs::…`, `File::` or
/// `OpenOptions::` in non-test library code of the serving crates
/// outside `crates/store/src/storage.rs`. Every byte `wal`, `store` and
/// `repl` persist goes through its `Dir`, so the durability recipes
/// live once and tests can run on the in-memory volume. One finding per
/// line.
pub struct FsOutsideStorage;

impl Rule for FsOutsideStorage {
    fn name(&self) -> &'static str {
        "fs-outside-storage"
    }

    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        let serving = SERVING_CRATES.contains(&file.crate_name.as_str());
        if file.kind != FileKind::Lib || !serving || file.rel_path == "crates/store/src/storage.rs"
        {
            return;
        }
        let tokens = &file.tokens;
        let mut last_line = 0;
        for (i, t) in tokens.iter().enumerate() {
            let path_head = marker_at(tokens, i + 1, &[":", ":"]);
            let hit = if t.is_ident("fs") {
                path_head || i >= 3 && marker_at(tokens, i - 3, &["std", ":", ":"])
            } else {
                (t.is_ident("File") || t.is_ident("OpenOptions")) && path_head
            };
            if !hit || file.test_mask[i] || t.line == last_line {
                continue;
            }
            last_line = t.line;
            findings.push(Finding {
                rule: self.name(),
                path: file.rel_path.clone(),
                line: t.line,
                message: format!(
                    "`{}` in `{}` outside `crates/store/src/storage.rs` — reach the disk \
                     through a `pitract_store::Dir`",
                    t.text, file.crate_name
                ),
            });
        }
    }
}
