//! `e2e` — the repository's benchmark: four fixed-work workloads driven
//! through the real serving stack (`LiveRelation` / `DurableLiveRelation`
//! behind a `PooledExecutor`, a `SegmentPublisher` and one `Follower`),
//! every metric printed by name with its unit, answers checked while
//! measuring. See `README.md` beside this file and `BENCHMARK.json` at
//! the repository root.
//!
//! ```text
//! pitract-e2e --list
//! pitract-e2e --workload NAME [--trace 0|1] [--seed N] [--seconds S] [--data-dir DIR]
//! pitract-e2e --all [--seed N] [--seconds S] [--data-dir DIR]
//! pitract-e2e --repeat-check [--workload NAME] [--seed N] [--seconds S] [--data-dir DIR]
//! ```
//!
//! `--workload` measures in this process. `--all` and `--repeat-check`
//! start one such process per run, so every run's `peak_rss_mb` (a
//! process-wide high-water mark) is its own.

mod contended_rw;
mod datadir;
mod fanout_read;
mod gen;
mod harness;
mod metrics;
mod point_read;
mod reads;
mod report;
mod sizing;
mod stack;
mod stats;
mod trace;
mod write_replicate;

use datadir::RunDir;
use harness::Ctx;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use report::Outcome;
use sizing::{Scale, REFERENCE_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    List,
    All,
    One,
    RepeatCheck,
}

#[derive(Debug, Clone)]
struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: usize,
    traced: bool,
    data_dir: PathBuf,
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let text = text.replace('_', "");
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("`{text}` is not a number: {e}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        mode: Mode::One,
        workload: None,
        seed: gen::DEFAULT_SEED,
        seconds: sizing::run_seconds(),
        traced: false,
        data_dir: PathBuf::from(datadir::DEFAULT_ROOT),
    };
    let mut explicit_mode = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--list" => (out.mode, explicit_mode) = (Mode::List, true),
            "--all" => (out.mode, explicit_mode) = (Mode::All, true),
            "--repeat-check" => (out.mode, explicit_mode) = (Mode::RepeatCheck, true),
            "--workload" => out.workload = Some(value("--workload")?),
            "--seed" => out.seed = parse_u64(&value("--seed")?)?,
            "--data-dir" => out.data_dir = PathBuf::from(value("--data-dir")?),
            "--seconds" => {
                out.seconds =
                    usize::try_from(parse_u64(&value("--seconds")?)?).map_err(|e| e.to_string())?;
            }
            "--trace" => {
                out.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &out.workload {
        if !WORKLOADS.iter().any(|(w, _)| w == name) {
            return Err(format!("unknown workload `{name}` (try --list)"));
        }
    } else if !explicit_mode {
        return Err(
            "name a workload with --workload, or use --all, --list or --repeat-check".into(),
        );
    }
    Ok(out)
}

/// Run one workload in a fresh run directory under `data_root`.
fn run_workload(
    name: &str,
    seed: u64,
    scale: Scale,
    traced: bool,
    data_root: &Path,
) -> Result<Outcome, String> {
    let dir = RunDir::create(data_root, name).map_err(|e| {
        format!(
            "cannot create a run directory under {}: {e}",
            data_root.display()
        )
    })?;
    let ctx = Ctx {
        seed,
        scale,
        traced,
        dir: &dir,
    };
    match name {
        "point_read" => point_read::run(&ctx),
        "fanout_read" => fanout_read::run(&ctx),
        "write_replicate" => write_replicate::run(&ctx),
        "contended_rw" => contended_rw::run(&ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a run was: seed, scale, machine, toolchain, filesystem, flush
/// policy — everything a number needs beside it to be compared.
fn header(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let work = format!(
        "fixed work sized for {} s per workload (reference counts x {}/{REFERENCE_SECONDS})",
        args.seconds, args.seconds
    );
    // The data dir may not exist yet; its filesystem is its closest
    // existing ancestor's.
    let mut on_disk = std::path::absolute(&args.data_dir).unwrap_or_else(|_| args.data_dir.clone());
    while !on_disk.exists() && on_disk.pop() {}
    format!(
        "# pitract e2e benchmark\n\
         # seed {:#x} ({})\n\
         # {work}\n\
         # cores {cores}; pool workers = cores; generator threads <= 2\n\
         # {}\n\
         # data dir {} on {}\n\
         # flush policy: WalConfig::default() = group commit, 4 MiB segments\n",
        args.seed,
        args.seed,
        rustc_version(),
        args.data_dir.display(),
        datadir::filesystem_of(&on_disk),
    )
}

fn list() {
    println!("claim: none (this benchmark records the baseline; a PR that claims a gain may not edit it)");
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<16} {why}");
    }
    println!("end-to-end metrics (untraced run; every workload reports each bounded one):");
    for m in END_TO_END {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let bound = m
            .bound
            .map_or("no bound  ".to_string(), |b| format!("bound {b:<4}"));
        println!(
            "  {:<22} {:<10} {better:<6} {bound} {}",
            m.name, m.unit, m.what
        );
    }
    println!("per-layer metrics (traced run; 0 where the layer is idle):");
    for m in PER_LAYER {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        println!(
            "  {:<36} {:<10} {better:<6} moves: {}",
            m.name, m.unit, m.moves
        );
    }
}

/// One run of `name` in a process of its own, started exactly as the
/// benchmark driver starts it: `(exit status ok, standard output)`.
fn run_in_child(args: &Args, name: &str, traced: bool) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--data-dir")
        .arg(&args.data_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run of {name}: {e}"))?;
    Ok((
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    ))
}

/// Both runs of every workload; non-zero when any run is incorrect.
fn all(args: &Args) -> Result<bool, String> {
    let mut correct = true;
    for traced in [false, true] {
        for (name, _) in WORKLOADS {
            let (ok, report) = run_in_child(args, name, traced)?;
            print!("{report}");
            correct &= ok;
        }
    }
    println!("# all runs correct: {correct}");
    Ok(correct)
}

/// Each workload's untraced measurement twice, back to back: both
/// values, their relative difference and the bound, per metric.
fn repeat_check(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for (name, _) in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != *name) {
            continue;
        }
        let (first_ok, first) = run_in_child(args, name, false)?;
        let (second_ok, second) = run_in_child(args, name, false)?;
        ok &= first_ok && second_ok;
        println!("== {name}: two untraced runs, seed {:#x}", args.seed);
        for m in END_TO_END {
            let (Some(a), Some(b)) = (
                report::printed_value(&first, m.name),
                report::printed_value(&second, m.name),
            ) else {
                // Not a metric of this workload.
                continue;
            };
            let breach = m
                .bound
                .is_some_and(|bound| stats::worse_by(a, b, m.higher_is_better).abs() > bound);
            ok &= !breach;
            println!(
                "  {:<22} {a:>14.4} {b:>14.4} {:<10} diff {:>+8.4} {} {}",
                m.name,
                m.unit,
                stats::rel_diff(a, b),
                m.bound
                    .map_or("no bound  ".to_string(), |b| format!("bound {b:<4}")),
                if breach { "BREACH" } else { "ok" }
            );
        }
    }
    println!("# repeat check passed: {ok}");
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    match args.mode {
        Mode::List => {
            list();
            Ok(true)
        }
        Mode::All => all(&args),
        Mode::RepeatCheck => repeat_check(&args),
        Mode::One => {
            print!("{}", header(&args));
            let name = args.workload.as_deref().ok_or("no workload named")?;
            let o = run_workload(
                name,
                args.seed,
                Scale::Seconds(args.seconds),
                args.traced,
                &args.data_dir,
            )?;
            print!("{}", o.render());
            // The contract's result: the last line of standard output.
            println!("{}", o.json_line());
            Ok(o.correct())
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
