//! Where a run keeps its files: a fresh directory per invocation, named
//! from pid + workload + a process-wide counter so no two callers ever
//! share one, and removed when its guard drops — on success and while a
//! panic unwinds alike.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Directory, relative to the working directory, that run directories
/// are created under unless `--data-dir` names another.
pub const DEFAULT_ROOT: &str = ".bench_data";

static RUNS: AtomicUsize = AtomicUsize::new(0);

/// A run's private directory; removing it is the guard's job.
#[derive(Debug)]
pub struct RunDir {
    root: PathBuf,
    /// Whether `create` made `root`: a directory the caller already had
    /// is never this guard's to remove.
    made_root: bool,
    path: PathBuf,
    spans: PathBuf,
}

impl RunDir {
    /// Create `root/e2e-<pid>-<workload>-<n>`.
    pub fn create(root: &Path, workload: &str) -> std::io::Result<Self> {
        let n = RUNS.fetch_add(1, Ordering::SeqCst);
        let path = root.join(format!("e2e-{}-{workload}-{n}", std::process::id()));
        let made_root = !root.exists();
        std::fs::create_dir_all(&path)?;
        Ok(RunDir {
            root: root.to_path_buf(),
            made_root,
            path,
            spans: root.join(format!("spans-{workload}.jsonl")),
        })
    }

    /// The run directory.
    #[cfg(test)]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the run directory (not created).
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    /// Where a traced run leaves its spans: `root/spans-<workload>.jsonl`,
    /// beside the run directories, so it outlives this guard. The next
    /// traced run of the workload overwrites it.
    pub fn span_file(&self) -> &Path {
        &self.spans
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        // Errors are ignored: a guard must not panic, least of all
        // while another panic unwinds.
        let _ = std::fs::remove_dir_all(&self.path);
        if self.made_root {
            // Fails, harmlessly, while a sibling run's directory or a
            // span file is still there.
            let _ = std::fs::remove_dir(&self.root);
        }
    }
}

/// The filesystem type `path` lives on, from `/proc/self/mounts`
/// (longest mount-point prefix wins); `"unknown"` off Linux.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_device), Some(point), Some(kind)) =
            (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(point) && best.is_none_or(|(len, _)| point.len() >= len) {
            best = Some((point.len(), kind));
        }
    }
    best.map_or("unknown", |(_, kind)| kind).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pitract-e2e-test-{}-{tag}", std::process::id()))
    }

    #[test]
    fn two_callers_never_share_a_directory_and_both_clean_up() {
        let root = root("share");
        let a = RunDir::create(&root, "w").unwrap();
        let b = RunDir::create(&root, "w").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("file"), b"x").unwrap();
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        drop(b);
        assert!(!pb.exists());
        assert!(pa.exists(), "a sibling's directory is untouched");
        drop(a);
        assert!(!pa.exists());
        assert!(!root.exists(), "the run that made the root removes it");
    }

    #[test]
    fn a_root_the_caller_already_had_is_left_alone() {
        let root = root("kept-root");
        std::fs::create_dir_all(&root).unwrap();
        let dir = RunDir::create(&root, "w").unwrap();
        assert_eq!(dir.span_file(), root.join("spans-w.jsonl"));
        drop(dir);
        assert!(root.is_dir(), "an empty directory of the caller's survives");
        assert_eq!(std::fs::read_dir(&root).unwrap().count(), 0);
        std::fs::remove_dir(&root).unwrap();
    }

    #[test]
    fn the_guard_cleans_up_while_a_panic_unwinds() {
        let root = root("panic");
        let seen = std::sync::Mutex::new(PathBuf::new());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = RunDir::create(&root, "w").unwrap();
            *seen.lock().unwrap() = dir.path().to_path_buf();
            std::fs::write(dir.join("file"), b"x").unwrap();
            panic!("a check failed mid-run");
        }));
        assert!(outcome.is_err());
        let path = seen.lock().unwrap().clone();
        assert!(path.starts_with(&root));
        assert!(!path.exists());
    }

    #[test]
    fn the_filesystem_of_a_real_directory_has_a_name() {
        assert!(!filesystem_of(&std::env::temp_dir()).is_empty());
        assert_eq!(filesystem_of(Path::new("/no/such/dir")), "unknown");
    }
}
