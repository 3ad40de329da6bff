//! The one door to the disk: `pitract-store`, `pitract-wal` and
//! `pitract-repl` reach storage only through a [`Dir`], a backend paired
//! with a path. There are two backends, both private to this crate: a
//! path converts to a filesystem directory, and [`Dir::memory`] is an
//! in-memory volume (a location, as SQLite's `:memory:` is, not a
//! setting) whose flush records how much of each file is on stable
//! storage, so a [`MemoryVolume`] the caller keeps can lose power
//! ([`MemoryVolume::crash`]): every byte past a file's last flush is
//! gone. The volume is also where faults are injected: a [`Fault`]
//! armed on it ([`MemoryVolume::arm`]) fails one matching call — a
//! full disk, a short append, a failed flush, a rename that lands and
//! then errors, a power loss. A backend's rename and remove are durable
//! on return (the filesystem backend fsyncs the parent directory, where
//! the name lives), and the two durability recipes are written once
//! over the backend: [`Dir::write_atomic_with`] (streamed;
//! [`Dir::write_atomic`] is its bytes form) and [`Dir::create_durable`].
//!
//! A directory can be claimed by one owner at a time ([`Dir::claim`]):
//! a write-ahead-log writer holds its directory's [`DirClaim`] for its
//! lifetime, so a second writer of the same log is refused instead of
//! appending under the same sequence numbers. The filesystem backend
//! keys one registry for the whole process by canonical path; each
//! [`MemoryVolume`] keeps its own, which [`MemoryVolume::crash`]
//! empties, as a power loss ends every owner. Other processes are not
//! covered: an operating-system file lock (`File::try_lock`) needs Rust
//! 1.89, and the workspace builds with 1.87.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, ErrorKind, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError, Weak};

/// An open file. Appends land at its end, also after a truncate.
pub trait StorageFile: fmt::Debug + Send + Sync {
    /// Append `bytes` at the end of the file.
    fn append(&self, bytes: &[u8]) -> io::Result<()>;
    /// Cut the file to `len` bytes.
    fn truncate(&self, len: u64) -> io::Result<()>;
    /// Flush the file's data to stable storage.
    fn sync_data(&self) -> io::Result<()>;
}

/// A shared handle to an open file: a flush clones it under a lock and
/// runs outside it.
pub type FileHandle = Arc<dyn StorageFile>;

/// Where bytes live. A missing file or directory is
/// [`ErrorKind::NotFound`] on every backend.
pub(crate) trait Storage: fmt::Debug + Send + Sync {
    /// Create `dir` and its missing ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// The entry names of `dir`, in no particular order.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// The bytes of `path` from offset `from` to the end.
    fn read(&self, path: &Path, from: u64) -> io::Result<Vec<u8>>;
    /// Create `path`, emptying any existing file, for appending.
    fn create(&self, path: &Path) -> io::Result<FileHandle>;
    /// Open the existing file `path` for appending.
    fn open(&self, path: &Path) -> io::Result<FileHandle>;
    /// Rename `from` over `to`; durable on return.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove the file `path`; durable on return.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Claim the existing directory `dir` for one owner until the
    /// returned [`DirClaim`] drops. While it is held, a second claim of
    /// the same directory fails with [`ErrorKind::ResourceBusy`]. The
    /// claim covers this process only.
    fn claim(&self, dir: &Path) -> io::Result<DirClaim>;
}

/// One owner's claim on a directory ([`Dir::claim`]), released when it
/// drops.
#[derive(Debug)]
pub struct DirClaim {
    claims: Arc<Claims>,
    key: PathBuf,
    token: u64,
}

impl Drop for DirClaim {
    /// Release the claim, unless a crash already did and the directory
    /// has a new owner.
    fn drop(&mut self) {
        let mut table = locked(&self.claims.0);
        if table.held.get(&self.key) == Some(&self.token) {
            table.held.remove(&self.key);
        }
    }
}

/// A registry of claimed directories: what a backend keeps to hand out
/// [`DirClaim`]s.
#[derive(Debug, Default)]
struct Claims(Mutex<ClaimTable>);

/// Each claimed directory's key, with the token of the claim holding it.
#[derive(Debug, Default)]
struct ClaimTable {
    next: u64,
    held: BTreeMap<PathBuf, u64>,
}

impl Claims {
    /// Claim `key`, unless a claim already holds it.
    fn claim(self: &Arc<Self>, key: PathBuf) -> io::Result<DirClaim> {
        let mut table = locked(&self.0);
        if table.held.contains_key(&key) {
            let message = format!("{} is claimed by another owner", key.display());
            return Err(io::Error::new(ErrorKind::ResourceBusy, message));
        }
        table.next += 1;
        let token = table.next;
        table.held.insert(key.clone(), token);
        Ok(DirClaim {
            claims: Arc::clone(self),
            key,
            token,
        })
    }

    /// Release every claim; their owners' drops then release nothing.
    fn release_all(&self) {
        locked(&self.0).held.clear();
    }
}

/// A directory on a storage backend: what every constructor that
/// persists something takes, as `impl Into<Dir>`. File names given to
/// its methods are relative to it.
#[derive(Debug, Clone)]
pub struct Dir {
    storage: Arc<dyn Storage>,
    path: PathBuf,
}

impl Dir {
    /// The directory `path` on the backend `storage`.
    pub(crate) fn new(storage: Arc<dyn Storage>, path: impl Into<PathBuf>) -> Self {
        Dir {
            storage,
            path: path.into(),
        }
    }

    /// The root of a fresh, empty in-memory volume, shared by its clones
    /// and [`Self::join`]s ([`MemoryVolume::root`] of a volume no one
    /// can crash).
    pub fn memory() -> Self {
        MemoryVolume::new().root()
    }

    /// The directory's path on its backend.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The backend the directory lives on.
    #[cfg(test)]
    pub(crate) fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// The subdirectory `name`, on the same backend.
    pub fn join(&self, name: impl AsRef<Path>) -> Self {
        let path = self.path.join(name);
        Dir {
            path,
            ..self.clone()
        }
    }

    /// Create the directory and its missing ancestors.
    pub fn create_dir_all(&self) -> io::Result<()> {
        self.storage.create_dir_all(&self.path)
    }

    /// The directory's entry names, in no particular order.
    pub fn list(&self) -> io::Result<Vec<String>> {
        self.storage.list(&self.path)
    }

    /// The bytes of file `name` from offset `from` to the end.
    pub fn read(&self, name: &str, from: u64) -> io::Result<Vec<u8>> {
        self.storage.read(&self.path.join(name), from)
    }

    /// Open the existing file `name` for appending.
    pub fn open(&self, name: &str) -> io::Result<FileHandle> {
        self.storage.open(&self.path.join(name))
    }

    /// Remove file `name`; durable on return.
    pub fn remove(&self, name: &str) -> io::Result<()> {
        self.storage.remove(&self.path.join(name))
    }

    /// Claim the existing directory for one owner until the returned
    /// [`DirClaim`] drops. While it is held, a second claim of the same
    /// directory fails with [`ErrorKind::ResourceBusy`]. The claim
    /// covers this process only.
    pub fn claim(&self) -> io::Result<DirClaim> {
        self.storage.claim(&self.path)
    }

    /// Atomic replace: write `bytes` to a `.tmp` sibling, flush it, and
    /// rename it over `name` ([`Self::write_atomic_with`], the bytes
    /// appended at once). Returns the path written.
    pub fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<PathBuf> {
        self.write_atomic_with(name, |file| file.append(bytes))
    }

    /// Atomic replace, streamed: create a `.tmp` sibling, let `write`
    /// append to it, flush it, and rename it over `name`. Returns the
    /// path written. The flush comes first, or the rename could reach
    /// the disk before the data and a power loss would replace a good
    /// file with a truncated one. The temp name carries the pid and a
    /// process-wide counter, so concurrent writes of one name never
    /// interleave: the last rename wins with a whole file. A failed
    /// write or flush removes the temp file and leaves `name` as it was;
    /// a rename that lands and then reports an error leaves the new
    /// file, whole.
    pub fn write_atomic_with(
        &self,
        name: &str,
        write: impl FnOnce(&FileHandle) -> io::Result<()>,
    ) -> io::Result<PathBuf> {
        self.replace(name, write)?;
        Ok(self.path.join(name))
    }

    /// Durable create: [`Self::write_atomic`] `header` as file `name`,
    /// and return the written file, open for appending. A crash leaves
    /// the file absent or whole, never torn at birth, and an error
    /// leaves it absent: a rename whose directory sync failed has
    /// already put the name in place, so it is removed again.
    pub fn create_durable(&self, name: &str, header: &[u8]) -> io::Result<FileHandle> {
        self.replace(name, |file| file.append(header))
            .inspect_err(|_| {
                let _ = self.remove(name);
            })
    }

    /// The one atomic-replace recipe ([`Self::write_atomic_with`]),
    /// returning the handle that wrote the file: it still names the
    /// file after the rename.
    fn replace(
        &self,
        name: &str,
        write: impl FnOnce(&FileHandle) -> io::Result<()>,
    ) -> io::Result<FileHandle> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = format!("{name}.{}-{seq}.tmp", std::process::id());
        let (staged, path) = (self.path.join(&tmp), self.path.join(name));
        let written = self.storage.create(&staged).and_then(|file| {
            write(&file)?;
            file.sync_data()?;
            self.storage.rename(&staged, &path)?;
            Ok(file)
        });
        if written.is_err() {
            let _ = self.remove(&tmp);
        }
        written
    }
}

/// A path names a directory on the filesystem. (A blanket impl over
/// `Into<PathBuf>` would collide with `From<Dir> for Dir`.)
macro_rules! on_the_filesystem {
    ($($path:ty),*) => {$(
        impl From<$path> for Dir {
            fn from(path: $path) -> Self {
                Dir::new(Arc::new(Fs), path)
            }
        }
    )*};
}
on_the_filesystem!(PathBuf, &Path, &PathBuf, &str, String, &String);

impl From<&Dir> for Dir {
    fn from(dir: &Dir) -> Self {
        dir.clone()
    }
}

/// The filesystem. Files open with `O_APPEND`, so the write after a
/// truncate lands at the new end with no seek.
#[derive(Debug)]
struct Fs;

#[derive(Debug)]
struct FsFile(fs::File);

impl StorageFile for FsFile {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        (&self.0).write_all(bytes)
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn sync_data(&self) -> io::Result<()> {
        self.0.sync_data()
    }
}

/// Fsync the directory holding `path`.
fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

impl Storage for Fs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        fs::read_dir(dir)?
            .map(|entry| Ok(entry?.file_name().to_string_lossy().into_owned()))
            .collect()
    }

    fn read(&self, path: &Path, from: u64) -> io::Result<Vec<u8>> {
        let mut file = fs::File::open(path)?;
        file.seek(SeekFrom::Start(from))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn create(&self, path: &Path) -> io::Result<FileHandle> {
        drop(fs::File::create(path)?);
        self.open(path)
    }

    fn open(&self, path: &Path) -> io::Result<FileHandle> {
        let file = fs::OpenOptions::new().append(true).open(path)?;
        Ok(Arc::new(FsFile(file)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)?;
        sync_parent(to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)?;
        sync_parent(path)
    }

    /// One registry for the process, keyed by canonical path, so two
    /// spellings of one directory are one claim.
    fn claim(&self, dir: &Path) -> io::Result<DirClaim> {
        static CLAIMS: LazyLock<Arc<Claims>> = LazyLock::new(Arc::default);
        CLAIMS.claim(fs::canonicalize(dir)?)
    }
}

/// An in-memory volume that can lose power and fail on demand: the
/// backend of [`Dir::memory`], kept by whoever means to crash it or arm
/// a fault on it. A file's [`StorageFile::sync_data`] records the length
/// it made durable; [`Self::crash`] then cuts every file back to that
/// length, as a power loss would. Names are durable as they change — a
/// rename or remove is durable on return, and a created file that was
/// never flushed comes back empty. A flush that fails loses the bytes it
/// did not cover at the next crash, even if a later flush succeeds: the
/// kernel may drop the pages of a failed `fsync` and report the next one
/// clean. The volume keeps its own directory claims, and a crash
/// releases them all.
#[derive(Debug, Clone)]
pub struct MemoryVolume(Arc<Mem>);

impl MemoryVolume {
    /// A fresh, empty volume.
    pub fn new() -> Self {
        let root = PathBuf::from("/");
        MemoryVolume(Arc::new_cyclic(|me| Mem {
            me: Weak::clone(me),
            entries: Mutex::new(BTreeMap::from([(root, None)])),
            claims: Arc::default(),
            armed: Mutex::default(),
        }))
    }

    /// The volume's root directory.
    pub fn root(&self) -> Dir {
        Dir::new(Arc::clone(&self.0) as Arc<dyn Storage>, "/")
    }

    /// Lose power: every file keeps the bytes its last flush covered and
    /// loses the rest, and every directory claim is released. Handles
    /// opened before the crash still name their files; a test drops what
    /// the crash killed before it recovers.
    pub fn crash(&self) {
        self.0.crash();
    }

    /// Arm `fault`, beside any armed before it. A call two faults match
    /// counts for both and meets the first armed that fires.
    pub fn arm(&self, fault: Fault) {
        locked(&self.0.armed).push((fault, 0));
    }

    /// Disarm every fault that has not fired, returning how many matching
    /// calls each let pass, in the order they were armed.
    pub fn disarm(&self) -> Vec<usize> {
        let armed = std::mem::take(&mut *locked(&self.0.armed));
        armed.into_iter().map(|(_, seen)| seen).collect()
    }
}

impl Default for MemoryVolume {
    fn default() -> Self {
        Self::new()
    }
}

/// A call of the in-memory volume that a [`Fault`] can hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// [`StorageFile::append`].
    Append,
    /// [`StorageFile::truncate`].
    Truncate,
    /// [`StorageFile::sync_data`].
    Sync,
    /// Creating a file: the first step of both durability recipes.
    Create,
    /// Renaming a file: the last step of both recipes. Its path is the
    /// new name.
    Rename,
    /// [`Dir::remove`].
    Remove,
    /// [`Dir::read`].
    Read,
}

/// What a [`Fault`] does to the call it fires on. Every effect fails the
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Nothing lands; the call fails with this kind
    /// ([`ErrorKind::StorageFull`] is a full disk).
    Fail(ErrorKind),
    /// An append lands its first `n` bytes, another call lands whole;
    /// then the call fails as [`ErrorKind::StorageFull`].
    Short(usize),
    /// The call lands, then fails: a rename whose directory flush failed.
    LandThenFail,
    /// The volume loses power ([`MemoryVolume::crash`]); nothing lands.
    CrashThenFail,
}

/// One call that goes wrong, once: the `nth` call (from 1) of `op` on a
/// path under `prefix`, counted from when the fault is armed
/// ([`MemoryVolume::arm`]).
#[derive(Debug, Clone)]
pub struct Fault {
    /// The call it hits.
    pub op: Op,
    /// The paths it hits: this one and those under it.
    pub prefix: PathBuf,
    /// Which matching call it hits.
    pub nth: usize,
    /// What it does to that call.
    pub effect: Effect,
}

/// The in-memory volume: path → `None` for a directory, the file
/// otherwise, the volume's directory claims, and the armed faults with
/// how many matching calls each has let pass. An append holds its file's
/// mutex, so a reader never sees half of one.
struct Mem {
    /// The volume itself, for its files: a fault on a file's call can
    /// crash the volume.
    me: Weak<Mem>,
    entries: Mutex<Entries>,
    claims: Arc<Claims>,
    armed: Mutex<Vec<(Fault, usize)>>,
}

type Entries = BTreeMap<PathBuf, Option<Arc<MemFile>>>;

#[derive(Debug, Default)]
struct MemFile(Mutex<Contents>);

/// A file's volume and path (a rename moves it), its bytes, how many of
/// them the last flush made durable, and where a failed flush left bytes
/// a crash loses.
#[derive(Debug, Default)]
struct Contents {
    volume: Weak<Mem>,
    path: PathBuf,
    bytes: Vec<u8>,
    synced: usize,
    lost_from: Option<usize>,
}

fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn not_found(path: &Path) -> io::Error {
    let message = format!("{} not found", path.display());
    io::Error::new(ErrorKind::NotFound, message)
}

/// The file at `path`.
fn file(entries: &Entries, path: &Path) -> io::Result<Arc<MemFile>> {
    entries
        .get(path)
        .cloned()
        .flatten()
        .ok_or_else(|| not_found(path))
}

/// Fail unless `path` can be a file: in a directory, not one itself.
fn file_slot(entries: &Entries, path: &Path) -> io::Result<()> {
    let is_dir = |dir: &Path| matches!(entries.get(dir), Some(None));
    match path.parent() {
        Some(parent) if is_dir(parent) && !is_dir(path) => Ok(()),
        _ => Err(not_found(path)),
    }
}

impl fmt::Debug for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Mem")
    }
}

impl Mem {
    /// The effect of an armed fault this call of `op` on `path` is the
    /// one for; that fault is then spent.
    fn fire(&self, op: Op, path: &Path) -> Option<Effect> {
        let mut armed = locked(&self.armed);
        let mut fires = None;
        for (i, (fault, seen)) in armed.iter_mut().enumerate() {
            if fault.op == op && path.starts_with(&fault.prefix) {
                *seen += 1;
                if *seen >= fault.nth {
                    fires = fires.or(Some(i));
                }
            }
        }
        Some(armed.remove(fires?).0.effect)
    }

    /// The error of a call `effect` fired on, once the effect is done.
    fn fail(&self, effect: Effect) -> io::Error {
        if effect == Effect::CrashThenFail {
            self.crash();
        }
        let kind = match effect {
            Effect::Fail(kind) => kind,
            Effect::Short(_) => ErrorKind::StorageFull,
            Effect::LandThenFail | Effect::CrashThenFail => ErrorKind::Other,
        };
        io::Error::new(kind, format!("injected fault: {effect:?}"))
    }

    /// `call`, the call of `op` on `path`, as the armed fault lets it
    /// run: told the fault's effect, it runs unless nothing lands.
    fn run<T>(
        &self,
        op: Op,
        path: &Path,
        call: impl FnOnce(Option<Effect>) -> io::Result<T>,
    ) -> io::Result<T> {
        let fired = self.fire(op, path);
        if let Some(effect @ (Effect::Fail(_) | Effect::CrashThenFail)) = fired {
            return Err(self.fail(effect));
        }
        let out = call(fired)?;
        fired.map_or(Ok(out), |effect| Err(self.fail(effect)))
    }

    fn crash(&self) {
        self.claims.release_all();
        for file in locked(&self.entries).values().flatten() {
            let mut contents = locked(&file.0);
            let kept = contents.lost_from.take().unwrap_or(usize::MAX);
            let kept = kept.min(contents.synced);
            contents.bytes.truncate(kept);
            contents.synced = kept;
        }
    }
}

impl MemFile {
    /// `call` on the contents, as the volume's armed fault lets this `op`
    /// of the file run ([`Mem::run`]).
    fn run(&self, op: Op, call: impl FnOnce(&mut Contents, Option<Effect>)) -> io::Result<()> {
        let contents = locked(&self.0);
        let (volume, path) = (contents.volume.upgrade(), contents.path.clone());
        drop(contents);
        let call = |fired| {
            call(&mut locked(&self.0), fired);
            Ok(())
        };
        match volume {
            Some(volume) => volume.run(op, &path, call),
            None => call(None),
        }
    }
}

impl StorageFile for MemFile {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.run(Op::Append, |contents, fired| {
            let landed = match fired {
                Some(Effect::Short(n)) => n.min(bytes.len()),
                _ => bytes.len(),
            };
            contents.bytes.extend_from_slice(&bytes[..landed]);
        })
    }

    /// A cut takes durable bytes with it; a grown tail is not durable.
    fn truncate(&self, len: u64) -> io::Result<()> {
        let len = len as usize;
        self.run(Op::Truncate, |contents, _| {
            contents.bytes.resize(len, 0);
            contents.synced = contents.synced.min(len);
            contents.lost_from = contents.lost_from.filter(|&at| at < len);
        })
    }

    /// A failed flush leaves the bytes it did not cover to be lost.
    fn sync_data(&self) -> io::Result<()> {
        let synced = |contents: &mut Contents, _| contents.synced = contents.bytes.len();
        self.run(Op::Sync, synced).inspect_err(|_| {
            let mut contents = locked(&self.0);
            let synced = contents.synced;
            let uncovered = synced < contents.bytes.len();
            contents.lost_from = contents.lost_from.or(uncovered.then_some(synced));
        })
    }
}

impl Storage for Mem {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut entries = locked(&self.entries);
        let blocked = dir
            .ancestors()
            .any(|d| matches!(entries.get(d), Some(Some(_))));
        if blocked {
            return Err(ErrorKind::AlreadyExists.into());
        }
        for dir in dir.ancestors() {
            entries.entry(dir.to_path_buf()).or_insert(None);
        }
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let entries = locked(&self.entries);
        if !matches!(entries.get(dir), Some(None)) {
            return Err(not_found(dir));
        }
        let children = entries.keys().filter(|path| path.parent() == Some(dir));
        let names = children.filter_map(|path| path.file_name()?.to_str());
        Ok(names.map(str::to_owned).collect())
    }

    fn read(&self, path: &Path, from: u64) -> io::Result<Vec<u8>> {
        self.run(Op::Read, path, |_| {
            let file = file(&locked(&self.entries), path)?;
            let bytes = &locked(&file.0).bytes;
            Ok(bytes[(from as usize).min(bytes.len())..].to_vec())
        })
    }

    fn create(&self, path: &Path) -> io::Result<FileHandle> {
        self.run(Op::Create, path, |_| {
            let mut entries = locked(&self.entries);
            file_slot(&entries, path)?;
            let slot = entries.entry(path.to_path_buf()).or_default();
            let file = Arc::clone(slot.get_or_insert_default());
            *locked(&file.0) = Contents {
                volume: Weak::clone(&self.me),
                path: path.to_path_buf(),
                ..Contents::default()
            };
            Ok(file as FileHandle)
        })
    }

    fn open(&self, path: &Path) -> io::Result<FileHandle> {
        Ok(file(&locked(&self.entries), path)?)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.run(Op::Rename, to, |_| {
            let mut entries = locked(&self.entries);
            let file = file(&entries, from)?;
            file_slot(&entries, to)?;
            entries.remove(from);
            locked(&file.0).path = to.to_path_buf();
            entries.insert(to.to_path_buf(), Some(file));
            Ok(())
        })
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.run(Op::Remove, path, |_| {
            let mut entries = locked(&self.entries);
            file(&entries, path)?;
            entries.remove(path);
            Ok(())
        })
    }

    fn claim(&self, dir: &Path) -> io::Result<DirClaim> {
        if !matches!(locked(&self.entries).get(dir), Some(None)) {
            return Err(not_found(dir));
        }
        self.claims.claim(dir.to_path_buf())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A file created and never flushed keeps its name through a power
    /// loss, and none of its bytes: names are durable as they change.
    #[test]
    fn a_created_file_never_flushed_comes_back_empty() {
        let volume = MemoryVolume::new();
        let dir = volume.root();
        let fresh = dir.storage().create(&dir.path().join("fresh")).unwrap();
        fresh.append(b"never flushed").unwrap();
        drop(fresh);
        volume.crash();
        assert_eq!(dir.list().unwrap(), ["fresh"]);
        assert_eq!(dir.read("fresh", 0).unwrap(), b"");
    }
}
