// Clean counterpart: the disk reached through a `Dir`, and names that
// only look like the filesystem — a binding called `fs`, a `File` type
// with no path call, `std::fs` in a comment and in a string.

use pitract_store::storage::FileHandle;
use pitract_store::Dir;

pub struct File {
    handle: FileHandle,
}

pub fn load(dir: &Dir) -> std::io::Result<Vec<u8>> {
    // Not `std::fs::read`: the seam.
    dir.read("segment", 0)
}

pub fn append(file: &File, fs: &[u8]) -> std::io::Result<()> {
    let label = "std::fs::write";
    file.handle.append(fs)?;
    file.handle.append(label.as_bytes())
}
