// Seeded violations: a serving crate reaching the disk around the
// storage seam, beside an excused site and test code that may.

use std::fs;

pub fn load(path: &std::path::Path) -> std::io::Result<Vec<u8>> {
    fs::read(path)
}

pub fn append(path: &std::path::Path) -> std::io::Result<std::fs::File> {
    std::fs::OpenOptions::new().append(true).open(path) // one finding per line
}

pub fn create(path: &std::path::Path) -> std::io::Result<()> {
    File::create(path)?;
    Ok(())
}

pub fn excused(path: &std::path::Path) -> bool {
    // lint:allow(fs-outside-storage) a one-off probe, removed with its caller
    fs::metadata(path).is_ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_use_the_filesystem() {
        let _ = std::fs::read("/nonexistent");
    }
}
