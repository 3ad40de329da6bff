// Clean counterpart: eval bodies that stay compute-bound, file I/O
// that lives on the write path instead, and one excused warm-up read.

pub struct Shard {
    spill: std::path::PathBuf,
    rows: Vec<u64>,
}

impl Shard {
    // Pure compute: what an eval body is supposed to look like.
    pub fn eval_bool(&self, queries: &[u64]) -> Vec<bool> {
        queries.iter().map(|q| self.rows.contains(q)).collect()
    }

    pub fn eval_rows(&self, queries: &[u64]) -> Vec<usize> {
        queries
            .iter()
            .filter_map(|q| self.rows.iter().position(|r| r == q))
            .collect()
    }

    // Generics, turbofish and a where clause in the signature do not
    // hide the body from the rule — or make it fire on clean compute.
    pub fn eval_shard<M: OutputMode>(&self, queries: &[u64]) -> WorkerResults<M::Out>
    where
        M::Out: Default,
    {
        queries.iter().map(|q| (*q as usize, M::Out::default(), 1)).collect::<Vec<_>>()
    }

    // The write path owns the disk; `checkpoint` is not an eval fn and
    // its body must not be mistaken for one even though it follows two.
    pub fn checkpoint(&self) -> std::io::Result<()> {
        let file = std::fs::File::create(&self.spill)?;
        file.sync_all()
    }

    // An eval fn may be excused explicitly when the read is part of the
    // contract (e.g. a one-time mmap warm-up behind a Once).
    pub fn eval_cold(&self, q: u64) -> std::io::Result<bool> {
        // lint:allow(no-blocking-syscalls-on-pool-workers) one-time warm-up, gated by Once upstream
        let bytes = std::fs::read(&self.spill)?;
        Ok(bytes.len() as u64 > q)
    }
}
