// Seeded violations: blocking file I/O on the pool-worker eval paths.

pub struct Shard {
    spill: std::path::PathBuf,
}

impl Shard {
    pub fn eval_bool(&self, queries: &[u64]) -> std::io::Result<Vec<bool>> {
        let file = std::fs::File::open(&self.spill)?; // opens the disk per batch
        drop(file);
        Ok(queries.iter().map(|q| *q % 2 == 0).collect())
    }

    pub fn eval_rows(&self, queries: &[u64]) -> std::io::Result<Vec<usize>> {
        let audit = std::fs::OpenOptions::new().append(true).open(&self.spill)?;
        audit.sync_all()?; // and flushes it, stalling the worker twice
        Ok(queries.iter().map(|q| *q as usize).collect())
    }

    // The one generic body behind both wrappers above is an eval fn too.
    pub fn eval_shard<M: OutputMode>(&self, queries: &[u64]) -> WorkerResults<M::Out> {
        let _ = std::fs::metadata(&self.spill);
        queries.iter().map(|q| (*q as usize, M::Out::default(), 1)).collect()
    }

    pub fn eval_scan(&self, q: u64) -> std::io::Result<bool> {
        let bytes = std::fs::read(&self.spill)?; // fs:: path call, same sin
        Ok(bytes.len() as u64 > q)
    }

    // A non-eval method doing the same I/O is the write path's business,
    // not this rule's: it must NOT fire here.
    pub fn checkpoint(&self) -> std::io::Result<()> {
        let file = std::fs::File::create(&self.spill)?;
        file.sync_data()
    }
}
