// Seeded violations: flushes while the writer-state guard is held.

pub struct Writer {
    state: std::sync::Mutex<FileHandle>,
}

impl Writer {
    fn lock(&self) -> std::sync::MutexGuard<'_, FileHandle> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn flush_under_let_guard(&self) -> std::io::Result<()> {
        let state = self.lock();
        state.sync_data()?; // the whole point of the rule
        Ok(())
    }

    pub fn flush_as_statement_temporary(&self) -> std::io::Result<()> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .sync_all()
    }

    pub fn flush_before_drop(&self) -> std::io::Result<()> {
        let guard = self.lock();
        guard.sync_data()?;
        drop(guard);
        Ok(())
    }
}
