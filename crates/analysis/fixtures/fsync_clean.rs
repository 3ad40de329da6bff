// Clean counterpart: the flush-via-cloned-handle pattern (the guard
// region closes with its block before the disk is touched), a flush
// after an explicit drop, and a flush with no writer-state guard in
// sight.

pub struct Writer {
    state: std::sync::Mutex<FileHandle>,
    rotation: std::sync::Mutex<()>,
}

impl Writer {
    fn lock(&self) -> std::sync::MutexGuard<'_, FileHandle> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn commit(&self) -> std::io::Result<()> {
        let flush = {
            let state = self.lock();
            state.try_clone()?
        };
        flush.sync_data()?; // outside the lock: the clone outlives the guard
        Ok(())
    }

    pub fn flush_after_drop(&self) -> std::io::Result<()> {
        let state = self.lock();
        let clone = state.try_clone()?;
        drop(state);
        clone.sync_data()
    }

    pub fn rotation_is_not_the_state_lock(&self, file: &FileHandle) -> std::io::Result<()> {
        let _turn = self.rotation.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        file.sync_data()
    }

    pub fn unlocked(&self, file: &FileHandle) -> std::io::Result<()> {
        file.sync_data()
    }
}
