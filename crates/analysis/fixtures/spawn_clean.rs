// Clean counterpart: the pool's own spawn is the one excused
// construction site, and tests spawn freely.

use std::thread;

pub fn the_pool_itself(i: usize) -> std::io::Result<thread::JoinHandle<()>> {
    thread::Builder::new()
        .name(format!("pitract-pool-{i}"))
        // lint:allow(no-bare-thread-spawn) this IS the WorkerPool spawn point
        .spawn(|| {})
}

#[cfg(test)]
mod tests {
    use std::thread;

    #[test]
    fn tests_spawn_freely() {
        thread::spawn(|| {}).join().ok();
        thread::scope(|scope| {
            scope.spawn(|| {});
        });
    }
}
