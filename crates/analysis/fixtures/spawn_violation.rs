// Seeded violations: bare thread spawns in library code, and — in a
// serving crate — a scoped fan-out beside the pool.

use std::thread;

pub fn bare_path_spawn() -> thread::JoinHandle<()> {
    thread::spawn(|| {})
}

pub fn builder_spawn() -> std::io::Result<thread::JoinHandle<()>> {
    thread::Builder::new().name("rogue".to_string()).spawn(|| {})
}

pub fn scoped_fanout(work: Vec<u32>) -> u32 {
    thread::scope(|scope| {
        let handles: Vec<_> = work
            .iter()
            .map(|w| scope.spawn(move || w + 1))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    })
}
