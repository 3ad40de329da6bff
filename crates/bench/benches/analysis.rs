//! Pricing the runtime lockdep: what the rank-checked `OrderedMutex`
//! wrapper costs relative to the bare std mutex it wraps.
//!
//! Release builds compile the rank check out, so `ordered_mutex` should
//! sit on top of `std_mutex`; `noted_pair` adds the explicit
//! `note_acquire`/`note_release` bookkeeping a *debug* acquisition pays
//! (those functions are always compiled, so a release bench can price
//! them). The end-to-end benchmark never isolates a lock, so this group
//! is the only measurement of that cost; it prints and writes nothing.

use criterion::{criterion_group, criterion_main, Criterion};
use pitract_core::lockdep::{self, LockRank, OrderedMutex};
use std::hint::black_box;
use std::sync::Mutex;

/// Criterion group: bare std mutex vs the ordered wrapper (passthrough
/// in release builds) vs the explicit note pair a debug acquisition
/// adds.
fn bench_lock_micro(c: &mut Criterion) {
    let plain = Mutex::new(0u64);
    let ordered = OrderedMutex::new(LockRank::WalState, 0u64);
    let mut group = c.benchmark_group("lockdep_micro");
    group.bench_function("std_mutex", |b| {
        b.iter(|| {
            *black_box(&plain).lock().expect("unpoisoned") += 1;
        })
    });
    group.bench_function("ordered_mutex", |b| {
        b.iter(|| {
            *black_box(&ordered).lock() += 1;
        })
    });
    group.bench_function("noted_pair", |b| {
        b.iter(|| {
            let _ = lockdep::note_acquire(LockRank::WalState, 0);
            *black_box(&plain).lock().expect("unpoisoned") += 1;
            lockdep::note_release(LockRank::WalState, 0);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lock_micro);
criterion_main!(benches);
