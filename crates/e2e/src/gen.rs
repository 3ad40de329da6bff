//! Seeded input generation. The system under test only ever sees what
//! this file (and the per-workload query builders on top of it)
//! produce from `--seed`; the same seed gives the same inputs.

use crate::stack::{self, Value};

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 0x5EED_CAFE;

/// `ts` is uniform in `[0, TS_SPREAD · |D|)`.
pub const TS_SPREAD: i64 = 16;
/// `grp` is uniform in `[0, GROUPS)`.
pub const GROUPS: i64 = 1_024;

/// splitmix64 (Steele, Lea & Flood): one 64-bit state, full period,
/// passes BigCrush — and small enough to live in the benchmark's own
/// files, so the harness draws no randomness from the repository.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, n)` as the `i64` the schema's columns hold.
    pub fn below_i64(&mut self, n: i64) -> i64 {
        self.below(n.unsigned_abs()) as i64
    }

    /// An independent stream for one purpose (`tag`), so adding draws
    /// to one generator never shifts another's.
    pub fn fork(&self, tag: u64) -> SplitMix64 {
        let mut parent = SplitMix64::new(self.state ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
        SplitMix64::new(parent.next_u64())
    }

    /// A 16-byte payload.
    pub fn payload(&mut self) -> String {
        format!("{:016x}", self.next_u64())
    }
}

/// The generated base relation, column by column: row `i` has id `i`
/// and (see [`stack::build_live`]) global row id `i`.
#[derive(Debug, Clone)]
pub struct Base {
    /// `ts` per row.
    pub ts: Vec<i64>,
    /// `grp` per row.
    pub grp: Vec<i64>,
}

impl Base {
    /// Rows in the base relation.
    pub fn len(&self) -> usize {
        self.ts.len()
    }
}

/// Generate `n` rows: ids `0..n`, `ts` and `grp` uniform.
pub fn base(rng: &mut SplitMix64, n: usize) -> (Vec<Vec<Value>>, Base) {
    let mut rows = Vec::with_capacity(n);
    let mut ts = Vec::with_capacity(n);
    let mut grp = Vec::with_capacity(n);
    for id in 0..n {
        let t = rng.below_i64(TS_SPREAD * n as i64);
        let g = rng.below_i64(GROUPS);
        rows.push(stack::row(id as i64, t, g, rng.payload()));
        ts.push(t);
        grp.push(g);
    }
    (rows, Base { ts, grp })
}

/// The benchmark's own answer oracle for `ts` ranges over a [`Base`]:
/// row ids in `ts` order.
#[derive(Debug)]
pub struct TsOrder {
    by_ts: Vec<(i64, usize)>,
}

impl TsOrder {
    /// Sort the base rows by `ts`.
    pub fn new(base: &Base) -> Self {
        let mut by_ts: Vec<(i64, usize)> = base.ts.iter().copied().zip(0..).collect();
        by_ts.sort_unstable();
        TsOrder { by_ts }
    }

    /// `(ts, row id)` of every base row with `lo ≤ ts ≤ hi`.
    pub fn range(&self, lo: i64, hi: i64) -> &[(i64, usize)] {
        let from = self.by_ts.partition_point(|&(t, _)| t < lo);
        let to = self.by_ts.partition_point(|&(t, _)| t <= hi);
        &self.by_ts[from..to]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_vectors() {
        // First outputs for seed 0 and 1234567 from the reference
        // implementation (Vigna, prng.di.unimi.it/splitmix64.c).
        let mut a = SplitMix64::new(0);
        assert_eq!(a.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(a.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let mut b = SplitMix64::new(1_234_567);
        assert_eq!(b.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(b.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn same_seed_same_inputs_and_another_seed_differs() {
        let (rows_a, base_a) = base(&mut SplitMix64::new(7), 256);
        let (rows_b, base_b) = base(&mut SplitMix64::new(7), 256);
        let (rows_c, _) = base(&mut SplitMix64::new(8), 256);
        assert_eq!(rows_a, rows_b);
        assert_eq!(base_a.ts, base_b.ts);
        assert_ne!(rows_a, rows_c);
    }

    #[test]
    fn draws_stay_in_range_and_forks_are_independent() {
        let mut rng = SplitMix64::new(DEFAULT_SEED);
        for _ in 0..1_000 {
            assert!(rng.below(10) < 10);
        }
        assert_eq!(rng.payload().len(), 16);
        let root = SplitMix64::new(1);
        assert_ne!(root.fork(1).next_u64(), root.fork(2).next_u64());
        assert_eq!(root.fork(1).next_u64(), root.fork(1).next_u64());
    }

    #[test]
    fn ts_order_answers_closed_ranges() {
        let base = Base {
            ts: vec![50, 10, 30, 10, 70],
            grp: vec![0; 5],
        };
        let order = TsOrder::new(&base);
        let ids = |lo, hi| -> Vec<usize> { order.range(lo, hi).iter().map(|&(_, r)| r).collect() };
        assert_eq!(ids(10, 30), vec![1, 3, 2]);
        assert_eq!(ids(11, 29), Vec::<usize>::new());
        assert_eq!(ids(0, 100), vec![1, 3, 2, 0, 4]);
        assert_eq!(ids(70, 70), vec![4]);
    }
}
