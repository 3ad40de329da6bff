//! Pinned, dependency-free hashing: FNV-1a 64 and XXH64, each one-shot
//! or streamed.
//!
//! Both are part of a **persistent contract**, so neither may silently
//! drift, and both are written here instead of taken from `std`'s
//! `DefaultHasher` (whose algorithm is unspecified and may change
//! between Rust releases):
//!
//! * FNV-1a routes tuples to shards in `pitract-engine` (a snapshot's
//!   rows must route identically after a reload, possibly by a binary
//!   built with a different toolchain), checksums write-ahead-log
//!   frames, and checksums snapshot files of format versions 1 and 2.
//! * XXH64 checksums snapshot files of format version 3. It reads eight
//!   bytes at a time in four independent lanes, so it runs at memory
//!   speed where FNV-1a's one multiply per byte does not. A snapshot
//!   save streams its file through [`Xxh64`] as each chunk is written;
//!   the one-shot [`xxh64`] is that hasher fed once.
//!
//! Both are integrity/dispersion hashes, not a defense against
//! adversarial collisions.

/// Incremental FNV-1a 64 state.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// Fresh state at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(OFFSET_BASIS)
    }

    /// Absorb bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One-shot FNV-1a 64 over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// The little-endian `u64` at the front of `bytes` (at least 8 long).
fn read_u64(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// The little-endian `u32` at the front of `bytes` (at least 4 long).
fn read_u32(bytes: &[u8]) -> u32 {
    let mut word = [0; 4];
    word.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(word)
}

/// One lane step: absorb `input` into `acc`.
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// One 32-byte stripe through the four lanes.
fn absorb(lanes: &mut [u64; 4], stripe: &[u8]) {
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = round(*lane, read_u64(&stripe[8 * i..]));
    }
}

/// Fold lane `lane` into the converged hash `acc`.
fn merge(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// Incremental XXH64 state: bytes absorbed in any split hash exactly
/// as they would in one piece, as the xxHash specification defines it —
/// four lanes over each 32-byte stripe, then the tail in 8-, 4- and
/// 1-byte steps, then the final avalanche. A stripe cut by a split waits
/// in a 32-byte buffer until its rest arrives.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    seed: u64,
    lanes: [u64; 4],
    /// The current stripe's first `buffered` bytes.
    stripe: [u8; 32],
    buffered: usize,
    /// Bytes absorbed so far.
    total: u64,
}

impl Xxh64 {
    /// Fresh state under `seed`.
    pub fn new(seed: u64) -> Self {
        Xxh64 {
            seed,
            lanes: [
                seed.wrapping_add(P1).wrapping_add(P2),
                seed.wrapping_add(P2),
                seed,
                seed.wrapping_sub(P1),
            ],
            stripe: [0; 32],
            buffered: 0,
            total: 0,
        }
    }

    /// Absorb bytes.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.buffered > 0 {
            let take = (32 - self.buffered).min(bytes.len());
            self.stripe[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < 32 {
                return;
            }
            absorb(&mut self.lanes, &self.stripe);
            self.buffered = 0;
        }
        let stripes = bytes.chunks_exact(32);
        let rest = stripes.remainder();
        // The lanes stay in registers across the run of whole stripes.
        let mut lanes = self.lanes;
        for stripe in stripes {
            absorb(&mut lanes, stripe);
        }
        self.lanes = lanes;
        self.stripe[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// The hash of every byte absorbed so far.
    pub fn finish(&self) -> u64 {
        let mut h = if self.total >= 32 {
            let [v1, v2, v3, v4] = self.lanes;
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            self.lanes.into_iter().fold(h, merge)
        } else {
            self.seed.wrapping_add(P5)
        };
        h = h.wrapping_add(self.total);

        let mut words = self.stripe[..self.buffered].chunks_exact(8);
        for word in &mut words {
            h ^= round(0, read_u64(word));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        }
        let mut rest = words.remainder();
        if rest.len() >= 4 {
            h ^= u64::from(read_u32(rest)).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            rest = &rest[4..];
        }
        for &byte in rest {
            h ^= u64::from(byte).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }

        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// One-shot XXH64 of `bytes` under `seed`: one [`Xxh64`] fed once.
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = Xxh64::new(seed);
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference values for the standard FNV-1a 64 parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    /// Reference values of the xxHash specification at seed 0. The last
    /// input is 39 bytes: one 32-byte stripe through the four lanes,
    /// then a 4-byte step and three single bytes.
    #[test]
    fn matches_known_xxh64_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        let long = b"Nobody inspects the spammish repetition";
        assert!(long.len() >= 32);
        assert_eq!(xxh64(long, 0), 0xFBCE_A83C_8A37_8BF1);
    }

    /// Every tail length after zero, one and two stripes takes its own
    /// path through the 8-, 4- and 1-byte steps: no two lengths collide,
    /// and the seed changes every hash.
    #[test]
    fn xxh64_separates_every_length_and_seed() {
        let bytes: Vec<u8> = (0..=96u8).collect();
        let mut seen: Vec<u64> = (0..bytes.len())
            .flat_map(|n| [xxh64(&bytes[..n], 0), xxh64(&bytes[..n], 1)])
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 2 * bytes.len());
    }

    /// The stream hashes what the one-shot hashes, however its input is
    /// split: every split point, and every three-way split, of inputs of
    /// length 0 to 100, and two-way splits at and around the 32-byte
    /// stripe edges of a longer input.
    #[test]
    fn streamed_xxh64_equals_one_shot_for_every_split() {
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        let streamed = |parts: &[&[u8]], seed| {
            let mut h = Xxh64::new(seed);
            for part in parts {
                h.write(part);
            }
            h.finish()
        };
        for n in 0..=100 {
            let input = &bytes[..n];
            let want = xxh64(input, 5);
            for a in 0..=n {
                assert_eq!(streamed(&[&input[..a], &input[a..]], 5), want, "{n} at {a}");
                for b in a..=n {
                    let parts = [&input[..a], &input[a..b], &input[b..]];
                    assert_eq!(streamed(&parts, 5), want, "{n} at {a}, {b}");
                }
            }
        }
        for edge in [32, 64, 96, 128, 256] {
            for at in edge - 9..=edge + 9 {
                let want = xxh64(&bytes, 0);
                assert_eq!(streamed(&[&bytes[..at], &bytes[at..]], 0), want, "{at}");
                let want = xxh64(&bytes[..edge], 0);
                let cut = at.min(edge);
                assert_eq!(streamed(&[&bytes[..cut], &bytes[cut..edge]], 0), want);
            }
        }
        let mut byte_by_byte = Xxh64::new(0);
        for b in &bytes {
            byte_by_byte.write(std::slice::from_ref(b));
        }
        assert_eq!(byte_by_byte.finish(), xxh64(&bytes, 0));
    }
}
