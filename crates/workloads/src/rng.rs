//! A small, dependency-free seeded PRNG used by every generator and
//! randomised test in the workspace.
//!
//! The build environment has no access to crates.io, so instead of `rand` +
//! `rand_chacha` the workspace uses this xoshiro256**-based generator
//! (seeded via SplitMix64, the construction recommended by its authors).
//! It is deterministic per seed across platforms, which is all the
//! experiment tables and property tests need; it is **not** cryptographic.

use pss_types::snapshot::{BlobWriter, SnapshotError, StateBlob};

/// A seedable, deterministic pseudo-random number generator
/// (xoshiro256**).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    state: [u64; 4],
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed.  Equal seeds yield equal
    /// streams on every platform.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            state: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// A uniform sample from `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample from `[min, max)`; returns `min` when the range is
    /// empty or degenerate.
    pub fn f64_range(&mut self, min: f64, max: f64) -> f64 {
        if max <= min {
            min
        } else {
            min + (max - min) * self.next_f64()
        }
    }

    /// A uniform sample from the inclusive integer range `[lo, hi]`.
    pub fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as usize
    }

    /// Advances the generator by `2^128` [`next_u64`](Self::next_u64) calls
    /// in `O(1)` time (the standard xoshiro256** jump polynomial).
    ///
    /// Jumping partitions the generator's period `2^256 − 1` into `2^128`
    /// non-overlapping substreams of `2^128` draws each: a stream and its
    /// jump can never overlap unless more than `2^128` values are drawn from
    /// the first.  This is what [`split_stream`](Self::split_stream) uses to
    /// hand provably disjoint substreams to parallel shards.
    pub fn jump(&mut self) {
        // The jump polynomial published with the reference xoshiro256**
        // implementation (Blackman & Vigna).
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut acc = [0u64; 4];
        for word in JUMP {
            for bit in 0..64 {
                if word & (1u64 << bit) != 0 {
                    for (a, s) in acc.iter_mut().zip(self.state.iter()) {
                        *a ^= s;
                    }
                }
                self.next_u64();
            }
        }
        self.state = acc;
    }

    /// The `k`-th disjoint substream of this generator: a copy jumped `k`
    /// times (`k = 0` is the generator itself).
    ///
    /// Substreams `0, 1, 2, …` are pairwise non-overlapping for up to
    /// `2^128` draws each, so parallel shards seeded via `split_stream`
    /// draw from provably disjoint parts of the period — no accidental
    /// correlation between shards, and the shard set is deterministic for a
    /// fixed base seed regardless of how many threads execute it.  The
    /// serving layer's chaos engine leans on the same property: a fault
    /// plan's classes (kills, corruption bits, interleavings, retry
    /// jitter) each draw from their own substream of one plan seed, which
    /// is what makes a whole chaos run replayable from a single `u64`.
    pub fn split_stream(&self, k: u64) -> Self {
        let mut stream = self.clone();
        for _ in 0..k {
            stream.jump();
        }
        stream
    }
}

/// The stream *position* is the state: a checkpointed workload source
/// resumes drawing exactly where it stopped, so a restored shard replays
/// the identical arrival stream.  (A snapshot holds the 256-bit xoshiro
/// state, not the seed — the position within the period round-trips, not
/// merely the stream identity.)
impl SmallRng {
    /// Captures the generator's stream position.
    pub fn snapshot(&self) -> StateBlob {
        let mut w = BlobWriter::new();
        for word in self.state {
            w.write_u64(word);
        }
        StateBlob::new("rng", 1, w.into_payload())
    }

    /// Resumes a generator at the position [`snapshot`](Self::snapshot)
    /// captured.  Wrong-kind, wrong-version and truncated blobs are errors,
    /// never panics.
    pub fn restore(blob: &StateBlob) -> Result<Self, SnapshotError> {
        let mut r = blob.expect("rng", 1)?;
        let state = [r.read_u64()?, r.read_u64()?, r.read_u64()?, r.read_u64()?];
        r.finish()?;
        Ok(Self { state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_samples_stay_in_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.f64_range(2.0, 5.0);
            assert!((2.0..5.0).contains(&y));
        }
        assert_eq!(rng.f64_range(3.0, 3.0), 3.0);
    }

    #[test]
    fn usize_range_is_inclusive_and_covers_all_values() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = rng.usize_range(2, 6);
            assert!((2..=6).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|s| *s));
        assert_eq!(rng.usize_range(4, 4), 4);
        assert_eq!(rng.usize_range(9, 3), 9);
    }

    #[test]
    fn jump_is_deterministic_and_changes_the_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        a.jump();
        b.jump();
        assert_eq!(a, b, "jump must be deterministic");
        let mut base = SmallRng::seed_from_u64(42);
        let jumped: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let plain: Vec<u64> = (0..8).map(|_| base.next_u64()).collect();
        assert_ne!(jumped, plain, "jump must move to a different substream");
    }

    #[test]
    fn split_stream_is_k_applications_of_jump() {
        let base = SmallRng::seed_from_u64(99);
        let mut manual = base.clone();
        for k in 0..4u64 {
            assert_eq!(base.split_stream(k), manual, "split_stream({k})");
            manual.jump();
        }
        // k = 0 is the generator itself.
        assert_eq!(base.split_stream(0), base);
    }

    #[test]
    fn split_streams_are_pairwise_disjoint_over_a_long_prefix() {
        // Each substream owns 2^128 draws, so any collision between the
        // 64-bit outputs of different substreams over a prefix of 4096
        // draws would be a birthday coincidence (probability ~2^-40 across
        // all pairs) — with a fixed seed this is a deterministic regression
        // test, not a flaky one.
        use std::collections::HashSet;
        let base = SmallRng::seed_from_u64(2024);
        let prefix = 4096usize;
        let mut seen: HashSet<u64> = HashSet::with_capacity(4 * prefix);
        for k in 0..4u64 {
            let mut stream = base.split_stream(k);
            for _ in 0..prefix {
                assert!(
                    seen.insert(stream.next_u64()),
                    "substreams overlap within the first {prefix} draws"
                );
            }
        }
    }

    #[test]
    fn snapshot_restores_the_exact_stream_position() {
        let mut rng = SmallRng::seed_from_u64(321);
        for _ in 0..1000 {
            rng.next_u64();
        }
        let blob = rng.snapshot();
        let mut restored = SmallRng::restore(&blob).unwrap();
        assert_eq!(restored, rng);
        let a: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        let b: Vec<u64> = (0..64).map(|_| restored.next_u64()).collect();
        assert_eq!(a, b, "restored stream must continue at the same position");
        // Wrong kind and truncation are errors, not panics.
        assert!(SmallRng::restore(&StateBlob::new("avr", 1, Vec::new())).is_err());
        assert!(SmallRng::restore(&StateBlob::new("rng", 1, vec![1, 2])).is_err());
    }

    #[test]
    fn mean_of_uniform_samples_is_near_half() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
