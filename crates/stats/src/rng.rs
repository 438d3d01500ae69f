//! Deterministic random-number-generator helpers.
//!
//! Every experiment in the paper is "repeated ten times with new random
//! seeds" (§4.4). To make those repetitions reproducible across platforms and
//! runs, the whole workspace derives its generators from explicit `u64` seeds
//! through [`seeded_rng`] and [`derive_seed`].

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// The concrete PRNG used throughout the workspace.
///
/// ChaCha12 gives portable, platform-independent streams with a 64-bit seed,
/// which is exactly what reproducible experiments need.
pub type Rng = ChaCha12Rng;

/// Creates a deterministic PRNG from a 64-bit seed.
///
/// # Examples
///
/// ```
/// use rand::Rng as _;
/// let mut a = alic_stats::rng::seeded_rng(7);
/// let mut b = alic_stats::rng::seeded_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> Rng {
    ChaCha12Rng::seed_from_u64(seed)
}

/// Derives a new seed from a base seed and a stream label.
///
/// Used to give independent, reproducible streams to different components of
/// one experiment (e.g. the simulator noise, the candidate sampler and the
/// model's particle moves) without the streams being correlated.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the combined value; cheap and well mixed.
    let mut z = base
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a byte string with a SplitMix64 chain: the salt and the length
/// seed the chain, then each 8-byte little-endian word (zero-padded tail)
/// is folded in through [`derive_seed`]. Deterministic across processes
/// and platforms, so the hashes may be stored on disk (warm-store
/// fingerprints, content-addressed serve donors, journal checksums).
pub fn hash_bytes(salt: u64, bytes: &[u8]) -> u64 {
    let mut h = derive_seed(salt, bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = derive_seed(h, u64::from_le_bytes(word));
    }
    h
}

/// Creates a PRNG for a named sub-stream of a base seed.
pub fn seeded_stream(base: u64, stream: u64) -> Rng {
    seeded_rng(derive_seed(base, stream))
}

/// Derives a seed from a base seed and **two** stream labels by chaining
/// [`derive_seed`].
///
/// This is the derivation behind per-work-item RNG streams in parallel
/// loops: a `(base, outer, inner)` triple — e.g. `(model seed, observation
/// index, particle index)` in the dynamic tree's particle updates — maps to
/// one independent stream, so every item can be processed on any thread in
/// any order while the overall computation stays bit-identical to a serial
/// run.
pub fn derive_seed2(base: u64, outer: u64, inner: u64) -> u64 {
    derive_seed(derive_seed(base, outer), inner)
}

/// Creates a PRNG for the `(outer, inner)` sub-stream of a base seed (see
/// [`derive_seed2`]).
pub fn seeded_substream(base: u64, outer: u64, inner: u64) -> Rng {
    seeded_rng(derive_seed2(base, outer, inner))
}

/// A tiny, fast deterministic generator (SplitMix64) for throwaway
/// per-work-item streams.
///
/// ChaCha12 ([`Rng`]) is the right choice for long-lived streams, but its
/// key setup costs more than an entire work item when a hot loop needs a
/// fresh stream per `(observation, particle)` pair and draws fewer than a
/// dozen values from it. SplitMix64 passes BigCrush, seeds in one
/// instruction, and every draw is a handful of arithmetic ops — and it is
/// just as deterministic and platform-independent, which is all the
/// reproducibility contract needs.
///
/// Not a drop-in `rand` generator on purpose: the three methods below are
/// the complete surface the workspace uses, and keeping it minimal avoids
/// accidental coupling to the `rand` shim's distribution code.
#[derive(Debug, Clone)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Creates the stream for `(base, outer, inner)` (same derivation as
    /// [`seeded_substream`]).
    pub fn substream(base: u64, outer: u64, inner: u64) -> Self {
        SmallRng {
            state: derive_seed2(base, outer, inner),
        }
    }

    /// Next raw 64-bit value (SplitMix64 step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    ///
    /// Uses the widening-multiply range reduction; the modulo bias is at
    /// most `n / 2⁶⁴`, far below anything a stochastic tree move could
    /// resolve.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `n` is zero.
    #[inline]
    pub fn gen_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Uniform draw from `[lo, hi)` (degenerate to `lo` when `hi <= lo`).
    #[inline]
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        // 53 uniform mantissa bits, the standard [0, 1) construction.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    #[test]
    fn same_seed_gives_same_stream() {
        let a: Vec<u64> = (0..16)
            .map({
                let mut rng = seeded_rng(42);
                move |_| rng.gen()
            })
            .collect();
        let b: Vec<u64> = (0..16)
            .map({
                let mut rng = seeded_rng(42);
                move |_| rng.gen()
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derived_seeds_differ_across_streams() {
        let s0 = derive_seed(99, 0);
        let s1 = derive_seed(99, 1);
        let s2 = derive_seed(99, 2);
        assert_ne!(s0, s1);
        assert_ne!(s1, s2);
        assert_ne!(s0, s2);
    }

    #[test]
    fn derived_seeds_are_deterministic() {
        assert_eq!(derive_seed(5, 7), derive_seed(5, 7));
    }

    #[test]
    fn stream_rng_is_reproducible() {
        let mut a = seeded_stream(3, 11);
        let mut b = seeded_stream(3, 11);
        assert_eq!(a.gen::<f64>(), b.gen::<f64>());
    }

    #[test]
    fn substreams_are_reproducible_and_distinct_in_both_labels() {
        let mut a = seeded_substream(9, 4, 7);
        let mut b = seeded_substream(9, 4, 7);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        let seeds = [
            derive_seed2(9, 4, 7),
            derive_seed2(9, 4, 8),
            derive_seed2(9, 5, 7),
            derive_seed2(10, 4, 7),
            // Swapping the labels must not collide either.
            derive_seed2(9, 7, 4),
        ];
        for i in 0..seeds.len() {
            for j in (i + 1)..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "seeds {i} and {j} collide");
            }
        }
    }

    #[test]
    fn small_rng_is_reproducible_and_in_range() {
        let mut a = SmallRng::substream(3, 1, 2);
        let mut b = SmallRng::substream(3, 1, 2);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut rng = SmallRng::substream(7, 0, 0);
        for _ in 0..1000 {
            let i = rng.gen_index(13);
            assert!(i < 13);
            let v = rng.gen_range_f64(2.0, 5.0);
            assert!((2.0..5.0).contains(&v), "{v} out of range");
        }
        // Degenerate float range collapses to the lower bound.
        assert_eq!(rng.gen_range_f64(4.0, 4.0), 4.0);
    }

    #[test]
    fn small_rng_streams_differ_across_items() {
        let a: Vec<u64> = {
            let mut r = SmallRng::substream(5, 10, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SmallRng::substream(5, 10, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }
}
