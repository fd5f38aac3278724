//! Seeded randomness for deterministic traffic generation.
//!
//! The paper injects packet headers with exponentially distributed
//! inter-arrival times (a Poisson process) and chooses destinations from
//! benchmark-specific distributions. [`SimRng`] is a self-contained
//! xoshiro256++ generator (no external crates — the build environment is
//! offline) and offers exactly the sampling primitives the traffic layer
//! needs, so that the distribution logic is tested once, here.

use crate::time::Duration;

/// SplitMix64 finalizer: cheap, full-avalanche mixing.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic pseudo-random source for one simulation run.
///
/// Internally this is xoshiro256++ seeded through a SplitMix64 expansion,
/// the combination recommended by the generator's authors. Two `SimRng`s
/// constructed from the same seed produce identical streams, which is what
/// makes whole-network runs replayable.
///
/// # Examples
///
/// ```
/// use asynoc_kernel::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.index(100), b.index(100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        // Expand the 64-bit seed into 256 bits of state with SplitMix64,
        // the standard seeding procedure for the xoshiro family.
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state }
    }

    /// Advances the xoshiro256++ state and returns the next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Samples a uniform `f64` in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Derives an independent child generator, e.g. one per traffic source.
    ///
    /// The child stream is decorrelated from the parent by mixing `salt`
    /// into a freshly drawn seed, so per-source streams do not alias even
    /// when sources are created in a loop.
    #[must_use]
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let base = self.next_u64();
        let mut z = base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::seed_from(z)
    }

    /// Samples a uniform index in `0..bound`.
    ///
    /// Uses Lemire's multiply-shift method with rejection, so the result is
    /// exactly uniform for every bound.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[must_use]
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "cannot sample an index from an empty range");
        let bound = bound as u64;
        // Lemire: accept the widened product unless its low half falls in
        // the biased zone (smaller than 2^64 mod bound).
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
                low = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Samples a uniform value in `low..=high`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    #[must_use]
    pub fn range_inclusive(&mut self, low: usize, high: usize) -> usize {
        assert!(low <= high, "inverted range {low}..={high}");
        if low == 0 && high == usize::MAX {
            return self.next_u64() as usize;
        }
        low + self.index(high - low + 1)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[must_use]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.next_f64() < p
    }

    /// Samples an exponentially distributed delay with the given mean.
    ///
    /// This is the inter-arrival distribution of a Poisson injection process;
    /// the result is rounded to the nearest picosecond and clamped to at
    /// least 1 ps so successive injections always advance time.
    #[must_use]
    pub fn exponential(&mut self, mean: Duration) -> Duration {
        if mean.is_zero() {
            return Duration::from_ps(1);
        }
        // Inverse-CDF sampling; 1 - u avoids ln(0).
        let u = self.next_f64();
        let sample = -(1.0 - u).ln() * mean.as_ps() as f64;
        Duration::from_ps((sample.round() as u64).max(1))
    }

    /// Samples `count` distinct indices from `0..bound`, in ascending order.
    ///
    /// Used for multicast destination sets ("random subsets of
    /// destinations"). Sampling is by partial Fisher–Yates over a scratch
    /// vector, so it is exact (no rejection loop) and O(`bound`).
    ///
    /// # Panics
    ///
    /// Panics if `count > bound`.
    #[must_use]
    pub fn distinct_indices(&mut self, count: usize, bound: usize) -> Vec<usize> {
        let mut pool = Vec::new();
        self.distinct_indices_into(count, bound, &mut pool);
        pool
    }

    /// Allocation-free variant of [`distinct_indices`](Self::distinct_indices):
    /// fills `pool` with the chosen indices (ascending), reusing its
    /// storage. Draws the exact same random sequence as
    /// `distinct_indices`, so seeded callers can switch between the two
    /// without changing results.
    ///
    /// # Panics
    ///
    /// Panics if `count > bound`.
    pub fn distinct_indices_into(&mut self, count: usize, bound: usize, pool: &mut Vec<usize>) {
        assert!(
            count <= bound,
            "cannot draw {count} distinct indices from 0..{bound}"
        );
        pool.clear();
        pool.extend(0..bound);
        for i in 0..count {
            let j = self.range_inclusive(i, bound - 1);
            pool.swap(i, j);
        }
        pool.truncate(count);
        pool.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_xoshiro256pp() {
        // First outputs of xoshiro256++ with SplitMix64-expanded seed 0,
        // checked against the reference C implementation. Pins the stream
        // so a future refactor cannot silently change every experiment.
        let mut rng = SimRng::seed_from(0);
        assert_eq!(rng.next_u64(), 0x53175d61490b23df);
        assert_eq!(rng.next_u64(), 0x61da6f3dc380d507);
        assert_eq!(rng.next_u64(), 0x5c0fdf91ec9a7bfc);
    }

    #[test]
    fn fork_decorrelates_children() {
        let mut parent = SimRng::seed_from(7);
        let mut c0 = parent.fork(0);
        let mut c1 = parent.fork(1);
        let s0: Vec<usize> = (0..100).map(|_| c0.index(1_000_000)).collect();
        let s1: Vec<usize> = (0..100).map(|_| c1.index(1_000_000)).collect();
        assert_ne!(s0, s1);
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut rng = SimRng::seed_from(23);
        let mut buckets = [0usize; 8];
        for _ in 0..80_000 {
            buckets[rng.index(8)] += 1;
        }
        for (i, &hits) in buckets.iter().enumerate() {
            assert!(
                (9_000..=11_000).contains(&hits),
                "bucket {i} got {hits} of 80000"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_rejects_zero_bound() {
        let _ = SimRng::seed_from(0).index(0);
    }

    #[test]
    fn chance_frequency_tracks_probability() {
        let mut rng = SimRng::seed_from(5);
        let hits = (0..100_000).filter(|_| rng.chance(0.05)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.05).abs() < 0.005, "observed rate {rate}");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed_from(11);
        let mean = Duration::from_ps(4_000);
        let total: u64 = (0..100_000).map(|_| rng.exponential(mean).as_ps()).sum();
        let observed = total as f64 / 100_000.0;
        assert!(
            (observed - 4_000.0).abs() < 100.0,
            "observed mean {observed} ps"
        );
    }

    #[test]
    fn exponential_never_returns_zero() {
        let mut rng = SimRng::seed_from(13);
        for _ in 0..10_000 {
            assert!(!rng.exponential(Duration::from_ps(2)).is_zero());
        }
        assert_eq!(rng.exponential(Duration::ZERO), Duration::from_ps(1));
    }

    #[test]
    fn distinct_indices_are_distinct_sorted_and_in_bounds() {
        let mut rng = SimRng::seed_from(17);
        for _ in 0..1_000 {
            let picked = rng.distinct_indices(5, 8);
            assert_eq!(picked.len(), 5);
            assert!(picked.windows(2).all(|w| w[0] < w[1]));
            assert!(picked.iter().all(|&d| d < 8));
        }
    }

    #[test]
    #[should_panic(expected = "distinct indices")]
    fn distinct_indices_rejects_overdraw() {
        let _ = SimRng::seed_from(0).distinct_indices(9, 8);
    }

    #[test]
    fn distinct_indices_into_matches_allocating_variant() {
        let mut a = SimRng::seed_from(29);
        let mut b = SimRng::seed_from(29);
        let mut pool = Vec::new();
        for _ in 0..1_000 {
            let count = a.range_inclusive(1, 8);
            let _ = b.range_inclusive(1, 8);
            let owned = a.distinct_indices(count, 8);
            b.distinct_indices_into(count, 8, &mut pool);
            assert_eq!(owned, pool);
        }
        // The streams stayed in lockstep afterwards too.
        assert_eq!(a.index(1 << 20), b.index(1 << 20));
    }
}
