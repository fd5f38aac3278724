//! The workspace's one hasher for maps on a per-event or per-record path.
//!
//! std's `RandomState` is SipHash-1-3: sound against crafted keys, but one
//! SipRound per word and three more to finish — four rounds of a dozen-odd
//! operations for each `u64` packet id a collector looks up.
//! [`WordHasher`] folds each written word into its state with one
//! multiply and mixes the state with a SplitMix64 finalizer in `finish`,
//! so every bit of every word reaches the low bits a table indexes by.
//! [`WordState::default`] seeds it once per process from `RandomState`,
//! so the bucket a key read from a user's file lands in depends on a seed
//! the file cannot know; [`WordState::with_seed`] fixes the seed where
//! the table's layout must be the same in every process.

use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// A `HashMap` on [`WordState`] (build one with `default()`).
pub type HashMap<K, V> = std::collections::HashMap<K, V, WordState>;

/// A `HashSet` on [`WordState`] (build one with `default()`).
pub type HashSet<T> = std::collections::HashSet<T, WordState>;

/// The multiplier each word is folded with: odd, so the fold is a
/// bijection of the state.
const FOLD: u64 = 0x9E37_79B9_7F4A_7C15;

/// Builds [`WordHasher`]s from one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WordState {
    seed: u64,
}

impl WordState {
    /// A state whose hashes are the same in every process.
    #[must_use]
    pub const fn with_seed(seed: u64) -> Self {
        WordState { seed }
    }
}

impl Default for WordState {
    /// The process's seed, drawn from `RandomState` on first use.
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        WordState::with_seed(*SEED.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.seed)
    }
}

/// A multiply per word written, a SplitMix64 finalizer on `finish`.
#[derive(Clone, Copy, Debug)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(FOLD);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    const SEED: WordState = WordState::with_seed(0x5EED);

    /// The fullest of `1 << bits` buckets, indexed by the hash's low
    /// bits as a table indexes, over the mean fill.
    fn fullest_over_mean<K: Hash>(state: &impl BuildHasher, keys: &[K], bits: u32) -> f64 {
        let mut buckets = vec![0u32; 1 << bits];
        for key in keys {
            buckets[(state.hash_one(key) & ((1 << bits) - 1)) as usize] += 1;
        }
        let mean = keys.len() as f64 / buckets.len() as f64;
        f64::from(*buckets.iter().max().expect("buckets")) / mean
    }

    /// Packet ids as a run numbers them: a counter under the source.
    fn packet_ids() -> Vec<u64> {
        (0..64u64)
            .flat_map(|source| (0..1_000).map(move |counter| (source << 32) | counter))
            .collect()
    }

    /// Every node of a 64×64 mesh of trees, keyed as `Site` is (variant,
    /// tree, level, index), plus the endpoints.
    fn mot_sites() -> Vec<(u8, usize, u32, usize)> {
        let mut sites = Vec::new();
        for tree in 0..64 {
            for level in 0..6u32 {
                for index in 0..1usize << level {
                    sites.push((0, tree, level, index));
                    sites.push((1, tree, level, index));
                }
            }
            sites.push((2, tree, 0, 0));
            sites.push((3, tree, 0, 0));
        }
        sites
    }

    /// An Fx-style hasher: a multiply per word and nothing after, so the
    /// low bits of its hash never see a word's high bits.
    #[derive(Default)]
    struct Fx(u64);

    impl Hasher for Fx {
        fn write(&mut self, _: &[u8]) {
            unreachable!("the keys above write whole words")
        }

        fn write_u64(&mut self, n: u64) {
            self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(FOLD);
        }

        fn finish(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn packet_ids_and_sites_spread_over_the_low_bits() {
        // 64 000 ids in 8 192 buckets (mean 7.8), 8 192 sites in 1 024
        // (mean 8.1): no bucket may hold three times the mean.
        let ids = fullest_over_mean(&SEED, &packet_ids(), 13);
        assert!(ids < 3.0, "packet ids: fullest bucket {ids:.2} × the mean");
        let sites = fullest_over_mean(&SEED, &mot_sites(), 10);
        assert!(sites < 3.0, "sites: fullest bucket {sites:.2} × the mean");
        // The bound has teeth: 64 sources that share a counter share an
        // Fx bucket.
        let fx = std::hash::BuildHasherDefault::<Fx>::default();
        assert!(fullest_over_mean(&fx, &packet_ids(), 13) >= 3.0);
    }

    #[test]
    fn every_word_of_a_key_counts() {
        let hash = |a: u64, b: u64| SEED.hash_one((a, b));
        assert_ne!(hash(1, 2), hash(3, 2));
        assert_ne!(hash(1, 2), hash(1, 3));
        assert_ne!(SEED.hash_one("packet"), SEED.hash_one("pocket"));
    }

    #[test]
    fn one_seed_gives_one_hash_in_every_instance() {
        let key = (7u64, 3u8);
        assert_eq!(
            SEED.hash_one(key),
            WordState::with_seed(0x5EED).hash_one(key)
        );
        // Pinned, so that it holds from one process to the next too.
        assert_eq!(SEED.hash_one(key), 0x5FBA_857C_3B43_4DB4);
        assert_eq!(
            WordState::default().hash_one(key),
            WordState::default().hash_one(key)
        );
        assert_ne!(
            SEED.hash_one(key),
            WordState::with_seed(0x5EEE).hash_one(key)
        );
    }
}
