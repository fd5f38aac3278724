//! The six synthetic benchmarks of §5.1 and their destination distributions.

use std::fmt;

use asynoc_kernel::SimRng;
use asynoc_packet::DestSet;

/// Probability that a Multicast5 packet is multicast.
pub const MULTICAST5_FRACTION: f64 = 0.05;
/// Probability that a Multicast10 packet is multicast.
pub const MULTICAST10_FRACTION: f64 = 0.10;
/// Number of multicast-only sources in Multicast_static.
pub const STATIC_MULTICAST_SOURCES: usize = 3;
/// The hotspot destination used by the Hotspot benchmark.
pub const HOTSPOT_DEST: usize = 0;

/// A synthetic benchmark: the paper's six (§5.1), plus the other standard
/// Dally & Towles patterns as extensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Every packet goes to a uniformly random destination.
    UniformRandom,
    /// Bit permutation: destination = source bits rotated left by one.
    Shuffle,
    /// Every packet goes to the single hotspot destination.
    Hotspot,
    /// 5 % multicast to random destination subsets, otherwise uniform
    /// random unicast.
    Multicast5,
    /// 10 % multicast to random destination subsets, otherwise uniform
    /// random unicast.
    Multicast10,
    /// Three fixed sources inject only random multicast; all other sources
    /// inject only uniform-random unicast.
    MulticastStatic,
    /// Extension — bit permutation: destination = bitwise complement of the
    /// source.
    BitComplement,
    /// Extension — bit permutation: destination = source bits reversed.
    BitReverse,
    /// Extension — bit permutation: destination = source bits rotated by
    /// half the address width (the matrix-transpose pattern).
    Transpose,
    /// Extension — destination = source + n/2 (mod n): the tornado pattern,
    /// adversarial on rings, well-balanced on an MoT.
    Tornado,
    /// Extension — destination = source + 1 (mod n): nearest-neighbor
    /// traffic.
    NearestNeighbor,
}

impl Benchmark {
    /// All six benchmarks in the paper's order.
    pub const ALL: [Benchmark; 6] = [
        Benchmark::UniformRandom,
        Benchmark::Shuffle,
        Benchmark::Hotspot,
        Benchmark::Multicast5,
        Benchmark::Multicast10,
        Benchmark::MulticastStatic,
    ];

    /// The three unicast benchmarks.
    pub const UNICAST: [Benchmark; 3] = [
        Benchmark::UniformRandom,
        Benchmark::Shuffle,
        Benchmark::Hotspot,
    ];

    /// The three multicast benchmarks.
    pub const MULTICAST: [Benchmark; 3] = [
        Benchmark::Multicast5,
        Benchmark::Multicast10,
        Benchmark::MulticastStatic,
    ];

    /// The four benchmarks whose power the paper reports in Table 1.
    pub const POWER_SET: [Benchmark; 4] = [
        Benchmark::UniformRandom,
        Benchmark::Hotspot,
        Benchmark::Multicast5,
        Benchmark::Multicast10,
    ];

    /// The extension patterns (not evaluated in the paper): the remaining
    /// standard Dally & Towles permutations plus nearest-neighbor.
    pub const EXTENDED: [Benchmark; 5] = [
        Benchmark::BitComplement,
        Benchmark::BitReverse,
        Benchmark::Transpose,
        Benchmark::Tornado,
        Benchmark::NearestNeighbor,
    ];

    /// Returns `true` if the benchmark can generate multicast packets.
    #[must_use]
    pub const fn has_multicast(self) -> bool {
        matches!(
            self,
            Benchmark::Multicast5 | Benchmark::Multicast10 | Benchmark::MulticastStatic
        )
    }

    /// Returns `true` if `source` injects only multicast under this
    /// benchmark (`Multicast_static`'s three fixed sources).
    ///
    /// The fixed sources are spread evenly across the network
    /// (`0, n/3, 2n/3` rounded down) so their fanout trees do not overlap
    /// at the fanin side more than random placement would.
    #[must_use]
    pub fn is_static_multicast_source(self, n: usize, source: usize) -> bool {
        self == Benchmark::MulticastStatic
            && (0..STATIC_MULTICAST_SOURCES).any(|k| source == k * n / STATIC_MULTICAST_SOURCES)
    }

    /// The shuffle permutation: rotate the `log2(n)` source bits left by
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `source >= n`.
    #[must_use]
    pub fn shuffle_destination(n: usize, source: usize) -> usize {
        assert!(n.is_power_of_two() && n >= 2, "bad network size {n}");
        assert!(source < n, "source {source} out of range");
        let bits = n.trailing_zeros();
        ((source << 1) | (source >> (bits - 1))) & (n - 1)
    }

    /// The bit-reverse permutation over `log2(n)` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `source >= n`.
    #[must_use]
    pub fn bit_reverse_destination(n: usize, source: usize) -> usize {
        assert!(n.is_power_of_two() && n >= 2, "bad network size {n}");
        assert!(source < n, "source {source} out of range");
        let bits = n.trailing_zeros();
        (source.reverse_bits() >> (usize::BITS - bits)) & (n - 1)
    }

    /// The transpose permutation: rotate the `log2(n)` bits by half the
    /// width (rounded down).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `source >= n`.
    #[must_use]
    pub fn transpose_destination(n: usize, source: usize) -> usize {
        assert!(n.is_power_of_two() && n >= 2, "bad network size {n}");
        assert!(source < n, "source {source} out of range");
        let bits = n.trailing_zeros();
        let half = bits / 2;
        if half == 0 {
            return source;
        }
        ((source << half) | (source >> (bits - half))) & (n - 1)
    }

    /// Samples the destination set for the next packet from `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source >= n` or `n < 2`.
    #[must_use]
    pub fn sample_dests(self, rng: &mut SimRng, n: usize, source: usize) -> DestSet {
        let mut scratch = Vec::new();
        self.sample_dests_into(rng, n, source, &mut scratch)
    }

    /// Allocation-free variant of [`sample_dests`](Self::sample_dests):
    /// `scratch` is a caller-owned buffer reused across calls (only the
    /// multicast subsets touch it). Draws the exact same random sequence
    /// as `sample_dests`, so seeded runs are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `source >= n` or `n < 2`.
    #[must_use]
    pub fn sample_dests_into(
        self,
        rng: &mut SimRng,
        n: usize,
        source: usize,
        scratch: &mut Vec<usize>,
    ) -> DestSet {
        assert!(n >= 2, "network must have at least two destinations");
        assert!(source < n, "source {source} out of range");
        match self {
            Benchmark::UniformRandom => DestSet::unicast(rng.index(n)),
            Benchmark::Shuffle => DestSet::unicast(Self::shuffle_destination(n, source)),
            Benchmark::Hotspot => DestSet::unicast(HOTSPOT_DEST),
            Benchmark::Multicast5 => sample_mixed(rng, n, MULTICAST5_FRACTION, scratch),
            Benchmark::Multicast10 => sample_mixed(rng, n, MULTICAST10_FRACTION, scratch),
            Benchmark::MulticastStatic => {
                if self.is_static_multicast_source(n, source) {
                    sample_multicast_subset(rng, n, scratch)
                } else {
                    DestSet::unicast(rng.index(n))
                }
            }
            Benchmark::BitComplement => DestSet::unicast(!source & (n - 1)),
            Benchmark::BitReverse => DestSet::unicast(Self::bit_reverse_destination(n, source)),
            Benchmark::Transpose => DestSet::unicast(Self::transpose_destination(n, source)),
            Benchmark::Tornado => DestSet::unicast((source + n / 2) % n),
            Benchmark::NearestNeighbor => DestSet::unicast((source + 1) % n),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Benchmark::UniformRandom => "Uniform-random",
            Benchmark::Shuffle => "Shuffle",
            Benchmark::Hotspot => "Hotspot",
            Benchmark::Multicast5 => "Multicast5",
            Benchmark::Multicast10 => "Multicast10",
            Benchmark::MulticastStatic => "Multicast-static",
            Benchmark::BitComplement => "Bit-complement",
            Benchmark::BitReverse => "Bit-reverse",
            Benchmark::Transpose => "Transpose",
            Benchmark::Tornado => "Tornado",
            Benchmark::NearestNeighbor => "Nearest-neighbor",
        })
    }
}

/// Error parsing a [`Benchmark`] name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBenchmarkError {
    /// The rejected input.
    pub input: String,
}

impl fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown benchmark {:?}", self.input)
    }
}

impl std::error::Error for ParseBenchmarkError {}

impl std::str::FromStr for Benchmark {
    type Err = ParseBenchmarkError;

    /// Parses benchmark names case-insensitively, accepting both the
    /// paper's spellings (`Multicast_static`) and this crate's display
    /// names (`Multicast-static`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let key: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        Benchmark::ALL
            .into_iter()
            .chain(Benchmark::EXTENDED)
            .find(|b| {
                b.to_string()
                    .chars()
                    .filter(|c| c.is_ascii_alphanumeric())
                    .collect::<String>()
                    .to_ascii_lowercase()
                    == key
            })
            .ok_or_else(|| ParseBenchmarkError {
                input: s.to_string(),
            })
    }
}

/// Multicast with probability `fraction`, uniform-random unicast otherwise.
fn sample_mixed(rng: &mut SimRng, n: usize, fraction: f64, scratch: &mut Vec<usize>) -> DestSet {
    if rng.chance(fraction) {
        sample_multicast_subset(rng, n, scratch)
    } else {
        DestSet::unicast(rng.index(n))
    }
}

/// A "random subset of destinations": the subset size is uniform in
/// `2..=n`, then that many distinct destinations are drawn. `scratch` is
/// reused across calls so steady-state sampling never allocates.
fn sample_multicast_subset(rng: &mut SimRng, n: usize, scratch: &mut Vec<usize>) -> DestSet {
    let count = rng.range_inclusive(2, n);
    rng.distinct_indices_into(count, n, scratch);
    scratch.iter().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(1234)
    }

    #[test]
    fn uniform_random_hits_every_destination() {
        let mut rng = rng();
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let dests = Benchmark::UniformRandom.sample_dests(&mut rng, 8, 3);
            assert!(dests.is_unicast());
            seen[dests.first().unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_fixed_permutation() {
        // n = 8: rotate-left-by-1 of 3 bits.
        let expect: [usize; 8] = [0, 2, 4, 6, 1, 3, 5, 7];
        for (s, &d) in expect.iter().enumerate() {
            assert_eq!(Benchmark::shuffle_destination(8, s), d);
            let mut r = rng();
            assert_eq!(
                Benchmark::Shuffle.sample_dests(&mut r, 8, s),
                DestSet::unicast(d)
            );
        }
    }

    #[test]
    fn hotspot_targets_destination_zero() {
        let mut r = rng();
        for source in 0..8 {
            assert_eq!(
                Benchmark::Hotspot.sample_dests(&mut r, 8, source),
                DestSet::unicast(HOTSPOT_DEST)
            );
        }
    }

    #[test]
    fn multicast_fractions_are_the_papers() {
        for (benchmark, fraction) in [
            (Benchmark::Multicast5, 0.05),
            (Benchmark::Multicast10, 0.10),
        ] {
            let mut r = rng();
            let trials = 50_000;
            let multicasts = (0..trials)
                .filter(|_| benchmark.sample_dests(&mut r, 8, 0).len() > 1)
                .count();
            let observed = multicasts as f64 / trials as f64;
            assert!(
                (observed - fraction).abs() < 0.01,
                "{benchmark}: {observed}"
            );
        }
    }

    #[test]
    fn multicast_subsets_have_at_least_two_destinations() {
        let mut r = rng();
        for _ in 0..5_000 {
            let dests = Benchmark::MulticastStatic.sample_dests(&mut r, 8, 0);
            assert!(dests.len() >= 2);
            assert!(dests.len() <= 8);
        }
    }

    #[test]
    fn static_sources_are_three_and_spread() {
        let b = Benchmark::MulticastStatic;
        let static_sources: Vec<usize> = (0..8)
            .filter(|&s| b.is_static_multicast_source(8, s))
            .collect();
        assert_eq!(static_sources, vec![0, 2, 5]);
        // Non-static sources inject only unicast.
        let mut r = rng();
        for _ in 0..2_000 {
            assert!(b.sample_dests(&mut r, 8, 1).is_unicast());
            assert!(b.sample_dests(&mut r, 8, 7).is_unicast());
        }
    }

    #[test]
    fn benchmark_groups() {
        assert_eq!(Benchmark::ALL.len(), 6);
        assert!(Benchmark::UNICAST.iter().all(|b| !b.has_multicast()));
        assert!(Benchmark::MULTICAST.iter().all(|b| b.has_multicast()));
        assert_eq!(Benchmark::POWER_SET.len(), 4);
        assert_eq!(Benchmark::EXTENDED.len(), 5);
        assert!(Benchmark::EXTENDED.iter().all(|b| !b.has_multicast()));
        let static_sources = |b: Benchmark| {
            (0..8)
                .filter(|&s| b.is_static_multicast_source(8, s))
                .count()
        };
        assert!(Benchmark::UNICAST.iter().all(|&b| static_sources(b) == 0));
    }

    #[test]
    fn permutations_are_bijections() {
        for benchmark in [
            Benchmark::Shuffle,
            Benchmark::BitComplement,
            Benchmark::BitReverse,
            Benchmark::Transpose,
            Benchmark::Tornado,
            Benchmark::NearestNeighbor,
        ] {
            for n in [2usize, 4, 8, 16, 32] {
                let mut seen = vec![false; n];
                let mut r = rng();
                for source in 0..n {
                    let dests = benchmark.sample_dests(&mut r, n, source);
                    assert!(dests.is_unicast(), "{benchmark}: not unicast");
                    let dest = dests.first().expect("unicast");
                    assert!(!seen[dest], "{benchmark} n={n}: dest {dest} repeated");
                    seen[dest] = true;
                }
            }
        }
    }

    #[test]
    fn extended_pattern_known_values() {
        // n = 8 (3 bits).
        assert_eq!(Benchmark::bit_reverse_destination(8, 0b001), 0b100);
        assert_eq!(Benchmark::bit_reverse_destination(8, 0b110), 0b011);
        assert_eq!(Benchmark::transpose_destination(8, 0b011), 0b110); // rotate by 1
        let mut r = rng();
        assert_eq!(
            Benchmark::BitComplement.sample_dests(&mut r, 8, 0b101),
            DestSet::unicast(0b010)
        );
        assert_eq!(
            Benchmark::Tornado.sample_dests(&mut r, 8, 6),
            DestSet::unicast(2)
        );
        assert_eq!(
            Benchmark::NearestNeighbor.sample_dests(&mut r, 8, 7),
            DestSet::unicast(0)
        );
        // n = 2: transpose degenerates to identity.
        assert_eq!(Benchmark::transpose_destination(2, 1), 1);
    }

    #[test]
    fn benchmark_from_str_round_trips() {
        for benchmark in Benchmark::ALL.into_iter().chain(Benchmark::EXTENDED) {
            assert_eq!(benchmark.to_string().parse::<Benchmark>(), Ok(benchmark));
        }
        assert_eq!(Benchmark::UniformRandom.to_string(), "Uniform-random");
        assert_eq!(Benchmark::MulticastStatic.to_string(), "Multicast-static");
        // The paper's underscore spelling also parses.
        assert_eq!(
            "Multicast_static".parse::<Benchmark>(),
            Ok(Benchmark::MulticastStatic)
        );
        assert_eq!(
            "uniformrandom".parse::<Benchmark>(),
            Ok(Benchmark::UniformRandom)
        );
        assert!("warp9".parse::<Benchmark>().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sample_rejects_bad_source() {
        let _ = Benchmark::UniformRandom.sample_dests(&mut rng(), 8, 8);
    }
}
