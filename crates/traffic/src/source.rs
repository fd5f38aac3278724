//! Per-source injection processes.

use std::error::Error;
use std::fmt;

use asynoc_kernel::{Duration, SimRng};
use asynoc_packet::DestSet;

use crate::benchmark::Benchmark;

/// Errors constructing a traffic source.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficError {
    /// The injection rate is not a positive, finite number.
    InvalidRate {
        /// The rejected rate in flits/ns.
        rate: f64,
    },
    /// The source index is outside the network.
    SourceOutOfRange {
        /// The rejected source index.
        source: usize,
        /// The network size.
        size: usize,
    },
    /// Packets must have at least one flit.
    ZeroLengthPacket,
    /// The network size is not supported.
    InvalidSize {
        /// The rejected size.
        size: usize,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::InvalidRate { rate } => {
                write!(
                    f,
                    "injection rate {rate} flits/ns is not positive and finite"
                )
            }
            TrafficError::SourceOutOfRange { source, size } => {
                write!(f, "source {source} out of range for {size}x{size} network")
            }
            TrafficError::ZeroLengthPacket => write!(f, "packets must have at least one flit"),
            TrafficError::InvalidSize { size } => {
                write!(f, "network size {size} is not a power of two in 2..=64")
            }
        }
    }
}

impl Error for TrafficError {}

/// The Poisson injection process of one source under one benchmark.
///
/// Gaps between *packet* injections are exponential with mean
/// `flits_per_packet / rate`, so the long-run injected flit rate equals the
/// requested rate. Destination sets follow the benchmark's distribution.
///
/// # Examples
///
/// ```
/// use asynoc_traffic::{Benchmark, SourceTraffic};
///
/// let mut src = SourceTraffic::new(Benchmark::Shuffle, 8, 3, 1.0, 5, 7)?;
/// // Shuffle from source 3 (0b011) always goes to 6 (0b110).
/// assert_eq!(src.next_dests().first(), Some(6));
/// # Ok::<(), asynoc_traffic::TrafficError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SourceTraffic {
    benchmark: Benchmark,
    n: usize,
    source: usize,
    mean_gap: Duration,
    flits_per_packet: u8,
    rng: SimRng,
    /// Reused by multicast subset sampling so steady-state injection does
    /// not allocate (it grows to `n` on first multicast and stays).
    scratch: Vec<usize>,
}

impl SourceTraffic {
    /// Creates the injection process for `source` in an `n`-endpoint
    /// network, injecting `rate` flits/ns (= GF/s) of `benchmark` traffic in
    /// packets of `flits_per_packet` flits, seeded deterministically from
    /// `seed` and the source index.
    ///
    /// # Errors
    ///
    /// Returns a [`TrafficError`] if `rate` is not positive and finite,
    /// `source >= n`, `flits_per_packet == 0`, or `n` is unsupported.
    pub fn new(
        benchmark: Benchmark,
        n: usize,
        source: usize,
        rate: f64,
        flits_per_packet: u8,
        seed: u64,
    ) -> Result<Self, TrafficError> {
        if !((2..=64).contains(&n) && n.is_power_of_two()) {
            return Err(TrafficError::InvalidSize { size: n });
        }
        if source >= n {
            return Err(TrafficError::SourceOutOfRange { source, size: n });
        }
        if !(rate.is_finite() && rate > 0.0) {
            return Err(TrafficError::InvalidRate { rate });
        }
        if flits_per_packet == 0 {
            return Err(TrafficError::ZeroLengthPacket);
        }
        let mean_gap_ps = flits_per_packet as f64 / rate * 1_000.0;
        let mut master = SimRng::seed_from(seed);
        let rng = master.fork(source as u64);
        Ok(SourceTraffic {
            benchmark,
            n,
            source,
            mean_gap: Duration::from_ps(mean_gap_ps.round() as u64),
            flits_per_packet,
            rng,
            scratch: Vec::with_capacity(n),
        })
    }

    /// The benchmark this source follows.
    #[must_use]
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The source index.
    #[must_use]
    pub fn source(&self) -> usize {
        self.source
    }

    /// Flits per injected packet.
    #[must_use]
    pub fn flits_per_packet(&self) -> u8 {
        self.flits_per_packet
    }

    /// Mean gap between packet injections.
    #[must_use]
    pub fn mean_gap(&self) -> Duration {
        self.mean_gap
    }

    /// Samples the exponential gap to the next packet injection.
    pub fn next_gap(&mut self) -> Duration {
        self.rng.exponential(self.mean_gap)
    }

    /// Samples the destination set of the next packet.
    pub fn next_dests(&mut self) -> DestSet {
        self.benchmark
            .sample_dests_into(&mut self.rng, self.n, self.source, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_arguments() {
        assert!(matches!(
            SourceTraffic::new(Benchmark::UniformRandom, 8, 8, 1.0, 5, 0),
            Err(TrafficError::SourceOutOfRange { .. })
        ));
        assert!(matches!(
            SourceTraffic::new(Benchmark::UniformRandom, 8, 0, 0.0, 5, 0),
            Err(TrafficError::InvalidRate { .. })
        ));
        assert!(matches!(
            SourceTraffic::new(Benchmark::UniformRandom, 8, 0, f64::NAN, 5, 0),
            Err(TrafficError::InvalidRate { .. })
        ));
        assert!(matches!(
            SourceTraffic::new(Benchmark::UniformRandom, 8, 0, 1.0, 0, 0),
            Err(TrafficError::ZeroLengthPacket)
        ));
        assert!(matches!(
            SourceTraffic::new(Benchmark::UniformRandom, 12, 0, 1.0, 5, 0),
            Err(TrafficError::InvalidSize { .. })
        ));
        assert!(TrafficError::InvalidRate { rate: -1.0 }
            .to_string()
            .contains("-1"));
    }

    #[test]
    fn mean_gap_realizes_rate() {
        // 1.25 flits/ns with 5-flit packets ⇒ one packet every 4 ns.
        let src = SourceTraffic::new(Benchmark::UniformRandom, 8, 0, 1.25, 5, 0).unwrap();
        assert_eq!(src.mean_gap(), Duration::from_ps(4_000));
        assert_eq!((src.source(), src.flits_per_packet()), (0, 5));
    }

    #[test]
    fn observed_rate_matches_request() {
        let mut src = SourceTraffic::new(Benchmark::UniformRandom, 8, 0, 0.5, 5, 11).unwrap();
        let packets = 20_000u64;
        let total_ps: u64 = (0..packets).map(|_| src.next_gap().as_ps()).sum();
        let flits = packets * 5;
        let rate = flits as f64 / (total_ps as f64 / 1_000.0); // flits per ns
        assert!((rate - 0.5).abs() < 0.01, "observed {rate} flits/ns");
    }

    #[test]
    fn different_sources_get_different_streams() {
        let mut a = SourceTraffic::new(Benchmark::UniformRandom, 8, 0, 1.0, 5, 5).unwrap();
        let mut b = SourceTraffic::new(Benchmark::UniformRandom, 8, 1, 1.0, 5, 5).unwrap();
        let seq_a: Vec<u64> = (0..50).map(|_| a.next_gap().as_ps()).collect();
        let seq_b: Vec<u64> = (0..50).map(|_| b.next_gap().as_ps()).collect();
        assert_ne!(seq_a, seq_b);
    }
}
