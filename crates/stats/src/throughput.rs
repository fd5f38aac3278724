//! Delivered-throughput accounting.
//!
//! Table 1 reports saturation throughput in GF/s (gigaflits per second) per
//! source, counting flits **delivered at destinations**. For unicast traffic
//! this equals accepted injection; for multicast, each replica delivered at
//! a distinct destination counts — which is why the multicast benchmarks'
//! saturation throughput in the paper exceeds the unicast ones on the same
//! network (the fabric genuinely moves more flit-deliveries per second when
//! replication happens inside the network).

use std::fmt;

use asynoc_kernel::Duration;

/// Counts injected and delivered flits over a measurement window.
///
/// # Examples
///
/// ```
/// use asynoc_kernel::Duration;
/// use asynoc_stats::ThroughputCounter;
///
/// let mut counter = ThroughputCounter::new(8);
/// counter.record_injected(40);
/// counter.record_delivered(40);
/// // 40 flits over 10 ns across 8 sources = 0.5 GF/s per source.
/// let report = counter.per_source_gfs(Duration::from_ns(10));
/// assert!((report.delivered - 0.5).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThroughputCounter {
    sources: usize,
    injected_flits: u64,
    delivered_flits: u64,
    offered_flits: u64,
}

/// Per-source throughput in GF/s (flits per nanosecond).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThroughputReport {
    /// Flits the sources *wanted* to inject (the offered load).
    pub offered: f64,
    /// Flits actually accepted into the network.
    pub injected: f64,
    /// Flits delivered at destinations (the Table 1 quantity).
    pub delivered: f64,
}

impl ThroughputCounter {
    /// Creates a counter for a network with `sources` traffic sources.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is zero.
    #[must_use]
    pub fn new(sources: usize) -> Self {
        assert!(sources > 0, "need at least one source");
        ThroughputCounter {
            sources,
            injected_flits: 0,
            delivered_flits: 0,
            offered_flits: 0,
        }
    }

    /// Records flits generated by sources (whether or not accepted yet).
    pub fn record_offered(&mut self, flits: u64) {
        self.offered_flits += flits;
    }

    /// Records flits accepted into the network (left the source queue).
    pub fn record_injected(&mut self, flits: u64) {
        self.injected_flits += flits;
    }

    /// Records flits arriving at destination sinks.
    pub fn record_delivered(&mut self, flits: u64) {
        self.delivered_flits += flits;
    }

    /// Total delivered flits so far.
    #[must_use]
    pub fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    /// Total injected flits so far.
    #[must_use]
    pub fn injected_flits(&self) -> u64 {
        self.injected_flits
    }

    /// Total offered flits so far.
    #[must_use]
    pub fn offered_flits(&self) -> u64 {
        self.offered_flits
    }

    /// Per-source rates over `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn per_source_gfs(&self, window: Duration) -> ThroughputReport {
        assert!(!window.is_zero(), "measurement window must be non-zero");
        let ns = window.as_ns_f64() * self.sources as f64;
        ThroughputReport {
            offered: self.offered_flits as f64 / ns,
            injected: self.injected_flits as f64 / ns,
            delivered: self.delivered_flits as f64 / ns,
        }
    }

    /// Resets all counters (end of warmup).
    pub fn reset(&mut self) {
        self.injected_flits = 0;
        self.delivered_flits = 0;
        self.offered_flits = 0;
    }
}

impl ThroughputReport {
    /// Fraction of offered load that was accepted; 1.0 when nothing was
    /// offered.
    #[must_use]
    pub fn acceptance(&self) -> f64 {
        if self.offered <= 0.0 {
            1.0
        } else {
            self.injected / self.offered
        }
    }
}

impl fmt::Display for ThroughputReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "offered {:.3} / injected {:.3} / delivered {:.3} GF/s per source",
            self.offered, self.injected, self.delivered
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_divide_by_sources_and_window_and_acceptance_is_their_ratio() {
        let mut c = ThroughputCounter::new(4);
        assert_eq!(c.per_source_gfs(Duration::from_ns(1)).acceptance(), 1.0);
        c.record_offered(100);
        c.record_injected(80);
        c.record_delivered(60);
        let r = c.per_source_gfs(Duration::from_ns(5));
        assert!((r.offered - 5.0).abs() < 1e-9);
        assert!((r.injected - 4.0).abs() < 1e-9);
        assert!((r.delivered - 3.0).abs() < 1e-9);
        assert!((r.acceptance() - 0.8).abs() < 1e-9);
        assert!(r
            .to_string()
            .starts_with("offered 5.000 / injected 4.000 / delivered 3.000"));
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let mut c = ThroughputCounter::new(2);
        c.record_delivered(5);
        c.record_delivered(7);
        assert_eq!(c.delivered_flits(), 12);
        c.record_injected(3);
        c.record_offered(4);
        c.reset();
        assert_eq!(c.delivered_flits(), 0);
        assert_eq!(c.injected_flits(), 0);
        assert_eq!(c.offered_flits(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn zero_sources_rejected() {
        let _ = ThroughputCounter::new(0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        let _ = ThroughputCounter::new(1).per_source_gfs(Duration::ZERO);
    }
}
