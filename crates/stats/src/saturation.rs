//! Saturation-throughput search.
//!
//! Saturation is the highest offered load a network still *accepts*: past
//! it, source queues grow without bound and accepted throughput plateaus.
//! [`find_saturation_multi`] searches on a caller-supplied stability probe
//! — the simulator runs a full benchmark at each probed rate — and returns
//! the highest stable rate found, following the standard methodology of
//! Dally & Towles that the paper cites for its measurement procedure. It is
//! a k-section that evaluates several probe rates per round on worker
//! threads (one rate per round is plain bisection); its probe *schedule*
//! depends only on the fan-out, never on the worker count, so results are
//! bit-identical at any `--jobs` setting.

use std::fmt;

use asynoc_kernel::parallel_map;

/// Outcome of probing one injection rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StabilityVerdict {
    /// The network accepted (almost all of) the offered load.
    Stable,
    /// Source queues grew / acceptance collapsed: past saturation.
    Saturated,
}

impl fmt::Display for StabilityVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StabilityVerdict::Stable => "stable",
            StabilityVerdict::Saturated => "saturated",
        })
    }
}

/// Decides stability from offered vs. accepted per-source rates.
///
/// A run is stable when acceptance stays above `acceptance_floor`
/// (default 0.95 — mild transient queueing is fine, systematic refusal is
/// saturation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StabilityProbe {
    /// Minimum accepted/offered ratio considered stable.
    pub acceptance_floor: f64,
}

impl StabilityProbe {
    /// Creates a probe with the default 0.95 acceptance floor.
    #[must_use]
    pub fn new() -> Self {
        StabilityProbe {
            acceptance_floor: 0.95,
        }
    }

    /// Judges one run.
    ///
    /// # Panics
    ///
    /// Panics if either rate is negative or not finite.
    #[must_use]
    pub fn judge(&self, offered: f64, accepted: f64) -> StabilityVerdict {
        assert!(
            offered.is_finite() && offered >= 0.0 && accepted.is_finite() && accepted >= 0.0,
            "rates must be finite and non-negative (offered {offered}, accepted {accepted})"
        );
        if offered <= 0.0 || accepted / offered >= self.acceptance_floor {
            StabilityVerdict::Stable
        } else {
            StabilityVerdict::Saturated
        }
    }
}

impl Default for StabilityProbe {
    fn default() -> Self {
        StabilityProbe::new()
    }
}

/// K-section search for the saturation rate in `lo..hi` (flits/ns per
/// source).
///
/// `probe(rate)` must run the workload at `rate` and report a verdict. The
/// search first confirms the bracket (growing `hi` is the caller's job):
/// saturation at `lo` returns `lo`, and stability at `hi` returns `hi` so
/// the caller can notice and widen. Each round then evaluates `probe_fan`
/// evenly spaced interior rates (using up to `jobs` worker threads, hence
/// a `Fn + Sync` probe) and shrinks the bracket around the first saturated
/// one, until the bracket is narrower than `tolerance`; the highest rate
/// observed stable is the answer.
///
/// The probe is called O(log((hi−lo)/tolerance)) times; each call is a full
/// simulation, so keep `tolerance` realistic (the paper reports two decimal
/// digits — 0.01–0.02 GF/s is appropriate).
///
/// Two properties matter for reproducibility:
///
/// - The set of probed rates is a pure function of the bracket, `tolerance`,
///   and `probe_fan` — **not** of `jobs`. Changing the worker count changes
///   wall-clock time only, never the answer.
/// - `probe_fan = 1` probes exactly the rates of a serial bisection (the
///   k-section midpoint is the bisection midpoint); the tests hold it
///   bit-identical to one.
///
/// # Panics
///
/// Panics if the bracket or tolerance is degenerate (`lo >= hi`,
/// `tolerance <= 0`, negative `lo`).
///
/// # Examples
///
/// ```
/// use asynoc_stats::{find_saturation_multi, StabilityVerdict};
///
/// // A fictitious network that saturates at exactly 1.48 flits/ns.
/// let probe = |rate: f64| {
///     if rate <= 1.48 { StabilityVerdict::Stable } else { StabilityVerdict::Saturated }
/// };
/// let serial = find_saturation_multi(0.1, 3.0, 0.01, 3, 1, probe);
/// let parallel = find_saturation_multi(0.1, 3.0, 0.01, 3, 4, probe);
/// assert_eq!(serial, parallel); // bit-identical, not just close
/// assert!((serial - 1.48).abs() < 0.01);
/// ```
pub fn find_saturation_multi(
    lo: f64,
    hi: f64,
    tolerance: f64,
    probe_fan: usize,
    jobs: usize,
    probe: impl Fn(f64) -> StabilityVerdict + Sync,
) -> f64 {
    assert!(lo >= 0.0 && lo < hi, "bad bracket [{lo}, {hi}]");
    assert!(tolerance > 0.0, "tolerance must be positive");
    let fan = probe_fan.max(1);

    if probe(lo) == StabilityVerdict::Saturated {
        return lo;
    }
    if probe(hi) == StabilityVerdict::Stable {
        return hi;
    }

    let mut stable = lo;
    let mut saturated = hi;
    while saturated - stable > tolerance {
        let width = (saturated - stable) / (fan + 1) as f64;
        let points: Vec<f64> = (1..=fan).map(|i| stable + width * i as f64).collect();
        let verdicts = parallel_map(jobs, points.clone(), &probe);
        // The bracket invariant (stable below, saturated above) relies on
        // stability being monotone in rate, same as bisection: the first
        // saturated point caps the bracket, its predecessor floors it.
        match verdicts
            .iter()
            .position(|v| *v == StabilityVerdict::Saturated)
        {
            Some(0) => saturated = points[0],
            Some(i) => {
                stable = points[i - 1];
                saturated = points[i];
            }
            None => stable = points[fan - 1],
        }
    }
    stable
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_kernel::SimRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn step_network(threshold: f64) -> impl Fn(f64) -> StabilityVerdict + Sync {
        move |rate| {
            if rate <= threshold {
                StabilityVerdict::Stable
            } else {
                StabilityVerdict::Saturated
            }
        }
    }

    /// The classic serial bisection, kept as the reference the k-section's
    /// `probe_fan = 1` case is held bit-identical to.
    fn bisect(lo: f64, hi: f64, tolerance: f64, probe: impl Fn(f64) -> StabilityVerdict) -> f64 {
        if probe(lo) == StabilityVerdict::Saturated {
            return lo;
        }
        if probe(hi) == StabilityVerdict::Stable {
            return hi;
        }
        let mut stable = lo;
        let mut saturated = hi;
        while saturated - stable > tolerance {
            let mid = 0.5 * (stable + saturated);
            match probe(mid) {
                StabilityVerdict::Stable => stable = mid,
                StabilityVerdict::Saturated => saturated = mid,
            }
        }
        stable
    }

    #[test]
    fn saturated_at_low_end_returns_lo_and_stable_at_high_end_returns_hi() {
        for fan in [1, 3] {
            let low = step_network(0.1);
            assert_eq!(find_saturation_multi(0.5, 2.0, 0.01, fan, 2, low), 0.5);
            let high = step_network(10.0);
            assert_eq!(find_saturation_multi(0.5, 2.0, 0.01, fan, 2, high), 2.0);
        }
    }

    #[test]
    fn probe_call_count_is_logarithmic() {
        let calls = AtomicUsize::new(0);
        let inner = step_network(1.0);
        let _ = find_saturation_multi(0.0, 4.0, 0.01, 1, 1, |r| {
            calls.fetch_add(1, Ordering::Relaxed);
            inner(r)
        });
        let calls = calls.into_inner();
        assert!(calls <= 2 + 10, "too many probe calls: {calls}"); // 2 bracket + log2(400) ≈ 9
    }

    #[test]
    #[should_panic(expected = "bad bracket")]
    fn inverted_bracket_rejected() {
        let _ = find_saturation_multi(2.0, 1.0, 0.01, 1, 1, step_network(1.5));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tolerance_rejected() {
        let _ = find_saturation_multi(0.0, 1.0, 0.0, 1, 1, step_network(0.5));
    }

    #[test]
    fn probe_judgement() {
        let probe = StabilityProbe::new();
        assert_eq!(probe.judge(1.0, 0.99), StabilityVerdict::Stable);
        assert_eq!(probe.judge(1.0, 0.90), StabilityVerdict::Saturated);
        assert_eq!(probe.judge(0.0, 0.0), StabilityVerdict::Stable);
        assert_eq!(probe.judge(1.0, 0.95), StabilityVerdict::Stable);
        assert_eq!(StabilityVerdict::Saturated.to_string(), "saturated");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn probe_rejects_nan() {
        let _ = StabilityProbe::new().judge(f64::NAN, 1.0);
    }

    #[test]
    fn multi_fan1_matches_bisection_exactly() {
        let mut rng = SimRng::seed_from(7);
        for _case in 0..32 {
            let threshold = 0.1 + 3.8 * rng.index(1_000_000) as f64 / 1_000_000.0;
            let classic = bisect(0.0, 4.0, 0.01, step_network(threshold));
            let multi = find_saturation_multi(0.0, 4.0, 0.01, 1, 1, step_network(threshold));
            assert_eq!(classic.to_bits(), multi.to_bits(), "threshold {threshold}");
        }
    }

    #[test]
    fn multi_jobs_do_not_change_the_answer() {
        for fan in [1usize, 2, 3, 5] {
            let probe = step_network(1.37);
            let serial = find_saturation_multi(0.0, 4.0, 0.005, fan, 1, &probe);
            let parallel = find_saturation_multi(0.0, 4.0, 0.005, fan, 8, &probe);
            assert_eq!(serial.to_bits(), parallel.to_bits(), "fan {fan}");
            assert!((serial - 1.37).abs() <= 0.006, "fan {fan} found {serial}");
        }
    }

    #[test]
    fn every_fan_converges_to_the_threshold() {
        let mut rng = SimRng::seed_from(42);
        for case in 0..64 {
            let threshold = 0.1 + 3.8 * rng.index(1_000_000) as f64 / 1_000_000.0;
            let fan = 1 + case % 4;
            let sat = find_saturation_multi(0.0, 4.0, 0.01, fan, 1, step_network(threshold));
            assert!(
                (sat - threshold).abs() <= 0.011,
                "fan {fan} found {sat} for {threshold}"
            );
        }
    }
}
