//! Warmup / measurement windows.

use asynoc_kernel::{Duration, Time};

/// The warmup + measurement schedule of one simulation run.
///
/// Statistics (latency samples, delivered-flit counts, energy deposits) are
/// recorded only for activity attributed to the measurement window; the
/// warmup fills pipelines and queues so measured behavior is steady-state.
///
/// # Examples
///
/// ```
/// use asynoc_kernel::{Duration, Time};
/// use asynoc_stats::Phases;
///
/// let phases = Phases::new(Duration::from_ns(320), Duration::from_ns(3200));
/// assert_eq!(phases.measurement_start(), Time::from_ns(320));
/// assert_eq!(phases.measurement_end(), Time::from_ns(3520));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Phases {
    warmup: Duration,
    measure: Duration,
}

impl Phases {
    /// Creates a schedule with the given warmup and measurement lengths.
    ///
    /// # Panics
    ///
    /// Panics if the measurement window is zero.
    #[must_use]
    pub fn new(warmup: Duration, measure: Duration) -> Self {
        assert!(!measure.is_zero(), "measurement window must be non-zero");
        Phases { warmup, measure }
    }

    /// The paper's standard schedule for a benchmark: 320 ns warmup and
    /// 3200 ns measurement, doubled for `Multicast_static` (the paper uses
    /// 640 ns / 6400 ns there because only three sources multicast, so more
    /// time is needed for the same sample count).
    #[must_use]
    pub fn paper_standard(doubled: bool) -> Self {
        let scale = if doubled { 2 } else { 1 };
        Phases::new(
            Duration::from_ns(320 * scale),
            Duration::from_ns(3200 * scale),
        )
    }

    /// Warmup length.
    #[must_use]
    pub fn warmup(&self) -> Duration {
        self.warmup
    }

    /// Measurement length.
    #[must_use]
    pub fn measure(&self) -> Duration {
        self.measure
    }

    /// First instant inside the measurement window.
    #[must_use]
    pub fn measurement_start(&self) -> Time {
        Time::ZERO + self.warmup
    }

    /// First instant after the measurement window.
    #[must_use]
    pub fn measurement_end(&self) -> Time {
        Time::ZERO + self.warmup + self.measure
    }

    /// Returns `true` if `t` falls inside the measurement window.
    #[must_use]
    pub fn in_measurement(&self, t: Time) -> bool {
        t >= self.measurement_start() && t < self.measurement_end()
    }

    /// Returns a schedule scaled by an integer factor (longer runs for
    /// saturation probing).
    #[must_use]
    pub fn scaled(&self, factor: u64) -> Phases {
        Phases::new(self.warmup * factor, self.measure * factor)
    }
}

impl Default for Phases {
    fn default() -> Self {
        Phases::paper_standard(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_boundaries_are_half_open() {
        let phases = Phases::new(Duration::from_ns(10), Duration::from_ns(20));
        assert!(!phases.in_measurement(Time::from_ns(9)));
        assert!(phases.in_measurement(Time::from_ns(10)));
        assert!(phases.in_measurement(Time::from_ps(29_999)));
        assert!(!phases.in_measurement(Time::from_ns(30)));
    }

    #[test]
    fn paper_standard_values_and_scaling() {
        let at = |phases: Phases| (phases.warmup().as_ps(), phases.measure().as_ps());
        assert_eq!(at(Phases::paper_standard(false)), (320_000, 3_200_000));
        assert_eq!(at(Phases::paper_standard(true)), (640_000, 6_400_000));
        assert_eq!(at(Phases::default().scaled(3)), (960_000, 9_600_000));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_measurement_rejected() {
        let _ = Phases::new(Duration::ZERO, Duration::ZERO);
    }
}
