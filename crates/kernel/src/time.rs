//! Picosecond-resolution simulation time.
//!
//! Asynchronous NoC node latencies are tens-to-hundreds of picoseconds
//! (the paper reports 52 ps for a speculative fanout node and 263 ps for the
//! baseline), while full benchmark runs span microseconds. A `u64` picosecond
//! counter covers ~213 days of simulated time — far more than any run needs —
//! while keeping arithmetic exact and `Copy`-cheap.
//!
//! [`Time`] is an absolute instant on the simulation clock; [`Duration`] is a
//! span between instants. Keeping them as separate newtypes prevents the
//! classic bug of adding two absolute timestamps.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in picoseconds since the
/// start of the run.
///
/// # Examples
///
/// ```
/// use asynoc_kernel::{Duration, Time};
///
/// let start = Time::from_ps(100);
/// let later = start + Duration::from_ps(250);
/// assert_eq!(later.as_ps(), 350);
/// assert_eq!(later - start, Duration::from_ps(250));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

/// A span of simulation time, in picoseconds.
///
/// # Examples
///
/// ```
/// use asynoc_kernel::Duration;
///
/// let cycle = Duration::from_ps(675);
/// assert_eq!(cycle * 2, Duration::from_ps(1350));
/// assert_eq!(Duration::from_ns(1), Duration::from_ps(1000));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Duration(u64);

impl Time {
    /// The start of simulation time.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant `ps` picoseconds after the start of the run.
    #[must_use]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates an instant `ns` nanoseconds after the start of the run.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Returns the instant as picoseconds since the start of the run.
    #[must_use]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the instant as (possibly fractional) nanoseconds.
    #[must_use]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the span since `earlier`, or [`Duration::ZERO`] if `earlier`
    /// is actually later (useful for defensive latency accounting).
    #[must_use]
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a span of `ps` picoseconds.
    #[must_use]
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Creates a span of `ns` nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * 1_000)
    }

    /// Returns the span in picoseconds.
    #[must_use]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the span as (possibly fractional) nanoseconds.
    #[must_use]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns `true` if the span is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by a dimensionless factor, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> Duration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration scale factor must be finite and non-negative, got {factor}"
        );
        Duration((self.0 as f64 * factor).round() as u64)
    }

    /// Returns the larger of two spans.
    #[must_use]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Returns the smaller of two spans.
    #[must_use]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;

    fn add(self, rhs: Duration) -> Time {
        Time(
            self.0
                .checked_add(rhs.0)
                .expect("simulation time overflowed u64 picoseconds"),
        )
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;

    fn sub(self, rhs: Duration) -> Time {
        Time(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation time underflowed below zero"),
        )
    }
}

impl Sub<Time> for Time {
    type Output = Duration;

    fn sub(self, rhs: Time) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracted a later Time from an earlier one"),
        )
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_add(rhs.0)
                .expect("duration sum overflowed u64 picoseconds"),
        )
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;

    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration difference underflowed below zero"),
        )
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;

    fn mul(self, rhs: u64) -> Duration {
        Duration(
            self.0
                .checked_mul(rhs)
                .expect("duration product overflowed u64 picoseconds"),
        )
    }
}

impl Div<u64> for Duration {
    type Output = Duration;

    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Duration(self.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3} us", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} ns", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{} ps", self.0)
        }
    }
}

/// Tracks fixed-width simulated-time window boundaries for streaming
/// observers.
///
/// A window covers `[k * width, (k + 1) * width)`. Feeding event
/// timestamps (non-decreasing, as any observer sees them) to
/// [`WindowClock::crossed`] yields, *before* the event is processed,
/// the sequence numbers of every window that just closed — so a
/// streaming sink can flush window `k` exactly when the first event at
/// or past its boundary shows up.
///
/// # Examples
///
/// ```
/// use asynoc_kernel::{Duration, Time, WindowClock};
///
/// let mut clock = WindowClock::new(Duration::from_ns(1));
/// assert!(clock.crossed(Time::from_ps(400)).is_none());
/// // An event at 2.3 ns closes windows 0 and 1.
/// assert_eq!(clock.crossed(Time::from_ps(2_300)), Some(0..2));
/// assert!(clock.crossed(Time::from_ps(2_400)).is_none());
/// assert_eq!(clock.next_seq(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct WindowClock {
    width: Duration,
    next_seq: u64,
}

impl WindowClock {
    /// A clock with `width`-wide windows, starting at window 0.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn new(width: Duration) -> Self {
        assert!(!width.is_zero(), "window width must be non-zero");
        WindowClock { width, next_seq: 0 }
    }

    /// The window width.
    #[must_use]
    pub fn width(&self) -> Duration {
        self.width
    }

    /// The sequence number of the next window to close.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The window sequence number containing instant `at`.
    #[must_use]
    pub fn seq_of(&self, at: Time) -> u64 {
        at.as_ps() / self.width.as_ps()
    }

    /// The closing boundary instant of window `seq` (exclusive).
    #[must_use]
    pub fn boundary_of(&self, seq: u64) -> Time {
        Time::from_ps((seq + 1) * self.width.as_ps())
    }

    /// Observes an event timestamp and returns the range of window
    /// sequence numbers that closed strictly before it (empty → `None`).
    /// Call before handing the event to downstream accounting.
    #[must_use]
    pub fn crossed(&mut self, at: Time) -> Option<std::ops::Range<u64>> {
        let current = self.seq_of(at);
        if current <= self.next_seq {
            return None;
        }
        let closed = self.next_seq..current;
        self.next_seq = current;
        Some(closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_exact_in_picoseconds() {
        let (ps, d) = (Time::from_ps, Duration::from_ps);
        assert_eq!(ps(10) + d(5), ps(15));
        assert_eq!(ps(100) - ps(40), d(60));
        assert_eq!(ps(5).saturating_since(ps(9)), Duration::ZERO);
        assert_eq!(ps(9).saturating_since(ps(5)), d(4));
        assert_eq!(
            (Time::from_ns(3), Duration::from_ns(2)),
            (ps(3_000), d(2_000))
        );
        assert_eq!(
            (d(30) * 3, d(30) / 2, d(30) + d(30), d(30) - d(10)),
            (d(90), d(15), d(60), d(20))
        );
        assert_eq!([1, 2, 3].map(d).into_iter().sum::<Duration>(), d(6));
        assert_eq!((ps(4).max(ps(9)), ps(4).min(ps(9))), (ps(9), ps(4)));
        assert_eq!((d(4).max(d(9)), d(4).min(d(9))), (d(9), d(4)));
        assert_eq!(
            (Time::default(), Duration::default()),
            (Time::ZERO, Duration::ZERO)
        );
        assert!((ps(1_500).as_ns_f64() - 1.5).abs() < 1e-12);
        assert!((d(250).as_ns_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mul_f64_rounds_to_nearest_ps() {
        assert_eq!(Duration::from_ps(100).mul_f64(0.255), Duration::from_ps(26));
        assert_eq!(Duration::from_ps(100).mul_f64(0.0), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn mul_f64_rejects_negative() {
        let _ = Duration::from_ps(10).mul_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn sub_time_panics_on_inversion() {
        let _ = Time::from_ps(1) - Time::from_ps(2);
    }

    #[test]
    fn display_picks_readable_unit() {
        assert_eq!(Duration::from_ps(52).to_string(), "52 ps");
        assert_eq!(Duration::from_ps(1_500).to_string(), "1.500 ns");
        assert_eq!(Duration::from_ps(2_500_000).to_string(), "2.500 us");
        assert_eq!(Time::from_ps(675).to_string(), "675 ps");
    }
}
