//! The statistics behind `benches/ratios.rs`, over paired rounds.
//!
//! A round times side A and then side B back to back. Host drift (this
//! class of VM swings ±30 % from minute to minute) moves both halves of a
//! round together, so the round's quotient `A / B` holds still where
//! either absolute time does not; of the quotients the *median* is
//! judged: single rounds spread wide enough (0.73–1.65 for two equal
//! sides) that the best round would wave a 15 % regression through.
//!
//! Some drift does not move both halves together. On this class of VM an
//! engine-shaped pass of the calendar queue takes 15 ms for seconds at a
//! time, then 22–28 ms for seconds at a time, while the heap's pass moves
//! only between 36 and 48 ms; the paired median then reads whichever
//! mixture of the two host states the invocation met. For
//! such a gate the quotient of each side's *fastest* round is judged:
//! interference only ever adds time, so the fastest rounds are the ones
//! it spared, and across an invocation's rounds each side has some.

use std::time::Instant;

/// What a gate requires of its median quotient.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Side A must take at least this many times side B's time.
    AtLeast(f64),
    /// Side A may take at most this many times side B's time.
    AtMost(f64),
}

impl Bound {
    /// Whether a median quotient satisfies the bound.
    #[must_use]
    pub fn holds(self, median: f64) -> bool {
        match self {
            Bound::AtLeast(floor) => median >= floor,
            Bound::AtMost(ceiling) => median <= ceiling,
        }
    }
}

/// Times `rounds` rounds of `a` then `b` and returns each round's two
/// wall times, seconds.
pub fn paired_rounds(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> Vec<(f64, f64)> {
    fn timed(side: &mut dyn FnMut()) -> f64 {
        let start = Instant::now();
        side();
        start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE)
    }
    (0..rounds)
        .map(|_| (timed(&mut a), timed(&mut b)))
        .collect()
}

/// Each round's `a / b` quotient.
#[must_use]
pub fn quotients(rounds: &[(f64, f64)]) -> Vec<f64> {
    rounds.iter().map(|(a, b)| a / b).collect()
}

/// The quotient of the two sides' fastest rounds, `min a / min b`.
#[must_use]
pub fn fastest_quotient(rounds: &[(f64, f64)]) -> f64 {
    let fastest = |side: fn(&(f64, f64)) -> f64| rounds.iter().map(side).fold(f64::MAX, f64::min);
    fastest(|r| r.0) / fastest(|r| r.1)
}

/// The quartiles `(q1, median, q3)` of the quotients: nearest ranks for
/// the outer two, the mean of the two middle values for the median of an
/// even count.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quartiles(quotients: &[f64]) -> (f64, f64, f64) {
    assert!(!quotients.is_empty(), "no rounds were timed");
    let mut sorted = quotients.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len() - 1;
    let median = (sorted[last / 2] + sorted[sorted.len() / 2]) / 2.0;
    (sorted[last / 4], median, sorted[last - last / 4])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_median_is_judged_not_the_best_round() {
        // A 20 % regression that eight lucky rounds hide from "best of".
        let mut quotients = vec![1.2; 12];
        quotients.extend([0.7; 8]);
        let bound = Bound::AtMost(1.05);
        let best = quotients.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(bound.holds(best), "the best round passes");
        let (_, median, _) = quartiles(&quotients);
        assert_eq!(median, 1.2);
        assert!(!bound.holds(median), "the median does not");
    }

    #[test]
    fn quartiles_of_odd_and_even_counts() {
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]).1, 2.5);
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (2.0, 3.0, 4.0));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quartiles(&twenty), (5.0, 10.5, 16.0));
        // Order of arrival does not matter; outliers do not move the median.
        assert_eq!(quartiles(&[1.0, 1.0, 1.0, 1.0, 900.0]).1, 1.0);
    }

    #[test]
    fn bounds_are_inclusive_on_their_own_side() {
        assert!(Bound::AtLeast(1.3).holds(1.3));
        assert!(Bound::AtLeast(1.3).holds(1.8));
        assert!(!Bound::AtLeast(1.3).holds(1.29));
        assert!(Bound::AtMost(1.05).holds(1.05));
        assert!(Bound::AtMost(1.05).holds(0.98));
        assert!(!Bound::AtMost(1.05).holds(1.06));
    }

    #[test]
    fn a_round_is_a_then_b_and_the_quotient_is_a_over_b() {
        let order = std::cell::RefCell::new(Vec::new());
        let spin = |label: char, millis: u64| {
            order.borrow_mut().push(label);
            let start = Instant::now();
            while start.elapsed() < std::time::Duration::from_millis(millis) {
                std::hint::spin_loop();
            }
        };
        let rounds = paired_rounds(3, || spin('a', 20), || spin('b', 1));
        assert_eq!(*order.borrow(), ['a', 'b', 'a', 'b', 'a', 'b']);
        assert_eq!(rounds.len(), 3);
        // Twenty to one: no scheduling hiccup turns that upside down twice.
        assert!(quartiles(&quotients(&rounds)).1 > 1.0, "{rounds:?}");
    }

    #[test]
    fn the_fastest_quotient_pairs_each_sides_fastest_round() {
        // Side b is held up in the rounds where a was quick: no round's
        // quotient is 2, the sides' fastest rounds are.
        let rounds = [(2.0, 3.0), (4.0, 1.0), (3.0, 2.5)];
        assert_eq!(quotients(&rounds), [2.0 / 3.0, 4.0, 1.2]);
        assert_eq!(fastest_quotient(&rounds), 2.0);
    }
}
