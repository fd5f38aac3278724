//! Destination sets for unicast and multicast packets.
//!
//! A multicast packet targets "an arbitrary subset of destinations". Network
//! sizes in the paper (8×8, 16×16, and the projected larger MoTs) stay well
//! under 64 endpoints, so a `u64` bitmask is an exact, allocation-free
//! representation with O(1) membership tests and popcount-based sizing.

use std::fmt;

/// The maximum number of destinations a [`DestSet`] can address.
pub const MAX_DESTINATIONS: usize = 64;

/// A set of destination indices in `0..64`.
///
/// # Examples
///
/// ```
/// use asynoc_packet::DestSet;
///
/// let mut set = DestSet::unicast(3);
/// assert!(set.is_unicast());
/// set.insert(5);
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 5]);
/// assert!(set.contains(5) && !set.contains(4));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct DestSet(u64);

impl DestSet {
    /// The empty set.
    pub const EMPTY: DestSet = DestSet(0);

    /// Creates an empty set.
    #[must_use]
    pub const fn new() -> Self {
        DestSet(0)
    }

    /// Creates a single-destination set.
    ///
    /// # Panics
    ///
    /// Panics if `dest >= 64`.
    #[must_use]
    pub fn unicast(dest: usize) -> Self {
        let mut set = DestSet::new();
        set.insert(dest);
        set
    }

    /// Creates a set from a raw bitmask (bit *i* set ⇒ destination *i*).
    #[must_use]
    pub const fn from_bits(bits: u64) -> Self {
        DestSet(bits)
    }

    /// Returns the raw bitmask.
    #[must_use]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Adds `dest` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `dest >= 64`.
    pub fn insert(&mut self, dest: usize) {
        assert!(
            dest < MAX_DESTINATIONS,
            "destination {dest} exceeds DestSet capacity {MAX_DESTINATIONS}"
        );
        self.0 |= 1 << dest;
    }

    /// Removes `dest` from the set; no-op if absent or out of range.
    pub fn remove(&mut self, dest: usize) {
        if dest < MAX_DESTINATIONS {
            self.0 &= !(1 << dest);
        }
    }

    /// Returns `true` if `dest` is in the set.
    #[must_use]
    pub fn contains(self, dest: usize) -> bool {
        dest < MAX_DESTINATIONS && self.0 & (1 << dest) != 0
    }

    /// Returns the number of destinations.
    #[must_use]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` if the set is empty.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if the set holds exactly one destination.
    #[must_use]
    pub const fn is_unicast(self) -> bool {
        self.0.count_ones() == 1
    }

    /// Returns the smallest destination, or `None` if the set is empty.
    #[must_use]
    pub fn first(self) -> Option<usize> {
        if self.is_empty() {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }

    /// Keeps only destinations in `low..high` (a subtree's leaf range).
    #[must_use]
    pub fn restricted_to(self, low: usize, high: usize) -> DestSet {
        debug_assert!(low <= high && high <= MAX_DESTINATIONS);
        if low >= MAX_DESTINATIONS {
            return DestSet::EMPTY;
        }
        let span = high - low;
        let mask = if span >= 64 {
            u64::MAX
        } else {
            ((1u64 << span) - 1) << low
        };
        DestSet(self.0 & mask)
    }

    /// Returns `true` if the two sets share a destination.
    #[must_use]
    pub const fn intersects(self, other: DestSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Returns the union of two sets.
    #[must_use]
    pub const fn union(self, other: DestSet) -> DestSet {
        DestSet(self.0 | other.0)
    }

    /// Iterates over destinations in ascending order.
    pub fn iter(self) -> Iter {
        Iter { bits: self.0 }
    }
}

/// Iterator over the destinations of a [`DestSet`], ascending.
#[derive(Clone, Debug)]
pub struct Iter {
    bits: u64,
}

impl Iterator for Iter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            None
        } else {
            let dest = self.bits.trailing_zeros() as usize;
            self.bits &= self.bits - 1;
            Some(dest)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bits.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

impl IntoIterator for DestSet {
    type Item = usize;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl FromIterator<usize> for DestSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = DestSet::new();
        for dest in iter {
            set.insert(dest);
        }
        set
    }
}

impl Extend<usize> for DestSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for dest in iter {
            self.insert(dest);
        }
    }
}

impl fmt::Display for DestSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, dest) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{dest}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_kernel::SimRng;

    #[test]
    fn unicast_has_one_member() {
        let set = DestSet::unicast(7);
        assert!(set.is_unicast());
        assert_eq!(set.len(), 1);
        assert_eq!(set.first(), Some(7));
        assert!(set.contains(7));
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut set = DestSet::new();
        set.insert(0);
        set.insert(63);
        assert_eq!(set.len(), 2);
        set.remove(0);
        assert!(!set.contains(0));
        assert!(set.contains(63));
        set.remove(63);
        assert!(set.is_empty());
    }

    #[test]
    fn out_of_range_removes_and_lookups_are_no_ops() {
        let mut set = DestSet::unicast(1);
        set.remove(500);
        assert_eq!(set, DestSet::unicast(1));
        assert!(!DestSet::from_bits(u64::MAX).contains(64));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn insert_rejects_out_of_range() {
        DestSet::new().insert(64);
    }

    #[test]
    fn restricted_to_keeps_subtree_range() {
        let set: DestSet = [0usize, 2, 3, 4, 7].into_iter().collect();
        let top = set.restricted_to(0, 4);
        assert_eq!(top.iter().collect::<Vec<_>>(), vec![0, 2, 3]);
        let bottom = set.restricted_to(4, 8);
        assert_eq!(bottom.iter().collect::<Vec<_>>(), vec![4, 7]);
        assert!(set.intersects(DestSet::from_bits(0xF0)));
        assert!(!set.intersects(DestSet::from_bits(0x60)));
    }

    #[test]
    fn restricted_to_full_width() {
        let set = DestSet::from_bits(u64::MAX);
        assert_eq!(set.restricted_to(0, 64), set);
        assert_eq!(set.restricted_to(64, 64), DestSet::EMPTY);
    }

    #[test]
    fn display_lists_members() {
        let set: DestSet = [2usize, 4].into_iter().collect();
        assert_eq!(set.to_string(), "{2,4}");
        assert_eq!(DestSet::EMPTY.to_string(), "{}");
    }

    fn bits64(rng: &mut SimRng) -> u64 {
        rng.range_inclusive(0, usize::MAX) as u64
    }

    #[test]
    fn collect_matches_membership() {
        let mut rng = SimRng::seed_from(5);
        for _case in 0..64 {
            let count = rng.index(20);
            let dests: std::collections::HashSet<usize> =
                (0..count).map(|_| rng.index(64)).collect();
            let set: DestSet = dests.iter().copied().collect();
            assert_eq!(set.len(), dests.len());
            for d in 0..64 {
                assert_eq!(set.contains(d), dests.contains(&d));
            }
        }
    }

    #[test]
    fn restrict_partitions() {
        let mut rng = SimRng::seed_from(6);
        for case in 0..64 {
            let bits = match case {
                0 => 0,
                1 => u64::MAX,
                _ => bits64(&mut rng),
            };
            for split in [0, 1, 31, 32, 63, 64, rng.range_inclusive(0, 64)] {
                let set = DestSet::from_bits(bits);
                let low = set.restricted_to(0, split);
                let high = set.restricted_to(split, 64);
                assert_eq!(low.union(high), set);
                assert_eq!(low.bits() & high.bits(), 0);
            }
        }
    }

    #[test]
    fn iter_sorted() {
        let mut rng = SimRng::seed_from(7);
        for case in 0..64 {
            let bits = match case {
                0 => 0,
                1 => u64::MAX,
                _ => bits64(&mut rng),
            };
            let items: Vec<usize> = DestSet::from_bits(bits).iter().collect();
            assert!(items.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(items.len(), bits.count_ones() as usize);
        }
    }
}
