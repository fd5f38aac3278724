//! Validated network sizes and node counting.

use std::fmt;

use crate::error::TopologyError;

/// A validated N×N MoT network size: N sources, N destinations, N a power
/// of two in `2..=64`.
///
/// The upper bound matches [`asynoc_packet::DestSet`]'s 64-destination
/// capacity; the paper evaluates 8×8 and projects 16×16.
///
/// # Examples
///
/// ```
/// use asynoc_topology::MotSize;
///
/// let size = MotSize::new(8)?;
/// assert_eq!(size.n(), 8);
/// assert_eq!(size.levels(), 3);
/// assert_eq!(size.fanout_nodes_per_tree(), 7);
/// assert_eq!(size.total_fanout_nodes(), 56);
/// # Ok::<(), asynoc_topology::TopologyError>(())
/// ```
///
/// [`asynoc_packet::DestSet`]: asynoc_packet::DestSet
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MotSize {
    n: usize,
}

impl MotSize {
    /// Validates a network size.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidSize`] unless `n` is a power of two
    /// in `2..=64`.
    pub fn new(n: usize) -> Result<Self, TopologyError> {
        if (2..=64).contains(&n) && n.is_power_of_two() {
            Ok(MotSize { n })
        } else {
            Err(TopologyError::InvalidSize { requested: n })
        }
    }

    /// Number of sources (= destinations).
    #[must_use]
    pub const fn n(self) -> usize {
        self.n
    }

    /// Tree depth: `log2(n)` fanout (and fanin) levels.
    #[must_use]
    pub const fn levels(self) -> u32 {
        self.n.trailing_zeros()
    }

    /// Nodes in one binary tree: `n − 1`.
    #[must_use]
    pub const fn fanout_nodes_per_tree(self) -> usize {
        self.n - 1
    }

    /// Fanout nodes across all `n` source trees.
    #[must_use]
    pub const fn total_fanout_nodes(self) -> usize {
        self.n * (self.n - 1)
    }

    /// Fanin nodes across all `n` destination trees (same count by mirror
    /// symmetry).
    #[must_use]
    pub const fn total_fanin_nodes(self) -> usize {
        self.n * (self.n - 1)
    }

    /// Number of nodes at tree level `level` (root is level 0).
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    #[must_use]
    pub fn nodes_at_level(self, level: u32) -> usize {
        assert!(level < self.levels(), "level {level} out of range");
        1usize << level
    }
}

impl fmt::Display for MotSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.n, self.n)
    }
}

impl TryFrom<usize> for MotSize {
    type Error = TopologyError;

    fn try_from(n: usize) -> Result<Self, TopologyError> {
        MotSize::new(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_powers_of_two_up_to_64() {
        for n in [2usize, 4, 8, 16, 32, 64] {
            let size = MotSize::new(n).expect("valid size");
            assert_eq!(size.n(), n);
            assert_eq!(1usize << size.levels(), n);
        }
    }

    #[test]
    fn rejects_invalid_sizes() {
        for n in [0usize, 1, 3, 6, 12, 65, 128] {
            assert_eq!(
                MotSize::new(n),
                Err(TopologyError::InvalidSize { requested: n })
            );
        }
    }

    #[test]
    fn node_counts_for_8x8() {
        let size = MotSize::new(8).unwrap();
        assert_eq!(size.levels(), 3);
        assert_eq!(size.fanout_nodes_per_tree(), 7);
        assert_eq!(size.total_fanout_nodes(), 56);
        assert_eq!(size.total_fanin_nodes(), 56);
        assert_eq!(size.nodes_at_level(0), 1);
        assert_eq!(size.nodes_at_level(1), 2);
        assert_eq!(size.nodes_at_level(2), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nodes_at_level_bounds_checked() {
        let _ = MotSize::new(8).unwrap().nodes_at_level(3);
    }

    #[test]
    fn display_and_try_from() {
        let size = MotSize::try_from(16usize).unwrap();
        assert_eq!(size.to_string(), "16x16");
        assert!(MotSize::try_from(5usize).is_err());
    }
}
