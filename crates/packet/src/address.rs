//! Source-routing address encodings.
//!
//! Two encodings coexist in the paper:
//!
//! - The unicast **baseline** network stores one bit per fanout level
//!   ([`BaselinePath`]): at level *l* the packet turns to the top (`0`) or
//!   bottom (`1`) output, so an 8×8 MoT needs only 3 bits.
//! - The parallel-multicast networks store a 2-bit [`RouteSymbol`] for every
//!   *non-speculative* fanout node of the source's tree ([`RouteHeader`]).
//!   A node not on any intended path holds [`RouteSymbol::Drop`], which is
//!   how non-speculative nodes throttle the redundant copies created by
//!   their speculative neighbors.
//!
//! `RouteHeader` stores a symbol slot for **all** nodes of the tree (simpler
//! and branch-free at simulation time); the *encoded* wire size, which only
//! counts non-speculative fields, is computed by [`crate::coding`].

use std::fmt;

/// Number of fanout nodes in a binary fanout tree serving `n` leaves.
///
/// A tree with `n = 2^L` leaves has `1 + 2 + … + n/2 = n − 1` internal
/// routing nodes.
#[must_use]
pub const fn fanout_tree_nodes(n: usize) -> usize {
    n - 1
}

/// The 2-bit routing symbol read by a non-speculative fanout node.
///
/// # Examples
///
/// ```
/// use asynoc_packet::RouteSymbol;
///
/// assert_eq!(RouteSymbol::from_bits(0b10), RouteSymbol::Bottom);
/// assert_eq!(RouteSymbol::Top.to_bits(), 0b01);
/// assert!(RouteSymbol::Drop.is_drop());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RouteSymbol {
    /// The packet copy is redundant at this node: throttle it.
    #[default]
    Drop,
    /// Forward on the top output only.
    Top,
    /// Forward on the bottom output only.
    Bottom,
    /// Replicate on both outputs (multicast branch point).
    Both,
}

impl RouteSymbol {
    /// All symbols, in bit-encoding order.
    pub const ALL: [RouteSymbol; 4] = [
        RouteSymbol::Drop,
        RouteSymbol::Top,
        RouteSymbol::Bottom,
        RouteSymbol::Both,
    ];

    /// Returns the 2-bit wire encoding.
    #[must_use]
    pub const fn to_bits(self) -> u8 {
        match self {
            RouteSymbol::Drop => 0b00,
            RouteSymbol::Top => 0b01,
            RouteSymbol::Bottom => 0b10,
            RouteSymbol::Both => 0b11,
        }
    }

    /// Decodes a 2-bit wire encoding (only the low two bits are read).
    #[must_use]
    pub const fn from_bits(bits: u8) -> Self {
        match bits & 0b11 {
            0b01 => RouteSymbol::Top,
            0b10 => RouteSymbol::Bottom,
            0b11 => RouteSymbol::Both,
            _ => RouteSymbol::Drop,
        }
    }

    /// Builds the symbol from per-output demand flags.
    #[must_use]
    pub const fn from_ports(top: bool, bottom: bool) -> Self {
        match (top, bottom) {
            (false, false) => RouteSymbol::Drop,
            (true, false) => RouteSymbol::Top,
            (false, true) => RouteSymbol::Bottom,
            (true, true) => RouteSymbol::Both,
        }
    }

    /// Returns `true` if the top output is demanded.
    #[must_use]
    pub const fn wants_top(self) -> bool {
        matches!(self, RouteSymbol::Top | RouteSymbol::Both)
    }

    /// Returns `true` if the bottom output is demanded.
    #[must_use]
    pub const fn wants_bottom(self) -> bool {
        matches!(self, RouteSymbol::Bottom | RouteSymbol::Both)
    }

    /// Returns `true` if the packet copy must be throttled here.
    #[must_use]
    pub const fn is_drop(self) -> bool {
        matches!(self, RouteSymbol::Drop)
    }

    /// Number of output copies this symbol produces.
    #[must_use]
    pub const fn copy_count(self) -> usize {
        self.wants_top() as usize + self.wants_bottom() as usize
    }

    /// The stable lower-case name trace records carry (also the
    /// `Display` form).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            RouteSymbol::Drop => "drop",
            RouteSymbol::Top => "top",
            RouteSymbol::Bottom => "bottom",
            RouteSymbol::Both => "both",
        }
    }
}

impl fmt::Display for RouteSymbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-tree-node routing symbols for a parallel-multicast packet.
///
/// Nodes are indexed in level order: the root is node 0, level *l* starts at
/// `2^l − 1`, and node *(l, i)* is `2^l − 1 + i`. This matches
/// `asynoc-topology`'s fanout-node numbering.
///
/// # Examples
///
/// ```
/// use asynoc_packet::{RouteHeader, RouteSymbol};
///
/// let mut header = RouteHeader::for_tree(8);
/// header.set(0, 0, RouteSymbol::Both);
/// assert_eq!(header.symbol(0, 0), RouteSymbol::Both);
/// assert_eq!(header.symbol(2, 3), RouteSymbol::Drop); // unset ⇒ throttle
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RouteHeader {
    symbols: Vec<RouteSymbol>,
    levels: u32,
}

impl RouteHeader {
    /// Creates an all-[`Drop`](RouteSymbol::Drop) header for a fanout tree
    /// with `n` leaves.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is less than 2.
    #[must_use]
    pub fn for_tree(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "fanout tree size must be a power of two >= 2, got {n}"
        );
        RouteHeader {
            symbols: vec![RouteSymbol::Drop; fanout_tree_nodes(n)],
            levels: n.trailing_zeros(),
        }
    }

    /// Re-initializes the header in place to all-[`Drop`](RouteSymbol::Drop)
    /// for a fanout tree with `n` leaves, reusing the existing symbol
    /// storage when it is large enough (the allocation-free counterpart of
    /// [`for_tree`](Self::for_tree)).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is less than 2.
    pub fn reset_for_tree(&mut self, n: usize) {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "fanout tree size must be a power of two >= 2, got {n}"
        );
        self.symbols.clear();
        self.symbols.resize(fanout_tree_nodes(n), RouteSymbol::Drop);
        self.levels = n.trailing_zeros();
    }

    /// Number of fanout levels (`log2` of the leaf count).
    #[must_use]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Total number of node slots in the header.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.symbols.len()
    }

    fn slot(&self, level: u32, index: usize) -> usize {
        assert!(level < self.levels, "level {level} out of range");
        let width = 1usize << level;
        assert!(
            index < width,
            "node index {index} out of range for level {level} (width {width})"
        );
        width - 1 + index
    }

    /// Returns the symbol for node *(level, index)*.
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the tree.
    #[must_use]
    pub fn symbol(&self, level: u32, index: usize) -> RouteSymbol {
        self.symbols[self.slot(level, index)]
    }

    /// Sets the symbol for node *(level, index)*.
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the tree.
    pub fn set(&mut self, level: u32, index: usize, symbol: RouteSymbol) {
        let slot = self.slot(level, index);
        self.symbols[slot] = symbol;
    }

    /// Iterates `(level, index, symbol)` over all node slots in level order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, usize, RouteSymbol)> + '_ {
        (0..self.levels).flat_map(move |level| {
            let width = 1usize << level;
            (0..width).map(move |index| (level, index, self.symbol(level, index)))
        })
    }

    /// Number of non-`Drop` symbols (i.e. nodes the packet actually visits
    /// on intended paths).
    #[must_use]
    pub fn active_nodes(&self) -> usize {
        self.symbols.iter().filter(|s| !s.is_drop()).count()
    }
}

/// Per-level turn bits for a baseline unicast packet.
///
/// Bit *l* is `false` for the top output and `true` for the bottom output at
/// fanout level *l* — 1 bit per node on the path, `log2(n)` bits total.
///
/// # Examples
///
/// ```
/// use asynoc_packet::BaselinePath;
///
/// let path = BaselinePath::to_destination(8, 5); // 5 = 0b101
/// assert_eq!(path.bits(), &[true, false, true]);
/// assert_eq!(path.destination(), 5);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BaselinePath {
    bits: Vec<bool>,
}

impl BaselinePath {
    /// Computes the turn bits from a source's fanout root to `dest` in an
    /// `n`-leaf tree. The most significant destination bit decides the first
    /// (root) turn.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 2, or `dest >= n`.
    #[must_use]
    pub fn to_destination(n: usize, dest: usize) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "fanout tree size must be a power of two >= 2, got {n}"
        );
        assert!(dest < n, "destination {dest} out of range for size {n}");
        let levels = n.trailing_zeros();
        let bits = (0..levels)
            .map(|level| dest >> (levels - 1 - level) & 1 == 1)
            .collect();
        BaselinePath { bits }
    }

    /// The per-level turn bits, root first.
    #[must_use]
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// The turn at fanout level `level` (`true` = bottom output).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn turn(&self, level: u32) -> bool {
        self.bits[level as usize]
    }

    /// Reconstructs the destination index encoded by the path.
    #[must_use]
    pub fn destination(&self) -> usize {
        self.bits
            .iter()
            .fold(0usize, |acc, &bit| (acc << 1) | bit as usize)
    }

    /// Number of bits (= fanout levels).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` if the path is empty (degenerate 1-leaf tree).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_bits_roundtrip() {
        for symbol in RouteSymbol::ALL {
            assert_eq!(RouteSymbol::from_bits(symbol.to_bits()), symbol);
        }
    }

    #[test]
    fn symbol_from_bits_masks_high_bits() {
        assert_eq!(RouteSymbol::from_bits(0b111), RouteSymbol::Both);
        assert_eq!(RouteSymbol::from_bits(0b100), RouteSymbol::Drop);
    }

    #[test]
    fn symbol_port_flags() {
        assert!(RouteSymbol::Top.wants_top() && !RouteSymbol::Top.wants_bottom());
        assert!(!RouteSymbol::Bottom.wants_top() && RouteSymbol::Bottom.wants_bottom());
        assert!(RouteSymbol::Both.wants_top() && RouteSymbol::Both.wants_bottom());
        assert!(!RouteSymbol::Drop.wants_top() && !RouteSymbol::Drop.wants_bottom());
        assert_eq!(RouteSymbol::Both.copy_count(), 2);
        assert_eq!(RouteSymbol::Drop.copy_count(), 0);
    }

    #[test]
    fn symbol_from_ports_matches_flags() {
        for symbol in RouteSymbol::ALL {
            assert_eq!(
                RouteSymbol::from_ports(symbol.wants_top(), symbol.wants_bottom()),
                symbol
            );
        }
    }

    #[test]
    fn header_defaults_to_drop_everywhere() {
        let header = RouteHeader::for_tree(8);
        assert_eq!(header.node_count(), 7);
        assert_eq!(header.levels(), 3);
        assert!(header.iter().all(|(_, _, s)| s.is_drop()));
        assert_eq!(header.active_nodes(), 0);
    }

    #[test]
    fn header_set_and_get() {
        let mut header = RouteHeader::for_tree(8);
        header.set(1, 1, RouteSymbol::Top);
        header.set(2, 3, RouteSymbol::Both);
        assert_eq!(header.symbol(1, 1), RouteSymbol::Top);
        assert_eq!(header.symbol(2, 3), RouteSymbol::Both);
        assert_eq!(header.active_nodes(), 2);
    }

    #[test]
    fn header_iter_covers_every_slot_once() {
        let header = RouteHeader::for_tree(16);
        let slots: Vec<(u32, usize)> = header.iter().map(|(l, i, _)| (l, i)).collect();
        assert_eq!(slots.len(), 15);
        let mut dedup = slots.clone();
        dedup.dedup();
        assert_eq!(dedup, slots);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn header_rejects_non_power_of_two() {
        let _ = RouteHeader::for_tree(6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn header_rejects_bad_index() {
        let header = RouteHeader::for_tree(8);
        let _ = header.symbol(1, 2);
    }

    #[test]
    fn reset_for_tree_matches_fresh_header() {
        let mut header = RouteHeader::for_tree(16);
        header.set(3, 5, RouteSymbol::Both);
        header.reset_for_tree(8);
        assert_eq!(header, RouteHeader::for_tree(8));
        header.reset_for_tree(16);
        assert_eq!(header, RouteHeader::for_tree(16));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn reset_for_tree_rejects_non_power_of_two() {
        let mut header = RouteHeader::for_tree(8);
        header.reset_for_tree(3);
    }

    #[test]
    fn baseline_path_known_values() {
        // dest 5 = 0b101 in an 8-leaf tree: bottom, top, bottom.
        let path = BaselinePath::to_destination(8, 5);
        assert_eq!(path.bits(), &[true, false, true]);
        assert_eq!(path.len(), 3);
        assert!(path.turn(0));
        assert!(!path.turn(1));
    }

    #[test]
    fn baseline_path_is_three_bits_for_8x8_and_four_for_16x16() {
        assert_eq!(BaselinePath::to_destination(8, 0).len(), 3);
        assert_eq!(BaselinePath::to_destination(16, 0).len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn baseline_path_rejects_bad_destination() {
        let _ = BaselinePath::to_destination(8, 8);
    }

    #[test]
    fn baseline_path_roundtrips() {
        for levels in 1u32..7 {
            let n = 1usize << levels;
            for dest in 0..n {
                let path = BaselinePath::to_destination(n, dest);
                assert_eq!(path.destination(), dest);
                assert_eq!(path.len() as u32, levels);
            }
        }
    }

    #[test]
    fn header_set_is_local() {
        for levels in 1u32..6 {
            let n = 1usize << levels;
            for seed in 0u64..64 {
                let mut header = RouteHeader::for_tree(n);
                let level = (seed % levels as u64) as u32;
                let index = (seed / 7) as usize % (1usize << level);
                header.set(level, index, RouteSymbol::Both);
                let active: Vec<_> = header
                    .iter()
                    .filter(|(_, _, s)| !s.is_drop())
                    .map(|(l, i, _)| (l, i))
                    .collect();
                assert_eq!(active, vec![(level, index)]);
            }
        }
    }
}
