//! Node coordinates and wiring rules.
//!
//! Fanout trees route *down* (root = source, leaves = destination stubs);
//! fanin trees arbitrate *up* toward their destination root. The wiring is
//! fully determined by coordinates, so it is computed on demand rather than
//! stored:
//!
//! - fanout node *(s, l, i)* covers destinations `[i·n/2^l, (i+1)·n/2^l)`;
//!   its **top** output covers the lower half of that span, **bottom** the
//!   upper half;
//! - the leaf fanout output for destination *d* of source *s* feeds fanin
//!   tree *d* at its leaf arbitration slot for source *s*;
//! - fanin node *(d, l, i)* merges its two inputs and feeds input `i mod 2`
//!   of node *(d, l−1, i/2)*; the root feeds destination sink *d*.

use std::fmt;

use asynoc_packet::{DestSet, RouteSymbol};

use crate::size::MotSize;

/// One of a fanout node's two output channels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OutputPort {
    /// Routes toward the lower half of the node's destination span.
    Top,
    /// Routes toward the upper half of the node's destination span.
    Bottom,
}

impl OutputPort {
    /// Both ports, top first.
    pub const BOTH: [OutputPort; 2] = [OutputPort::Top, OutputPort::Bottom];

    /// Port index: top = 0, bottom = 1.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            OutputPort::Top => 0,
            OutputPort::Bottom => 1,
        }
    }

    /// Inverse of [`index`](Self::index).
    ///
    /// # Panics
    ///
    /// Panics if `index > 1`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        match index {
            0 => OutputPort::Top,
            1 => OutputPort::Bottom,
            _ => panic!("output port index {index} out of range"),
        }
    }
}

impl fmt::Display for OutputPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OutputPort::Top => "top",
            OutputPort::Bottom => "bottom",
        })
    }
}

/// Coordinates of a fanout (routing) node: source tree, level (root = 0),
/// index within the level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FanoutNodeId {
    /// The source whose private tree this node belongs to.
    pub tree: usize,
    /// Tree level; the root is level 0.
    pub level: u32,
    /// Index within the level, `0..2^level`.
    pub index: usize,
}

/// What a fanout output port connects to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FanoutChild {
    /// Another fanout node one level down.
    Node(FanoutNodeId),
    /// A fanin-tree leaf slot: the entry point of destination `dest`'s
    /// arbitration tree for packets from source `source`.
    FaninLeaf {
        /// Destination whose fanin tree is entered.
        dest: usize,
        /// Source whose slot is used.
        source: usize,
    },
}

impl FanoutNodeId {
    /// The root of `source`'s fanout tree.
    #[must_use]
    pub const fn root(source: usize) -> Self {
        FanoutNodeId {
            tree: source,
            level: 0,
            index: 0,
        }
    }

    /// Returns `true` if this node's coordinates are valid for `size`.
    #[must_use]
    pub fn is_valid(self, size: MotSize) -> bool {
        self.tree < size.n() && self.level < size.levels() && self.index < (1usize << self.level)
    }

    /// The half-open destination span `[low, high)` this node covers.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the node is invalid for `size`.
    #[must_use]
    pub fn dest_span(self, size: MotSize) -> (usize, usize) {
        debug_assert!(self.is_valid(size), "invalid fanout node {self}");
        let span = size.n() >> self.level;
        (self.index * span, (self.index + 1) * span)
    }

    /// The destination span covered by one output port.
    #[must_use]
    pub fn port_span(self, size: MotSize, port: OutputPort) -> (usize, usize) {
        let (low, high) = self.dest_span(size);
        let mid = low + (high - low) / 2;
        match port {
            OutputPort::Top => (low, mid),
            OutputPort::Bottom => (mid, high),
        }
    }

    /// The routing symbol this node reads for a packet bound to `dests`:
    /// which of its output half-spans hold a destination, and
    /// [`RouteSymbol::Drop`] when its span holds none. This is the one
    /// spelling of the paper's symbol rule — the encoder writes it into
    /// the header and the simulated node reads it from the destination set.
    #[must_use]
    pub fn symbol_for(self, size: MotSize, dests: DestSet) -> RouteSymbol {
        let (low, high) = self.dest_span(size);
        let mid = low + (high - low) / 2;
        RouteSymbol::from_ports(
            dests.intersects_range(low, mid),
            dests.intersects_range(mid, high),
        )
    }

    /// What the given output port connects to.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the node is invalid for `size`.
    #[must_use]
    pub fn child(self, size: MotSize, port: OutputPort) -> FanoutChild {
        debug_assert!(self.is_valid(size), "invalid fanout node {self}");
        let next_index = 2 * self.index + port.index();
        if self.level + 1 < size.levels() {
            FanoutChild::Node(FanoutNodeId {
                tree: self.tree,
                level: self.level + 1,
                index: next_index,
            })
        } else {
            FanoutChild::FaninLeaf {
                dest: next_index,
                source: self.tree,
            }
        }
    }

    /// Returns `true` for nodes on the last fanout level (feeding fanin
    /// trees directly).
    #[must_use]
    pub fn is_leaf_level(self, size: MotSize) -> bool {
        self.level + 1 == size.levels()
    }

    /// Flat index within the whole network, `0..size.total_fanout_nodes()`.
    /// Nodes of one tree are contiguous, in level order.
    #[must_use]
    pub fn flat_index(self, size: MotSize) -> usize {
        debug_assert!(self.is_valid(size), "invalid fanout node {self}");
        self.tree * size.fanout_nodes_per_tree() + ((1usize << self.level) - 1) + self.index
    }

    /// Inverse of [`flat_index`](Self::flat_index).
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range.
    #[must_use]
    pub fn from_flat_index(size: MotSize, flat: usize) -> Self {
        assert!(
            flat < size.total_fanout_nodes(),
            "flat fanout index {flat} out of range"
        );
        let per_tree = size.fanout_nodes_per_tree();
        let tree = flat / per_tree;
        let within = flat % per_tree;
        // within = 2^level - 1 + index  ⇒  level = floor(log2(within + 1)).
        let level = usize::BITS - 1 - (within + 1).leading_zeros();
        let index = within + 1 - (1usize << level);
        FanoutNodeId { tree, level, index }
    }

    /// Enumerates every fanout node of `size`'s network in flat-index order.
    pub fn all(size: MotSize) -> impl Iterator<Item = FanoutNodeId> {
        (0..size.total_fanout_nodes()).map(move |flat| FanoutNodeId::from_flat_index(size, flat))
    }
}

impl fmt::Display for FanoutNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fo[s{}:{}.{}]", self.tree, self.level, self.index)
    }
}

/// Coordinates of a fanin (arbitration) node: destination tree, level
/// (root = 0, adjacent to the destination sink), index within the level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaninNodeId {
    /// The destination whose arbitration tree this node belongs to.
    pub tree: usize,
    /// Tree level; the root (level 0) feeds the destination sink.
    pub level: u32,
    /// Index within the level, `0..2^level`.
    pub index: usize,
}

/// What a fanin node's single output connects to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaninParent {
    /// Another fanin node one level up (closer to the root), at the given
    /// input slot (0 or 1).
    Node {
        /// The downstream fanin node.
        id: FaninNodeId,
        /// Which of its two inputs this node drives.
        input: usize,
    },
    /// The destination sink.
    Sink {
        /// The destination index.
        dest: usize,
    },
}

impl FaninNodeId {
    /// The root of `dest`'s fanin tree (feeds the destination sink).
    #[must_use]
    pub const fn root(dest: usize) -> Self {
        FaninNodeId {
            tree: dest,
            level: 0,
            index: 0,
        }
    }

    /// The leaf fanin node and input slot that accept traffic from `source`
    /// into `dest`'s tree.
    #[must_use]
    pub fn leaf_for_source(size: MotSize, dest: usize, source: usize) -> (FaninNodeId, usize) {
        debug_assert!(dest < size.n() && source < size.n());
        (
            FaninNodeId {
                tree: dest,
                level: size.levels() - 1,
                index: source / 2,
            },
            source % 2,
        )
    }

    /// Returns `true` if this node's coordinates are valid for `size`.
    #[must_use]
    pub fn is_valid(self, size: MotSize) -> bool {
        self.tree < size.n() && self.level < size.levels() && self.index < (1usize << self.level)
    }

    /// The half-open source span `[low, high)` whose traffic funnels through
    /// this node.
    #[must_use]
    pub fn source_span(self, size: MotSize) -> (usize, usize) {
        debug_assert!(self.is_valid(size), "invalid fanin node {self}");
        let span = size.n() >> self.level;
        (self.index * span, (self.index + 1) * span)
    }

    /// Where this node's output goes.
    #[must_use]
    pub fn parent(self, size: MotSize) -> FaninParent {
        debug_assert!(self.is_valid(size), "invalid fanin node {self}");
        if self.level == 0 {
            FaninParent::Sink { dest: self.tree }
        } else {
            FaninParent::Node {
                id: FaninNodeId {
                    tree: self.tree,
                    level: self.level - 1,
                    index: self.index / 2,
                },
                input: self.index % 2,
            }
        }
    }

    /// Flat index within the whole network, `0..size.total_fanin_nodes()`.
    #[must_use]
    pub fn flat_index(self, size: MotSize) -> usize {
        debug_assert!(self.is_valid(size), "invalid fanin node {self}");
        self.tree * size.fanout_nodes_per_tree() + ((1usize << self.level) - 1) + self.index
    }

    /// Inverse of [`flat_index`](Self::flat_index).
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range.
    #[must_use]
    pub fn from_flat_index(size: MotSize, flat: usize) -> Self {
        assert!(
            flat < size.total_fanin_nodes(),
            "flat fanin index {flat} out of range"
        );
        let per_tree = size.fanout_nodes_per_tree();
        let tree = flat / per_tree;
        let within = flat % per_tree;
        let level = usize::BITS - 1 - (within + 1).leading_zeros();
        let index = within + 1 - (1usize << level);
        FaninNodeId { tree, level, index }
    }

    /// Enumerates every fanin node of `size`'s network in flat-index order.
    pub fn all(size: MotSize) -> impl Iterator<Item = FaninNodeId> {
        (0..size.total_fanin_nodes()).map(move |flat| FaninNodeId::from_flat_index(size, flat))
    }
}

impl fmt::Display for FaninNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fi[d{}:{}.{}]", self.tree, self.level, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn size8() -> MotSize {
        MotSize::new(8).unwrap()
    }

    #[test]
    fn output_port_round_trips() {
        for port in OutputPort::BOTH {
            assert_eq!(OutputPort::from_index(port.index()), port);
        }
        assert_eq!(OutputPort::Top.to_string(), "top");
        assert_eq!(OutputPort::Bottom.to_string(), "bottom");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn output_port_rejects_bad_index() {
        let _ = OutputPort::from_index(2);
    }

    #[test]
    fn root_spans_whole_network() {
        let root = FanoutNodeId::root(3);
        assert_eq!(root.dest_span(size8()), (0, 8));
        assert_eq!(root.port_span(size8(), OutputPort::Top), (0, 4));
        assert_eq!(root.port_span(size8(), OutputPort::Bottom), (4, 8));
        assert!(!root.is_leaf_level(size8()));
    }

    /// One path per source-destination pair: the turns spelled by the
    /// destination's bits, most significant first, lead from the source's
    /// root to the leaf slot of exactly that destination's fanin tree.
    #[test]
    fn the_destination_bits_are_the_one_path_to_it() {
        for levels in 1u32..7 {
            let size = MotSize::new(1usize << levels).unwrap();
            for (source, dest) in (0..size.n()).flat_map(|s| (0..size.n()).map(move |d| (s, d))) {
                let mut node = FanoutNodeId::root(source);
                for level in 0..levels {
                    let port = OutputPort::from_index(dest >> (levels - 1 - level) & 1);
                    assert_eq!(node.is_leaf_level(size), level + 1 == levels);
                    match node.child(size, port) {
                        FanoutChild::Node(next) => node = next,
                        leaf => assert_eq!(leaf, FanoutChild::FaninLeaf { dest, source }),
                    }
                }
            }
        }
        for (source, input) in [(6, 0), (7, 1)] {
            let leaf = FaninNodeId {
                tree: 3,
                level: 2,
                index: 3,
            };
            assert_eq!(
                FaninNodeId::leaf_for_source(size8(), 3, source),
                (leaf, input)
            );
        }
    }

    #[test]
    fn fanin_parent_chain_reaches_sink() {
        let size = size8();
        let (mut node, _) = FaninNodeId::leaf_for_source(size, 2, 5);
        let mut hops = 0;
        loop {
            match node.parent(size) {
                FaninParent::Node { id, input } => {
                    assert!(input < 2);
                    node = id;
                    hops += 1;
                }
                FaninParent::Sink { dest } => {
                    assert_eq!(dest, 2);
                    break;
                }
            }
        }
        assert_eq!(hops, 2); // levels 2 → 1 → 0 → sink
    }

    #[test]
    fn fanin_source_span_funnels() {
        let size = size8();
        let (leaf, _) = FaninNodeId::leaf_for_source(size, 0, 4);
        assert_eq!(leaf.source_span(size), (4, 6));
        assert_eq!(FaninNodeId::root(0).source_span(size), (0, 8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flat_index_bounds_checked() {
        let _ = FanoutNodeId::from_flat_index(size8(), 56);
    }

    #[test]
    fn flat_index_is_a_bijection_at_every_size() {
        for levels in 1u32..7 {
            let size = MotSize::new(1usize << levels).unwrap();
            for flat in 0..size.total_fanout_nodes() {
                let id = FanoutNodeId::from_flat_index(size, flat);
                assert!(id.is_valid(size));
                assert_eq!(id.flat_index(size), flat);
                let fid = FaninNodeId::from_flat_index(size, flat);
                assert!(fid.is_valid(size));
                assert_eq!(fid.flat_index(size), flat);
            }
        }
    }

    #[test]
    fn port_spans_partition_dest_span() {
        for levels in 1u32..7 {
            let size = MotSize::new(1usize << levels).unwrap();
            for flat in 0..size.total_fanout_nodes() {
                let id = FanoutNodeId::from_flat_index(size, flat);
                let (low, high) = id.dest_span(size);
                let (tlow, thigh) = id.port_span(size, OutputPort::Top);
                let (blow, bhigh) = id.port_span(size, OutputPort::Bottom);
                assert_eq!(tlow, low);
                assert_eq!(thigh, blow);
                assert_eq!(bhigh, high);
            }
        }
    }
}
