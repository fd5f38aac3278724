//! Source-routing encoders.
//!
//! The source computes every fanout node's routing symbol when it builds a
//! packet header, by the one rule [`FanoutNodeId::symbol_for`] spells: for a
//! node whose destination span intersects the packet's destination set, the
//! symbol says which output half-spans are demanded (`Top`/`Bottom`/`Both`);
//! every other node keeps [`RouteSymbol::Drop`](asynoc_packet::RouteSymbol::Drop)
//! — and that default is precisely the throttling information
//! non-speculative nodes use to stop redundant speculative copies. The
//! simulator carries no header: its nodes read the same rule from the
//! destination set.

use asynoc_packet::{BaselinePath, DestSet, RouteHeader};

use crate::error::TopologyError;
use crate::ids::FanoutNodeId;
use crate::size::MotSize;

/// Encodes the route header for a (multicast or unicast) packet from
/// `source` to `dests` in a parallel-multicast network.
///
/// The returned header has a symbol slot for every fanout node of the tree;
/// only nodes on the multicast tree carry non-`Drop` symbols.
///
/// # Errors
///
/// Returns an error if `dests` is empty or contains an index outside the
/// network, or if `source` is out of range.
///
/// # Examples
///
/// ```
/// use asynoc_packet::{DestSet, RouteSymbol};
/// use asynoc_topology::{multicast_route, MotSize};
///
/// let size = MotSize::new(8)?;
/// let dests: DestSet = [1usize, 6].into_iter().collect();
/// let header = multicast_route(size, 0, dests)?;
/// assert_eq!(header.symbol(0, 0), RouteSymbol::Both); // split at the root
/// assert_eq!(header.symbol(1, 0), RouteSymbol::Top);  // 1 is in 0..4 → top subtree
/// assert_eq!(header.symbol(1, 1), RouteSymbol::Bottom);
/// # Ok::<(), asynoc_topology::TopologyError>(())
/// ```
pub fn multicast_route(
    size: MotSize,
    source: usize,
    dests: DestSet,
) -> Result<RouteHeader, TopologyError> {
    size.check_source(source)?;
    if dests.is_empty() {
        return Err(TopologyError::EmptyDestinationSet);
    }
    if let Some(bad) = dests.iter().find(|&d| d >= size.n()) {
        return Err(TopologyError::DestinationOutOfRange {
            dest: bad,
            size: size.n(),
        });
    }
    let mut header = RouteHeader::for_tree(size.n());
    for level in 0..size.levels() {
        for index in 0..size.nodes_at_level(level) {
            let node = FanoutNodeId {
                tree: source,
                level,
                index,
            };
            header.set(level, index, node.symbol_for(size, dests));
        }
    }
    Ok(header)
}

/// Encodes the baseline per-level turn bits for a unicast packet.
///
/// # Errors
///
/// Returns an error if `source` or `dest` is outside the network.
///
/// # Examples
///
/// ```
/// use asynoc_topology::{unicast_route, MotSize};
///
/// let size = MotSize::new(8)?;
/// let path = unicast_route(size, 2, 5)?;
/// assert_eq!(path.destination(), 5);
/// # Ok::<(), asynoc_topology::TopologyError>(())
/// ```
pub fn unicast_route(
    size: MotSize,
    source: usize,
    dest: usize,
) -> Result<BaselinePath, TopologyError> {
    size.check_source(source)?;
    size.check_destination(dest)?;
    Ok(BaselinePath::to_destination(size.n(), dest))
}

/// Replays a route header from the root, returning the set of destinations
/// the header actually delivers to. Used to verify encoder correctness and
/// as the reference model in property tests.
#[must_use]
pub fn delivered_destinations(size: MotSize, source: usize, header: &RouteHeader) -> DestSet {
    let mut delivered = DestSet::new();
    let mut stack = vec![FanoutNodeId::root(source)];
    while let Some(node) = stack.pop() {
        let symbol = header.symbol(node.level, node.index);
        for (wants, port) in [
            (symbol.wants_top(), crate::ids::OutputPort::Top),
            (symbol.wants_bottom(), crate::ids::OutputPort::Bottom),
        ] {
            if !wants {
                continue;
            }
            match node.child(size, port) {
                crate::ids::FanoutChild::Node(next) => stack.push(next),
                crate::ids::FanoutChild::FaninLeaf { dest, .. } => delivered.insert(dest),
            }
        }
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_packet::RouteSymbol;

    fn size8() -> MotSize {
        MotSize::new(8).unwrap()
    }

    #[test]
    fn unicast_header_is_a_single_path() {
        let header = multicast_route(size8(), 0, DestSet::unicast(5)).unwrap();
        // 5 = 0b101: bottom, top, bottom; every node off the path throttles.
        assert_eq!(header.symbol(0, 0), RouteSymbol::Bottom);
        assert_eq!(header.symbol(1, 1), RouteSymbol::Top);
        assert_eq!(header.symbol(2, 2), RouteSymbol::Bottom);
        assert_eq!(header.active_nodes(), 3);
        assert_eq!(header.symbol(1, 0), RouteSymbol::Drop);
    }

    #[test]
    fn full_broadcast_marks_both_everywhere() {
        let all: DestSet = (0..8).collect();
        let header = multicast_route(size8(), 3, all).unwrap();
        assert!(header.iter().all(|(_, _, s)| s == RouteSymbol::Both));
    }

    #[test]
    fn paper_figure4b_multicast_example() {
        // Fig 4(b): multicast from a source to D1, D2, D3 (destinations
        // 0, 1, 2 zero-indexed as the top three leaves... we use the set
        // {0, 1, 2}): root must be Top, node (1,0) Both, etc.
        let dests: DestSet = [0usize, 1, 2].into_iter().collect();
        let header = multicast_route(size8(), 0, dests).unwrap();
        assert_eq!(header.symbol(0, 0), RouteSymbol::Top);
        assert_eq!(header.symbol(1, 0), RouteSymbol::Both);
        assert_eq!(header.symbol(2, 0), RouteSymbol::Both); // dests 0 and 1
        assert_eq!(header.symbol(2, 1), RouteSymbol::Top); // dest 2 only
        assert_eq!(header.symbol(1, 1), RouteSymbol::Drop);
    }

    #[test]
    fn route_errors() {
        assert_eq!(
            multicast_route(size8(), 0, DestSet::EMPTY),
            Err(TopologyError::EmptyDestinationSet)
        );
        assert_eq!(
            multicast_route(size8(), 8, DestSet::unicast(0)),
            Err(TopologyError::SourceOutOfRange { source: 8, size: 8 })
        );
        assert_eq!(
            multicast_route(size8(), 0, DestSet::unicast(9)),
            Err(TopologyError::DestinationOutOfRange { dest: 9, size: 8 })
        );
        assert!(unicast_route(size8(), 0, 8).is_err());
        assert!(unicast_route(size8(), 9, 0).is_err());
    }

    fn next_rand(state: &mut u64) -> u64 {
        // SplitMix64: deterministic case generation without external crates.
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The symbol rule the encoder writes and the simulated node reads
    /// delivers to exactly the destination set: every source × every
    /// non-empty destination subset up to 8 × 8, 32 random cases above.
    #[test]
    fn encoder_replay_roundtrip() {
        let mut state = 0xDEAD_BEEFu64;
        for levels in 1u32..7 {
            let size = MotSize::new(1usize << levels).unwrap();
            let n = size.n();
            let cases: Vec<(usize, DestSet)> = if n <= 8 {
                (0..n)
                    .flat_map(|s| (1..1u64 << n).map(move |bits| (s, DestSet::from_bits(bits))))
                    .collect()
            } else {
                (0..32)
                    .map(|_| {
                        let source = next_rand(&mut state) as usize % n;
                        (
                            source,
                            DestSet::from_bits(next_rand(&mut state)).restricted_to(0, n),
                        )
                    })
                    .filter(|(_, dests)| !dests.is_empty())
                    .collect()
            };
            for (source, dests) in cases {
                let header = multicast_route(size, source, dests).unwrap();
                assert_eq!(delivered_destinations(size, source, &header), dests);
            }
        }
    }

    #[test]
    fn active_nodes_bounded_by_multicast_tree() {
        let mut state = 0xCAFEu64;
        for case in 0..256 {
            let bits = if case == 0 {
                u64::MAX
            } else {
                next_rand(&mut state)
            };
            let size = size8();
            let dests = DestSet::from_bits(bits).restricted_to(0, 8);
            if dests.is_empty() {
                continue;
            }
            let header = multicast_route(size, 0, dests).unwrap();
            // The multicast tree has at most min(k·levels, n−1) nodes and at
            // least `levels` (one per level).
            let k = dests.len();
            assert!(header.active_nodes() >= size.levels() as usize);
            assert!(header.active_nodes() <= (k * size.levels() as usize).min(7));
        }
    }
}
