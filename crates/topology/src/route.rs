//! Source-routing encoders.
//!
//! The source computes every fanout node's routing symbol when it builds a
//! packet header. For a node whose destination span intersects the packet's
//! destination set, the symbol says which output half-spans are demanded
//! (`Top`/`Bottom`/`Both`); every other node keeps the default
//! [`RouteSymbol::Drop`] — and that default is precisely the throttling
//! information non-speculative nodes use to stop redundant speculative
//! copies.

use asynoc_packet::{BaselinePath, DestSet, RouteHeader, RouteSymbol};

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
    let mut header = RouteHeader::for_tree(size.n());
    multicast_route_into(size, source, dests, &mut header)?;
    Ok(header)
}

/// In-place variant of [`multicast_route`]: rewrites `header` for the new
/// packet, reusing its symbol storage so steady-state routing performs no
/// heap allocation. `header` may come from any earlier route (any tree
/// size); it is reset to `size`'s tree first.
///
/// # Errors
///
/// Returns an error if `dests` is empty or contains an index outside the
/// network, or if `source` is out of range. `header` is only modified on
/// success.
pub fn multicast_route_into(
    size: MotSize,
    source: usize,
    dests: DestSet,
    header: &mut RouteHeader,
) -> Result<(), TopologyError> {
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

    header.reset_for_tree(size.n());
    for level in 0..size.levels() {
        for index in 0..size.nodes_at_level(level) {
            let node = FanoutNodeId {
                tree: source,
                level,
                index,
            };
            let (low, high) = node.dest_span(size);
            if !dests.intersects_range(low, high) {
                continue;
            }
            let mid = low + (high - low) / 2;
            let symbol = RouteSymbol::from_ports(
                dests.intersects_range(low, mid),
                dests.intersects_range(mid, high),
            );
            header.set(level, index, symbol);
        }
    }
    Ok(())
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

    #[test]
    fn route_into_reused_header_matches_fresh() {
        let mut header = multicast_route(size8(), 0, DestSet::unicast(5)).unwrap();
        let dests: DestSet = [0usize, 3, 7].into_iter().collect();
        multicast_route_into(size8(), 2, dests, &mut header).unwrap();
        assert_eq!(header, multicast_route(size8(), 2, dests).unwrap());
        // Reuse across tree sizes too.
        let size16 = MotSize::new(16).unwrap();
        multicast_route_into(size16, 1, dests, &mut header).unwrap();
        assert_eq!(header, multicast_route(size16, 1, dests).unwrap());
    }

    fn next_rand(state: &mut u64) -> u64 {
        // SplitMix64: deterministic case generation without external crates.
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn encoder_replay_roundtrip() {
        let mut state = 0xDEAD_BEEFu64;
        for levels in 1u32..7 {
            let size = MotSize::new(1usize << levels).unwrap();
            for _case in 0..32 {
                let source = next_rand(&mut state) as usize % size.n();
                let dests = DestSet::from_bits(next_rand(&mut state)).restricted_to(0, size.n());
                if dests.is_empty() {
                    continue;
                }
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
