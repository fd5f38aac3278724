//! Multicast routing schemes on the credit-based VC mesh.
//!
//! Both schemes answer the same question a router asks when a header flit
//! reaches the front of an input FIFO: *how do I split this flit's
//! destination subset across my output ports?* The answer is a partition
//! of the subset — one piece per output branch, plus a local piece when
//! this router is itself a destination — and the router forwards one flit
//! copy per non-empty piece.
//!
//! - **Tree-based XY** groups destinations by their XY first hop, so the
//!   packet traces the XY multicast tree and forks exactly at divergence
//!   points (the scheme surveyed in arXiv 1610.00751).
//! - **Dynamic Partition Merging** (Tiwari et al., arXiv 2108.00566)
//!   additionally considers *merging* the whole partition into a single
//!   worm toward the nearest destination whenever that path overlap makes
//!   the total link count cheaper; the choice is re-evaluated at every
//!   hop. Because the tree split is always among the candidates, DPM's
//!   planned (and therefore simulated) link traversals are ≤ the tree's
//!   for the same destination set, by induction over the recursion.

use std::fmt;
use std::str::FromStr;

use asynoc_mesh::{route_port, MeshSize, Port, RouterId};
use asynoc_packet::DestSet;

/// Which multicast routing scheme the VC mesh runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum McastScheme {
    /// Tree-based XY multicast: fork at XY divergence points.
    #[default]
    XyTree,
    /// Dynamic Partition Merging: merge partitions whose paths overlap.
    Dpm,
}

impl McastScheme {
    /// The scheme's CLI spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            McastScheme::XyTree => "xy-tree",
            McastScheme::Dpm => "dpm",
        }
    }
}

impl fmt::Display for McastScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for McastScheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "xy-tree" => Ok(McastScheme::XyTree),
            "dpm" => Ok(McastScheme::Dpm),
            other => Err(format!(
                "unknown multicast scheme '{other}' (use xy-tree or dpm)"
            )),
        }
    }
}

/// The router one hop from `here` through `port` (`here` for `Local`).
///
/// # Panics
///
/// Panics (in debug builds) if the hop leaves the mesh.
#[must_use]
pub(crate) fn step(size: MeshSize, here: usize, port: Port) -> usize {
    let (x, y) = size.coords(here);
    match port {
        Port::North => size.index(x, y - 1),
        Port::South => size.index(x, y + 1),
        Port::East => size.index(x + 1, y),
        Port::West => size.index(x - 1, y),
        Port::Local => here,
    }
}

fn router_id(size: MeshSize, here: usize) -> RouterId {
    let (x, y) = size.coords(here);
    RouterId { x, y }
}

/// Splits `branch` by XY first hop from `here`; index by [`Port::index`].
/// `here` itself (if present) lands in the `Local` slot.
#[must_use]
pub fn tree_partition(size: MeshSize, here: usize, branch: DestSet) -> [DestSet; 5] {
    let at = router_id(size, here);
    let mut parts = [DestSet::EMPTY; 5];
    for dest in branch.iter() {
        parts[route_port(size, at, dest).index()].insert(dest);
    }
    parts
}

/// The planner's memo holds `2^MEMO_BITS` slots, one entry each.
const MEMO_BITS: u32 = 12;

/// One memo slot: the planned cost of delivering `rest` from `here`.
/// `rest` is never empty when planned, so the zeroed slot is vacant.
#[derive(Clone, Copy, Debug, Default)]
struct MemoEntry {
    rest: u64,
    here: u32,
    cost: u32,
}

/// The memo slot `(here, rest)` maps to.
fn memo_slot(here: usize, rest: DestSet) -> usize {
    let key = rest.bits() ^ (here as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (key.wrapping_mul(0xD6E8_FEB8_6659_FD93) >> (64 - MEMO_BITS)) as usize
}

/// Memoized Dynamic Partition Merging planner for one mesh size.
///
/// `cost(here, branch)` is the minimum number of link traversals needed to
/// deliver `branch` from `here` under DPM's two candidate moves (tree
/// split vs. merged worm); `partition` makes the matching choice.
///
/// Two tables per router, built once: the XY port masks (the tree
/// partition of every endpoint, so a split is five ANDs) and the
/// hop-distance rings (the greedy target is the lowest index of the
/// first ring that meets the remaining set). The memo is a fixed
/// direct-mapped table tagged by `(here, rest)`: a pure cache, so a
/// collision only costs a recomputation and lookups never affect
/// results.
#[derive(Debug)]
pub struct DpmPlanner {
    size: MeshSize,
    /// `ports[here][port]`: the endpoints whose XY route leaves `here`
    /// through `port` (`here` itself at `Local`).
    ports: Vec<[DestSet; 5]>,
    /// `rings[here * ring_count + d]`: the endpoints `d` hops from `here`.
    rings: Vec<DestSet>,
    ring_count: usize,
    memo: Box<[MemoEntry]>,
}

impl DpmPlanner {
    /// Creates an empty planner for `size`.
    #[must_use]
    pub fn new(size: MeshSize) -> Self {
        let n = size.endpoints();
        let every: DestSet = (0..n).collect();
        let ring_count = size.cols() + size.rows() - 1;
        let mut rings = vec![DestSet::EMPTY; n * ring_count];
        for here in 0..n {
            for dest in 0..n {
                rings[here * ring_count + size.hops(here, dest)].insert(dest);
            }
        }
        DpmPlanner {
            size,
            ports: (0..n)
                .map(|here| tree_partition(size, here, every))
                .collect(),
            rings,
            ring_count,
            memo: vec![MemoEntry::default(); 1 << MEMO_BITS].into_boxed_slice(),
        }
    }

    /// [`tree_partition`] by the port masks.
    pub(crate) fn split(&self, here: usize, branch: DestSet) -> [DestSet; 5] {
        self.ports[here].map(|mask| DestSet::from_bits(mask.bits() & branch.bits()))
    }

    /// Minimum link traversals to deliver `branch` from `here`.
    ///
    /// Terminates because every recursive call strictly decreases the
    /// pair (destination count, distance to the nearest destination):
    /// a tree split hands each subset one hop closer to all its members,
    /// and a merged worm's hop toward the greedy target shrinks the
    /// minimum distance by one.
    #[must_use]
    pub fn cost(&mut self, here: usize, branch: DestSet) -> u64 {
        let mut rest = branch;
        rest.remove(here);
        if rest.is_empty() {
            return 0;
        }
        let slot = memo_slot(here, rest);
        let entry = self.memo[slot];
        if entry.rest == rest.bits() && entry.here == here as u32 {
            return u64::from(entry.cost);
        }
        let (tree, worm) = self.candidates(here, rest);
        let best = tree.min(worm);
        self.memo[slot] = MemoEntry {
            rest: rest.bits(),
            here: here as u32,
            // At most 64 destinations × 14 hops.
            cost: best as u32,
        };
        best
    }

    /// Splits `branch` across output ports at `here`, merging the whole
    /// remainder into one worm when that is strictly cheaper than the
    /// XY tree split (ties keep the tree).
    #[must_use]
    pub fn partition(&mut self, here: usize, branch: DestSet) -> [DestSet; 5] {
        let mut parts = self.split(here, branch);
        let mut rest = branch;
        rest.remove(here);
        if rest.len() < 2 {
            return parts; // nothing to merge
        }
        let (tree, worm) = self.candidates(here, rest);
        if worm < tree {
            let merged = self.toward_nearest(here, rest);
            for port in [Port::North, Port::South, Port::East, Port::West] {
                parts[port.index()] = DestSet::EMPTY;
            }
            parts[merged.index()] = rest;
        }
        parts
    }

    /// (tree cost, worm cost) of delivering the non-local set `rest`.
    fn candidates(&mut self, here: usize, rest: DestSet) -> (u64, u64) {
        let parts = self.split(here, rest);
        let mut tree = 0u64;
        for port in [Port::North, Port::South, Port::East, Port::West] {
            let part = parts[port.index()];
            if !part.is_empty() {
                tree += 1 + self.cost(step(self.size, here, port), part);
            }
        }
        let toward = self.toward_nearest(here, rest);
        let worm = 1 + self.cost(step(self.size, here, toward), rest);
        (tree, worm)
    }

    /// The XY port toward the nearest destination of `rest` (ties broken
    /// toward the lowest index), which a merged worm heads for first.
    fn toward_nearest(&self, here: usize, rest: DestSet) -> Port {
        let rings = &self.rings[here * self.ring_count..][..self.ring_count];
        let nearest = rings
            .iter()
            .map(|ring| ring.bits() & rest.bits())
            .find(|&hit| hit != 0)
            .expect("rest is a non-empty set of endpoints")
            .trailing_zeros() as usize;
        route_port(self.size, router_id(self.size, here), nearest)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn size4() -> MeshSize {
        MeshSize::new(4, 4).unwrap()
    }

    fn set(dests: &[usize]) -> DestSet {
        dests.iter().copied().collect()
    }

    /// Walks a scheme's partitions from `source` until every destination
    /// is locally delivered, returning total link traversals.
    fn walk(size: MeshSize, dpm: Option<&mut DpmPlanner>, source: usize, dests: DestSet) -> u64 {
        let mut dpm = dpm;
        let mut frontier = vec![(source, dests)];
        let mut links = 0u64;
        let mut delivered = Vec::new();
        let mut steps = 0;
        while let Some((here, branch)) = frontier.pop() {
            steps += 1;
            assert!(steps < 10_000, "partition walk does not converge");
            let parts = match dpm.as_deref_mut() {
                Some(planner) => planner.partition(here, branch),
                None => tree_partition(size, here, branch),
            };
            let mut rebuilt = DestSet::EMPTY;
            for port in Port::ALL {
                let part = parts[port.index()];
                rebuilt = rebuilt.union(part);
                if part.is_empty() {
                    continue;
                }
                if port == Port::Local {
                    assert_eq!(part, DestSet::unicast(here), "local piece must be here");
                    delivered.push(here);
                } else {
                    links += 1;
                    frontier.push((step(size, here, port), part));
                }
            }
            assert_eq!(rebuilt, branch, "partition must be exact at {here}");
        }
        delivered.sort_unstable();
        assert_eq!(delivered, dests.iter().collect::<Vec<_>>());
        links
    }

    #[test]
    fn tree_partition_groups_by_first_hop() {
        let s = size4();
        // From router 5 = (1,1): 6=(2,1) east, 4=(0,1) west, 1=(1,0)
        // north, 13=(1,3) south, 5 itself local.
        let parts = tree_partition(s, 5, set(&[1, 4, 5, 6, 13]));
        assert_eq!(parts[Port::North.index()], set(&[1]));
        assert_eq!(parts[Port::South.index()], set(&[13]));
        assert_eq!(parts[Port::East.index()], set(&[6]));
        assert_eq!(parts[Port::West.index()], set(&[4]));
        assert_eq!(parts[Port::Local.index()], set(&[5]));
        // X-first: 10=(2,2) leaves east even though it is also south.
        let parts = tree_partition(s, 5, set(&[10]));
        assert_eq!(parts[Port::East.index()], set(&[10]));
    }

    #[test]
    fn tree_walk_matches_manhattan_union() {
        let s = size4();
        // A single destination costs exactly its hop count.
        assert_eq!(walk(s, None, 0, set(&[15])), s.hops(0, 15) as u64);
        // Two destinations sharing an XY prefix pay it once.
        let shared = walk(s, None, 0, set(&[3, 7]));
        assert_eq!(shared, 3 + 1, "prefix 0→3 shared, one extra hop to 7");
    }

    /// The nearest remaining destination (ties broken toward the lowest
    /// index), which a merged worm heads for first.
    fn greedy_target(size: MeshSize, here: usize, rest: DestSet) -> usize {
        let mut best = usize::MAX;
        let mut best_hops = usize::MAX;
        for dest in rest.iter() {
            let hops = size.hops(here, dest);
            if hops < best_hops {
                best_hops = hops;
                best = dest;
            }
        }
        best
    }

    /// The planner before its tables, kept as the reference: the same
    /// recursion, an unbounded map memo (one entry per `(here, rest)` it
    /// ever planned), the XY split by [`tree_partition`] and the greedy
    /// target by a scan.
    #[derive(Default)]
    struct ReferencePlanner {
        memo: BTreeMap<(usize, u64), u64>,
    }

    impl ReferencePlanner {
        fn cost(&mut self, size: MeshSize, here: usize, branch: DestSet) -> u64 {
            let mut rest = branch;
            rest.remove(here);
            if rest.is_empty() {
                return 0;
            }
            if let Some(&cached) = self.memo.get(&(here, rest.bits())) {
                return cached;
            }
            let (tree, worm) = self.candidates(size, here, rest);
            let best = tree.min(worm);
            self.memo.insert((here, rest.bits()), best);
            best
        }

        fn partition(&mut self, size: MeshSize, here: usize, branch: DestSet) -> [DestSet; 5] {
            let mut parts = tree_partition(size, here, branch);
            let mut rest = branch;
            rest.remove(here);
            if rest.len() < 2 {
                return parts; // nothing to merge
            }
            let (tree, worm) = self.candidates(size, here, rest);
            if worm < tree {
                let merged =
                    route_port(size, router_id(size, here), greedy_target(size, here, rest));
                for port in [Port::North, Port::South, Port::East, Port::West] {
                    parts[port.index()] = DestSet::EMPTY;
                }
                parts[merged.index()] = rest;
            }
            parts
        }

        fn candidates(&mut self, size: MeshSize, here: usize, rest: DestSet) -> (u64, u64) {
            let parts = tree_partition(size, here, rest);
            let mut tree = 0u64;
            for port in [Port::North, Port::South, Port::East, Port::West] {
                let part = parts[port.index()];
                if !part.is_empty() {
                    tree += 1 + self.cost(size, step(size, here, port), part);
                }
            }
            let toward = route_port(size, router_id(size, here), greedy_target(size, here, rest));
            let worm = 1 + self.cost(size, step(size, here, toward), rest);
            (tree, worm)
        }
    }

    /// Every router × every destination subset of at most four endpoints,
    /// on a square and a non-square mesh, through one planner per mesh
    /// (so its memo table evicts and its tag check decides hits): the
    /// tables give the reference's split, cost and partition; walking the
    /// partitions pays exactly the planned cost; and DPM never pays more
    /// links than the XY tree.
    #[test]
    fn dpm_equals_the_reference_on_every_small_destination_set() {
        for (cols, rows) in [(4, 4), (4, 2)] {
            let s = MeshSize::new(cols, rows).unwrap();
            let n = s.endpoints();
            let sets: Vec<DestSet> = (0u64..1 << n)
                .filter(|bits| bits.count_ones() <= 4)
                .map(DestSet::from_bits)
                .collect();
            let mut dpm = DpmPlanner::new(s);
            let mut reference = ReferencePlanner::default();
            for source in 0..n {
                for &branch in &sets {
                    let at = format!("{s} from {source} to {branch}");
                    assert_eq!(
                        dpm.split(source, branch),
                        tree_partition(s, source, branch),
                        "{at}"
                    );
                    let cost = dpm.cost(source, branch);
                    assert_eq!(cost, reference.cost(s, source, branch), "cost {at}");
                    assert_eq!(
                        dpm.partition(source, branch),
                        reference.partition(s, source, branch),
                        "partition {at}"
                    );
                    let tree = walk(s, None, source, branch);
                    let merged = walk(s, Some(&mut dpm), source, branch);
                    assert!(merged <= tree, "DPM ({merged}) beat by tree ({tree}) {at}");
                    assert_eq!(merged, cost, "walked links must equal planned cost {at}");
                }
            }
        }
    }

    #[test]
    fn dpm_merges_collinear_destinations() {
        let s = size4();
        let mut dpm = DpmPlanner::new(s);
        // 1=(1,0) and 14=(2,3) from 0: the tree forks east + south at the
        // source (cost 1 + 5); merging through the near destination first
        // is not cheaper here, but a chain 1=(1,0), 5=(1,1), 13=(1,3) is
        // one straight worm after the first hop.
        let chain = set(&[1, 5, 13]);
        assert_eq!(dpm.cost(0, chain), 4, "east then straight south");
        let parts = dpm.partition(1, set(&[5, 13]));
        assert_eq!(parts[Port::South.index()], set(&[5, 13]), "merged worm");
    }
}
