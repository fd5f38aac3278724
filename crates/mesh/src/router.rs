//! Router ports, XY routing, and per-output wormhole locks.

use std::fmt;

use asynoc_packet::FlitKind;

use crate::size::MeshSize;

/// A router's coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RouterId {
    /// Column, 0-based from the west edge.
    pub x: usize,
    /// Row, 0-based from the north edge.
    pub y: usize,
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r({},{})", self.x, self.y)
    }
}

/// One of a router's five ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Port {
    /// Toward `y − 1`.
    North,
    /// Toward `y + 1`.
    South,
    /// Toward `x + 1`.
    East,
    /// Toward `x − 1`.
    West,
    /// The attached endpoint (injection on input side, ejection on output
    /// side).
    Local,
}

impl Port {
    /// All five ports, in index order.
    pub const ALL: [Port; 5] = [
        Port::North,
        Port::South,
        Port::East,
        Port::West,
        Port::Local,
    ];

    /// Dense index 0..5.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Port::North => 0,
            Port::South => 1,
            Port::East => 2,
            Port::West => 3,
            Port::Local => 4,
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Port::North => "N",
            Port::South => "S",
            Port::East => "E",
            Port::West => "W",
            Port::Local => "L",
        })
    }
}

/// Deterministic XY (dimension-order) routing: correct X first, then Y,
/// then eject. Deadlock-free on a mesh because the channel dependency
/// graph (X-channels before Y-channels) is acyclic.
///
/// # Examples
///
/// ```
/// use asynoc_mesh::{route_port, MeshSize, Port, RouterId};
///
/// let size = MeshSize::new(4, 4)?;
/// let here = RouterId { x: 1, y: 1 };
/// assert_eq!(route_port(size, here, size.index(3, 1)), Port::East);
/// assert_eq!(route_port(size, here, size.index(1, 3)), Port::South);
/// assert_eq!(route_port(size, here, size.index(1, 1)), Port::Local);
/// # Ok::<(), asynoc_mesh::MeshError>(())
/// ```
#[must_use]
pub fn route_port(size: MeshSize, here: RouterId, dest: usize) -> Port {
    let (dx, dy) = size.coords(dest);
    if here.x < dx {
        Port::East
    } else if here.x > dx {
        Port::West
    } else if here.y < dy {
        Port::South
    } else if here.y > dy {
        Port::North
    } else {
        Port::Local
    }
}

/// Per-output wormhole lock: once a header wins an output port, that port
/// belongs to the header's input until the tail passes.
#[derive(Clone, Debug, Default)]
pub struct OutputLock {
    owner: Option<usize>,
    /// Round-robin preference among contending inputs.
    prefer: usize,
}

impl OutputLock {
    /// Creates an idle lock.
    #[must_use]
    pub fn new() -> Self {
        OutputLock::default()
    }

    /// Selects which of `requesting` inputs (dense indices) may use the
    /// output, or `None`.
    #[must_use]
    pub fn select(&self, requesting: &[usize]) -> Option<usize> {
        if let Some(owner) = self.owner {
            return requesting.contains(&owner).then_some(owner);
        }
        if requesting.is_empty() {
            return None;
        }
        // Round-robin: first requesting input at or after `prefer`.
        (0..5)
            .map(|k| (self.prefer + k) % 5)
            .find(|candidate| requesting.contains(candidate))
    }

    /// Records that `input`'s flit of `kind` used the output.
    ///
    /// # Panics
    ///
    /// Panics on a wormhole violation (wrong input while locked, or a
    /// body/tail with no packet in progress).
    pub fn advance(&mut self, input: usize, kind: FlitKind) {
        assert!(input < 5, "input index {input} out of range");
        match self.owner {
            Some(owner) => {
                assert_eq!(
                    owner, input,
                    "output used by {input} while locked to {owner}"
                );
                if kind.is_tail() {
                    self.owner = None;
                    self.prefer = (input + 1) % 5;
                }
            }
            None => {
                assert!(
                    kind.is_header(),
                    "{kind} flit used an idle output (no header locked it)"
                );
                if kind.is_tail() {
                    self.prefer = (input + 1) % 5; // single-flit packet
                } else {
                    self.owner = Some(input);
                }
            }
        }
    }

    /// The input currently holding the output, if any.
    #[must_use]
    pub fn owner(&self) -> Option<usize> {
        self.owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_kernel::SimRng;

    fn size4() -> MeshSize {
        MeshSize::new(4, 4).unwrap()
    }

    #[test]
    fn xy_routes_x_first_then_y_then_ejects() {
        let (s, here) = (size4(), RouterId { x: 2, y: 2 });
        assert_eq!(route_port(s, here, s.index(3, 2)), Port::East);
        assert_eq!(route_port(s, here, s.index(0, 2)), Port::West);
        assert_eq!(route_port(s, here, s.index(2, 0)), Port::North);
        assert_eq!(route_port(s, here, s.index(2, 3)), Port::South);
        assert_eq!(route_port(s, here, s.index(2, 2)), Port::Local);
        // Off both axes: the column first.
        assert_eq!(route_port(s, here, s.index(3, 3)), Port::East);
        assert_eq!(route_port(s, here, s.index(0, 0)), Port::West);
    }

    #[test]
    fn xy_path_length_is_manhattan_distance() {
        let s = size4();
        for from in 0..16 {
            for to in 0..16 {
                let mut here = {
                    let (x, y) = s.coords(from);
                    RouterId { x, y }
                };
                let mut hops = 0;
                loop {
                    match route_port(s, here, to) {
                        Port::Local => break,
                        Port::East => here.x += 1,
                        Port::West => here.x -= 1,
                        Port::South => here.y += 1,
                        Port::North => here.y -= 1,
                    }
                    hops += 1;
                    assert!(hops <= 16, "routing loop from {from} to {to}");
                }
                assert_eq!(hops, s.hops(from, to), "path {from}->{to}");
            }
        }
    }

    #[test]
    fn lock_holds_until_tail() {
        let mut lock = OutputLock::new();
        assert_eq!(lock.select(&[2, 3]), Some(2)); // prefer starts at 0 → first ≥ 0 present
        lock.advance(2, FlitKind::Header);
        assert_eq!(lock.owner(), Some(2));
        assert_eq!(lock.select(&[3]), None, "loser waits");
        assert_eq!(lock.select(&[2, 3]), Some(2));
        lock.advance(2, FlitKind::Body);
        lock.advance(2, FlitKind::Tail);
        assert_eq!(lock.owner(), None);
        assert_eq!(lock.select(&[2, 3]), Some(3), "round robin moved past 2");
    }

    #[test]
    fn single_flit_packet_does_not_hold() {
        let mut lock = OutputLock::new();
        lock.advance(1, FlitKind::HeaderTail);
        assert_eq!(lock.owner(), None);
    }

    #[test]
    #[should_panic(expected = "while locked")]
    fn wormhole_violation_detected() {
        let mut lock = OutputLock::new();
        lock.advance(0, FlitKind::Header);
        lock.advance(1, FlitKind::Body);
    }

    #[test]
    #[should_panic(expected = "idle output")]
    fn body_without_header_detected() {
        OutputLock::new().advance(0, FlitKind::Body);
    }

    /// Round-robin never starves a persistently requesting input.
    #[test]
    fn lock_round_robin_no_starvation() {
        let mut rng = SimRng::seed_from(40);
        for _case in 0..64 {
            let len = rng.range_inclusive(1, 39);
            let mut lock = OutputLock::new();
            let mut grants_to_zero = 0;
            for _ in 0..len {
                let other = rng.index(5);
                let requesting = if other == 0 { vec![0] } else { vec![0, other] };
                let winner = lock.select(&requesting).expect("someone wins");
                lock.advance(winner, FlitKind::HeaderTail);
                if winner == 0 {
                    grants_to_zero += 1;
                }
            }
            assert!(grants_to_zero > 0, "input 0 starved");
        }
    }
}
