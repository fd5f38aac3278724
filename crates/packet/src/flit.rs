//! Flits: the unit of flow control.
//!
//! Packets move through the network as a train of flits. Only the header
//! carries routing information; body and tail flits follow whatever channel
//! state the header set up, and the tail releases it. The paper fixes the
//! packet length at five flits (header + 3 body + tail); this module keeps
//! the length a per-packet parameter.

use std::fmt;

use crate::destset::DestSet;
use crate::packet::PacketDescriptor;

/// The role a flit plays within its packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit: carries the source-routing header.
    Header,
    /// Middle flit: payload only.
    Body,
    /// Last flit: releases channel state as it passes.
    Tail,
    /// Sole flit of a single-flit packet (header and tail at once).
    HeaderTail,
}

impl FlitKind {
    /// Returns `true` for flits that carry routing information.
    #[must_use]
    pub const fn is_header(self) -> bool {
        matches!(self, FlitKind::Header | FlitKind::HeaderTail)
    }

    /// Returns `true` for flits that close out the packet.
    #[must_use]
    pub const fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeaderTail)
    }

    /// Returns `true` for pure body flits.
    #[must_use]
    pub const fn is_body(self) -> bool {
        matches!(self, FlitKind::Body)
    }
}

impl fmt::Display for FlitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlitKind::Header => "header",
            FlitKind::Body => "body",
            FlitKind::Tail => "tail",
            FlitKind::HeaderTail => "header+tail",
        };
        f.write_str(s)
    }
}

/// One flit in flight: a plain value carrying its packet's descriptor.
///
/// Replication at a multicast branch point (or a speculative broadcast)
/// copies the flit, descriptor included.
///
/// # Examples
///
/// ```
/// use asynoc_kernel::Time;
/// use asynoc_packet::{DestSet, Flit, PacketDescriptor, PacketId};
///
/// let descriptor = PacketDescriptor::new(PacketId::new(1), 0, DestSet::unicast(5), 5, Time::ZERO);
/// let flits: Vec<Flit> = (0..5).map(|index| Flit::new(descriptor, index)).collect();
/// assert!(flits[0].kind().is_header());
/// assert!(flits[4].kind().is_tail());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Flit {
    descriptor: PacketDescriptor,
    kind: FlitKind,
    index: u8,
    branch: DestSet,
}

// Every channel slot holds one flit: see `PacketDescriptor`'s size assert.
const _: () = assert!(std::mem::size_of::<Flit>() <= 56);

impl Flit {
    /// Creates the `index`-th flit of `descriptor`'s packet.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the packet's flit count.
    #[must_use]
    pub fn new(descriptor: PacketDescriptor, index: u8) -> Self {
        let count = descriptor.flit_count();
        assert!(
            index < count,
            "flit index {index} out of range for a {count}-flit packet"
        );
        let kind = if count == 1 {
            FlitKind::HeaderTail
        } else if index == 0 {
            FlitKind::Header
        } else if index == count - 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        Flit {
            descriptor,
            kind,
            index,
            branch: descriptor.dests(),
        }
    }

    /// The packet descriptor.
    #[must_use]
    pub fn descriptor(&self) -> &PacketDescriptor {
        &self.descriptor
    }

    /// The flit's role within the packet.
    #[must_use]
    pub fn kind(&self) -> FlitKind {
        self.kind
    }

    /// The flit's position within the packet (0 = header).
    #[must_use]
    pub fn index(&self) -> u8 {
        self.index
    }

    /// The subset of the packet's destinations this copy is responsible
    /// for. Starts as the full destination set; substrates that fork a
    /// packet in-network narrow it per branch with [`Flit::with_branch`].
    #[must_use]
    pub fn branch(&self) -> DestSet {
        self.branch
    }

    /// Returns a copy of this flit carrying `branch` as its destination
    /// subset, for replication at a multicast fork point.
    #[must_use]
    pub fn with_branch(mut self, branch: DestSet) -> Flit {
        self.branch = branch;
        self
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pkt{}[{}/{} {}]",
            self.descriptor.id(),
            self.index,
            self.descriptor.flit_count(),
            self.kind
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;
    use asynoc_kernel::Time;

    fn descriptor(flits: u8) -> PacketDescriptor {
        PacketDescriptor::new(
            PacketId::new(9),
            2,
            DestSet::unicast(1),
            flits,
            Time::from_ps(10),
        )
    }

    #[test]
    fn a_train_is_header_bodies_tail_or_one_header_tail() {
        use FlitKind::*;
        for (flits, kinds) in [
            (5, &[Header, Body, Body, Body, Tail][..]),
            (2, &[Header, Tail]),
            (1, &[HeaderTail]),
        ] {
            let train: Vec<Flit> = (0..flits)
                .map(|index| Flit::new(descriptor(flits), index))
                .collect();
            assert_eq!(train.iter().map(Flit::kind).collect::<Vec<_>>(), kinds);
            assert!(train.iter().map(Flit::index).eq(0..flits));
            let (head, tail) = (train[0].kind(), train[train.len() - 1].kind());
            assert!(head.is_header() && tail.is_tail() && !head.is_body());
            assert_eq!(head.is_tail(), flits == 1);
            assert!(train
                .iter()
                .all(|f| f.kind().is_body() == (f.kind() == Body)));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flit_index_must_be_in_range() {
        let _ = Flit::new(descriptor(5), 5);
    }

    #[test]
    fn display_formats() {
        let flit = Flit::new(descriptor(5), 1);
        assert_eq!(flit.to_string(), "pkt9[1/5 body]");
    }

    #[test]
    fn branch_starts_full_and_narrows_per_copy() {
        let flit = Flit::new(descriptor(5), 0);
        assert_eq!(flit.branch(), flit.descriptor().dests());
        let narrowed = flit.with_branch(DestSet::unicast(1));
        assert_eq!(narrowed.branch(), DestSet::unicast(1));
        assert_eq!(narrowed.descriptor(), flit.descriptor());
        assert_eq!(flit.branch(), flit.descriptor().dests());
    }
}
