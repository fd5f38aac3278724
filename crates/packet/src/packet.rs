//! Packet identity and immutable per-packet metadata.

use std::fmt;

use asynoc_kernel::Time;

use crate::destset::DestSet;

/// A unique, monotonically assigned packet identifier.
///
/// # Examples
///
/// ```
/// use asynoc_packet::PacketId;
///
/// let id = PacketId::new(42);
/// assert_eq!(id.as_u64(), 42);
/// assert_eq!(id.to_string(), "42");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(u64);

impl PacketId {
    /// Wraps a raw identifier.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        PacketId(raw)
    }

    /// Returns the raw identifier.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Immutable description of one packet in flight, carried by value in
/// every one of its flits (and every replicated copy of them).
///
/// `logical` links the unicast clones that the serial-multicast baseline
/// emits for one logical multicast: all clones carry the original packet's
/// id there, so latency can be accounted "up to the arrival of all headers"
/// of the logical packet, exactly as the paper measures. A packet that is
/// not a clone is its own logical packet.
///
/// The descriptor holds no route: a fanout node reads its symbol from
/// [`dests`](Self::dests) (`asynoc-topology`'s `FanoutNodeId::symbol_for`),
/// so nothing per packet lives on the heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketDescriptor {
    id: PacketId,
    logical: PacketId,
    dests: DestSet,
    created_at: Time,
    source: u32,
    flit_count: u8,
}

// A flit copies its descriptor on every launch and every channel slot
// holds one: a field added here is paid for in every channel of the table.
const _: () = assert!(std::mem::size_of::<PacketDescriptor>() <= 40);

impl PacketDescriptor {
    /// Creates a descriptor for a packet that is its own logical packet.
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty, `flit_count` is zero or `source` does
    /// not fit in 32 bits.
    #[must_use]
    pub fn new(
        id: PacketId,
        source: usize,
        dests: DestSet,
        flit_count: u8,
        created_at: Time,
    ) -> Self {
        assert!(!dests.is_empty(), "packet {id} has no destinations");
        assert!(flit_count > 0, "packet {id} must have at least one flit");
        PacketDescriptor {
            id,
            logical: id,
            dests,
            created_at,
            source: u32::try_from(source).expect("source index fits in 32 bits"),
            flit_count,
        }
    }

    /// Marks this packet as one clone of a serialized multicast group.
    #[must_use]
    pub fn with_group(mut self, group: PacketId) -> Self {
        self.logical = group;
        self
    }

    /// The packet's unique id.
    #[must_use]
    pub fn id(&self) -> PacketId {
        self.id
    }

    /// Index of the injecting source.
    #[must_use]
    pub fn source(&self) -> usize {
        self.source as usize
    }

    /// The destination set.
    #[must_use]
    pub fn dests(&self) -> DestSet {
        self.dests
    }

    /// Number of flits in the packet.
    #[must_use]
    pub fn flit_count(&self) -> u8 {
        self.flit_count
    }

    /// Injection (creation) time: the instant the packet entered the source
    /// queue. Latency is measured from here.
    #[must_use]
    pub fn created_at(&self) -> Time {
        self.created_at
    }

    /// The id used for latency grouping: the serialization group of a
    /// clone, otherwise the packet's own id.
    #[must_use]
    pub fn logical_id(&self) -> PacketId {
        self.logical
    }

    /// Returns `true` if this packet targets more than one destination.
    #[must_use]
    pub fn is_multicast(&self) -> bool {
        self.dests.len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor() -> PacketDescriptor {
        PacketDescriptor::new(
            PacketId::new(3),
            1,
            DestSet::unicast(4),
            5,
            Time::from_ps(100),
        )
    }

    #[test]
    fn accessors_return_construction_values() {
        let d = descriptor();
        assert_eq!(d.id(), PacketId::new(3));
        assert_eq!(d.source(), 1);
        assert_eq!(d.dests(), DestSet::unicast(4));
        assert_eq!(d.flit_count(), 5);
        assert_eq!(d.created_at(), Time::from_ps(100));
        assert!(!d.is_multicast());
        let both: DestSet = [1usize, 2].into_iter().collect();
        let multicast = PacketDescriptor::new(PacketId::new(1), 0, both, 5, Time::ZERO);
        assert!(multicast.is_multicast());
        assert_eq!(d.logical_id(), PacketId::new(3));
        assert!(PacketId::new(1) < PacketId::new(2) && PacketId::default() == PacketId::new(0));
    }

    #[test]
    fn group_overrides_logical_id() {
        let d = descriptor().with_group(PacketId::new(99));
        assert_eq!(d.id(), PacketId::new(3));
        assert_eq!(d.logical_id(), PacketId::new(99));
    }

    #[test]
    #[should_panic(expected = "no destinations")]
    fn rejects_empty_destinations() {
        let _ = PacketDescriptor::new(PacketId::new(1), 0, DestSet::EMPTY, 5, Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn rejects_zero_flits() {
        let _ = PacketDescriptor::new(PacketId::new(1), 0, DestSet::unicast(0), 0, Time::ZERO);
    }
}
