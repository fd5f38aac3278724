//! Packet identity and immutable per-packet metadata.

use std::fmt;

use asynoc_kernel::Time;

use crate::address::RouteHeader;
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

/// Immutable description of one packet in flight, shared by all its flits
/// (and all replicated copies of them).
///
/// `group` links the unicast clones that the serial-multicast baseline emits
/// for one logical multicast: all clones carry the original packet's id, so
/// latency can be accounted "up to the arrival of all headers" of the
/// logical packet, exactly as the paper measures.
#[derive(Clone, Debug)]
pub struct PacketDescriptor {
    id: PacketId,
    source: usize,
    dests: DestSet,
    route: RouteHeader,
    flit_count: u8,
    created_at: Time,
    group: Option<PacketId>,
}

impl PacketDescriptor {
    /// Creates a descriptor for a parallel (tree-routed) packet.
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty or `flit_count` is zero.
    #[must_use]
    pub fn new(
        id: PacketId,
        source: usize,
        dests: DestSet,
        route: RouteHeader,
        flit_count: u8,
        created_at: Time,
    ) -> Self {
        assert!(!dests.is_empty(), "packet {id} has no destinations");
        assert!(flit_count > 0, "packet {id} must have at least one flit");
        PacketDescriptor {
            id,
            source,
            dests,
            route,
            flit_count,
            created_at,
            group: None,
        }
    }

    /// Marks this packet as one clone of a serialized multicast group.
    #[must_use]
    pub fn with_group(mut self, group: PacketId) -> Self {
        self.group = Some(group);
        self
    }

    /// Re-initializes a recycled descriptor in place for a new packet,
    /// keeping the existing [`RouteHeader`] storage (rewrite it through
    /// [`route_mut`](Self::route_mut)). This is the allocation-free
    /// counterpart of [`new`](Self::new) used by the engine's descriptor
    /// pool.
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty or `flit_count` is zero.
    pub fn reset(
        &mut self,
        id: PacketId,
        source: usize,
        dests: DestSet,
        flit_count: u8,
        created_at: Time,
        group: Option<PacketId>,
    ) {
        assert!(!dests.is_empty(), "packet {id} has no destinations");
        assert!(flit_count > 0, "packet {id} must have at least one flit");
        self.id = id;
        self.source = source;
        self.dests = dests;
        self.flit_count = flit_count;
        self.created_at = created_at;
        self.group = group;
    }

    /// The packet's unique id.
    #[must_use]
    pub fn id(&self) -> PacketId {
        self.id
    }

    /// Index of the injecting source.
    #[must_use]
    pub fn source(&self) -> usize {
        self.source
    }

    /// The destination set.
    #[must_use]
    pub fn dests(&self) -> DestSet {
        self.dests
    }

    /// The source-routing header.
    #[must_use]
    pub fn route(&self) -> &RouteHeader {
        &self.route
    }

    /// Mutable access to the source-routing header, for rebuilding a
    /// recycled descriptor's route in place.
    #[must_use]
    pub fn route_mut(&mut self) -> &mut RouteHeader {
        &mut self.route
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

    /// The logical packet this clone belongs to (serial multicast), if any.
    #[must_use]
    pub fn group(&self) -> Option<PacketId> {
        self.group
    }

    /// The id used for latency grouping: the serialization group if present,
    /// otherwise the packet's own id.
    #[must_use]
    pub fn logical_id(&self) -> PacketId {
        self.group.unwrap_or(self.id)
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
    use crate::RouteHeader;

    fn descriptor() -> PacketDescriptor {
        PacketDescriptor::new(
            PacketId::new(3),
            1,
            DestSet::unicast(4),
            RouteHeader::for_tree(8),
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
        let mut multicast = descriptor();
        multicast.reset(PacketId::new(1), 0, both, 5, Time::ZERO, None);
        assert!(multicast.is_multicast());
        assert_eq!(d.group(), None);
        assert_eq!(d.logical_id(), PacketId::new(3));
        assert!(PacketId::new(1) < PacketId::new(2) && PacketId::default() == PacketId::new(0));
    }

    #[test]
    fn group_overrides_logical_id() {
        let d = descriptor().with_group(PacketId::new(99));
        assert_eq!(d.group(), Some(PacketId::new(99)));
        assert_eq!(d.logical_id(), PacketId::new(99));
    }

    #[test]
    #[should_panic(expected = "no destinations")]
    fn rejects_empty_destinations() {
        let _ = PacketDescriptor::new(
            PacketId::new(1),
            0,
            DestSet::EMPTY,
            RouteHeader::for_tree(8),
            5,
            Time::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn rejects_zero_flits() {
        let _ = PacketDescriptor::new(
            PacketId::new(1),
            0,
            DestSet::unicast(0),
            RouteHeader::for_tree(8),
            0,
            Time::ZERO,
        );
    }

    #[test]
    fn reset_overwrites_everything_but_route_storage() {
        let mut d = descriptor().with_group(PacketId::new(99));
        d.route_mut().set(0, 0, crate::RouteSymbol::Both);
        d.reset(
            PacketId::new(7),
            3,
            DestSet::unicast(2),
            2,
            Time::from_ps(500),
            None,
        );
        assert_eq!(d.id(), PacketId::new(7));
        assert_eq!(d.source(), 3);
        assert_eq!(d.dests(), DestSet::unicast(2));
        assert_eq!(d.flit_count(), 2);
        assert_eq!(d.created_at(), Time::from_ps(500));
        assert_eq!(d.group(), None);
        // The route is the caller's to rewrite; reset leaves it alone.
        assert_eq!(d.route().symbol(0, 0), crate::RouteSymbol::Both);
    }

    #[test]
    #[should_panic(expected = "no destinations")]
    fn reset_rejects_empty_destinations() {
        let mut d = descriptor();
        d.reset(PacketId::new(1), 0, DestSet::EMPTY, 5, Time::ZERO, None);
    }
}
