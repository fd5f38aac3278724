//! The 2-bit routing symbol of the parallel-multicast networks.
//!
//! Every *non-speculative* fanout node of a source's tree reads one
//! [`RouteSymbol`]: which of its two outputs the packet's destinations
//! demand. A node off every intended path reads [`RouteSymbol::Drop`],
//! which is how non-speculative nodes throttle the redundant copies created
//! by their speculative neighbors. A node derives its symbol from the
//! packet's destination set (`asynoc_topology::FanoutNodeId::symbol_for`);
//! the header size those symbols cost is `asynoc_topology::SpecMap::address_bits`.

use std::fmt;

/// The 2-bit routing symbol read by a non-speculative fanout node.
///
/// # Examples
///
/// ```
/// use asynoc_packet::RouteSymbol;
///
/// assert_eq!(RouteSymbol::from_ports(false, true), RouteSymbol::Bottom);
/// assert!(RouteSymbol::Both.wants_top() && RouteSymbol::Both.wants_bottom());
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
    /// All symbols, [`Drop`](RouteSymbol::Drop) first.
    pub const ALL: [RouteSymbol; 4] = [
        RouteSymbol::Drop,
        RouteSymbol::Top,
        RouteSymbol::Bottom,
        RouteSymbol::Both,
    ];

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_symbol_spells_its_ports() {
        use RouteSymbol::*;
        for (symbol, top, bottom) in [
            (Drop, false, false),
            (Top, true, false),
            (Bottom, false, true),
            (Both, true, true),
        ] {
            assert_eq!((symbol.wants_top(), symbol.wants_bottom()), (top, bottom));
            assert_eq!(RouteSymbol::from_ports(top, bottom), symbol);
            assert_eq!(symbol.is_drop(), !(top || bottom));
        }
    }
}
