//! The static netlist of one network: which entity sits at each end of
//! every channel, and how the engine-managed sources and sinks behave.
//!
//! A network's channels are fixed when it is built, so a fabric states
//! its [`Netlist`] once and every run borrows it: the engine reads it in
//! place, and a [`SimModel`](crate::SimModel) keeps only what it needs to
//! fire its own nodes.

use asynoc_kernel::Duration;

/// One end of a channel: who launches into it / who consumes from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRef<N> {
    /// A traffic source (engine-managed).
    Source(usize),
    /// A substrate node (model-managed).
    Node(N),
    /// A delivery endpoint (engine-managed).
    Sink(usize),
}

/// Static wiring of one channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelEnds<N> {
    /// The entity that launches flits into this channel and is woken when
    /// it frees.
    pub upstream: NodeRef<N>,
    /// The entity woken when a flit arrives at this channel's far end.
    pub downstream: NodeRef<N>,
}

/// A network's channel table and the constants of its sources and sinks.
///
/// Channel ids are indices into [`channels`](Netlist::channels); a fault
/// plan addresses channels by them, so a fabric's numbering is a file
/// format. The endpoint count is the number of sources (sources ==
/// sinks), and so are a fault domain's channel and endpoint bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct Netlist<N> {
    /// Every channel's two ends, indexed by channel id.
    pub channels: Vec<ChannelEnds<N>>,
    /// The injection channel of each source.
    pub source_channel: Vec<usize>,
    /// Flight time of a flit from a source onto its injection channel.
    pub source_wire_delay: Duration,
    /// Minimum flit spacing out of a source.
    pub source_cycle: Duration,
    /// Channel-free delay after a sink consumes a flit.
    pub sink_ack: Duration,
    /// Whether multicasts are serialized at the source into unicast
    /// clones (the paper's baseline; the wormhole mesh).
    pub serializes_multicast: bool,
}

impl<N> Netlist<N> {
    /// Number of traffic endpoints (sources == sinks).
    #[must_use]
    pub fn endpoints(&self) -> usize {
        self.source_channel.len()
    }
}
