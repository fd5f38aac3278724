//! Static network structure: nodes, channels, and their wiring.
//!
//! The fabric is the elaborated netlist of one MoT network: the engine's
//! [`Netlist`] — every bundled-data channel, who is upstream and
//! downstream of it, each source's channel — and one slot per fanout and
//! fanin node holding its kind and channels. One traversal of the trees
//! builds both, once per [`crate::Network`]; nothing mutates them after.
//! Every run borrows the netlist and clones the slots as its model's
//! starting state (see [`crate::sim`]).

use asynoc_engine::{ChannelEnds, Netlist, NodeRef};
use asynoc_kernel::Time;
use asynoc_nodes::{FaninState, FanoutState, TimingModel};
use asynoc_packet::DestSet;
use asynoc_topology::{
    FaninNodeId, FaninParent, FanoutChild, FanoutKind, FanoutNodeId, MotSize, OutputPort,
};

use crate::config::NetworkConfig;
use crate::sim::MotNode;

/// One fanout node, as its firing reads and writes it: its channels and
/// [`FanoutNodeId::port_masks`] (outputs top first), its kind and latch,
/// and when it may fire next.
#[derive(Clone, Debug)]
pub(crate) struct FanoutSlot {
    pub masks: [DestSet; 2],
    pub next_fire: Time,
    pub input: u32,
    pub out: [u32; 2],
    pub state: FanoutState,
}

/// One fanin node: its channels, its arbiter, and when it may fire next.
#[derive(Clone, Debug, Default)]
pub(crate) struct FaninSlot {
    pub next_fire: Time,
    pub input: [u32; 2],
    pub out: u32,
    pub arbiter: FaninState,
}

/// The elaborated structure of one network.
#[derive(Clone, Debug)]
pub(crate) struct Fabric {
    pub size: MotSize,
    /// Channel ids: sources first, then each fanout node's outputs (top,
    /// bottom) in flat order, then each fanin node's output in flat
    /// order. A fault plan addresses channels by these numbers.
    pub netlist: Netlist<MotNode>,
    /// Per flat fanout index, the node's slot before any run.
    pub fanout: Vec<FanoutSlot>,
    /// Per flat fanin index, the node's slot before any run.
    pub fanin: Vec<FaninSlot>,
}

impl Fabric {
    /// Elaborates the network a configuration's speculation placement
    /// describes, with its source and sink timing.
    pub(crate) fn build(config: &NetworkConfig) -> Self {
        let (map, timing) = (config.spec_map(), config.timing());
        let size = map.size();
        let outputs = 2 * size.total_fanout_nodes() + size.total_fanin_nodes();
        let mut channels = Vec::with_capacity(size.n() + outputs);
        let mut connect = |upstream, downstream| {
            channels.push(ChannelEnds {
                upstream,
                downstream,
            });
            u32::try_from(channels.len() - 1).expect("channel ids fit in 32 bits")
        };
        let mut fanout: Vec<FanoutSlot> = FanoutNodeId::all(size)
            .map(|id| FanoutSlot {
                masks: id.port_masks(size),
                next_fire: Time::ZERO,
                input: 0,
                out: [0; 2],
                state: FanoutState::new(map.kind_of(id)),
            })
            .collect();
        let mut fanin = vec![FaninSlot::default(); size.total_fanin_nodes()];

        // Source → fanout-root channels.
        let source_channel = (0..size.n())
            .map(|s| {
                let root = FanoutNodeId::root(s).flat_index(size);
                let channel = connect(NodeRef::Source(s), NodeRef::Node(MotNode::Fanout(root)));
                fanout[root].input = channel;
                channel as usize
            })
            .collect();

        // Fanout outputs, top then bottom.
        for id in FanoutNodeId::all(size) {
            let flat = id.flat_index(size);
            let here = NodeRef::Node(MotNode::Fanout(flat));
            for port in OutputPort::BOTH {
                let channel = match id.child(size, port) {
                    FanoutChild::Node(next) => {
                        let next = next.flat_index(size);
                        let channel = connect(here, NodeRef::Node(MotNode::Fanout(next)));
                        fanout[next].input = channel;
                        channel
                    }
                    FanoutChild::FaninLeaf { dest, source } => {
                        let (leaf, input) = FaninNodeId::leaf_for_source(size, dest, source);
                        let leaf = leaf.flat_index(size);
                        let channel = connect(here, NodeRef::Node(MotNode::Fanin(leaf)));
                        fanin[leaf].input[input] = channel;
                        channel
                    }
                };
                fanout[flat].out[port.index()] = channel;
            }
        }

        // Fanin outputs.
        for id in FaninNodeId::all(size) {
            let flat = id.flat_index(size);
            let here = NodeRef::Node(MotNode::Fanin(flat));
            let channel = match id.parent(size) {
                FaninParent::Node { id: up, input } => {
                    let up = up.flat_index(size);
                    let channel = connect(here, NodeRef::Node(MotNode::Fanin(up)));
                    fanin[up].input[input] = channel;
                    channel
                }
                FaninParent::Sink { dest } => connect(here, NodeRef::Sink(dest)),
            };
            fanin[flat].out = channel;
        }

        Fabric {
            size,
            netlist: Netlist {
                channels,
                source_channel,
                source_wire_delay: timing.wire_delay,
                source_cycle: timing.source_cycle,
                sink_ack: timing.sink_ack,
                serializes_multicast: map.serializes_multicast(),
            },
            fanout,
            fanin,
        }
    }

    /// Each fanout node's kind, by flat index.
    pub(crate) fn kinds(&self) -> impl Iterator<Item = FanoutKind> + '_ {
        self.fanout.iter().map(|slot| slot.state.kind())
    }

    /// Total network leakage under a timing model, milliwatts.
    pub(crate) fn leakage_mw(&self, timing: &TimingModel) -> f64 {
        let fanout: f64 = self
            .kinds()
            .map(|kind| timing.leakage_mw(timing.fanout_area(kind)))
            .sum();
        let fanin = self.size.total_fanin_nodes() as f64 * timing.leakage_mw(timing.fanin_area_um2);
        fanout + fanin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_topology::{Architecture, SpecMap};

    fn build(map: SpecMap) -> Fabric {
        Fabric::build(&NetworkConfig::with_spec_map(map))
    }

    fn preset(arch: Architecture) -> Fabric {
        build(SpecMap::preset(arch, size8()))
    }

    fn size8() -> MotSize {
        MotSize::new(8).unwrap()
    }

    #[test]
    fn every_node_has_its_inputs_and_outputs() {
        let fabric = preset(Architecture::OptHybridSpeculative);
        let (fanouts, fanins) = (fabric.fanout.len(), size8().total_fanin_nodes());
        let (mut fanout_in, mut fanout_out) = (vec![0; fanouts], vec![0; fanouts]);
        let (mut fanin_in, mut fanin_out) = (vec![0; fanins], vec![0; fanins]);
        for ends in &fabric.netlist.channels {
            match ends.upstream {
                NodeRef::Node(MotNode::Fanout(flat)) => fanout_out[flat] += 1,
                NodeRef::Node(MotNode::Fanin(flat)) => fanin_out[flat] += 1,
                _ => {}
            }
            match ends.downstream {
                NodeRef::Node(MotNode::Fanout(flat)) => fanout_in[flat] += 1,
                NodeRef::Node(MotNode::Fanin(flat)) => fanin_in[flat] += 1,
                _ => {}
            }
        }
        assert!(fanout_in.iter().chain(&fanin_out).all(|&count| count == 1));
        assert!(fanout_out.iter().chain(&fanin_in).all(|&count| count == 2));
        // Each slot names the channels whose ends name its node, each once.
        let ends = |channel: u32| fabric.netlist.channels[channel as usize];
        for (flat, slot) in fabric.fanout.iter().enumerate() {
            let node = NodeRef::Node(MotNode::Fanout(flat));
            assert_eq!(ends(slot.input).downstream, node);
            assert!(slot.out.iter().all(|&out| ends(out).upstream == node));
            assert_ne!(slot.out[0], slot.out[1]);
        }
        for (flat, slot) in fabric.fanin.iter().enumerate() {
            let node = NodeRef::Node(MotNode::Fanin(flat));
            assert_eq!(ends(slot.out).upstream, node);
            assert!(slot
                .input
                .iter()
                .all(|&input| ends(input).downstream == node));
            assert_ne!(slot.input[0], slot.input[1]);
        }
    }

    #[test]
    fn fanin_roots_feed_sinks() {
        let fabric = preset(Architecture::Baseline);
        let mut sink_feeds = vec![0usize; 8];
        for ends in &fabric.netlist.channels {
            if let NodeRef::Sink(d) = ends.downstream {
                sink_feeds[d] += 1;
            }
        }
        assert_eq!(
            sink_feeds,
            vec![1; 8],
            "each sink fed by exactly one channel"
        );
    }

    #[test]
    fn a_preset_and_its_parsed_text_form_build_the_same_fabric() {
        for n in [8, 16] {
            let size = MotSize::new(n).unwrap();
            for arch in Architecture::ALL {
                let preset = SpecMap::preset(arch, size);
                let parsed = SpecMap::parse(size, &preset.to_string()).unwrap();
                let (a, b) = (build(preset), build(parsed));
                assert!(a.kinds().eq(b.kinds()), "{arch} at {n}");
                assert_eq!(a.netlist, b.netlist);
                for (kind, id) in a.kinds().zip(FanoutNodeId::all(size)) {
                    assert_eq!(kind, arch.fanout_kind(size, id.level));
                }
            }
        }
    }

    #[test]
    fn per_node_overrides_land_on_their_flat_index() {
        let map =
            SpecMap::parse(size8(), "levels:ons,ons,ons;node:3.1.1=osp;node:7.0.0=osp").unwrap();
        let fabric = build(map);
        for (kind, id) in fabric.kinds().zip(FanoutNodeId::all(size8())) {
            let overridden =
                (id.tree, id.level, id.index) == (3, 1, 1) || (id.tree, id.level) == (7, 0);
            let expected = if overridden {
                FanoutKind::OptSpeculative
            } else {
                FanoutKind::OptNonSpeculative
            };
            assert_eq!(kind, expected, "{id}");
        }
    }

    #[test]
    fn source_channels_point_at_roots() {
        let fabric = preset(Architecture::Baseline);
        assert_eq!(fabric.netlist.endpoints(), 8);
        for s in 0..8 {
            let ends = fabric.netlist.channels[fabric.netlist.source_channel[s]];
            let root = FanoutNodeId::root(s).flat_index(size8());
            assert_eq!(ends.upstream, NodeRef::Source(s));
            assert_eq!(ends.downstream, NodeRef::Node(MotNode::Fanout(root)));
        }
    }

    #[test]
    fn leakage_depends_on_architecture_mix() {
        let timing = TimingModel::calibrated();
        let nonspec = preset(Architecture::BasicNonSpeculative);
        let hybrid = preset(Architecture::BasicHybridSpeculative);
        // The hybrid swaps 8 large non-speculative roots for small
        // speculative ones, so it must leak less.
        assert!(hybrid.leakage_mw(&timing) < nonspec.leakage_mw(&timing));
        assert!(nonspec.leakage_mw(&timing) > 0.0);
    }

    #[test]
    fn builds_all_sizes() {
        for n in [2usize, 4, 8, 16, 32] {
            let size = MotSize::new(n).unwrap();
            let fabric = build(SpecMap::preset(Architecture::OptHybridSpeculative, size));
            assert_eq!(fabric.fanout.len(), n * (n - 1));
            assert_eq!(
                fabric.netlist.channels.len(),
                n + 2 * n * (n - 1) + n * (n - 1)
            );
        }
    }
}
