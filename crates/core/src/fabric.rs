//! Static network structure: nodes, channels, and their wiring.
//!
//! The fabric is the elaborated netlist of one MoT network: every fanout
//! and fanin node instance (with its [`FanoutKind`]), every bundled-data
//! channel, and who is upstream/downstream of each channel. It is built
//! once per [`crate::Network`] and never mutated; all dynamic state lives
//! in [`crate::sim`].

use asynoc_topology::{
    FaninNodeId, FaninParent, FanoutChild, FanoutKind, FanoutNodeId, MotSize, OutputPort, SpecMap,
};

/// An entity that can be woken to attempt forward progress.
///
/// Sinks are never upstream of a channel, so they do not appear here;
/// delivery endpoints exist only as [`Downstream::Sink`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Entity {
    /// Source `s` (drains its injection queue).
    Source(usize),
    /// Fanout node by flat index.
    Fanout(usize),
    /// Fanin node by flat index.
    Fanin(usize),
}

/// The receiving end of a channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Downstream {
    /// A fanout node's single input.
    Fanout(usize),
    /// One of a fanin node's two inputs.
    Fanin {
        /// Flat fanin node index.
        flat: usize,
        /// Input slot, 0 or 1.
        input: usize,
    },
    /// A destination sink.
    Sink(usize),
}

/// One bundled-data channel's static wiring.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChannelWiring {
    /// Entity to wake when the channel frees.
    pub upstream: Entity,
    /// Where launched flits arrive.
    pub downstream: Downstream,
}

/// The elaborated structure of one network.
#[derive(Clone, Debug)]
pub(crate) struct Fabric {
    pub size: MotSize,
    /// Whether multicasts are serialized into unicast clones at the source.
    pub serializes_multicast: bool,
    /// Node kind per flat fanout index.
    pub fanout_kind: Vec<FanoutKind>,
    /// Coordinates per flat fanout index (for route-symbol lookup).
    pub fanout_coords: Vec<FanoutNodeId>,
    /// Input channel per flat fanout index.
    pub fanout_input: Vec<usize>,
    /// Output channels (top, bottom) per flat fanout index.
    pub fanout_out: Vec<[usize; 2]>,
    /// Input channels per flat fanin index.
    pub fanin_input: Vec<[usize; 2]>,
    /// Output channel per flat fanin index.
    pub fanin_out: Vec<usize>,
    /// Channel from each source into its fanout root.
    pub source_out: Vec<usize>,
    /// All channel wiring, indexed by channel id.
    pub channels: Vec<ChannelWiring>,
}

impl Fabric {
    /// Elaborates the network a speculation placement describes.
    pub(crate) fn build(map: &SpecMap) -> Self {
        let size = map.size();
        let n = size.n();
        let per_tree = size.fanout_nodes_per_tree();
        let fanout_total = size.total_fanout_nodes();
        let fanin_total = size.total_fanin_nodes();

        let mut channels: Vec<ChannelWiring> = Vec::new();
        let mut alloc = |upstream: Entity, downstream: Downstream| -> usize {
            channels.push(ChannelWiring {
                upstream,
                downstream,
            });
            channels.len() - 1
        };

        let mut fanout_kind = Vec::with_capacity(fanout_total);
        let mut fanout_coords = Vec::with_capacity(fanout_total);
        let mut fanout_input = vec![usize::MAX; fanout_total];
        let mut fanout_out = vec![[usize::MAX; 2]; fanout_total];
        let mut fanin_input = vec![[usize::MAX; 2]; fanin_total];
        let mut fanin_out = vec![usize::MAX; fanin_total];
        let mut source_out = Vec::with_capacity(n);

        for id in FanoutNodeId::all(size) {
            fanout_kind.push(map.kind_of(id));
            fanout_coords.push(id);
        }

        // Source → fanout-root channels.
        for s in 0..n {
            let root_flat = FanoutNodeId::root(s).flat_index(size);
            let c = alloc(Entity::Source(s), Downstream::Fanout(root_flat));
            source_out.push(c);
            fanout_input[root_flat] = c;
        }

        // Fanout outputs.
        for id in FanoutNodeId::all(size) {
            let flat = id.flat_index(size);
            for port in OutputPort::BOTH {
                let downstream = match id.child(size, port) {
                    FanoutChild::Node(next) => {
                        let next_flat = next.flat_index(size);
                        Downstream::Fanout(next_flat)
                    }
                    FanoutChild::FaninLeaf { dest, source } => {
                        let (leaf, input) = FaninNodeId::leaf_for_source(size, dest, source);
                        Downstream::Fanin {
                            flat: leaf.flat_index(size),
                            input,
                        }
                    }
                };
                let c = alloc(Entity::Fanout(flat), downstream);
                fanout_out[flat][port.index()] = c;
                match downstream {
                    Downstream::Fanout(next_flat) => fanout_input[next_flat] = c,
                    Downstream::Fanin { flat: fi, input } => fanin_input[fi][input] = c,
                    Downstream::Sink(_) => unreachable!("fanout outputs never feed sinks"),
                }
            }
        }

        // Fanin outputs.
        for id in FaninNodeId::all(size) {
            let flat = id.flat_index(size);
            let downstream = match id.parent(size) {
                FaninParent::Node { id: up, input } => Downstream::Fanin {
                    flat: up.flat_index(size),
                    input,
                },
                FaninParent::Sink { dest } => Downstream::Sink(dest),
            };
            let c = alloc(Entity::Fanin(flat), downstream);
            fanin_out[flat] = c;
            if let Downstream::Fanin { flat: fi, input } = downstream {
                fanin_input[fi][input] = c;
            }
        }

        debug_assert!(fanout_input.iter().all(|&c| c != usize::MAX));
        debug_assert!(fanin_input
            .iter()
            .all(|a| a.iter().all(|&c| c != usize::MAX)));
        debug_assert_eq!(per_tree * n, fanout_total);

        Fabric {
            size,
            serializes_multicast: map.serializes_multicast(),
            fanout_kind,
            fanout_coords,
            fanout_input,
            fanout_out,
            fanin_input,
            fanin_out,
            source_out,
            channels,
        }
    }

    /// Total network leakage under a timing model, milliwatts.
    pub(crate) fn leakage_mw(&self, timing: &asynoc_nodes::TimingModel) -> f64 {
        let fanout: f64 = self
            .fanout_kind
            .iter()
            .map(|&kind| timing.leakage_mw(timing.fanout_area(kind)))
            .sum();
        let fanin = self.size.total_fanin_nodes() as f64 * timing.leakage_mw(timing.fanin_area_um2);
        fanout + fanin
    }

    /// Number of channels in the network.
    #[cfg(test)]
    pub(crate) fn channel_count(&self) -> usize {
        self.channels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_topology::Architecture;

    fn preset(arch: Architecture) -> SpecMap {
        SpecMap::preset(arch, size8())
    }

    fn size8() -> MotSize {
        MotSize::new(8).unwrap()
    }

    #[test]
    fn channel_count_8x8() {
        let fabric = Fabric::build(&preset(Architecture::Baseline));
        // 8 source channels + 56 fanout nodes × 2 outputs + 56 fanin outputs.
        assert_eq!(fabric.channel_count(), 8 + 112 + 56);
    }

    #[test]
    fn every_fanout_node_has_input_and_outputs() {
        let fabric = Fabric::build(&preset(Architecture::OptHybridSpeculative));
        for flat in 0..fabric.fanout_kind.len() {
            let input = fabric.fanout_input[flat];
            assert!(matches!(
                fabric.channels[input].downstream,
                Downstream::Fanout(f) if f == flat
            ));
            for out in fabric.fanout_out[flat] {
                assert!(matches!(
                    fabric.channels[out].upstream,
                    Entity::Fanout(f) if f == flat
                ));
            }
        }
    }

    #[test]
    fn fanin_roots_feed_sinks() {
        let fabric = Fabric::build(&preset(Architecture::Baseline));
        let mut sink_feeds = vec![0usize; 8];
        for wiring in &fabric.channels {
            if let Downstream::Sink(d) = wiring.downstream {
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
    fn kinds_follow_architecture_levels() {
        let fabric = Fabric::build(&preset(Architecture::OptAllSpeculative));
        for (flat, id) in FanoutNodeId::all(size8()).enumerate() {
            let expected = if id.level == 2 {
                FanoutKind::OptNonSpeculative
            } else {
                FanoutKind::OptSpeculative
            };
            assert_eq!(fabric.fanout_kind[flat], expected);
        }
    }

    #[test]
    fn a_preset_and_its_parsed_text_form_build_the_same_fabric() {
        for n in [8, 16] {
            let size = MotSize::new(n).unwrap();
            for arch in Architecture::ALL {
                let preset = SpecMap::preset(arch, size);
                let parsed = SpecMap::parse(size, &preset.to_string()).unwrap();
                let (a, b) = (Fabric::build(&preset), Fabric::build(&parsed));
                assert_eq!(a.fanout_kind, b.fanout_kind, "{arch} at {n}");
                assert_eq!(a.serializes_multicast, b.serializes_multicast);
                for (flat, id) in FanoutNodeId::all(size).enumerate() {
                    assert_eq!(a.fanout_kind[flat], arch.fanout_kind(size, id.level));
                }
            }
        }
    }

    #[test]
    fn per_node_overrides_land_on_their_flat_index() {
        let map =
            SpecMap::parse(size8(), "levels:ons,ons,ons;node:3.1.1=osp;node:7.0.0=osp").unwrap();
        let fabric = Fabric::build(&map);
        for (flat, id) in FanoutNodeId::all(size8()).enumerate() {
            let overridden =
                (id.tree, id.level, id.index) == (3, 1, 1) || (id.tree, id.level) == (7, 0);
            let expected = if overridden {
                FanoutKind::OptSpeculative
            } else {
                FanoutKind::OptNonSpeculative
            };
            assert_eq!(fabric.fanout_kind[flat], expected, "{id}");
        }
    }

    #[test]
    fn source_channels_point_at_roots() {
        let fabric = Fabric::build(&preset(Architecture::Baseline));
        for s in 0..8 {
            let c = fabric.source_out[s];
            assert!(matches!(fabric.channels[c].upstream, Entity::Source(src) if src == s));
            let root_flat = FanoutNodeId::root(s).flat_index(size8());
            assert!(
                matches!(fabric.channels[c].downstream, Downstream::Fanout(f) if f == root_flat)
            );
        }
    }

    #[test]
    fn leakage_depends_on_architecture_mix() {
        let timing = asynoc_nodes::TimingModel::calibrated();
        let nonspec = Fabric::build(&preset(Architecture::BasicNonSpeculative));
        let hybrid = Fabric::build(&preset(Architecture::BasicHybridSpeculative));
        // The hybrid swaps 8 large non-speculative roots for small
        // speculative ones, so it must leak less.
        assert!(hybrid.leakage_mw(&timing) < nonspec.leakage_mw(&timing));
        assert!(nonspec.leakage_mw(&timing) > 0.0);
    }

    #[test]
    fn builds_all_sizes() {
        for n in [2usize, 4, 16, 32] {
            let size = MotSize::new(n).unwrap();
            let fabric = Fabric::build(&SpecMap::preset(Architecture::OptHybridSpeculative, size));
            assert_eq!(fabric.fanout_kind.len(), n * (n - 1));
            assert_eq!(fabric.channel_count(), n + 2 * n * (n - 1) + n * (n - 1));
        }
    }
}
