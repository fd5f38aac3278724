//! The MoT channel table is a file format: a fault plan addresses
//! channels by number (`stall:3:2:500` is channel 3), so every recorded
//! plan depends on the order ids are handed out in. This test pins that
//! order against a table computed from the tree arithmetic alone — flat
//! node indices in closed form, no walk of the builder's loop.
//!
//! Sources come first (source `s`'s channel is `s`, into its fanout
//! root), then every fanout node's two outputs in flat order, top then
//! bottom, then every fanin node's output in flat order. A node
//! `(tree, level, index)` of either kind has flat index
//! `tree · (n − 1) + 2^level − 1 + index`; fanin levels count from the
//! root at the sink.
//!
//! The channel ends do not say which of a fanin node's two inputs a
//! channel enters, so a recorded run pins that too: a flit from source
//! `s` enters a fanin node on level `l` through input bit
//! `levels − 1 − l` of `s`.

use asynoc::telemetry::{Action, Detail, RecordSink, Recorder, Site, TraceRecord};
use asynoc::{drive, Architecture, Benchmark, MotNode, MotSize, Network, NetworkConfig, Substrate};
use asynoc_engine::{NodeRef, RunConfig};

/// The flat index of node `(tree, level, index)`, fanout and fanin alike.
fn flat(n: usize, tree: usize, level: usize, index: usize) -> usize {
    tree * (n - 1) + (1 << level) - 1 + index
}

fn pinned(n: usize) {
    let size = MotSize::new(n).expect("a power of two");
    let levels = size.levels() as usize;
    let net = Network::new(NetworkConfig::new(size, Architecture::OptHybridSpeculative))
        .expect("a preset builds");
    let netlist = net.netlist();
    let ends = |channel: usize| {
        let ends = netlist.channels[channel];
        (ends.upstream, ends.downstream)
    };
    let fanout = |tree, level, index| NodeRef::Node(MotNode::Fanout(flat(n, tree, level, index)));
    let fanin = |tree, level, index| NodeRef::Node(MotNode::Fanin(flat(n, tree, level, index)));
    let fanout_outputs = n + 2 * n * (n - 1);

    for source in 0..n {
        assert_eq!(
            netlist.source_channel[source], source,
            "{n}x{n}: source {source}"
        );
        assert_eq!(
            ends(source),
            (NodeRef::Source(source), fanout(source, 0, 0)),
            "{n}x{n}: inject of source {source}"
        );
    }
    for tree in 0..n {
        for level in 0..levels {
            for index in 0..1 << level {
                for port in 0..2 {
                    let channel = n + 2 * flat(n, tree, level, index) + port;
                    let child = 2 * index + port;
                    // A leaf output for destination `child` enters that
                    // destination's fanin leaf covering `tree`.
                    let downstream = if level + 1 < levels {
                        fanout(tree, level + 1, child)
                    } else {
                        fanin(child, levels - 1, tree / 2)
                    };
                    assert_eq!(
                        ends(channel),
                        (fanout(tree, level, index), downstream),
                        "{n}x{n}: output {port} of fanout s{tree}:{level}.{index}"
                    );
                }
                let channel = fanout_outputs + flat(n, tree, level, index);
                let downstream = if level == 0 {
                    NodeRef::Sink(tree)
                } else {
                    fanin(tree, level - 1, index / 2)
                };
                assert_eq!(
                    ends(channel),
                    (fanin(tree, level, index), downstream),
                    "{n}x{n}: output of fanin d{tree}:{level}.{index}"
                );
            }
        }
    }
    let channels = fanout_outputs + n * (n - 1);
    assert_eq!(netlist.channels.len(), channels, "{n}x{n}");
    assert_eq!(net.fault_domain().channels, channels, "{n}x{n}");
    assert_eq!(net.fault_domain().endpoints, n, "{n}x{n}");
}

#[test]
fn channel_ids_follow_the_documented_order() {
    for n in [2, 4, 8, 16] {
        pinned(n);
    }
}

/// Counts fanin forwards whose granted input is not the one the
/// forwarded flit's source enters through.
struct InputSlots {
    levels: usize,
    forwards: u64,
    misplaced: u64,
}

impl RecordSink for InputSlots {
    fn on_record(&mut self, record: &TraceRecord, _in_window: bool) {
        if let (Action::Forward, Site::Fanin { level, .. }, Detail::Input(input)) =
            (record.action, record.site, record.detail)
        {
            let bit = self.levels - 1 - level as usize;
            self.forwards += 1;
            self.misplaced += u64::from((record.src >> bit) & 1 != input as u64);
        }
    }
}

#[test]
fn a_fanin_input_is_the_half_of_the_source_span_it_serves() {
    for n in [2, 4, 8, 16] {
        let size = MotSize::new(n).expect("a power of two");
        let config = NetworkConfig::new(size, Architecture::OptHybridSpeculative).with_seed(5);
        let net = Network::new(config).expect("a preset builds");
        let mut slots = InputSlots {
            levels: size.levels() as usize,
            forwards: 0,
            misplaced: 0,
        };
        let mut recorder = Recorder::new(net.site_of(), vec![&mut slots]);
        let run = RunConfig::quick(Benchmark::UniformRandom, 0.2);
        drive(&net, &run, &mut [&mut recorder], None).expect("the run succeeds");
        drop(recorder);
        assert!(slots.forwards > 0, "{n}x{n}: no fanin forwarded");
        assert_eq!(slots.misplaced, 0, "{n}x{n}: of {}", slots.forwards);
    }
}
