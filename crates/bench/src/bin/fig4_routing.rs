//! Regenerates Figure 4: unicast and multicast routing walkthroughs in the
//! hybrid fanout network — which nodes broadcast, forward, replicate, and
//! throttle.
//!
//! Usage: `cargo run -p asynoc-bench --bin fig4_routing`

use asynoc::{Architecture, DestSet, MotSize, SpecMap};
use asynoc_topology::{FanoutChild, FanoutNodeId, OutputPort};

/// Walks a packet's copies down the fanout tree, printing what every
/// visited node does. Speculative nodes broadcast (possibly creating
/// redundant copies); non-speculative nodes obey their routing symbol.
fn walk(map: &SpecMap, source: usize, dests: DestSet) {
    let size = map.size();
    let mut frontier = vec![FanoutNodeId::root(source)];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for node in frontier {
            let symbol = node.symbol_for(size, dests);
            let speculative = map.kind_of(node).is_speculative();
            let action = if speculative {
                format!("SPECULATIVE: broadcast (true route: {symbol})")
            } else if symbol.is_drop() {
                "non-speculative: THROTTLE redundant copy".to_string()
            } else {
                format!("non-speculative: forward {symbol}")
            };
            println!("  {node} -> {action}");
            let (top, bottom) = if speculative {
                (true, true)
            } else {
                (symbol.wants_top(), symbol.wants_bottom())
            };
            for (wants, port) in [(top, OutputPort::Top), (bottom, OutputPort::Bottom)] {
                if !wants {
                    continue;
                }
                match node.child(size, port) {
                    FanoutChild::Node(child) => next.push(child),
                    FanoutChild::FaninLeaf { dest, .. } => {
                        let delivered = match port {
                            OutputPort::Top => symbol.wants_top(),
                            OutputPort::Bottom => symbol.wants_bottom(),
                        };
                        debug_assert!(
                            delivered || speculative,
                            "only speculative leaves could misdeliver, and leaves are never speculative"
                        );
                        println!("    => delivered to destination D{dest}");
                    }
                }
            }
        }
        frontier = next;
    }
}

fn main() {
    let size = MotSize::new(8).expect("8 is valid");
    let map = SpecMap::preset(Architecture::OptHybridSpeculative, size);

    println!("Figure 4(a): unicast packet, source 0 -> D7, hybrid 8x8 network");
    walk(&map, 0, DestSet::unicast(7));
    println!();

    println!("Figure 4(b): multicast packet, source 0 -> {{D0, D1, D2}}, hybrid 8x8 network");
    walk(&map, 0, [0usize, 1, 2].into_iter().collect());
    println!();
    println!(
        "The speculative root always broadcasts; the copy on the wrong path is \
         throttled by the first non-speculative node it meets, confining the \
         redundant traffic to a small local region."
    );
}
