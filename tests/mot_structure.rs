//! The paper's structure, read off the netlist the engine runs: a
//! Mesh-of-Trees is one fanout tree per source and one fanin tree per
//! sink, joined leaf to leaf. A walk over every channel of every size
//! from 2×2 to 64×64 proves what that means for the wiring:
//!
//! - every channel runs from a sender (source or node) to a receiver
//!   (node or sink), and each source launches into exactly its own
//!   injection channel;
//! - only fanin nodes have two upstream channels, only fanout nodes two
//!   downstream ones (sources and sinks one each way);
//! - every (source, sink) pair is joined by exactly one path, of
//!   2·log₂N + 1 channels: the injection channel, log₂N fanout outputs
//!   and log₂N fanin outputs.
//!
//! Paths are counted per source by one sweep of the DAG in topological
//! order, so the walk never enumerates them.

use asynoc::{Architecture, MotNode, MotSize, Network, NetworkConfig, Substrate};
use asynoc_engine::NodeRef;

/// Upstream and downstream channel counts of a vertex.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Degree {
    upstream: usize,
    downstream: usize,
}

fn walk(n: usize, arch: Architecture) {
    let size = MotSize::new(n).expect("a power of two");
    let net = Network::new(NetworkConfig::new(size, arch)).expect("a preset builds");
    let netlist = net.netlist();
    let (fanouts, fanins) = (size.total_fanout_nodes(), size.total_fanin_nodes());
    // Vertices: sources, sinks, fanout nodes, fanin nodes.
    let vertices = 2 * n + fanouts + fanins;
    let vertex = |end: NodeRef<MotNode>| match end {
        NodeRef::Source(s) => s,
        NodeRef::Sink(d) => n + d,
        NodeRef::Node(MotNode::Fanout(flat)) => 2 * n + flat,
        NodeRef::Node(MotNode::Fanin(flat)) => 2 * n + fanouts + flat,
    };

    let mut degree = vec![Degree::default(); vertices];
    let mut downstream: Vec<Vec<usize>> = vec![Vec::new(); vertices];
    for (channel, ends) in netlist.channels.iter().enumerate() {
        assert!(
            !matches!(ends.upstream, NodeRef::Sink(_)),
            "{n}x{n}: channel {channel} is sent into by a sink"
        );
        assert!(
            !matches!(ends.downstream, NodeRef::Source(_)),
            "{n}x{n}: channel {channel} is received by a source"
        );
        if let NodeRef::Source(s) = ends.upstream {
            assert_eq!(netlist.source_channel[s], channel, "{n}x{n}: source {s}");
        }
        let (from, to) = (vertex(ends.upstream), vertex(ends.downstream));
        degree[from].downstream += 1;
        degree[to].upstream += 1;
        downstream[from].push(to);
    }

    let expected = |v: usize| match v {
        v if v < 2 * n => Degree {
            upstream: usize::from(v >= n),
            downstream: usize::from(v < n),
        },
        // A fanout node takes one channel and drives two.
        v if v < 2 * n + fanouts => Degree {
            upstream: 1,
            downstream: 2,
        },
        // A fanin node arbitrates two channels onto one.
        _ => Degree {
            upstream: 2,
            downstream: 1,
        },
    };
    for (v, &got) in degree.iter().enumerate() {
        assert_eq!(got, expected(v), "{n}x{n}: vertex {v}");
    }

    // One topological order of the whole DAG (Kahn), shared by every
    // source's sweep.
    let mut pending: Vec<usize> = degree.iter().map(|d| d.upstream).collect();
    let mut order: Vec<usize> = (0..n).collect();
    let mut next = 0;
    while let Some(&v) = order.get(next) {
        next += 1;
        for &w in &downstream[v] {
            pending[w] -= 1;
            if pending[w] == 0 {
                order.push(w);
            }
        }
    }
    assert_eq!(order.len(), vertices, "{n}x{n}: the netlist has a cycle");

    let hops = 2 * size.levels() as usize + 1;
    for source in 0..n {
        // Paths from `source` into each vertex, and their channel count
        // (every path into a vertex must agree on it).
        let mut paths = vec![0u64; vertices];
        let mut length = vec![0usize; vertices];
        paths[source] = 1;
        for &v in &order {
            if paths[v] == 0 {
                continue;
            }
            for &w in &downstream[v] {
                if paths[w] > 0 {
                    assert_eq!(length[w], length[v] + 1, "{n}x{n}: src{source} into {w}");
                }
                paths[w] += paths[v];
                length[w] = length[v] + 1;
            }
        }
        for sink in 0..n {
            assert_eq!(
                (paths[n + sink], length[n + sink]),
                (1, hops),
                "{n}x{n}: src{source} -> D{sink}"
            );
        }
    }
}

#[test]
fn every_source_reaches_every_sink_by_one_path_through_its_trees() {
    // The wiring is the placement's to keep, whatever the placement.
    let archs = Architecture::ALL.iter().cycle();
    for (n, &arch) in [2, 4, 8, 16, 32, 64].into_iter().zip(archs) {
        walk(n, arch);
    }
}
