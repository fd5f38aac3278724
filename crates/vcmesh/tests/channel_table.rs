//! The mesh channel table is a file format: a fault plan addresses
//! channels by number (`stall:3:2:500` is channel 3), so every recorded
//! plan depends on the order ids are handed out in. This test pins that
//! order for both routers against a table computed from [`MeshSize`]
//! alone — prefix sums of router degrees, no walk of the builder's loop.
//!
//! Per router, row-major: the north, south, east, west links that exist
//! (each `per_link` channels: the wormhole's one data channel; the VC
//! mesh's `VC_COUNT` data then `VC_COUNT` credit channels, the credit
//! ones running neighbour → router), then inject, then eject.

use asynoc_engine::{NodeRef, Substrate};
use asynoc_mesh::{MeshConfig, MeshNetwork, MeshSize};
use asynoc_vcmesh::{VcMeshConfig, VcMeshNetwork, VC_COUNT};

/// The neighbour of `(x, y)` through ports N, S, E, W, where one exists.
fn neighbours(size: MeshSize, x: usize, y: usize) -> [Option<usize>; 4] {
    [
        (y > 0).then(|| size.index(x, y - 1)),
        (y + 1 < size.rows()).then(|| size.index(x, y + 1)),
        (x + 1 < size.cols()).then(|| size.index(x + 1, y)),
        (x > 0).then(|| size.index(x - 1, y)),
    ]
}

/// Directed links leaving the routers that precede `(x, y)` in row-major
/// order, in closed form.
fn links_before(size: MeshSize, x: usize, y: usize) -> usize {
    let (cols, rows) = (size.cols(), size.rows());
    let vertical = |row: usize| usize::from(row > 0) + usize::from(row + 1 < rows);
    let full_rows: usize = (0..y)
        .map(|row| cols * vertical(row) + 2 * (cols - 1))
        .sum();
    // In the partial row every router west of `x` has an east link and
    // all but the first a west one.
    full_rows + x * vertical(y) + x + x.saturating_sub(1)
}

fn pinned<S: Substrate<Node = usize>>(
    net: &S,
    size: MeshSize,
    per_link: usize,
    runs_backward: impl Fn(usize) -> bool,
) {
    let netlist = net.netlist();
    let ends = |channel: usize| {
        let ends = netlist.channels[channel];
        (ends.upstream, ends.downstream)
    };
    for r in 0..size.endpoints() {
        let (x, y) = size.coords(r);
        let first = links_before(size, x, y) * per_link + 2 * r;
        let mut next = first;
        for neighbour in neighbours(size, x, y).into_iter().flatten() {
            for k in 0..per_link {
                let (here, there) = (NodeRef::Node(r), NodeRef::Node(neighbour));
                let expected = if runs_backward(k) {
                    (there, here)
                } else {
                    (here, there)
                };
                assert_eq!(ends(next), expected, "{size}: channel {next} of router {r}");
                next += 1;
            }
        }
        assert_eq!(
            ends(next),
            (NodeRef::Source(r), NodeRef::Node(r)),
            "{size}: inject of router {r}"
        );
        assert_eq!(netlist.source_channel[r], next, "{size}: source {r}");
        assert_eq!(
            ends(next + 1),
            (NodeRef::Node(r), NodeRef::Sink(r)),
            "{size}: eject of router {r}"
        );
    }
    let (cols, rows) = (size.cols(), size.rows());
    let links = 2 * (cols * (rows - 1) + rows * (cols - 1));
    let channels = links * per_link + 2 * size.endpoints();
    assert_eq!(netlist.channels.len(), channels, "{size}");
    assert_eq!(net.fault_domain().channels, channels, "{size}");
    assert_eq!(net.fault_domain().endpoints, size.endpoints(), "{size}");
}

#[test]
fn channel_ids_follow_the_documented_order_on_both_routers() {
    for (cols, rows) in [(2, 2), (4, 4), (8, 2)] {
        let size = MeshSize::new(cols, rows).expect("valid size");
        let wormhole = MeshNetwork::new(MeshConfig::new(size)).expect("mesh builds");
        pinned(&wormhole, size, 1, |_| false);
        let vc = VcMeshNetwork::new(VcMeshConfig::new(size)).expect("VC mesh builds");
        pinned(&vc, size, 2 * VC_COUNT, |k| k >= VC_COUNT);
    }
}
