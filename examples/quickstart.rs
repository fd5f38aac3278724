//! Quickstart: build the paper's headline network, run one multicast
//! benchmark, and print what happened.
//!
//! Run with: `cargo run --release --example quickstart`

use asynoc::{Architecture, Benchmark, Network, NetworkConfig, RunConfig, SimError};

fn main() -> Result<(), SimError> {
    // The paper's headline configuration: an 8x8 variant Mesh-of-Trees with
    // local speculation in a hybrid fanout network (speculative root level,
    // non-speculative levels below) and the header/tail protocol
    // optimizations of §4(c)/(d).
    let config = NetworkConfig::eight_by_eight(Architecture::OptHybridSpeculative).with_seed(7);
    let network = Network::new(config)?;

    let map = network.config().spec_map();
    println!(
        "network: 8x8 MoT, {} ({} bits of source-routing address per header)",
        map.label().expect("built from a preset"),
        map.address_bits(),
    );
    println!(
        "area: {:.0} um^2 of nodes, leaking {:.2} mW",
        network.area_um2(),
        network.leakage_mw()
    );
    println!();

    // Multicast10: every source injects 10% multicast to random destination
    // subsets, uniform-random unicast otherwise, at 0.4 flits/ns per source.
    let run = RunConfig::new(Benchmark::Multicast10, 0.4)?;
    let report = network.run(&run)?;

    println!("benchmark: {} at 0.4 GF/s per source", run.benchmark());
    println!(
        "packets measured: {} (mean latency {}, p99 {})",
        report.packets_measured,
        report.latency.mean().expect("packets were measured"),
        report.latency.p99().expect("packets were measured"),
    );
    println!("throughput: {}", report.throughput);
    println!("power: {}", report.power);
    println!(
        "speculation footprint: {} redundant flit copies throttled at non-speculative nodes",
        report.flits_throttled
    );
    Ok(())
}
