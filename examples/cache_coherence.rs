//! Cache-coherence invalidation traffic — the workload the paper's
//! introduction motivates.
//!
//! In an invalidation-based snoopy protocol over the MoT system of the
//! paper's Figure 1, a write by one processor multicasts invalidations to
//! the sharers' caches. The Token protocol the paper cites sees 52.4 % of
//! injected traffic as multicast. This example compares how the serial
//! baseline, the simple parallel-multicast network, and the hybrid
//! local-speculation network handle a synthetic invalidation storm: each
//! "writer" periodically invalidates a random sharer set while background
//! read traffic (unicast) flows.
//!
//! We approximate the storm with the paper's `Multicast_static` benchmark
//! (three multicast-only writers, five unicast readers) and report the
//! invalidation round-trip proxy: the time until *every* sharer has seen
//! the invalidation header.
//!
//! Run with: `cargo run --release --example cache_coherence`

use asynoc::{Architecture, Benchmark, Network, NetworkConfig, RunConfig, SimError};

fn main() -> Result<(), SimError> {
    println!("Invalidation storm: 3 writers multicast invalidates, 5 readers do unicast");
    println!("(Multicast_static at 0.35 GF/s per source, 8x8 MoT)");
    println!();
    println!(
        "{:<26} {:>14} {:>14} {:>14} {:>12}",
        "network", "mean inval", "p99 inval", "max inval", "power (mW)"
    );
    println!("{}", "-".repeat(84));

    for architecture in [
        Architecture::Baseline,
        Architecture::BasicNonSpeculative,
        Architecture::OptHybridSpeculative,
    ] {
        let network = Network::new(NetworkConfig::eight_by_eight(architecture).with_seed(2024))?;
        let run = RunConfig::new(Benchmark::MulticastStatic, 0.35)?;
        let report = network.run(&run)?;
        println!(
            "{:<26} {:>14} {:>14} {:>14} {:>12.1}",
            architecture.to_string(),
            report.latency.mean().expect("packets measured").to_string(),
            report.latency.p99().expect("packets measured").to_string(),
            report.latency.max().expect("packets measured").to_string(),
            report.power.total_mw(),
        );
    }

    println!();
    println!(
        "The serial baseline must send one unicast invalidation per sharer, so its \
         completion time grows with sharer count; tree-based parallel multicast \
         replicates in-network, and local speculation removes route computation \
         from the replicating path."
    );
    Ok(())
}
