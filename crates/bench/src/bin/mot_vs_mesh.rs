//! Extension experiment: variant MoT vs 2D mesh at equal endpoint count
//! (the paper's future-work topology comparison, and the \[18\]-style claim
//! that MoT can outperform meshes).
//!
//! Both fabrics connect 64 endpoints: a 64×64 variant MoT (6 fanout + 6
//! fanin levels, log-depth paths) vs an 8×8 mesh (XY wormhole routing,
//! mean ≈ 5.3 hops under uniform traffic). Multicast is parallel on the
//! MoT (OptHybridSpeculative) and serialized on the mesh (wormhole meshes
//! without VCs cannot replicate in-network safely — see `asynoc-mesh`'s
//! crate docs).
//!
//! Usage: `cargo run --release -p asynoc-bench --bin mot_vs_mesh [--seed N]`

use asynoc::{Architecture, MotSize, Network, NetworkConfig, RunConfig};
use asynoc_kernel::Duration;
use asynoc_mesh::{MeshConfig, MeshNetwork, MeshSize};
use asynoc_stats::Phases;
use asynoc_traffic::Benchmark;

fn main() {
    let seed = std::env::args()
        .skip_while(|a| a != "--seed")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(42u64);
    let phases = Phases::new(Duration::from_ns(200), Duration::from_ns(1600));

    let mot = Network::new(
        NetworkConfig::new(
            MotSize::new(64).expect("64 is valid"),
            Architecture::OptHybridSpeculative,
        )
        .with_seed(seed),
    )
    .expect("valid config");
    let mesh = MeshNetwork::new(
        MeshConfig::new(MeshSize::new(8, 8).expect("8x8 is valid")).with_seed(seed),
    )
    .expect("valid config");

    println!("64 endpoints: 64x64 variant MoT (OptHybridSpeculative) vs 8x8 XY-wormhole mesh");
    println!();
    println!(
        "{:<18} {:<8} {:>10} {:>14} {:>14} {:>10}",
        "benchmark", "fabric", "load", "mean (ns)", "p99 (ns)", "accepted"
    );
    println!("{}", "-".repeat(80));

    for benchmark in [
        Benchmark::UniformRandom,
        Benchmark::Shuffle,
        Benchmark::Multicast10,
    ] {
        for load in [0.1f64, 0.3] {
            let mot_run = RunConfig::new(benchmark, load)
                .expect("positive rate")
                .with_phases(phases);
            let mot_report = mot.run(&mot_run).expect("MoT run succeeds");
            let mesh_report = mesh
                .run(benchmark, load, phases)
                .expect("mesh run succeeds");

            for (fabric, mean, p99, accepted) in [
                (
                    "MoT",
                    mot_report.latency.mean(),
                    mot_report.latency.p99(),
                    mot_report.acceptance(),
                ),
                (
                    "mesh",
                    mesh_report.latency.mean(),
                    mesh_report.latency.p99(),
                    mesh_report.acceptance(),
                ),
            ] {
                println!(
                    "{:<18} {:<8} {:>10.1} {:>14.2} {:>14.2} {:>9.0}%",
                    benchmark.to_string(),
                    fabric,
                    load,
                    mean.map(|d| d.as_ns_f64()).unwrap_or(f64::NAN),
                    p99.map(|d| d.as_ns_f64()).unwrap_or(f64::NAN),
                    100.0 * accepted,
                );
            }
        }
        println!();
    }

    println!(
        "The MoT's log-depth paths (12 stages for 64 endpoints) give it flat, \
         low latency; the mesh pays Manhattan distance and, for multicast, \
         per-destination serialization — the gap the paper's parallel multicast \
         closes in-network."
    );
}
