//! Extension experiment: scaling to larger MoT networks (the paper's
//! future work, §6), checking its §5.2(c) prediction that speculation's
//! power overhead *grows* with network size "due to wider speculative
//! regions".
//!
//! Runs the three optimized architectures on 8×8, 16×16, and 32×32
//! networks at a fixed moderate load and reports latency, power, the
//! power overhead of OptAllSpeculative over OptHybridSpeculative, and the
//! address-bit savings.
//!
//! Usage: `cargo run --release -p asynoc-bench --bin scaling
//! [--quick|--paper] [--seed N]`

use asynoc::{Architecture, Benchmark, MotSize, Network, NetworkConfig, RunConfig};
use asynoc_bench::quality_from_args;

fn main() {
    let quality = quality_from_args();
    let rate = 0.3;
    let benchmark = Benchmark::Multicast10;

    println!("Scaling study: {benchmark} at {rate} GF/s per source");
    println!();
    println!(
        "{:<6} {:<24} {:>10} {:>14} {:>12} {:>12}",
        "size", "architecture", "addr bits", "latency (ns)", "power (mW)", "throttled"
    );
    println!("{}", "-".repeat(84));

    for n in [8usize, 16, 32] {
        let size = MotSize::new(n).expect("power-of-two size");
        let mut hybrid_power = None;
        for arch in Architecture::DESIGN_SPACE {
            let network = Network::new(NetworkConfig::new(size, arch).with_seed(quality.seed))
                .expect("valid config");
            let run = RunConfig::new(benchmark, rate)
                .expect("positive rate")
                .with_phases(quality.probe_phases);
            let report = network.run(&run).expect("run succeeds");
            let latency_ns = report
                .latency
                .mean()
                .map(|d| d.as_ns_f64())
                .unwrap_or_default();
            println!(
                "{:<6} {:<24} {:>10} {:>14.2} {:>12.1} {:>12}",
                size.to_string(),
                arch.to_string(),
                network.config().spec_map().address_bits(),
                latency_ns,
                report.power.total_mw(),
                report.flits_throttled
            );
            match arch {
                Architecture::OptHybridSpeculative => hybrid_power = Some(report.power.total_mw()),
                Architecture::OptAllSpeculative => {
                    if let Some(hybrid) = hybrid_power {
                        println!(
                            "       -> OptAllSpec power overhead vs OptHybrid: {:+.1}% \
                             (paper predicts this grows with size)",
                            100.0 * (report.power.total_mw() / hybrid - 1.0)
                        );
                    }
                }
                _ => {}
            }
        }
        println!();
    }
}
