//! Design-space exploration beyond the paper: custom speculation maps.
//!
//! The paper evaluates three speculation placements (none, hybrid, almost
//! full) on an 8x8 MoT and sketches the wider design space for 16x16
//! (Fig 3(d)). This example walks *every* legal per-level speculation map
//! for an 8x8 network — the leaf level must stay non-speculative — and
//! reports latency, header address bits, and leakage for each, showing the
//! power/performance/coding trade-off surface the paper describes.
//!
//! Run with: `cargo run --release --example design_space`

use asynoc::{
    Architecture, Benchmark, Duration, MotSize, Network, NetworkConfig, Phases, RunConfig,
    SimError, SpecMap,
};

fn main() -> Result<(), SimError> {
    let size = MotSize::new(8)?;
    println!("All legal 8x8 speculation maps (levels: root,mid,leaf — leaf is always non-spec)");
    println!();
    println!(
        "{:<18} {:>10} {:>14} {:>14} {:>14}",
        "map (S=spec)", "addr bits", "mean latency", "throttled", "leakage (mW)"
    );
    println!("{}", "-".repeat(74));

    // Root/mid speculation choices in the `--spec-map` grammar; every level
    // uses optimized nodes, like the paper's design-space case study.
    for text in [
        "levels:ons,ons,ons",
        "levels:osp,ons,ons",
        "levels:ons,osp,ons",
        "levels:osp,osp,ons",
    ] {
        let map = SpecMap::parse(size, text)?;
        let label: String = map
            .level_kinds()
            .iter()
            .map(|kind| if kind.is_speculative() { 'S' } else { 'n' })
            .collect();

        // Any legal placement — canonical or not — is simulated directly
        // from its validated map.
        let network = Network::new(NetworkConfig::with_spec_map(map.clone()).with_seed(5))?;
        let run = RunConfig::new(Benchmark::Multicast10, 0.35)?
            .with_phases(Phases::new(Duration::from_ns(200), Duration::from_ns(2000)));
        let report = network.run(&run)?;
        println!(
            "{:<18} {:>10} {:>14} {:>14} {:>14.2}",
            label,
            map.address_bits(),
            report.latency.mean().expect("packets measured").to_string(),
            report.flits_throttled,
            network.leakage_mw(),
        );
    }

    println!();
    println!(
        "note: the mid-level-only map (nSn) is legal but not one of the paper's \
         canonical architectures; its address header shrinks to 10 bits (two \
         speculative mid-level nodes), and its redundant copies are throttled \
         one level later than the hybrid's (Snn)."
    );
    println!();
    println!("16x16 projection (address bits per header):");
    let size16 = MotSize::new(16)?;
    for (name, arch) in [
        ("non-speculative", Architecture::OptNonSpeculative),
        ("hybrid (Fig 3d)", Architecture::OptHybridSpeculative),
        ("almost fully spec", Architecture::OptAllSpeculative),
    ] {
        let map = SpecMap::preset(arch, size16);
        println!(
            "  {:<18} {:>2} bits ({} speculative nodes per tree)",
            name,
            map.address_bits(),
            map.speculative_nodes()
        );
    }
    Ok(())
}
