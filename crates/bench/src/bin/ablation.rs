//! Ablation studies for the design choices the paper (and DESIGN.md) call
//! out:
//!
//! 1. **Speculation without the speed** — local speculation's latency gain
//!    should vanish if speculative nodes are forced to the non-speculative
//!    forward latency, showing the gain comes from eliminating route
//!    computation, not from broadcasting per se.
//! 2. **Channel pre-allocation** — disabling the §4(d) body fast path
//!    (body latency = header latency) should erase most of
//!    OptNonSpeculative's throughput advantage over BasicNonSpeculative.
//! 3. **Packet length** — the header-triggered optimizations amortize over
//!    body flits, so their benefit should grow with packet length.
//!
//! Usage: `cargo run --release -p asynoc-bench --bin ablation [--quick]`

use asynoc::harness::{saturation_of, Quality};
use asynoc::{Architecture, Benchmark, Network, NetworkConfig, RunConfig, TimingModel};
use asynoc_bench::quality_from_args;

fn mean_latency_ns(network: &Network, benchmark: Benchmark, rate: f64, quality: &Quality) -> f64 {
    let run = RunConfig::new(benchmark, rate)
        .expect("positive rate")
        .with_phases(quality.probe_phases);
    let report = network.run(&run).expect("run succeeds");
    report.latency.mean().expect("packets measured").as_ns_f64()
}

fn main() {
    let quality = quality_from_args();

    // ------------------------------------------------------------------
    // Ablation 1: speculation without the speed.
    // ------------------------------------------------------------------
    println!("Ablation 1: hybrid network with slowed speculative nodes");
    let fast = Network::new(
        NetworkConfig::eight_by_eight(Architecture::BasicHybridSpeculative).with_seed(quality.seed),
    )
    .expect("valid config");
    let mut slowed_model = TimingModel::calibrated();
    slowed_model.speculative.forward_header = slowed_model.non_speculative.forward_header;
    slowed_model.speculative.forward_body = slowed_model.non_speculative.forward_body;
    slowed_model.speculative.ack_extra = slowed_model.non_speculative.ack_extra;
    let slowed = Network::new(
        NetworkConfig::eight_by_eight(Architecture::BasicHybridSpeculative)
            .with_seed(quality.seed)
            .with_timing(slowed_model),
    )
    .expect("valid config");
    let nonspec = Network::new(
        NetworkConfig::eight_by_eight(Architecture::BasicNonSpeculative).with_seed(quality.seed),
    )
    .expect("valid config");
    for benchmark in [Benchmark::UniformRandom, Benchmark::Multicast10] {
        let l_fast = mean_latency_ns(&fast, benchmark, 0.25, &quality);
        let l_slow = mean_latency_ns(&slowed, benchmark, 0.25, &quality);
        let l_nonspec = mean_latency_ns(&nonspec, benchmark, 0.25, &quality);
        println!(
            "  {benchmark}: hybrid {l_fast:.2} ns | hybrid w/ slow spec nodes {l_slow:.2} ns | \
             non-spec {l_nonspec:.2} ns"
        );
    }
    println!("  -> the gain comes from the speculative node's simplicity, not broadcasting");
    println!();

    // ------------------------------------------------------------------
    // Ablation 2: channel pre-allocation.
    // ------------------------------------------------------------------
    println!("Ablation 2: OptNonSpeculative without the body fast path");
    let with_fast_path = Network::new(
        NetworkConfig::eight_by_eight(Architecture::OptNonSpeculative).with_seed(quality.seed),
    )
    .expect("valid config");
    let mut no_fast_path_model = TimingModel::calibrated();
    no_fast_path_model.opt_non_speculative.forward_body =
        no_fast_path_model.opt_non_speculative.forward_header;
    let without_fast_path = Network::new(
        NetworkConfig::eight_by_eight(Architecture::OptNonSpeculative)
            .with_seed(quality.seed)
            .with_timing(no_fast_path_model),
    )
    .expect("valid config");
    for benchmark in [Benchmark::Shuffle, Benchmark::Multicast10] {
        let sat_with = saturation_of(&with_fast_path, benchmark, &quality)
            .expect("run succeeds")
            .0
            .delivered_gfs;
        let sat_without = saturation_of(&without_fast_path, benchmark, &quality)
            .expect("run succeeds")
            .0
            .delivered_gfs;
        println!(
            "  {benchmark}: saturation {sat_with:.2} GF/s with pre-allocation, \
             {sat_without:.2} GF/s without"
        );
    }
    println!("  -> pre-allocating the channel on the header buys the body-flit bandwidth");
    println!();

    // ------------------------------------------------------------------
    // Ablation 3: packet length sweep.
    // ------------------------------------------------------------------
    println!("Ablation 3: optimization benefit vs packet length (Multicast10, 0.25 GF/s)");
    println!("  flits   BasicHybrid (ns)   OptHybrid (ns)   gain");
    for flits in [2u8, 3, 5, 7, 9] {
        let basic = Network::new(
            NetworkConfig::eight_by_eight(Architecture::BasicHybridSpeculative)
                .with_seed(quality.seed)
                .with_flits_per_packet(flits),
        )
        .expect("valid config");
        let opt = Network::new(
            NetworkConfig::eight_by_eight(Architecture::OptHybridSpeculative)
                .with_seed(quality.seed)
                .with_flits_per_packet(flits),
        )
        .expect("valid config");
        let l_basic = mean_latency_ns(&basic, Benchmark::Multicast10, 0.25, &quality);
        let l_opt = mean_latency_ns(&opt, Benchmark::Multicast10, 0.25, &quality);
        println!(
            "  {flits:<7} {l_basic:<18.2} {l_opt:<16.2} {:.1}%",
            100.0 * (1.0 - l_opt / l_basic)
        );
    }
    println!("  -> header-triggered optimizations amortize over body flits");
    println!();

    // ------------------------------------------------------------------
    // Ablation 4: two-phase vs four-phase handshaking (paper §2's choice).
    // ------------------------------------------------------------------
    println!("Ablation 4: two-phase (NRZ) vs four-phase (RZ) handshaking");
    let two_phase = Network::new(
        NetworkConfig::eight_by_eight(Architecture::OptHybridSpeculative).with_seed(quality.seed),
    )
    .expect("valid config");
    let four_phase = Network::new(
        NetworkConfig::eight_by_eight(Architecture::OptHybridSpeculative)
            .with_seed(quality.seed)
            .with_timing(TimingModel::four_phase()),
    )
    .expect("valid config");
    for benchmark in [Benchmark::Shuffle, Benchmark::Multicast10] {
        let sat2 = saturation_of(&two_phase, benchmark, &quality)
            .expect("run succeeds")
            .0
            .delivered_gfs;
        let sat4 = saturation_of(&four_phase, benchmark, &quality)
            .expect("run succeeds")
            .0
            .delivered_gfs;
        println!(
            "  {benchmark}: two-phase {sat2:.2} GF/s vs four-phase {sat4:.2} GF/s ({:+.0}%)",
            100.0 * (sat2 / sat4 - 1.0)
        );
    }
    println!(
        "  -> the single round trip per transaction is why the paper picks two-phase (section 2)"
    );
}
