//! Golden-model cross-check: at (near-)zero load, the minimum observed
//! packet latency must equal the analytic path latency *exactly* —
//! `wire + Σ_levels (forward + wire)` across the fanout and fanin trees.
//!
//! This pins the simulator's arithmetic to an independently computed
//! reference: any off-by-one in event scheduling, a double-counted wire,
//! or a wrong per-kind latency shows up as a picosecond-level mismatch.

use asynoc::{
    Architecture, Benchmark, Duration, MotSize, Network, NetworkConfig, Phases, RunConfig,
    TimingModel,
};
use asynoc_nodes::FlitClass;

/// Analytic header latency from source to any destination (all MoT paths
/// have equal length) in an uncontended network.
fn golden_header_latency(architecture: Architecture, size: MotSize) -> Duration {
    let timing = TimingModel::calibrated();
    let levels = size.levels();
    // Hop sequence: source→L0, L0→L1, …, L(levels-1)→fanin leaf,
    // fanin internal hops, fanin root→sink. Total wires = 2·levels + 1.
    let mut total = timing.wire_delay * (2 * u64::from(levels) + 1);
    for level in 0..levels {
        let kind = architecture.fanout_kind(size, level);
        total += timing.fanout(kind).forward(FlitClass::Header);
    }
    total += timing.fanin.forward(FlitClass::Header) * u64::from(levels);
    total
}

fn min_latency(architecture: Architecture, size: MotSize, benchmark: Benchmark) -> Duration {
    let network =
        Network::new(NetworkConfig::new(size, architecture).with_seed(17)).expect("valid config");
    // Very light load: virtually every packet sees an empty network.
    let run = RunConfig::new(benchmark, 0.02)
        .expect("positive rate")
        .with_phases(Phases::new(Duration::from_ns(50), Duration::from_ns(4000)));
    let report = network.run(&run).expect("run succeeds");
    assert!(report.packets_measured > 5, "not enough samples");
    report.latency.min().expect("samples exist")
}

#[test]
fn zero_load_unicast_latency_matches_golden_model_exactly() {
    let size = MotSize::new(8).expect("valid size");
    for architecture in Architecture::ALL {
        let golden = golden_header_latency(architecture, size);
        let observed = min_latency(architecture, size, Benchmark::Shuffle);
        assert_eq!(
            observed, golden,
            "{architecture}: observed minimum {observed} != analytic {golden}"
        );
    }
}

#[test]
fn zero_load_multicast_latency_matches_golden_model_exactly() {
    // Every MoT path has the same depth, so an uncontended multicast's
    // last-header arrival equals the unicast golden value for parallel
    // networks.
    let size = MotSize::new(8).expect("valid size");
    for architecture in [
        Architecture::BasicNonSpeculative,
        Architecture::OptHybridSpeculative,
        Architecture::OptAllSpeculative,
    ] {
        let golden = golden_header_latency(architecture, size);
        let observed = min_latency(architecture, size, Benchmark::Multicast10);
        assert_eq!(
            observed, golden,
            "{architecture}: multicast minimum {observed} != analytic {golden}"
        );
    }
}

#[test]
fn golden_model_orders_architectures_like_the_paper() {
    // The analytic model alone already predicts the zero-load ordering:
    // speculative roots shave (299−52) ps per replaced level.
    let size = MotSize::new(8).expect("valid size");
    let basic_nonspec = golden_header_latency(Architecture::BasicNonSpeculative, size);
    let basic_hybrid = golden_header_latency(Architecture::BasicHybridSpeculative, size);
    let baseline = golden_header_latency(Architecture::Baseline, size);
    assert!(basic_hybrid < basic_nonspec);
    assert!(baseline < basic_nonspec);
    assert_eq!(
        basic_nonspec - basic_hybrid,
        Duration::from_ps(299 - 52),
        "hybrid replaces exactly one non-speculative node on every path"
    );
}

#[test]
fn golden_model_holds_for_16x16() {
    let size = MotSize::new(16).expect("valid size");
    let architecture = Architecture::OptHybridSpeculative;
    let golden = golden_header_latency(architecture, size);
    assert_eq!(min_latency(architecture, size, Benchmark::Shuffle), golden);
}
