//! End-to-end integration: every architecture runs every benchmark through
//! the full stack (topology → routing → node state machines → event loop →
//! statistics) and produces sane measurements.

use asynoc::{
    Architecture, Benchmark, Duration, MotSize, Network, NetworkConfig, Phases, RunConfig,
};

fn network(arch: Architecture) -> Network {
    Network::new(NetworkConfig::eight_by_eight(arch).with_seed(99)).expect("valid config")
}

fn short() -> Phases {
    Phases::new(Duration::from_ns(100), Duration::from_ns(900))
}

#[test]
fn every_architecture_runs_every_benchmark() {
    for arch in Architecture::ALL {
        let net = network(arch);
        for benchmark in Benchmark::ALL {
            let run = RunConfig::new(benchmark, 0.15)
                .expect("positive rate")
                .with_phases(short());
            let report = net.run(&run).unwrap_or_else(|e| {
                panic!("{arch} x {benchmark} failed: {e}");
            });
            assert!(
                report.packets_measured > 0,
                "{arch} x {benchmark}: no packets measured"
            );
            assert_eq!(
                report.packets_incomplete, 0,
                "{arch} x {benchmark}: lost packets at light load"
            );
            assert!(
                report.latency.mean().expect("samples exist") > Duration::from_ps(500),
                "{arch} x {benchmark}: implausibly low latency"
            );
            assert!(
                report.power.total_mw() > 0.0,
                "{arch} x {benchmark}: zero power"
            );
        }
    }
}

#[test]
fn multicast_completion_means_every_destination_got_the_header() {
    // packets_incomplete == 0 is a strong invariant: a logical packet only
    // completes when its header has arrived at *every* destination in its
    // set, so a routing bug that starves one subtree would show up here.
    for arch in [
        Architecture::Baseline,
        Architecture::BasicNonSpeculative,
        Architecture::BasicHybridSpeculative,
        Architecture::OptHybridSpeculative,
        Architecture::OptAllSpeculative,
    ] {
        let net = network(arch);
        let run = RunConfig::new(Benchmark::Multicast10, 0.2)
            .expect("positive rate")
            .with_phases(short());
        let report = net.run(&run).expect("run succeeds");
        assert_eq!(
            report.packets_incomplete, 0,
            "{arch}: multicast lost a branch"
        );
        assert!(report.packets_measured > 50, "{arch}: too few packets");
    }
}

/// `config` measures packets under `benchmark` at `rate` and drains them all.
fn drains(config: NetworkConfig, benchmark: Benchmark, rate: f64) {
    let what = format!("{} x {benchmark}", config.spec_map());
    let net = Network::new(config).expect("valid config");
    let run = RunConfig::new(benchmark, rate)
        .expect("positive rate")
        .with_phases(short());
    let report = net.run(&run).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(report.packets_measured > 0, "{what}: nothing measured");
    assert_eq!(report.packets_incomplete, 0, "{what}: lost packets");
}

#[test]
fn sixteen_by_sixteen_networks_work() {
    let size = MotSize::new(16).expect("16 is valid");
    for arch in [
        Architecture::OptNonSpeculative,
        Architecture::OptHybridSpeculative,
        Architecture::OptAllSpeculative,
    ] {
        drains(NetworkConfig::new(size, arch), Benchmark::Multicast5, 0.15);
    }
}

#[test]
fn tiny_and_wide_networks_work() {
    for n in [2usize, 4, 32] {
        let size = MotSize::new(n).expect("valid size");
        let config = NetworkConfig::new(size, Architecture::OptHybridSpeculative);
        drains(config, Benchmark::UniformRandom, 0.1);
    }
}

#[test]
fn single_flit_packets_flow() {
    let config = NetworkConfig::eight_by_eight(Architecture::OptAllSpeculative);
    drains(
        config.with_flits_per_packet(1).with_seed(5),
        Benchmark::Multicast10,
        0.1,
    );
}

#[test]
fn long_packets_flow() {
    let config = NetworkConfig::eight_by_eight(Architecture::OptHybridSpeculative);
    drains(
        config.with_flits_per_packet(9).with_seed(5),
        Benchmark::Multicast5,
        0.1,
    );
}

#[test]
fn saturated_network_still_terminates_and_reports() {
    // Drive far past capacity; the drain cap guarantees termination and the
    // report shows the refusals.
    let net = network(Architecture::BasicNonSpeculative);
    let run = RunConfig::new(Benchmark::UniformRandom, 2.5)
        .expect("positive rate")
        .with_phases(short());
    let report = net.run(&run).expect("saturated run terminates");
    assert!(report.acceptance() < 0.9, "2.5 GF/s must saturate");
}
