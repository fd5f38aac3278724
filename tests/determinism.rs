//! Whole-stack determinism: identical seeds reproduce identical runs,
//! different seeds and benchmarks genuinely differ.

use asynoc::{Architecture, Benchmark, Duration, Network, NetworkConfig, Phases, RunConfig};

fn run_once(seed: u64, benchmark: Benchmark, rate: f64) -> (Option<Duration>, u64, u64, f64) {
    let network = Network::new(
        NetworkConfig::eight_by_eight(Architecture::OptHybridSpeculative).with_seed(seed),
    )
    .expect("valid config");
    let run = RunConfig::new(benchmark, rate)
        .expect("positive rate")
        .with_phases(Phases::new(Duration::from_ns(100), Duration::from_ns(800)));
    let report = network.run(&run).expect("run succeeds");
    (
        report.latency.mean(),
        report.flits_delivered,
        report.flits_throttled,
        report.power.total_mw(),
    )
}

/// Everything a `RunReport` measures, except the wall-clock diagnostic
/// (which legitimately varies between executions).
fn fingerprint(
    arch: Architecture,
    seed: u64,
    benchmark: Benchmark,
    rate: f64,
) -> impl PartialEq + std::fmt::Debug {
    let network =
        Network::new(NetworkConfig::eight_by_eight(arch).with_seed(seed)).expect("valid config");
    let run = RunConfig::new(benchmark, rate)
        .expect("positive rate")
        .with_phases(Phases::new(Duration::from_ns(100), Duration::from_ns(800)));
    let report = network.run(&run).expect("run succeeds");
    (
        report.latency.mean(),
        report.latency.min(),
        report.latency.max(),
        report.latency.count(),
        report.throughput,
        report.packets_measured,
        report.packets_incomplete,
        report.flits_delivered,
        report.flits_throttled,
        report.power.total_mw().to_bits(),
        report.events_processed,
    )
}

/// Identical seeds reproduce identical runs, everything a report
/// measures (`properties.rs::runs_are_deterministic` samples the
/// architecture x benchmark space).
#[test]
fn same_seed_is_bit_identical() {
    for benchmark in [Benchmark::UniformRandom, Benchmark::Multicast10] {
        let run = || fingerprint(Architecture::OptHybridSpeculative, 7, benchmark, 0.35);
        assert_eq!(run(), run(), "{benchmark}");
    }
}

/// The multi-core runner regression test: fanning runs across worker
/// threads must reproduce the serial results bit for bit (excluding wall).
#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    let runs: Vec<(u64, Benchmark, f64)> = vec![
        (1, Benchmark::UniformRandom, 0.3),
        (2, Benchmark::Multicast10, 0.25),
        (3, Benchmark::Hotspot, 0.2),
        (4, Benchmark::Shuffle, 0.4),
        (5, Benchmark::Multicast5, 0.35),
        (6, Benchmark::MulticastStatic, 0.2),
    ];
    let job = |(seed, benchmark, rate): (u64, Benchmark, f64)| {
        fingerprint(Architecture::OptHybridSpeculative, seed, benchmark, rate)
    };
    let serial = asynoc::parallel_map(1, runs.clone(), job);
    let parallel = asynoc::parallel_map(4, runs, job);
    assert_eq!(
        serial, parallel,
        "worker threads changed simulation results"
    );
}

#[test]
fn different_seeds_differ() {
    let a = run_once(1, Benchmark::UniformRandom, 0.35);
    let b = run_once(2, Benchmark::UniformRandom, 0.35);
    assert_ne!(
        (a.0, a.1),
        (b.0, b.1),
        "different seeds gave identical runs"
    );
}

#[test]
fn different_benchmarks_differ() {
    let uniform = run_once(7, Benchmark::UniformRandom, 0.35);
    let hotspot = run_once(7, Benchmark::Hotspot, 0.35);
    assert_ne!(uniform.0, hotspot.0);
}

#[test]
fn rates_order_latency() {
    let light = run_once(7, Benchmark::UniformRandom, 0.1)
        .0
        .expect("samples");
    let heavy = run_once(7, Benchmark::UniformRandom, 0.9)
        .0
        .expect("samples");
    assert!(
        heavy > light,
        "latency must grow with load: {light} vs {heavy}"
    );
}
