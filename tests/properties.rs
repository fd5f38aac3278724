//! Whole-stack property tests: deterministic short runs sweeping the full
//! configuration space must uphold the simulator's invariants.
//!
//! These were originally proptest-driven; they now enumerate a fixed,
//! seeded sample of the parameter space so the suite builds offline with
//! zero external dependencies and fails reproducibly.

use asynoc::{drive, Architecture, Benchmark, Duration, Network, NetworkConfig, Phases, RunConfig};
use asynoc_kernel::SimRng;
use asynoc_telemetry::{Recorder, SpeculationWaste};

fn benchmarks() -> Vec<Benchmark> {
    Benchmark::ALL
        .into_iter()
        .chain(Benchmark::EXTENDED)
        .collect()
}

/// Any configuration at sane load delivers every measured packet to
/// every destination (completion implies full multicast coverage and
/// no duplicate deliveries — both are asserted inside the simulator),
/// accepts the offered load, and reports self-consistent counters.
#[test]
fn light_load_invariants() {
    let benches = benchmarks();
    let mut rng = SimRng::seed_from(2024);
    for _case in 0..24 {
        let arch = Architecture::ALL[rng.index(Architecture::ALL.len())];
        let benchmark = benches[rng.index(benches.len())];
        let rate_milli = rng.range_inclusive(50, 299) as u64;
        let flits = rng.range_inclusive(1, 6) as u8;
        let seed = rng.index(1_000) as u64;
        // Hotspot saturates at ≈ 0.29 flits/ns (all sources share one fanin
        // root), so "light load" must stay well below that ceiling there.
        // Serializing architectures (Baseline) replicate multicast packets at
        // the source, multiplying the offered flit load by the group size —
        // derate those combinations as well.
        let mut rate = rate_milli as f64 / 1_000.0;
        if benchmark == Benchmark::Hotspot {
            rate *= 0.6;
        }
        if arch.serializes_multicast() && benchmark.has_multicast() {
            rate *= 0.35;
        }
        let network = Network::new(
            NetworkConfig::eight_by_eight(arch)
                .with_seed(seed)
                .with_flits_per_packet(flits),
        )
        .expect("valid config");
        let run = RunConfig::new(benchmark, rate)
            .expect("positive rate")
            .with_phases(Phases::new(Duration::from_ns(60), Duration::from_ns(500)));
        let timing = network.config().timing();
        let mut waste = SpeculationWaste::new(timing.wire_fj, timing.drop_fj);
        let mut recorder = Recorder::new(network.site_of(), vec![&mut waste]);
        let report = drive(&network, &run, &mut [&mut recorder], None).expect("run succeeds");

        assert_eq!(
            report.packets_incomplete, 0,
            "{arch} x {benchmark} @ {rate}: lost packets"
        );
        assert!(
            report.acceptance() > 0.98,
            "{arch} x {benchmark} @ {rate}: acceptance {}",
            report.acceptance()
        );
        // Delivered >= injected (multicast replicates, unicast preserves);
        // a small tolerance absorbs flits in flight at the window edges.
        assert!(
            report.throughput.delivered >= report.throughput.injected * 0.96,
            "{arch} x {benchmark} @ {rate}: delivered {} < injected {}",
            report.throughput.delivered,
            report.throughput.injected
        );
        // Throttling only happens where speculation exists.
        if network.config().spec_map().speculative_nodes() == 0 {
            assert_eq!(
                report.flits_throttled, 0,
                "{arch} cannot throttle without speculative nodes"
            );
        }
        // The telemetry waste ledger holds the engine's throttle counter.
        assert_eq!(waste.total_throttles(), report.flits_throttled);
        // Power must include leakage and scale sanely.
        assert!(report.power.total_mw() > network.leakage_mw());
    }
}

/// Runs are reproducible: the same (config, run) pair twice gives
/// byte-identical statistics.
#[test]
fn runs_are_deterministic() {
    let benches = benchmarks();
    let mut rng = SimRng::seed_from(99);
    for _case in 0..8 {
        let arch = Architecture::ALL[rng.index(Architecture::ALL.len())];
        let benchmark = benches[rng.index(benches.len())];
        let seed = rng.index(100) as u64;
        let make = || {
            let network = Network::new(NetworkConfig::eight_by_eight(arch).with_seed(seed))
                .expect("valid config");
            let run = RunConfig::new(benchmark, 0.25)
                .expect("positive rate")
                .with_phases(Phases::new(Duration::from_ns(50), Duration::from_ns(300)));
            network.run(&run).expect("run succeeds")
        };
        let a = make();
        let b = make();
        assert_eq!(a.latency.mean(), b.latency.mean());
        assert_eq!(a.flits_delivered, b.flits_delivered);
        assert_eq!(a.flits_throttled, b.flits_throttled);
        assert_eq!(a.packets_measured, b.packets_measured);
    }
}
