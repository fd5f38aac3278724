//! Profile neutrality: enabling the engine self-profile must not move a
//! single bit of the simulation.
//!
//! The profile layer's contract is "host-side metadata only": always-on
//! counters plus clock reads gated behind the profile flag. Nothing it
//! does may touch event order, timestamps, RNG draws, or report fields.
//! This test proves it with an FNV-1a fingerprint over the debug
//! rendering of every `(time, in_window, event)` triple, on every
//! substrate, with `--progress` forced off (the heartbeat is stderr-only
//! and TTY-gated, but the run flag is exercised too).

use asynoc::{drive, Architecture, Benchmark, RunConfig, Substrate};
use asynoc_bench::conformance::{mot, Fingerprint};
use asynoc_mesh::MeshNetwork;
use asynoc_vcmesh::{McastScheme, VcMeshNetwork};

/// Runs `run` on `net` with profiling off and on, and holds the two sides
/// against each other: identical event stream, identical engine report,
/// and — via `same_section` — an identical substrate section.
fn runs_are_bit_identical_with_profiling_on<S: Substrate>(
    net: &S,
    run: &RunConfig,
    same_section: impl Fn(&S::Report, &S::Report),
) {
    let run_with = |profile: bool| {
        let run = run.clone().with_profile(profile);
        let mut stream = Fingerprint::new();
        let report = drive(net, &run, &mut [&mut stream], None).expect("run succeeds");
        (stream.hash, stream.events, report)
    };
    let (plain_hash, plain_events, plain) = run_with(false);
    let (profiled_hash, profiled_events, profiled) = run_with(true);
    assert_eq!(
        plain_hash, profiled_hash,
        "profiling moved the event stream"
    );
    assert_eq!(plain_events, profiled_events);
    assert_eq!(plain.events_processed, profiled.events_processed);
    assert_eq!(plain.packets_measured, profiled.packets_measured);
    assert_eq!(plain.flits_throttled, profiled.flits_throttled);
    assert_eq!(plain.throughput, profiled.throughput);
    assert_eq!(plain.latency, profiled.latency);
    same_section(&plain, &profiled);
    assert!(plain.packets_measured > 0, "degenerate run");
    // The profile itself only exists on the profiled side, and its event
    // accounting agrees with the deterministic report: the per-kind counts
    // sum to the events the run executed.
    assert!(plain.profile.is_none());
    let profile = profiled.profile.as_ref().expect("profile collected");
    let kinds = profile.kinds;
    assert_eq!(profile.events, profiled.events_processed);
    assert_eq!(
        kinds.inject + kinds.arrive + kinds.free + kinds.retry,
        profile.events
    );
}

#[test]
fn every_substrate_runs_bit_identical_with_profiling_on() {
    let same_hops = |plain: f64, profiled: f64| assert!((plain - profiled).abs() == 0.0);
    runs_are_bit_identical_with_profiling_on(
        &mot(Architecture::OptHybridSpeculative, 7),
        &RunConfig::quick(Benchmark::Multicast10, 0.3),
        |_, _| {},
    );
    runs_are_bit_identical_with_profiling_on(
        &MeshNetwork::square(4, 7, 5, ()).unwrap(),
        &RunConfig::quick(Benchmark::UniformRandom, 0.25),
        |plain, profiled| same_hops(plain.mean_hops, profiled.mean_hops),
    );
    for mcast in [McastScheme::XyTree, McastScheme::Dpm] {
        runs_are_bit_identical_with_profiling_on(
            &VcMeshNetwork::square(4, 7, 5, mcast).unwrap(),
            &RunConfig::quick(Benchmark::Multicast10, 0.1),
            |plain, profiled| {
                same_hops(plain.mean_hops, profiled.mean_hops);
                assert_eq!(
                    plain.router.link_traversals,
                    profiled.router.link_traversals
                );
            },
        );
    }
}
