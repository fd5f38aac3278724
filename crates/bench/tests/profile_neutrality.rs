//! Profile neutrality: enabling the engine self-profile must not move a
//! single bit of the simulation.
//!
//! The profile layer's contract is "host-side metadata only": always-on
//! counters plus clock reads gated behind the profile flag. Nothing it
//! does may touch event order, timestamps, RNG draws, or report fields.
//! This test proves it the same way the sharded engine proves
//! serial-equivalence — an FNV-1a fingerprint over the debug rendering
//! of every `(time, in_window, event)` triple — on every substrate and
//! both the serial and sharded paths, with `--progress` forced off
//! (the heartbeat is stderr-only and TTY-gated, but the run flag is
//! exercised too).

use asynoc::{drive, Architecture, Benchmark, RunConfig, Substrate};
use asynoc_bench::conformance::{mot, Fingerprint};
use asynoc_kernel::with_deadline;
use asynoc_mesh::MeshNetwork;
use asynoc_vcmesh::{McastScheme, VcMeshNetwork};

const SHARDS: [usize; 2] = [1, 2];
/// A window protocol that loses a wake-up hangs; fail instead.
const DEADLINE_S: u64 = 600;

/// Runs `run` on `net` with profiling off and on, serial and sharded,
/// and holds the two sides against each other: identical event stream,
/// identical engine report, and — via `same_section` — an identical
/// substrate section.
fn runs_are_bit_identical_with_profiling_on<S: Substrate>(
    net: &S,
    run: &RunConfig,
    same_section: impl Fn(&S::Report, &S::Report),
) {
    for shards in SHARDS {
        let run_with = |profile: bool| {
            let run = run.clone().with_shards(shards).with_profile(profile);
            let mut stream = Fingerprint::new();
            let report = drive(net, &run, &mut [&mut stream], None).expect("run succeeds");
            (stream.hash, stream.events, report)
        };
        let (plain_hash, plain_events, plain) = run_with(false);
        let (profiled_hash, profiled_events, mut profiled) = run_with(true);
        assert_eq!(
            plain_hash, profiled_hash,
            "shards {shards}: profiling moved the event stream"
        );
        assert_eq!(plain_events, profiled_events, "shards {shards}");
        assert_eq!(plain.events_processed, profiled.events_processed);
        assert_eq!(plain.shard_events, profiled.shard_events);
        assert_eq!(plain.packets_measured, profiled.packets_measured);
        assert_eq!(plain.flits_throttled, profiled.flits_throttled);
        assert_eq!(plain.throughput, profiled.throughput);
        assert_eq!(plain.latency, profiled.latency);
        same_section(&plain, &profiled);
        assert!(plain.packets_measured > 0, "shards {shards}: degenerate");
        // The profile itself only exists on the profiled side, and its
        // event attribution agrees with the deterministic report.
        assert!(plain.profile.is_none());
        check_profile_attribution(
            &profiled.profile.take().expect("profile collected"),
            shards,
            profiled.events_processed,
        );
    }
}

/// The profile's per-shard event accounting must be internally
/// consistent and cover the run: each shard's per-kind counts sum to
/// that shard's executed-event count, and the shards together executed
/// at least every event the fold committed (a sharded run may execute a
/// short tail past the serial stopping point — those events are cut by
/// the replay, never observed, but the shard did the work and the
/// profile reports work done).
fn check_profile_attribution(
    profile: &asynoc::probe::EngineProfile,
    shards: usize,
    events_processed: u64,
) {
    assert_eq!(profile.shards.len(), shards);
    for shard in &profile.shards {
        assert_eq!(
            shard.kinds.total(),
            shard.events,
            "shard {}: per-kind counts must sum to the shard's events",
            shard.shard
        );
    }
    let executed: u64 = profile.shards.iter().map(|s| s.events).sum();
    assert!(
        executed >= events_processed,
        "shards {shards}: executed {executed} < committed {events_processed}"
    );
    if shards == 1 {
        assert_eq!(executed, events_processed, "serial runs have no cut tail");
    }
}

#[test]
fn every_substrate_runs_bit_identical_with_profiling_on() {
    with_deadline(DEADLINE_S, || {
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
    });
}
