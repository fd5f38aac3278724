//! Differential conformance: sharded vs serial execution, every substrate.
//!
//! The conservative parallel engine's entire correctness claim is that
//! it is *observationally identical* to the serial loop: the merged
//! per-shard event logs replay in the serial engine's canonical
//! `(time, key, seq)` order, therefore observers see the same stream,
//! therefore every report field matches bit for bit. The substrate
//! crates already prove this on one seed each; this test proves it
//! across ten seeded runs per substrate and shard counts 1/2/3/4, plus a
//! fault-injection round trip whose ledger and verdict inputs must not
//! move either. Both bodies take the substrate contract as input, so a
//! new fabric joins by adding one call.

use std::rc::Rc;

use asynoc::faults::{run_outcome, FaultPlan};
use asynoc::telemetry::{Site, SiteOf};
use asynoc::{drive, Architecture, Benchmark, RunConfig, Substrate};
use asynoc_bench::conformance::{mot, Fingerprint};
use asynoc_kernel::{with_deadline, Duration};
use asynoc_mesh::{MeshNetwork, MeshReport};
use asynoc_stats::Phases;
use asynoc_vcmesh::{McastScheme, VcMeshNetwork, VcMeshReport};

const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];
/// 3 cuts every fabric here into uneven bands.
const SHARDS: [usize; 4] = [1, 2, 3, 4];
/// A window protocol that loses a wake-up hangs; fail instead.
const DEADLINE_S: u64 = 600;

/// Runs `run` on `build(seed)` at every shard count and holds each
/// sharded run against the serial one: identical event stream, identical
/// engine report, and — via `same_section` — an identical substrate
/// section.
fn runs_are_identical_at_every_shard_count<S: Substrate>(
    build: impl Fn(u64) -> S,
    run: &RunConfig,
    same_section: impl Fn(&S::Report, &S::Report),
) {
    for seed in SEEDS {
        let network = build(seed);
        let mut outcomes = Vec::new();
        for shards in SHARDS {
            let mut stream = Fingerprint::new();
            let run = run.clone().with_shards(shards);
            let report = drive(&network, &run, &mut [&mut stream], None).expect("run succeeds");
            assert_eq!(report.shards, shards, "seed {seed}: shard count echoed");
            assert_eq!(report.shard_events.len(), shards, "seed {seed}");
            assert_eq!(
                report.shard_events.iter().sum::<u64>(),
                report.events_processed,
                "seed {seed}: per-shard events must sum to the total"
            );
            outcomes.push((shards, stream.hash, stream.events, report));
        }
        let (_, serial_hash, serial_events, serial) = &outcomes[0];
        for (shards, hash, events, sharded) in &outcomes[1..] {
            assert_eq!(
                serial_events, events,
                "seed {seed} shards {shards}: event counts differ"
            );
            assert_eq!(
                serial_hash, hash,
                "seed {seed} shards {shards}: event streams diverged"
            );
            assert_eq!(serial.events_processed, sharded.events_processed);
            assert_eq!(serial.packets_measured, sharded.packets_measured);
            assert_eq!(serial.packets_incomplete, sharded.packets_incomplete);
            assert_eq!(serial.flits_throttled, sharded.flits_throttled);
            assert_eq!(serial.flits_delivered, sharded.flits_delivered);
            assert_eq!(serial.throughput, sharded.throughput);
            assert_eq!(serial.latency, sharded.latency);
            same_section(serial, sharded);
        }
        assert!(serial.packets_measured > 0, "seed {seed}: degenerate run");
    }
}

fn same_hops(serial: &MeshReport, sharded: &MeshReport) {
    assert!((serial.mean_hops - sharded.mean_hops).abs() == 0.0);
}

/// The serial-only credit ledger is the one part of the VC mesh section
/// that legitimately differs; everything else must match.
fn same_vc_planes(serial: &VcMeshReport, sharded: &VcMeshReport) {
    let (serial_vc, sharded_vc) = (&serial.router, &sharded.router);
    assert_eq!(serial_vc.link_traversals, sharded_vc.link_traversals);
    assert_eq!(serial_vc.vc_pushes, sharded_vc.vc_pushes);
    assert_eq!(serial_vc.vc_peak, sharded_vc.vc_peak);
    assert!((serial.mean_hops - sharded.mean_hops).abs() == 0.0);
}

#[test]
fn mot_runs_are_identical_at_every_shard_count() {
    with_deadline(DEADLINE_S, || {
        runs_are_identical_at_every_shard_count(
            |seed| mot(Architecture::OptHybridSpeculative, seed),
            &RunConfig::quick(Benchmark::Multicast10, 0.3),
            |_, _| {},
        );
    });
}

#[test]
fn mesh_runs_are_identical_at_every_shard_count() {
    with_deadline(DEADLINE_S, || {
        runs_are_identical_at_every_shard_count(
            |seed| MeshNetwork::square(4, seed, 5, ()).unwrap(),
            &RunConfig::quick(Benchmark::UniformRandom, 0.25),
            same_hops,
        );
    });
}

/// The VC mesh adds a second event population — credit returns — to the
/// sharded engine, and its row-band partition must keep data launches,
/// credit launches, and the atomic multicast fork in the same canonical
/// order. Multicast traffic exercises the fork path hardest.
#[test]
fn vcmesh_runs_are_identical_at_every_shard_count() {
    with_deadline(DEADLINE_S, || {
        for mcast in [McastScheme::XyTree, McastScheme::Dpm] {
            runs_are_identical_at_every_shard_count(
                |seed| VcMeshNetwork::square(4, seed, 5, mcast).unwrap(),
                &RunConfig::quick(Benchmark::Multicast10, 0.1),
                same_vc_planes,
            );
        }
    });
}

/// Fault injection must survive sharding too: the armed-fault summary is
/// accumulated per shard and folded back, and the delivery ledger the
/// oracle judges is rebuilt from the same merged stream.
fn fault_outcomes_are_identical_at_every_shard_count<S: Substrate>(
    net: &S,
    site_of: SiteOf<S::Node>,
    plan_seed: u64,
    run: &RunConfig,
) {
    let plan = FaultPlan::random(plan_seed, 0.02, &net.fault_domain());
    let outcomes: Vec<_> = SHARDS
        .into_iter()
        .map(|shards| {
            let run = run.clone().with_shards(shards);
            let outcome = run_outcome(net, &run, Some(&plan), site_of.clone(), &mut [])
                .expect("faulted run succeeds");
            (shards, outcome)
        })
        .collect();
    let (_, serial) = &outcomes[0];
    for (shards, sharded) in &outcomes[1..] {
        assert_eq!(
            serial.deliveries, sharded.deliveries,
            "shards {shards}: delivery log diverged"
        );
        assert_eq!(serial.mean_latency_ps, sharded.mean_latency_ps);
        assert_eq!(serial.packets_incomplete, sharded.packets_incomplete);
        assert_eq!(serial.summary, sharded.summary, "shards {shards}");
        assert_eq!(serial.ledger.total(), sharded.ledger.total());
        assert_eq!(serial.fault_affected_trees, sharded.fault_affected_trees);
        assert_eq!(serial.broken_trees, sharded.broken_trees);
    }
}

fn fault_run(benchmark: Benchmark, warmup_ns: u64, measure_ns: u64) -> RunConfig {
    RunConfig::new(benchmark, 0.2)
        .expect("positive rate")
        .with_phases(Phases::new(
            Duration::from_ns(warmup_ns),
            Duration::from_ns(measure_ns),
        ))
}

#[test]
fn mot_fault_outcomes_are_identical_at_every_shard_count() {
    with_deadline(DEADLINE_S, || {
        let net = mot(Architecture::BasicHybridSpeculative, 17);
        fault_outcomes_are_identical_at_every_shard_count(
            &net,
            net.site_of(),
            17,
            &fault_run(Benchmark::Multicast5, 20, 160),
        );
    });
}

#[test]
fn mesh_fault_outcomes_are_identical_at_every_shard_count() {
    with_deadline(DEADLINE_S, || {
        fault_outcomes_are_identical_at_every_shard_count(
            &MeshNetwork::square(4, 23, 5, ()).unwrap(),
            Rc::new(Site::Router),
            23,
            &fault_run(Benchmark::UniformRandom, 40, 400),
        );
    });
}

/// Stall faults on a VC mesh land on credit-return channels as well as
/// data channels, so the sharded fold must reproduce the exact fault
/// firing order too.
#[test]
fn vcmesh_fault_outcomes_are_identical_at_every_shard_count() {
    with_deadline(DEADLINE_S, || {
        for mcast in [McastScheme::XyTree, McastScheme::Dpm] {
            fault_outcomes_are_identical_at_every_shard_count(
                &VcMeshNetwork::square(4, 23, 5, mcast).unwrap(),
                Rc::new(Site::Router),
                23,
                &fault_run(Benchmark::Multicast5, 40, 400),
            );
        }
    });
}
