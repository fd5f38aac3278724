//! One conformance suite over both mesh routers: what the mesh fabric
//! promises whatever router it carries — light load delivers everything,
//! one seed gives one run, `--shards 1/2/3/4` are bit-identical, a bad
//! rate is refused. Written once, generic over [`Router`]; a new router
//! joins by implementing [`Conformant`] and adding one line per test.
//! Router-specific behaviour (the wormhole lock and golden latency, the
//! VC planes, DPM's link count, the credit protocol) is tested beside
//! each router.

use std::fmt::Debug;

use asynoc::{Benchmark, Duration, Phases};
use asynoc_kernel::with_deadline;
use asynoc_mesh::{drive, MeshError, Network, Report, Router, RunConfig, Wormhole};
use asynoc_vcmesh::{McastScheme, VcRouter, VC_COUNT};

fn phases() -> Phases {
    Phases::new(Duration::from_ns(80), Duration::from_ns(800))
}

/// What the suite needs to know about a router's report section.
trait Conformant: Router {
    /// The part of the section that is a function of the event stream —
    /// equal across repeated runs and across shard counts.
    type Exact: PartialEq + Debug;
    fn exact(report: &Report<Self::Section>) -> Self::Exact;
    /// Router-specific health of a serial run's report.
    fn sound(_report: &Report<Self::Section>) {}
}

impl Conformant for Wormhole {
    type Exact = ();
    fn exact(_report: &Report<()>) {}
}

impl Conformant for VcRouter {
    type Exact = (u64, [u64; VC_COUNT], [u64; VC_COUNT]);
    fn exact(report: &Report<Self::Section>) -> Self::Exact {
        let vc = &report.router;
        (vc.link_traversals, vc.vc_pushes, vc.vc_peak)
    }
    /// The serial-only credit ledger ran and balanced.
    fn sound(report: &Report<Self::Section>) {
        assert!(report.router.credit_checks > 0, "ledger never ran");
        assert_eq!(report.router.credit_violations, 0, "ledger broke");
    }
}

fn network<R: Router>(side: usize, seed: u64, settings: &R::Settings) -> Network<R> {
    Network::square(side, seed, 5, settings.clone()).expect("a valid side")
}

fn light_load_delivers_everything<R: Conformant>(settings: R::Settings) {
    for side in [2, 4, 8] {
        let report = network::<R>(side, 42, &settings)
            .run(Benchmark::UniformRandom, 0.1, phases())
            .unwrap();
        assert!(
            report.packets_measured > 0,
            "{side}x{side}: nothing measured"
        );
        assert_eq!(report.packets_incomplete, 0, "{side}x{side}: lost packets");
        assert!(report.acceptance() > 0.98, "{side}x{side}: refused");
        R::sound(&report);
    }
}

fn one_seed_gives_one_run<R: Conformant>(settings: R::Settings) {
    let run = || {
        network::<R>(4, 42, &settings)
            .run(Benchmark::Multicast5, 0.2, phases())
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.packets_measured, b.packets_measured);
    assert_eq!(a.events_processed, b.events_processed);
    assert!((a.mean_hops - b.mean_hops).abs() == 0.0);
    assert_eq!(R::exact(&a), R::exact(&b));
}

fn sharded_runs_match_serial_bit_for_bit<R: Conformant>(settings: R::Settings) {
    let net = network::<R>(4, 11, &settings);
    let serial = net.run(Benchmark::Multicast5, 0.2, phases()).unwrap();
    assert_eq!(serial.shards, 1);
    R::sound(&serial);
    for shards in [2, 3, 4] {
        let run = RunConfig::new(Benchmark::Multicast5, 0.2)
            .unwrap()
            .with_phases(phases())
            .with_shards(shards);
        let sharded = drive(&net, &run, &mut [], None).unwrap();
        assert_eq!(sharded.shards, shards);
        assert_eq!(
            sharded.shard_events.iter().sum::<u64>(),
            sharded.events_processed
        );
        assert_eq!(sharded.events_processed, serial.events_processed);
        assert_eq!(sharded.latency, serial.latency);
        assert_eq!(sharded.throughput, serial.throughput);
        assert_eq!(sharded.packets_measured, serial.packets_measured);
        assert_eq!(sharded.packets_incomplete, serial.packets_incomplete);
        assert!((sharded.mean_hops - serial.mean_hops).abs() == 0.0);
        assert_eq!(R::exact(&sharded), R::exact(&serial), "shards {shards}");
    }
}

fn a_bad_rate_is_refused<R: Conformant>(settings: R::Settings) {
    for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(matches!(
            network::<R>(2, 42, &settings).run(Benchmark::Shuffle, rate, phases()),
            Err(MeshError::InvalidRate { .. })
        ));
    }
}

#[test]
fn every_router_delivers_everything_at_light_load() {
    light_load_delivers_everything::<Wormhole>(());
    light_load_delivers_everything::<VcRouter>(McastScheme::XyTree);
    light_load_delivers_everything::<VcRouter>(McastScheme::Dpm);
}

#[test]
fn every_router_is_deterministic_under_one_seed() {
    one_seed_gives_one_run::<Wormhole>(());
    one_seed_gives_one_run::<VcRouter>(McastScheme::XyTree);
    one_seed_gives_one_run::<VcRouter>(McastScheme::Dpm);
}

#[test]
fn every_router_is_bit_identical_at_every_shard_count() {
    with_deadline(120, || {
        sharded_runs_match_serial_bit_for_bit::<Wormhole>(());
        sharded_runs_match_serial_bit_for_bit::<VcRouter>(McastScheme::XyTree);
        sharded_runs_match_serial_bit_for_bit::<VcRouter>(McastScheme::Dpm);
    });
}

#[test]
fn every_router_refuses_a_bad_rate() {
    a_bad_rate_is_refused::<Wormhole>(());
    a_bad_rate_is_refused::<VcRouter>(McastScheme::XyTree);
}
