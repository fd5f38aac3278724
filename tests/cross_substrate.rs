//! Cross-substrate consistency: the three layers of the reproduction —
//! gate-level circuits, the MoT network simulator, and the mesh comparison
//! fabric — must tell one coherent story.

use asynoc::{
    drive, Architecture, Benchmark, Duration, MotSize, Network, NetworkConfig, Phases, RunConfig,
    Substrate,
};
use asynoc_faults::{judge, run_outcome, FaultPlan};
use asynoc_gates::mousetrap::{SpeculativeFork, StageDelays};
use asynoc_gates::{vcd, GateSim};
use asynoc_kernel::Time;
use asynoc_mesh::{MeshConfig, MeshNetwork, MeshSize};
use asynoc_telemetry::{parse_trace, Action, Recorder, Site, SiteOf, TraceCollector, TraceRecord};
use asynoc_vcmesh::{McastScheme, VcMeshConfig, VcMeshNetwork};

/// How both meshes place their nodes.
fn routers() -> SiteOf<usize> {
    std::rc::Rc::new(Site::Router)
}

#[test]
fn mot_beats_mesh_at_equal_endpoint_count() {
    let phases = Phases::new(Duration::from_ns(100), Duration::from_ns(800));
    let mot = Network::new(
        NetworkConfig::new(
            MotSize::new(64).expect("valid"),
            Architecture::OptHybridSpeculative,
        )
        .with_seed(9),
    )
    .expect("valid config");
    let mesh = MeshNetwork::new(MeshConfig::new(MeshSize::new(8, 8).expect("valid")).with_seed(9))
        .expect("valid config");

    let mot_report = mot
        .run(
            &RunConfig::new(Benchmark::UniformRandom, 0.1)
                .expect("positive rate")
                .with_phases(phases),
        )
        .expect("MoT run succeeds");
    let mesh_report = mesh
        .run(Benchmark::UniformRandom, 0.1, phases)
        .expect("mesh run succeeds");

    let mot_mean = mot_report.latency.mean().expect("samples");
    let mesh_mean = mesh_report.latency.mean().expect("samples");
    assert!(
        mot_mean < mesh_mean,
        "log-depth MoT ({mot_mean}) must beat Manhattan-distance mesh ({mesh_mean})"
    );
}

#[test]
fn mesh_multicast_collapse_vs_mot() {
    // The quantitative core of the paper's motivation, across substrates:
    // serialized dense multicast on the mesh collapses while the MoT's
    // in-network replication barely notices.
    let phases = Phases::new(Duration::from_ns(100), Duration::from_ns(800));
    let mot = Network::new(
        NetworkConfig::new(
            MotSize::new(64).expect("valid"),
            Architecture::OptHybridSpeculative,
        )
        .with_seed(9),
    )
    .expect("valid config");
    let mesh = MeshNetwork::new(MeshConfig::new(MeshSize::new(8, 8).expect("valid")).with_seed(9))
        .expect("valid config");

    let mot_report = mot
        .run(
            &RunConfig::new(Benchmark::Multicast10, 0.2)
                .expect("positive rate")
                .with_phases(phases),
        )
        .expect("MoT run succeeds");
    let mesh_report = mesh
        .run(Benchmark::Multicast10, 0.2, phases)
        .expect("mesh run succeeds");

    assert!(mot_report.acceptance() > 0.98, "MoT absorbs the load");
    let ratio = mesh_report.latency.mean().expect("samples").as_ps() as f64
        / mot_report.latency.mean().expect("samples").as_ps() as f64;
    assert!(
        ratio > 5.0,
        "serialized mesh multicast should be dramatically slower (got {ratio:.1}x)"
    );
}

#[test]
fn both_substrates_emit_round_trippable_ndjson_traces() {
    // Observability must be substrate-agnostic: the same collector type,
    // parameterised only by the node type, produces NDJSON that one shared
    // parser round-trips for both the MoT and the mesh.
    let phases = Phases::new(Duration::from_ns(60), Duration::from_ns(400));
    let mot = Network::new(
        NetworkConfig::new(
            MotSize::new(64).expect("valid"),
            Architecture::OptHybridSpeculative,
        )
        .with_seed(9),
    )
    .expect("valid config");
    let mesh = MeshNetwork::new(MeshConfig::new(MeshSize::new(8, 8).expect("valid")).with_seed(9))
        .expect("valid config");

    let run = RunConfig::new(Benchmark::Multicast10, 0.2)
        .expect("positive rate")
        .with_phases(phases);
    let (mut mot_trace, mut mesh_trace) =
        (TraceCollector::new(50_000), TraceCollector::new(50_000));
    let mut recorder = Recorder::new(mot.site_of(), vec![&mut mot_trace]);
    drive(&mot, &run, &mut [&mut recorder], None).expect("MoT run succeeds");
    let mut recorder = Recorder::new(routers(), vec![&mut mesh_trace]);
    drive(&mesh, &run, &mut [&mut recorder], None).expect("mesh run succeeds");

    for (substrate, records) in [
        ("mot", mot_trace.into_records()),
        ("mesh", mesh_trace.into_records()),
    ] {
        assert!(!records.is_empty(), "{substrate}: trace captured events");
        let render = |records: &[TraceRecord]| -> String {
            records.iter().map(|r| r.to_ndjson() + "\n").collect()
        };
        let text = render(&records);
        let (_, parsed) = parse_trace(&text).unwrap_or_else(|e| panic!("{substrate}: {e:?}"));
        assert_eq!(
            parsed, records,
            "{substrate}: NDJSON round-trips losslessly"
        );
        assert_eq!(render(&parsed), text, "{substrate}: re-render is stable");
        assert!(
            records.windows(2).all(|w| w[0].t_ps <= w[1].t_ps),
            "{substrate}: timestamps are non-decreasing"
        );
        let has = |action: Action| records.iter().any(|r: &TraceRecord| r.action == action);
        assert!(has(Action::Inject), "{substrate}: injections traced");
        assert!(has(Action::Forward), "{substrate}: forwards traced");
        assert!(has(Action::Deliver), "{substrate}: deliveries traced");
    }
}

#[test]
fn one_recoverable_fault_plan_satisfies_the_oracle_on_both_substrates() {
    // The fault model is substrate-agnostic: the *same* textual plan,
    // under the *same* traffic, must satisfy the same differential
    // contract on the MoT, on the mesh, and on the credit-based VC
    // mesh. Channel and source indices are chosen to exist in every
    // fault domain.
    fn check<S: Substrate>(substrate: &str, net: &S, site_of: SiteOf<S::Node>) {
        let plan =
            FaultPlan::parse("stall:0:2:300;stall:1:1:200;drop:1:0:1:500").expect("valid plan");
        let run = RunConfig::new(Benchmark::UniformRandom, 0.1)
            .expect("positive rate")
            .with_phases(Phases::new(Duration::from_ns(20), Duration::from_ns(150)));
        let domain = net.fault_domain();
        let clean = run_outcome(net, &run, None, site_of.clone(), &mut []).expect("clean run");
        let faulted = run_outcome(net, &run, Some(&plan), site_of, &mut []).expect("faulted run");
        assert!(
            plan.recoverable(&domain),
            "{substrate}: stalls and retried drops are recoverable everywhere"
        );
        let verdict = judge(&clean, &faulted, &plan, &domain);
        assert!(verdict.recoverable, "{substrate}: judged as recoverable");
        assert!(
            verdict.pass(),
            "{substrate}: oracle failures {:?}",
            verdict.failures()
        );
        assert_eq!(
            clean.deliveries, faulted.deliveries,
            "{substrate}: delivery multiset untouched"
        );
    }

    let mot = Network::new(
        NetworkConfig::new(
            MotSize::new(8).expect("valid"),
            Architecture::BasicHybridSpeculative,
        )
        .with_seed(7),
    )
    .expect("valid config");
    check("mot", &mot, mot.site_of());
    check(
        "mesh",
        &MeshNetwork::square(4, 7, 5, ()).expect("valid mesh"),
        routers(),
    );
    check(
        "vcmesh",
        &VcMeshNetwork::square(4, 7, 5, McastScheme::XyTree).expect("valid vcmesh"),
        routers(),
    );
}

#[test]
fn dpm_never_uses_more_links_than_xy_tree() {
    // Dynamic Partition Merging exists to shed redundant tree edges:
    // for identical destination sets (same seed, same traffic stream)
    // its total measured link traversals must never exceed the
    // tree-based XY baseline's. Ten seeds, both well beyond noise.
    let phases = Phases::new(Duration::from_ns(80), Duration::from_ns(800));
    for seed in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
        let mut links = [0u64; 2];
        let mut measured = [0usize; 2];
        for (slot, mcast) in [McastScheme::XyTree, McastScheme::Dpm]
            .into_iter()
            .enumerate()
        {
            let net = VcMeshNetwork::new(
                VcMeshConfig::new(MeshSize::new(4, 4).expect("valid"))
                    .with_seed(seed)
                    .with_mcast(mcast),
            )
            .expect("valid config");
            let report = net
                .run(Benchmark::Multicast10, 0.1, phases)
                .expect("run succeeds");
            links[slot] = report.router.link_traversals;
            measured[slot] = report.packets_measured;
        }
        assert_eq!(
            measured[0], measured[1],
            "seed {seed}: schemes saw different traffic"
        );
        assert!(
            links[1] <= links[0],
            "seed {seed}: DPM used {} link traversals vs xy-tree's {}",
            links[1],
            links[0]
        );
    }
}

#[test]
fn multicast_delivery_multisets_agree_across_substrates() {
    // Scheme correctness, judged against the reference substrate: for
    // the same traffic spec, tree-based XY multicast and DPM must
    // deliver each logical packet's header to exactly the destination
    // multiset the MoT's speculative replication delivers — no copy
    // lost to a pruned branch, none duplicated by a merge.
    let phases = Phases::new(Duration::from_ns(20), Duration::from_ns(150));
    let mot = Network::new(
        NetworkConfig::new(
            MotSize::new(16).expect("valid"),
            Architecture::BasicHybridSpeculative,
        )
        .with_seed(7),
    )
    .expect("valid config");
    let run = RunConfig::new(Benchmark::Multicast5, 0.1)
        .expect("positive rate")
        .with_phases(phases);
    let reference = run_outcome(&mot, &run, None, mot.site_of(), &mut []).expect("MoT run");
    assert!(
        reference.deliveries.keys().any(|(_, _)| true),
        "reference run delivered nothing"
    );

    for mcast in [McastScheme::XyTree, McastScheme::Dpm] {
        let net = VcMeshNetwork::square(4, 7, 5, mcast).expect("valid vcmesh");
        let outcome = run_outcome(&net, &run, None, routers(), &mut []).expect("vcmesh run");
        assert_eq!(
            outcome.deliveries, reference.deliveries,
            "{mcast}: delivery multiset diverged from the MoT reference"
        );
    }
}

#[test]
fn gate_level_fork_justifies_the_speculative_latency_gap() {
    // The network model charges a speculative node 52 ps vs 299 ps for a
    // non-speculative one. At gate level the speculative forward path is a
    // single transparent latch; the non-speculative path adds route
    // computation and channel allocation in front. One latch delay must
    // therefore bound the speculative node's forward latency from below —
    // and be several times smaller than the non-speculative figure.
    let delays = StageDelays::default();
    let fork = SpeculativeFork::new(delays);
    let mut sim = GateSim::new(fork.netlist());
    sim.settle();
    sim.toggle_at(Time::from_ps(1_000), fork.req_in());
    sim.run_until_quiet();
    let broadcast_at = sim.transitions_of(fork.branch_req(0))[0];
    let forward = broadcast_at - Time::from_ps(1_000);
    assert_eq!(
        forward, delays.latch,
        "speculative forward path = one latch"
    );
    // The paper's non-speculative node (299 ps) is ~6x the speculative one
    // (52 ps); our gate model's latch (40 ps) is consistent in magnitude.
    assert!(forward.as_ps() * 4 < 299);
}

#[test]
fn vcd_export_of_a_fork_run_is_well_formed() {
    let fork = SpeculativeFork::new(StageDelays::default());
    let mut sim = GateSim::new(fork.netlist());
    sim.settle();
    sim.toggle_at(Time::from_ps(100), fork.req_in());
    sim.run_until_quiet();
    let dump = vcd::render(fork.netlist(), &sim, "fork");
    assert!(dump.contains("$enddefinitions $end"));
    assert!(dump.contains("reqout0"));
    assert!(dump.contains("ack_out"));
    assert!(dump.contains("#100"), "the stimulus timestamp appears");
    // Every change line is 0/1 followed by an identifier.
    let body = dump.split("$end").last().expect("body exists");
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        assert!(
            line.starts_with('0') || line.starts_with('1'),
            "malformed change line {line:?}"
        );
    }
}
