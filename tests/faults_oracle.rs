//! The differential conformance oracle, exercised at scale.
//!
//! Every faulted run is paired with a clean twin under the same network
//! seed and traffic. Recoverable plans must leave the
//! delivered-destination multiset untouched with latency deltas bounded
//! by the injected-delay budget; unrecoverable plans must degrade
//! gracefully — the fault ledger's loss count reconciles exactly with
//! the span analysis's broken-with-cause count, and nothing vanishes
//! silently.

use asynoc::faults::{judge, run_outcome, FaultPlan};
use asynoc::{
    Architecture, Benchmark, Duration, MotSize, Network, NetworkConfig, Phases, RunConfig,
    Substrate,
};
use asynoc_mesh::MeshNetwork;
use asynoc_telemetry::{Site, SiteOf};

fn mot_net(seed: u64) -> Network {
    Network::new(
        NetworkConfig::new(
            MotSize::new(8).expect("valid"),
            Architecture::BasicHybridSpeculative,
        )
        .with_seed(seed),
    )
    .expect("valid config")
}

fn quick_run() -> RunConfig {
    RunConfig::new(Benchmark::Multicast5, 0.2)
        .expect("positive rate")
        .with_phases(Phases::new(Duration::from_ns(20), Duration::from_ns(120)))
}

#[test]
fn fifty_seeded_recoverable_plans_satisfy_the_oracle_on_mot() {
    // 5 network seeds x 10 plan seeds = 50 differential pairs, each
    // faulted run judged against the clean twin that shares its network
    // seed. Random plans draw only recoverable entries, so the strict
    // contract (identical multiset, attributable latency) must hold on
    // every single pair.
    let run = quick_run();
    for net_seed in 0..5u64 {
        let net = mot_net(net_seed);
        let domain = net.fault_domain();
        let clean = run_outcome(&net, &run, None, net.site_of(), &mut []).expect("clean run");
        assert!(!clean.deliveries.is_empty(), "clean twin delivered traffic");
        for plan_seed in 0..10u64 {
            let plan = FaultPlan::random(net_seed * 1_000 + plan_seed, 0.15, &domain);
            assert!(!plan.entries.is_empty(), "random plans are never empty");
            assert!(
                plan.recoverable(&domain),
                "random plans draw recoverable entries only"
            );
            let faulted =
                run_outcome(&net, &run, Some(&plan), net.site_of(), &mut []).expect("faulted run");
            let verdict = judge(&clean, &faulted, &plan, &domain);
            assert!(verdict.recoverable);
            assert!(
                verdict.pass(),
                "net seed {net_seed}, plan seed {plan_seed}, plan '{}': {:?}",
                plan.encode(),
                verdict.failures()
            );
            assert_eq!(
                clean.deliveries, faulted.deliveries,
                "net seed {net_seed}, plan seed {plan_seed}: multisets identical"
            );
        }
    }
}

#[test]
fn seeded_recoverable_plans_satisfy_the_oracle_on_the_mesh() {
    let run = RunConfig::new(Benchmark::UniformRandom, 0.1)
        .expect("positive rate")
        .with_phases(Phases::new(Duration::from_ns(20), Duration::from_ns(150)));
    let net = MeshNetwork::square(4, 7, 5, ()).expect("valid mesh");
    let domain = net.fault_domain();
    let routers = || -> SiteOf<usize> { std::rc::Rc::new(Site::Router) };
    let clean = run_outcome(&net, &run, None, routers(), &mut []).expect("clean run");
    assert!(!clean.deliveries.is_empty(), "clean twin delivered traffic");
    for plan_seed in 0..10u64 {
        let plan = FaultPlan::random(plan_seed, 0.15, &domain);
        assert!(
            plan.recoverable(&domain),
            "mesh random plans are recoverable"
        );
        let faulted =
            run_outcome(&net, &run, Some(&plan), routers(), &mut []).expect("faulted run");
        let verdict = judge(&clean, &faulted, &plan, &domain);
        assert!(
            verdict.pass(),
            "plan seed {plan_seed}, plan '{}': {:?}",
            plan.encode(),
            verdict.failures()
        );
        assert_eq!(clean.deliveries, faulted.deliveries);
    }
}

#[test]
fn lethal_losses_reconcile_ledger_against_span_analysis() {
    // A deliberately unrecoverable plan: three independent lethal
    // losses. The ledger's loss count must reconcile *exactly* with the
    // number of broken span trees the analysis explains by fault
    // records — the graceful-degradation guarantee, end to end.
    let net = mot_net(3);
    let domain = net.fault_domain();
    let run = quick_run();
    let plan = FaultPlan::parse("lose:0:0;lose:3:1;lose:6:0").expect("valid");
    assert!(!plan.recoverable(&domain));

    let clean = run_outcome(&net, &run, None, net.site_of(), &mut []).expect("clean run");
    let faulted =
        run_outcome(&net, &run, Some(&plan), net.site_of(), &mut []).expect("faulted run");

    assert_eq!(faulted.summary.lost, 3, "all three losses fired");
    assert_eq!(faulted.ledger.lost(), 3, "the ledger saw all of them");
    assert_eq!(
        faulted.ledger.lost(),
        faulted.broken_with_cause as u64,
        "every ledger loss is a broken tree with a recorded cause"
    );
    assert_eq!(
        faulted.broken_trees, faulted.broken_with_cause,
        "no tree broke without a recorded cause"
    );

    let verdict = judge(&clean, &faulted, &plan, &domain);
    assert!(!verdict.recoverable);
    assert!(
        verdict.pass(),
        "degradation contract holds: {:?}",
        verdict.failures()
    );
}
