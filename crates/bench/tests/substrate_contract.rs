//! The substrate contract, checked on every fabric: what
//! [`Substrate`] promises the driver, the fault oracle and the CLI must
//! hold for each implementor, not just the one a caller happened to
//! test.

use std::rc::Rc;

use asynoc::telemetry::{LatencyHistograms, Recorder, Site, SiteOf};
use asynoc::{drive, Architecture, Benchmark, RunConfig, Substrate};
use asynoc_bench::conformance::mot;
use asynoc_engine::SimModel;
use asynoc_mesh::MeshNetwork;
use asynoc_vcmesh::{McastScheme, VcMeshNetwork};

fn holds<S: Substrate>(net: &S, site_of: SiteOf<S::Node>) {
    let run = RunConfig::quick(Benchmark::UniformRandom, 0.1);
    assert!(!run.progress(), "a default run draws no heartbeat");

    // Fault plans index channels and endpoints of the model that runs.
    let (model, _probes) = net.prepare(&run);
    let domain = net.fault_domain();
    assert_eq!(domain.channels, model.channel_count());
    assert_eq!(domain.endpoints, model.endpoints());
    assert_eq!(domain.endpoints, net.endpoints());

    // One latency statistic: on unicast traffic the engine's per-packet
    // report and the telemetry collector's per-header one are equal.
    let mut online = LatencyHistograms::new(run.phases(), net.endpoints());
    let report = drive(
        net,
        &RunConfig::quick(run.benchmark(), run.rate_gfs()),
        &mut [&mut Recorder::new(site_of, vec![&mut online])],
        None,
    )
    .expect("run succeeds");
    assert_eq!(report.latency, *online.overall());
    assert!(report.packets_measured > 0);
    // Every run profiles itself: the per-kind counts sum to the events run.
    assert_eq!(report.profile.kinds.total(), report.events_processed);
}

#[test]
fn every_substrate_honours_the_contract() {
    let net = mot(Architecture::OptHybridSpeculative, 3);
    holds(&net, net.site_of());
    let routers = || -> SiteOf<usize> { Rc::new(Site::Router) };
    holds(&MeshNetwork::square(4, 3, 5, ()).unwrap(), routers());
    for mcast in [McastScheme::XyTree, McastScheme::Dpm] {
        holds(&VcMeshNetwork::square(4, 3, 5, mcast).unwrap(), routers());
    }
}
