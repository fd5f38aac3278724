//! What the CLI knows about a fabric beyond the engine's
//! [`Substrate`](asynoc::Substrate) contract: its document tag, where its
//! nodes sit, how they group into time-series levels, and which document
//! sections only it can fill.
//!
//! `metrics` and `faults` are written once against [`Fabric`], as an
//! [`OnFabric`] command; [`dispatch`] is the one place `--substrate` is
//! matched to pick the type, and [`crate::stream::observe`] the one
//! instrumented-run set-up every fabric command shares.

use std::rc::Rc;

use asynoc::{Duration, MotNode, Network, RunReport};
use asynoc_mesh::{Config, MeshError, MeshSize, Network as MeshNetwork, Router, Wormhole};
use asynoc_telemetry::{JsonValue, LevelSpec, Site, SiteOf, SpeculationWaste, Stage};
use asynoc_vcmesh::{VcMeshReport, VcRouter};

use crate::args::{CommonOptions, RunTarget, Substrate};
use crate::commands::{network_for, placement_id, resolve_spec_map, CliError};

/// A substrate the instrumented commands can run.
pub(crate) trait Fabric: asynoc::Substrate {
    /// The `"substrate"` value of every document, stream head and trace
    /// meta line.
    const TAG: &'static str;

    /// Where a node sits: what the run's one `Recorder` is built with.
    fn site_of(&self) -> SiteOf<Self::Node>;

    /// The groups the time-series aggregates busy time by: one level of
    /// routers unless the fabric has stages of its own.
    fn levels(&self) -> Vec<LevelSpec> {
        vec![LevelSpec {
            stage: Stage::Router,
            nodes: self.endpoints(),
        }]
    }

    /// Wire-launch and drop-acknowledge energies, fJ — fabrics with an
    /// energy model only.
    fn energy_fj(&self) -> Option<(f64, f64)> {
        None
    }

    /// The `waste` and `power` document sections (null without an energy
    /// model).
    fn energy_sections(
        _report: &Self::Report,
        _waste: Option<&SpeculationWaste>,
        _window: Duration,
    ) -> (JsonValue, JsonValue) {
        (JsonValue::Null, JsonValue::Null)
    }

    /// Document sections only this fabric has, appended after `counters`.
    fn extra_sections(&self, _report: &Self::Report) -> Vec<(String, JsonValue)> {
        Vec::new()
    }
}

impl Fabric for Network {
    const TAG: &'static str = "mot";

    fn site_of(&self) -> SiteOf<MotNode> {
        Network::site_of(self)
    }

    fn levels(&self) -> Vec<LevelSpec> {
        Network::levels(self)
    }

    fn energy_fj(&self) -> Option<(f64, f64)> {
        let timing = self.config().timing();
        Some((timing.wire_fj, timing.drop_fj))
    }

    fn energy_sections(
        report: &RunReport,
        waste: Option<&SpeculationWaste>,
        window: Duration,
    ) -> (JsonValue, JsonValue) {
        // mW = fJ/ps, so dynamic energy over the window is mW x ps (in fJ).
        let dynamic_fj = report.power.dynamic_mw() * window.as_ps() as f64;
        (
            waste.map_or(JsonValue::Null, |waste| waste.to_json(dynamic_fj)),
            crate::metrics::power_json(report, window),
        )
    }
}

impl Fabric for MeshNetwork<Wormhole> {
    const TAG: &'static str = "mesh";

    fn site_of(&self) -> SiteOf<usize> {
        Rc::new(Site::Router)
    }
}

impl Fabric for MeshNetwork<VcRouter> {
    const TAG: &'static str = "vcmesh";

    fn site_of(&self) -> SiteOf<usize> {
        Rc::new(Site::Router)
    }

    /// The `vcs` section: the multicast scheme and the VC-plane counters.
    /// The credit-conservation ledger's audit counts stay out of the
    /// document: they check the router, they do not describe the run.
    fn extra_sections(&self, report: &VcMeshReport) -> Vec<(String, JsonValue)> {
        let uints =
            |values: &[u64]| JsonValue::Array(values.iter().map(|&v| JsonValue::uint(v)).collect());
        let vc = &report.router;
        let mcast = self.config().router();
        let vcs = JsonValue::Object(vec![
            ("mcast".to_string(), JsonValue::str(mcast.to_string())),
            ("vc_pushes".to_string(), uints(&vc.vc_pushes)),
            ("vc_peak".to_string(), uints(&vc.vc_peak)),
            (
                "link_traversals".to_string(),
                JsonValue::uint(vc.link_traversals),
            ),
            ("mean_hops".to_string(), JsonValue::Number(report.mean_hops)),
        ]);
        vec![("vcs".to_string(), vcs)]
    }
}

/// The `cols x rows` mesh of `R` routers `common` describes.
pub(crate) fn mesh<R: Router>(
    cols: usize,
    rows: usize,
    settings: R::Settings,
    common: &CommonOptions,
) -> Result<MeshNetwork<R>, CliError> {
    let invalid = |e: MeshError| CliError::Invalid(e.to_string());
    let config = Config::new(MeshSize::new(cols, rows).map_err(invalid)?)
        .with_seed(common.seed)
        .with_flits_per_packet(common.flits)
        .with_router(settings);
    MeshNetwork::new(config).map_err(invalid)
}

/// A command written once against [`Fabric`].
pub(crate) trait OnFabric {
    /// What the command returns.
    type Output;

    /// Runs the command on `net`. `placement` is the placement identity
    /// string of a MoT run (preset name or canonical map form), `None` on
    /// a mesh.
    fn on<F: Fabric>(self, net: &F, placement: Option<String>) -> Result<Self::Output, CliError>;
}

/// Builds the fabric `target` names and runs `command` on it.
pub(crate) fn dispatch<C: OnFabric>(target: &RunTarget, command: C) -> Result<C::Output, CliError> {
    let common = &target.common;
    let size = common.size;
    match target.substrate {
        Substrate::Mot => {
            let map = resolve_spec_map(target.arch, target.spec_map.as_ref(), common)?;
            let net = network_for(&map, common)?;
            command.on(&net, Some(placement_id(target.arch, &map)))
        }
        Substrate::Mesh => command.on(&mesh::<Wormhole>(size, size, (), common)?, None),
        Substrate::Vcmesh => command.on(&mesh::<VcRouter>(size, size, target.mcast, common)?, None),
    }
}
