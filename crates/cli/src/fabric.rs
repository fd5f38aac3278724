//! What the CLI knows about a fabric beyond the engine's
//! [`Substrate`](asynoc::Substrate) contract: its document tag, where its
//! nodes sit, how they group into time-series levels, and which document
//! sections only it can fill.
//!
//! `metrics`, `faults` and the `--stream` sink are written once against
//! [`Fabric`]; each command matches `--substrate` once to pick the type.

use std::rc::Rc;

use asynoc::{Duration, MotNode, Network, Phases, RunReport};
use asynoc_mesh::{Config, MeshError, MeshSize, Network as MeshNetwork, Report, Router, Wormhole};
use asynoc_telemetry::{
    JsonValue, LatencyHistograms, LevelSpec, Site, SiteOf, SpeculationWaste, Stage, TimeSeries,
};
use asynoc_vcmesh::{McastScheme, VcMeshReport, VcRouter};

use crate::args::CommonOptions;
use crate::commands::CliError;

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

    /// How many nodes read a routing symbol a fault plan can override,
    /// numbered from 0: the fanout nodes of a tree fabric, none on a mesh.
    fn symbol_sites(&self) -> usize {
        0
    }

    /// Wire-launch and drop-acknowledge energies, fJ — fabrics with an
    /// energy model only.
    fn energy_fj(&self) -> Option<(f64, f64)> {
        None
    }

    /// The pair every instrumented run keeps, and a `--stream` sink
    /// windows: latency histograms gated on `phases`, and the
    /// busy-fraction time-series with this fabric's level grouping.
    fn collectors(&self, phases: Phases, bin: Duration) -> (LatencyHistograms, TimeSeries) {
        (
            LatencyHistograms::new(phases, self.endpoints()),
            TimeSeries::new(bin, self.levels()),
        )
    }

    /// The speculation-waste ledger — fabrics with an energy model only.
    fn waste(&self) -> Option<SpeculationWaste> {
        let (wire_fj, drop_fj) = self.energy_fj()?;
        Some(SpeculationWaste::new(wire_fj, drop_fj))
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

    fn symbol_sites(&self) -> usize {
        self.config().size().total_fanout_nodes()
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

/// What a mesh router adds to the documents of the fabric it runs on.
pub(crate) trait MeshRouter: Router {
    /// The [`Fabric::TAG`] of a mesh of these routers.
    const TAG: &'static str;

    /// See [`Fabric::extra_sections`].
    fn extra_sections(
        _settings: &Self::Settings,
        _report: &Report<Self::Section>,
    ) -> Vec<(String, JsonValue)> {
        Vec::new()
    }
}

impl MeshRouter for Wormhole {
    const TAG: &'static str = "mesh";
}

impl MeshRouter for VcRouter {
    const TAG: &'static str = "vcmesh";

    /// The `vcs` section: the multicast scheme and the VC-plane counters.
    /// The credit-conservation ledger's audit counts stay out of the
    /// document: they check the router, they do not describe the run.
    fn extra_sections(mcast: &McastScheme, report: &VcMeshReport) -> Vec<(String, JsonValue)> {
        let uints =
            |values: &[u64]| JsonValue::Array(values.iter().map(|&v| JsonValue::uint(v)).collect());
        let vc = &report.router;
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

impl<R: MeshRouter> Fabric for MeshNetwork<R> {
    const TAG: &'static str = R::TAG;

    fn site_of(&self) -> SiteOf<usize> {
        Rc::new(Site::Router)
    }

    fn extra_sections(&self, report: &Report<R::Section>) -> Vec<(String, JsonValue)> {
        R::extra_sections(self.config().router(), report)
    }
}

/// The `cols x rows` mesh of `R` routers `common` describes.
pub(crate) fn mesh<R: MeshRouter>(
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
