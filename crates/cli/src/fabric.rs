//! What the CLI knows about a fabric beyond the engine's
//! [`Substrate`](asynoc::Substrate) contract: its document tag, how its
//! nodes group into time-series levels, how they are labelled, and which
//! document sections only it can fill.
//!
//! `metrics`, `faults` and the `--stream` sink are written once against
//! [`Fabric`]; each command matches `--substrate` once to pick the type.

use asynoc::{Duration, MotNode, Network, RunReport};
use asynoc_mesh::{MeshConfig, MeshNetwork, MeshSize};
use asynoc_telemetry::{JsonValue, LevelSpec, SpeculationWaste, TimeSeries};
use asynoc_topology::{FaninNodeId, FanoutNodeId};
use asynoc_vcmesh::{McastScheme, VcMeshConfig, VcMeshNetwork, VcMeshReport};

use crate::args::CommonOptions;
use crate::commands::CliError;

/// A substrate the instrumented commands can run.
pub(crate) trait Fabric: asynoc::Substrate {
    /// The `"substrate"` value of every document, stream head and trace
    /// meta line.
    const TAG: &'static str;

    /// The busy-fraction time-series with this fabric's level grouping.
    fn timeseries(&self, bin: Duration) -> TimeSeries<Self::Node>;

    /// The site label of a node in traces, streams and the waste ledger.
    fn site_label(&self) -> Box<dyn Fn(Self::Node) -> String>;

    /// Wire-launch and drop-acknowledge energies, fJ — fabrics with an
    /// energy model only.
    fn energy_fj(&self) -> Option<(f64, f64)> {
        None
    }

    /// The speculation-waste ledger — fabrics with an energy model only.
    fn waste(&self) -> Option<SpeculationWaste<Self::Node>> {
        None
    }

    /// The `waste` and `power` document sections (null without an energy
    /// model).
    fn energy_sections(
        _report: &Self::Report,
        _waste: Option<&SpeculationWaste<Self::Node>>,
        _window: Duration,
    ) -> (JsonValue, JsonValue) {
        (JsonValue::Null, JsonValue::Null)
    }

    /// Document sections only this fabric has, appended after `counters`.
    fn extra_sections(&self, _report: &Self::Report) -> Vec<(String, JsonValue)> {
        Vec::new()
    }

    /// Flags a replay line needs beyond the shared ones.
    fn replay_flags(&self) -> String {
        String::new()
    }
}

impl Fabric for Network {
    const TAG: &'static str = "mot";

    /// Fanout levels from the root down, then fanin levels from the
    /// leaves toward each sink.
    fn timeseries(&self, bin: Duration) -> TimeSeries<MotNode> {
        let size = self.config().size();
        let levels = size.levels() as usize;
        let specs = ["fanout", "fanin"]
            .iter()
            .flat_map(|kind| {
                (0..levels).map(move |level| LevelSpec {
                    label: format!("{kind}-L{level}"),
                    nodes: size.n() << level,
                })
            })
            .collect();
        TimeSeries::new(
            bin,
            specs,
            Box::new(move |node| match node {
                MotNode::Fanout(flat) => {
                    Some(FanoutNodeId::from_flat_index(size, flat).level as usize)
                }
                MotNode::Fanin(flat) => {
                    Some(levels + FaninNodeId::from_flat_index(size, flat).level as usize)
                }
            }),
        )
    }

    fn site_label(&self) -> Box<dyn Fn(MotNode) -> String> {
        Network::site_label(self)
    }

    fn energy_fj(&self) -> Option<(f64, f64)> {
        let timing = self.config().timing();
        Some((timing.wire_fj, timing.drop_fj))
    }

    fn waste(&self) -> Option<SpeculationWaste<MotNode>> {
        let size = self.config().size();
        let (wire_fj, drop_fj) = self.energy_fj()?;
        Some(SpeculationWaste::new(
            wire_fj,
            drop_fj,
            self.site_label(),
            // A dropped copy was created by the throttler's fanout parent;
            // a root throttle (level 0) is attributed to the node itself.
            Box::new(move |node| match node {
                MotNode::Fanout(flat) => {
                    let id = FanoutNodeId::from_flat_index(size, flat);
                    (id.level > 0).then(|| {
                        let parent = FanoutNodeId {
                            tree: id.tree,
                            level: id.level - 1,
                            index: id.index / 2,
                        };
                        MotNode::Fanout(parent.flat_index(size))
                    })
                }
                MotNode::Fanin(_) => None,
            }),
        ))
    }

    fn energy_sections(
        report: &RunReport,
        waste: Option<&SpeculationWaste<MotNode>>,
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

fn router_label() -> Box<dyn Fn(usize) -> String> {
    Box::new(|router| format!("r{router}"))
}

impl Fabric for MeshNetwork {
    const TAG: &'static str = "mesh";

    fn timeseries(&self, bin: Duration) -> TimeSeries<usize> {
        TimeSeries::single_level(bin, "router", self.config().size().endpoints())
    }

    fn site_label(&self) -> Box<dyn Fn(usize) -> String> {
        router_label()
    }
}

impl Fabric for VcMeshNetwork {
    const TAG: &'static str = "vcmesh";

    fn timeseries(&self, bin: Duration) -> TimeSeries<usize> {
        TimeSeries::single_level(bin, "router", self.config().size().endpoints())
    }

    fn site_label(&self) -> Box<dyn Fn(usize) -> String> {
        router_label()
    }

    /// The `vcs` section: the multicast scheme and the shard-exact
    /// VC-plane counters — the serial-only credit-conservation ledger
    /// stays out of the document so `--shards N` reports remain
    /// byte-identical.
    fn extra_sections(&self, report: &VcMeshReport) -> Vec<(String, JsonValue)> {
        let uints =
            |values: &[u64]| JsonValue::Array(values.iter().map(|&v| JsonValue::uint(v)).collect());
        let vcs = JsonValue::Object(vec![
            (
                "mcast".to_string(),
                JsonValue::str(self.config().mcast().to_string()),
            ),
            ("vc_pushes".to_string(), uints(&report.vc_pushes)),
            ("vc_peak".to_string(), uints(&report.vc_peak)),
            (
                "link_traversals".to_string(),
                JsonValue::uint(report.link_traversals),
            ),
            ("mean_hops".to_string(), JsonValue::Number(report.mean_hops)),
        ]);
        vec![("vcs".to_string(), vcs)]
    }

    /// The shared replay line predates multicast schemes; a non-default
    /// one is part of the run's identity.
    fn replay_flags(&self) -> String {
        let mcast = self.config().mcast();
        if mcast == McastScheme::default() {
            String::new()
        } else {
            format!(" --mcast {mcast}")
        }
    }
}

fn invalid(e: impl std::fmt::Display) -> CliError {
    CliError::Invalid(e.to_string())
}

/// The `cols x rows` wormhole mesh `common` describes.
pub(crate) fn mesh(
    cols: usize,
    rows: usize,
    common: &CommonOptions,
) -> Result<MeshNetwork, CliError> {
    let config = MeshConfig::new(MeshSize::new(cols, rows).map_err(invalid)?)
        .with_seed(common.seed)
        .with_flits_per_packet(common.flits);
    MeshNetwork::new(config).map_err(invalid)
}

/// The square `--size` VC mesh `common` describes.
pub(crate) fn vcmesh(
    mcast: McastScheme,
    common: &CommonOptions,
) -> Result<VcMeshNetwork, CliError> {
    let config = VcMeshConfig::new(MeshSize::new(common.size, common.size).map_err(invalid)?)
        .with_seed(common.seed)
        .with_flits_per_packet(common.flits)
        .with_mcast(mcast);
    VcMeshNetwork::new(config).map_err(invalid)
}
