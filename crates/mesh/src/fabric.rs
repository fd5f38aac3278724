//! The 2-D mesh fabric: everything a mesh is before its router fires.
//!
//! One [`Grid`] owns the geometry, the link timing and the channel table
//! (the engine's [`Netlist`]), built once per [`Network`]; one [`Config`]
//! / [`Report`] / [`Network`] skeleton and one engine model ([`Model`],
//! which borrows the grid) carry a [`Router`], which supplies what
//! actually differs between meshes: how many channels a link has, the
//! per-router state, and `fire`. The wormhole router lives beside this module
//! ([`Wormhole`](crate::Wormhole)); the credit-based VC router is
//! `asynoc-vcmesh`. Dispatch is static: a `Network<R>` is monomorphised
//! per router, so the fabric adds nothing to a router's firing path.

use std::fmt;
use std::ops::{Deref, DerefMut};

use asynoc_engine::{
    drive, ChannelEnds, Ctx, EngineReport, Netlist, NodeRef, RunConfig, SimModel, Substrate,
};
use asynoc_kernel::Duration;
use asynoc_nodes::KindTiming;
use asynoc_packet::DestSet;
use asynoc_stats::Phases;
use asynoc_traffic::Benchmark;

use crate::router::Port;
use crate::size::{MeshError, MeshSize};

/// Link and router-traversal timing of the mesh, shared by every router.
///
/// A five-port mesh router does full route computation and switch
/// allocation, and drives longer links than an MoT stage; the figures
/// reflect that (router forward latency a bit above the paper's
/// non-speculative MoT node, longer wires). They are deliberately
/// *generous* to the mesh — the MoT's advantage in the comparison comes
/// from hop count and in-network multicast, not from handicapping the
/// router.
#[derive(Clone, Debug, PartialEq)]
pub struct MeshTiming {
    /// Router traversal parameters (shared by all ports).
    pub router: KindTiming,
    /// Per-link wire delay.
    pub wire_delay: Duration,
    /// Channel-free delay at an ejection sink.
    pub sink_ack: Duration,
    /// Minimum flit spacing out of a source.
    pub source_cycle: Duration,
}

impl MeshTiming {
    /// The comparison parameters every mesh run uses.
    #[must_use]
    pub fn calibrated() -> Self {
        MeshTiming {
            router: KindTiming {
                forward_header: Duration::from_ps(320),
                forward_body: Duration::from_ps(250),
                ack_extra: Duration::from_ps(120),
                drop_ack: Duration::from_ps(80),
                cycle_floor: Duration::from_ps(200),
            },
            wire_delay: Duration::from_ps(90),
            sink_ack: Duration::from_ps(200),
            source_cycle: Duration::from_ps(100),
        }
    }
}

/// What a router supplies to run on the mesh fabric: the shape of a link,
/// its per-run state, and `fire`.
///
/// A new *router* (another flow-control or multicast discipline on the
/// same grid) implements this trait and inherits the config, report and
/// network types, the `Substrate` impl, the fault domain and every CLI
/// command. A new *fabric* (another topology) implements
/// `Substrate` itself.
pub trait Router: fmt::Debug {
    /// The router's own static settings in a [`Config`].
    type Settings: Clone + fmt::Debug + PartialEq + Default;
    /// The router's section of a [`Report`].
    type Section;

    /// Channels of a directed link that run with it, router → neighbour
    /// (data). They take the link's first channel ids.
    const DATA_CHANNELS: usize;
    /// Channels that run against it, neighbour → router (credit returns),
    /// allocated after the data channels.
    const RETURN_CHANNELS: usize;
    /// Whether sources serialize a multicast into unicast clones.
    const SERIALIZES_MULTICAST: bool;

    /// Fresh per-run state for every router of `grid`.
    fn new(grid: &Grid, settings: &Self::Settings, run: &RunConfig) -> Self;
    /// Attempts to fire `router`; see [`SimModel::fire`].
    fn fire(&mut self, grid: &Grid, router: usize, ctx: &mut impl Ctx<usize>);
    /// What the finished run reports.
    fn section(self) -> Self::Section;
}

/// The mesh geometry, its link timing and its channel table, built once
/// per [`Network`].
///
/// Channel ids are allocated router by router in row-major order: the
/// links leaving through the north, south, east and west ports (skipping
/// edges; each link its [`Router::DATA_CHANNELS`] then its
/// [`Router::RETURN_CHANNELS`]), then the injection channel, then the
/// ejection channel. A fault plan addresses channels by these numbers.
#[derive(Clone, Debug)]
pub struct Grid {
    size: MeshSize,
    timing: MeshTiming,
    netlist: Netlist<usize>,
    link_out: Vec<[usize; 5]>,
    link_in: Vec<[usize; 5]>,
}

impl Grid {
    /// The entry of [`link_out`](Grid::link_out) / [`link_in`](Grid::link_in)
    /// for a port at the mesh edge.
    pub const ABSENT: usize = usize::MAX;

    fn new<R: Router>(size: MeshSize) -> Self {
        let n = size.endpoints();
        let mut channels = Vec::with_capacity(Grid::channel_count::<R>(size));
        let mut link_out = vec![[Grid::ABSENT; 5]; n];
        let mut link_in = vec![[Grid::ABSENT; 5]; n];
        let ends = |upstream, downstream| ChannelEnds {
            upstream,
            downstream,
        };
        for r in 0..n {
            let (x, y) = size.coords(r);
            let here = NodeRef::Node(r);
            // The link's far end receives it on the opposite port.
            let neighbors = [
                (Port::North, x as isize, y as isize - 1, Port::South),
                (Port::South, x as isize, y as isize + 1, Port::North),
                (Port::East, x as isize + 1, y as isize, Port::West),
                (Port::West, x as isize - 1, y as isize, Port::East),
            ];
            for (port, nx, ny, opposite) in neighbors {
                if nx < 0 || ny < 0 || nx as usize >= size.cols() || ny as usize >= size.rows() {
                    continue;
                }
                let neighbor = size.index(nx as usize, ny as usize);
                let there = NodeRef::Node(neighbor);
                link_out[r][port.index()] = channels.len();
                link_in[neighbor][opposite.index()] = channels.len();
                channels.extend((0..R::DATA_CHANNELS).map(|_| ends(here, there)));
                channels.extend((0..R::RETURN_CHANNELS).map(|_| ends(there, here)));
            }
            link_in[r][Port::Local.index()] = channels.len();
            channels.push(ends(NodeRef::Source(r), here));
            link_out[r][Port::Local.index()] = channels.len();
            channels.push(ends(here, NodeRef::Sink(r)));
        }
        debug_assert_eq!(channels.len(), Grid::channel_count::<R>(size));
        let timing = MeshTiming::calibrated();
        Grid {
            size,
            netlist: Netlist {
                channels,
                source_channel: link_in
                    .iter()
                    .map(|ports| ports[Port::Local.index()])
                    .collect(),
                source_wire_delay: timing.wire_delay,
                source_cycle: timing.source_cycle,
                sink_ack: timing.sink_ack,
                serializes_multicast: R::SERIALIZES_MULTICAST,
            },
            timing,
            link_out,
            link_in,
        }
    }

    /// How many channels a `size` mesh of `R` routers has, in closed form.
    fn channel_count<R: Router>(size: MeshSize) -> usize {
        let (cols, rows) = (size.cols(), size.rows());
        let links = 2 * (cols * (rows - 1) + rows * (cols - 1));
        links * (R::DATA_CHANNELS + R::RETURN_CHANNELS) + 2 * size.endpoints()
    }

    /// The mesh dimensions.
    #[must_use]
    pub fn size(&self) -> MeshSize {
        self.size
    }

    /// The link timing.
    #[must_use]
    pub fn timing(&self) -> &MeshTiming {
        &self.timing
    }

    /// Per dense port index: the first channel of the link leaving
    /// `router` through that port (its data channels, then the returns
    /// coming back); the ejection channel at `Local`.
    #[must_use]
    pub fn link_out(&self, router: usize) -> &[usize; 5] {
        &self.link_out[router]
    }

    /// Per dense port index: the first channel of the link entering
    /// `router` through that port (data arriving, then the returns this
    /// router launches); the injection channel at `Local`.
    #[must_use]
    pub fn link_in(&self, router: usize) -> &[usize; 5] {
        &self.link_in[router]
    }

    /// The router at the far end of the link leaving `router` through
    /// dense port `port`.
    #[must_use]
    pub fn neighbor(&self, router: usize, port: usize) -> Option<usize> {
        let link = self.netlist.channels.get(self.link_out[router][port])?;
        match link.downstream {
            NodeRef::Node(neighbor) => Some(neighbor),
            _ => None,
        }
    }
}

/// Static description of a mesh network: what is fixed about the fabric
/// (size, packet length, seed) and the router's own settings `S`.
/// Everything that varies per run (benchmark, rate, phases, profiling)
/// is a [`RunConfig`].
#[derive(Clone, Debug, PartialEq)]
pub struct Config<S> {
    size: MeshSize,
    flits_per_packet: u8,
    seed: u64,
    router: S,
}

impl<S: Default> Config<S> {
    /// Creates a configuration with 5-flit packets, seed 0 and the
    /// router's default settings.
    #[must_use]
    pub fn new(size: MeshSize) -> Self {
        Config {
            size,
            flits_per_packet: 5,
            seed: 0,
            router: S::default(),
        }
    }

    /// Replaces the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the packet length.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    #[must_use]
    pub fn with_flits_per_packet(mut self, flits: u8) -> Self {
        assert!(flits > 0, "packets must have at least one flit");
        self.flits_per_packet = flits;
        self
    }

    /// Replaces the router's settings.
    #[must_use]
    pub fn with_router(mut self, settings: S) -> Self {
        self.router = settings;
        self
    }

    /// The mesh dimensions.
    #[must_use]
    pub fn size(&self) -> MeshSize {
        self.size
    }

    /// The router's settings.
    #[must_use]
    pub fn router(&self) -> &S {
        &self.router
    }
}

/// Measurements from one mesh run: the engine's (`latency`, `throughput`,
/// `packets_measured`, `events_processed`, `profile`, … — reachable
/// directly through `Deref`) beside the fabric's and the router's own.
#[derive(Clone, Debug)]
pub struct Report<T> {
    /// What the engine measured.
    pub engine: EngineReport,
    /// Mean router-to-router hops of measured destinations (analytic XY
    /// distance, as the benchmark sampled them).
    pub mean_hops: f64,
    /// The router's section.
    pub router: T,
}

impl<T> Deref for Report<T> {
    type Target = EngineReport;

    fn deref(&self) -> &EngineReport {
        &self.engine
    }
}

impl<T> DerefMut for Report<T> {
    fn deref_mut(&mut self) -> &mut EngineReport {
        &mut self.engine
    }
}

/// A ready-to-run mesh network of `R` routers: its configuration and its
/// one [`Grid`]. Router nodes are identified to observers by their
/// linear index.
#[derive(Clone, Debug)]
pub struct Network<R: Router> {
    config: Config<R::Settings>,
    grid: Grid,
}

impl<R: Router> Network<R> {
    /// Builds the network and its grid.
    ///
    /// # Errors
    ///
    /// Currently infallible for a valid [`Config`]; returns `Result` for
    /// parity with the MoT API.
    pub fn new(config: impl Into<Config<R::Settings>>) -> Result<Self, MeshError> {
        let config = config.into();
        let grid = Grid::new::<R>(config.size);
        Ok(Network { config, grid })
    }

    /// The square `side x side` network with the given seed, packet
    /// length and router settings.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::InvalidSize`] on an unsupported side.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    pub fn square(
        side: usize,
        seed: u64,
        flits: u8,
        settings: R::Settings,
    ) -> Result<Self, MeshError> {
        let config = Config::new(MeshSize::new(side, side)?)
            .with_seed(seed)
            .with_flits_per_packet(flits)
            .with_router(settings);
        Network::new(config)
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &Config<R::Settings> {
        &self.config
    }

    /// Runs `benchmark` at `rate` flits/ns per endpoint over `phases`,
    /// with a bounded drain. Observers, fault tables and profiling go
    /// through [`drive`] with a full [`RunConfig`].
    ///
    /// # Errors
    ///
    /// Returns an error for a non-positive rate or a traffic-layer
    /// rejection.
    pub fn run(
        &self,
        benchmark: Benchmark,
        rate: f64,
        phases: Phases,
    ) -> Result<Report<R::Section>, MeshError> {
        let run = RunConfig::new(benchmark, rate)?.with_phases(phases);
        Ok(drive(self, &run, &mut [], None)?)
    }
}

/// The fault domain is the grid's whole netlist: every channel of every
/// link is stallable (a credit return exactly as a data channel) and every
/// source can drop. Mesh routers read destination indices, not tree
/// symbols, so there are no symbol-corruption sites.
impl<R: Router> Substrate for Network<R> {
    type Node = usize;
    type Model<'a>
        = Model<'a, R>
    where
        R: 'a;
    type Report = Report<R::Section>;

    fn netlist(&self) -> &Netlist<usize> {
        &self.grid.netlist
    }

    fn flits_per_packet(&self) -> u8 {
        self.config.flits_per_packet
    }

    fn seed(&self) -> u64 {
        self.config.seed
    }

    fn prepare(&self, run: &RunConfig) -> Model<'_, R> {
        let grid = &self.grid;
        Model {
            grid,
            router: R::new(grid, &self.config.router, run),
            hop_sum: 0,
            hop_count: 0,
        }
    }

    fn report(
        &self,
        _run: &RunConfig,
        engine: EngineReport,
        model: Model<'_, R>,
    ) -> Report<R::Section> {
        let mean_hops = match model.hop_count {
            0 => 0.0,
            count => model.hop_sum as f64 / count as f64,
        };
        Report {
            engine,
            mean_hops,
            router: model.router.section(),
        }
    }
}

/// The engine model of a mesh run: the borrowed grid, the router's
/// state, and the hop analytics.
pub struct Model<'a, R> {
    grid: &'a Grid,
    router: R,
    hop_sum: u64,
    hop_count: u64,
}

impl<R: Router> SimModel for Model<'_, R> {
    type Node = usize;

    fn on_packet(&mut self, source: usize, dests: DestSet, measured: bool) {
        if !measured {
            return;
        }
        for dest in dests.iter() {
            self.hop_sum += self.grid.size.hops(source, dest) as u64;
            self.hop_count += 1;
        }
    }

    fn fire(&mut self, router: usize, ctx: &mut impl Ctx<usize>) {
        self.router.fire(self.grid, router, ctx);
    }
}
