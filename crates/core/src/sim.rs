//! The MoT network simulator, expressed as an engine [`SimModel`].
//!
//! # Execution model
//!
//! Every bundled-data channel holds at most one flit. An entity (source,
//! fanout node, fanin node) *fires* when all of its preconditions hold —
//! a flit is present at its input, the output channels its protocol demands
//! are free, and its cycle floor has elapsed. Firing moves the flit into
//! the demanded output channel(s) (cloning it at multicast branch points
//! and speculative broadcasts), schedules the flit's arrival downstream
//! after the node's forward latency plus the wire delay, and schedules the
//! input channel to free after the node has generated its acknowledge
//! (`forward + ack_extra`, or just `drop_ack` for throttled flits).
//!
//! Sources, sinks, channels, the event queue, and the paper's §5.1
//! measurement protocol live in `asynoc-engine`; this module contributes
//! only what is MoT-specific — the fabric wiring, the fanout/fanin firing
//! rules, and the tree routing — via [`MotModel`], and the [`Substrate`]
//! contract ([`Network`]'s endpoint count, fault domain, and report
//! section) the engine's one driver runs it through. Power attaches as an
//! [`Observer`](asynoc_engine::Observer) (see [`crate::observers`]);
//! telemetry is one more, a [`Recorder`](asynoc_telemetry::Recorder) the
//! caller registers, its nodes placed by [`Network::site_of`].

use std::rc::Rc;

use asynoc_engine::{
    drive, ChannelEnds, Ctx, EngineReport, FaultDomain, ForwardInfo, NodeKey, NodeRef, SimEvent,
    SimModel, Substrate,
};
use asynoc_kernel::{Duration, Time};
use asynoc_nodes::{FaninState, FanoutState, FlitClass, TimingModel};
use asynoc_telemetry::{LevelSpec, Site, SiteOf, Stage};
use asynoc_topology::{FaninNodeId, FanoutKind, FanoutNodeId, OutputPort};

use crate::config::{NetworkConfig, RunConfig};
use crate::error::SimError;
use crate::fabric::{Downstream, Entity, Fabric};
use crate::observers::MotProbes;
use crate::report::RunReport;

/// A ready-to-run simulated network.
///
/// Construction elaborates the full fabric (nodes, channels, wiring) once;
/// each [`run`](Network::run) then executes an independent simulation with
/// fresh dynamic state, so one `Network` can be reused across benchmarks
/// and injection rates.
///
/// # Examples
///
/// ```
/// use asynoc::{Architecture, Benchmark, Network, NetworkConfig, RunConfig};
///
/// let network = Network::new(NetworkConfig::eight_by_eight(
///     Architecture::BasicNonSpeculative,
/// ))?;
/// let report = network.run(&RunConfig::quick(Benchmark::UniformRandom, 0.3))?;
/// assert!(report.acceptance() > 0.9);
/// # Ok::<(), asynoc::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    config: NetworkConfig,
    fabric: Fabric,
}

/// A node of the MoT fabric, as seen by the engine and its observers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MotNode {
    /// Fanout (routing) node by flat index.
    Fanout(usize),
    /// Fanin (arbitration) node by flat index.
    Fanin(usize),
}

impl NodeKey for MotNode {
    fn node_key(&self) -> u64 {
        // Interleave the two flat index spaces; injective and stable.
        match *self {
            MotNode::Fanout(flat) => (flat as u64) << 1,
            MotNode::Fanin(flat) => ((flat as u64) << 1) | 1,
        }
    }

    fn from_node_key(key: u64) -> Self {
        let flat = (key >> 1) as usize;
        if key & 1 == 0 {
            MotNode::Fanout(flat)
        } else {
            MotNode::Fanin(flat)
        }
    }
}

impl Network {
    /// Elaborates a network from its configuration.
    ///
    /// # Errors
    ///
    /// Currently infallible — a [`NetworkConfig`] can only hold a validated
    /// [`SpecMap`](asynoc_topology::SpecMap) — but returns `Result` so
    /// future validation does not break the API.
    pub fn new(config: NetworkConfig) -> Result<Self, SimError> {
        let fabric = Fabric::build(config.spec_map());
        Ok(Network { config, fabric })
    }

    /// The configuration this network was built from.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Total network leakage power, milliwatts.
    #[must_use]
    pub fn leakage_mw(&self) -> f64 {
        self.fabric.leakage_mw(self.config.timing())
    }

    /// Total cell area of all nodes, µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        let timing = self.config.timing();
        let fanout: f64 = self
            .fabric
            .fanout_kind
            .iter()
            .map(|&k| timing.fanout_area(k))
            .sum();
        fanout + self.config.size().total_fanin_nodes() as f64 * timing.fanin_area_um2
    }

    /// Places a node by its coordinates (`fo[s0:1.1]`, `fi[d4:2.0]`): what
    /// a run's [`Recorder`](asynoc_telemetry::Recorder) is built with.
    #[must_use]
    pub fn site_of(&self) -> SiteOf<MotNode> {
        let size = self.config.size();
        Rc::new(move |node| match node {
            MotNode::Fanout(flat) => {
                let FanoutNodeId { tree, level, index } = FanoutNodeId::from_flat_index(size, flat);
                Site::Fanout { tree, level, index }
            }
            MotNode::Fanin(flat) => {
                let FaninNodeId { tree, level, index } = FaninNodeId::from_flat_index(size, flat);
                Site::Fanin { tree, level, index }
            }
        })
    }

    /// The groups a busy-fraction time-series aggregates this network's
    /// nodes by: fanout levels from the root down, then fanin levels from
    /// the root (at the sink) up, each with its node count.
    #[must_use]
    pub fn levels(&self) -> Vec<LevelSpec> {
        let size = self.config.size();
        [Stage::Fanout, Stage::Fanin]
            .into_iter()
            .flat_map(|stage| {
                (0..size.levels()).map(move |level| LevelSpec {
                    stage: stage(level),
                    nodes: size.n() << level,
                })
            })
            .collect()
    }

    /// Executes one benchmark run and reports its measurements.
    ///
    /// # Errors
    ///
    /// Returns an error if the traffic specification is invalid for this
    /// network (rate, benchmark/source mismatch).
    pub fn run(&self, run: &RunConfig) -> Result<RunReport, SimError> {
        Ok(drive(self, run, &mut [], None)?)
    }
}

impl Substrate for Network {
    type Node = MotNode;
    type Model<'a> = MotModel<'a>;
    type Probes<'a> = MotProbes<'a>;
    type Report = RunReport;

    fn endpoints(&self) -> usize {
        self.config.size().n()
    }

    fn flits_per_packet(&self) -> u8 {
        self.config.flits_per_packet()
    }

    fn seed(&self) -> u64 {
        self.config.seed()
    }

    /// The legal fault-injection targets of this network.
    ///
    /// Symbol-corruption sites are restricted to fanout nodes where a
    /// widened (`Both`) override is provably recoverable: the node is
    /// not a baseline node (baseline hardware has no replication path at
    /// all), and some deeper fanout level consists entirely of
    /// symbol-obeying kinds, so every spurious copy reads its
    /// default-`Drop` symbol there and throttles before arbitration —
    /// the same local-recovery region speculation itself relies on.
    fn fault_domain(&self) -> FaultDomain {
        let levels = self.config.size().levels();
        // A level is a guaranteed throttle stage iff *every* node on it
        // obeys its routing symbol (speculative kinds forward headers
        // regardless, letting spurious copies slip deeper).
        let mut level_throttles = vec![true; levels as usize];
        for (flat, &kind) in self.fabric.fanout_kind.iter().enumerate() {
            if !matches!(
                kind,
                FanoutKind::NonSpeculative | FanoutKind::OptNonSpeculative
            ) {
                level_throttles[self.fabric.fanout_coords[flat].level as usize] = false;
            }
        }
        let corrupt_sites = self
            .fabric
            .fanout_kind
            .iter()
            .enumerate()
            .filter(|&(flat, &kind)| {
                let level = self.fabric.fanout_coords[flat].level;
                kind != FanoutKind::Baseline
                    && (level + 1..levels).any(|m| level_throttles[m as usize])
            })
            .map(|(flat, _)| flat)
            .collect();
        FaultDomain {
            channels: self.fabric.channels.len(),
            endpoints: self.config.size().n(),
            corrupt_sites,
        }
    }

    fn prepare(&self, _run: &RunConfig) -> (MotModel<'_>, MotProbes<'_>) {
        let timing = self.config.timing();
        (
            MotModel::new(&self.fabric, timing),
            MotProbes::new(timing, &self.fabric),
        )
    }

    fn report(
        &self,
        run: &RunConfig,
        engine: EngineReport,
        _model: MotModel<'_>,
        probes: MotProbes<'_>,
    ) -> RunReport {
        let ledger = probes.into_ledger();
        RunReport {
            engine,
            power: ledger.report(run.phases().measure(), self.leakage_mw()),
        }
    }
}

/// The MoT substrate: fabric wiring, node firing rules, tree routing.
///
/// Dynamic per-node state (speculation latches, arbitration fairness,
/// cycle floors) lives here; everything substrate-independent lives in
/// the engine.
pub struct MotModel<'a> {
    fabric: &'a Fabric,
    timing: &'a TimingModel,
    fanout_state: Vec<FanoutState>,
    fanout_next_fire: Vec<Time>,
    fanin_state: Vec<FaninState>,
    fanin_next_fire: Vec<Time>,
}

impl<'a> MotModel<'a> {
    fn new(fabric: &'a Fabric, timing: &'a TimingModel) -> Self {
        let fanin_total = fabric.fanin_input.len();
        MotModel {
            fabric,
            timing,
            fanout_state: fabric
                .fanout_kind
                .iter()
                .map(|&k| FanoutState::new(k))
                .collect(),
            fanout_next_fire: vec![Time::ZERO; fabric.fanout_kind.len()],
            fanin_state: (0..fanin_total).map(|_| FaninState::new()).collect(),
            fanin_next_fire: vec![Time::ZERO; fanin_total],
        }
    }

    fn fire_fanout(&mut self, flat: usize, ctx: &mut impl Ctx<MotNode>) {
        let input = self.fabric.fanout_input[flat];
        let Some(flit_ref) = ctx.arrived(input) else {
            return;
        };
        // No header rides the flit: the node reads its symbol from the
        // destination set.
        let descriptor = flit_ref.descriptor();
        let node = self.fabric.fanout_coords[flat];
        let mut symbol = node.symbol_for(self.fabric.size, descriptor.dests());
        let flit_kind = flit_ref.kind();
        let packet = descriptor.id().as_u64();
        if let Some((corrupted, fresh)) = ctx.fault_symbol(flat, packet, flit_kind.is_header()) {
            symbol = corrupted;
            if let Some(class) = fresh {
                // First read of the afflicted train: report the injection
                // once, even if the node then stalls and re-fires.
                let flit = *ctx.arrived(input).expect("flit checked present above");
                ctx.emit(&SimEvent::Fault {
                    class,
                    site: flat,
                    flit: &flit,
                });
            }
        }
        let decision = self.fanout_state[flat].peek(flit_kind, symbol);

        if ctx.now() < self.fanout_next_fire[flat] {
            ctx.retry(MotNode::Fanout(flat), self.fanout_next_fire[flat]);
            return;
        }
        if !decision.is_drop() {
            // All demanded outputs must be free *simultaneously*: the
            // speculative node's C-element acknowledge and the
            // non-speculative node's parallel Reqout generation both couple
            // the outputs.
            for port in OutputPort::BOTH {
                let demanded = match port {
                    OutputPort::Top => decision.forward.wants_top(),
                    OutputPort::Bottom => decision.forward.wants_bottom(),
                };
                if demanded && !ctx.is_free(self.fabric.fanout_out[flat][port.index()]) {
                    return; // subscribed: that channel's free wakes us
                }
            }
        }

        let committed = self.fanout_state[flat].decide(flit_kind, symbol);
        debug_assert_eq!(committed, decision);
        let flit = ctx.take_arrived(input);

        let kind = self.fabric.fanout_kind[flat];
        let timing = *self.timing.fanout(kind);
        let class = FlitClass::of(flit_kind);

        if decision.is_drop() {
            // Throttle: acknowledge upstream without forwarding.
            ctx.emit(&SimEvent::Drop {
                node: MotNode::Fanout(flat),
                flit: &flit,
                busy: timing.drop_ack,
            });
            ctx.free_after(input, timing.drop_ack);
        } else {
            let forward = timing.forward(class);
            let copies =
                u8::from(decision.forward.wants_top()) + u8::from(decision.forward.wants_bottom());
            ctx.emit(&SimEvent::Forward {
                node: MotNode::Fanout(flat),
                flit: &flit,
                info: ForwardInfo::Routed(decision.forward),
                copies,
                busy: timing.free_delay(class),
            });
            for port in OutputPort::BOTH {
                let demanded = match port {
                    OutputPort::Top => decision.forward.wants_top(),
                    OutputPort::Bottom => decision.forward.wants_bottom(),
                };
                if !demanded {
                    continue;
                }
                let out = self.fabric.fanout_out[flat][port.index()];
                ctx.launch(out, flit, forward + self.timing.wire_delay);
            }
            ctx.free_after(input, timing.free_delay(class));
        }
        self.fanout_next_fire[flat] = ctx.now() + timing.cycle_floor;
    }

    fn fire_fanin(&mut self, flat: usize, ctx: &mut impl Ctx<MotNode>) {
        let [c0, c1] = self.fabric.fanin_input[flat];
        let p0 = ctx.arrived(c0).is_some();
        let p1 = ctx.arrived(c1).is_some();
        let Some(winner) = self.fanin_state[flat].select(p0, p1) else {
            return;
        };
        if ctx.now() < self.fanin_next_fire[flat] {
            ctx.retry(MotNode::Fanin(flat), self.fanin_next_fire[flat]);
            return;
        }
        let out = self.fabric.fanin_out[flat];
        if !ctx.is_free(out) {
            return; // subscribed: woken when the output drains
        }

        let input_channel = [c0, c1][winner];
        let flit = ctx.take_arrived(input_channel);
        self.fanin_state[flat].advance(winner, flit.kind());

        let timing = self.timing.fanin;
        let class = FlitClass::of(flit.kind());
        ctx.emit(&SimEvent::Forward {
            node: MotNode::Fanin(flat),
            flit: &flit,
            info: ForwardInfo::Arbitrated { input: winner },
            copies: 1,
            busy: timing.free_delay(class),
        });
        ctx.launch(out, flit, timing.forward(class) + self.timing.wire_delay);
        if ctx.arrived([c1, c0][winner]).is_some() {
            // The losing input waits on the output just taken.
            ctx.wake_on_free(out);
        }
        ctx.free_after(input_channel, timing.free_delay(class));
        self.fanin_next_fire[flat] = ctx.now() + timing.cycle_floor;
    }
}

impl SimModel for MotModel<'_> {
    type Node = MotNode;

    fn endpoints(&self) -> usize {
        self.fabric.size.n()
    }

    fn channel_count(&self) -> usize {
        self.fabric.channels.len()
    }

    fn channel_ends(&self, channel: usize) -> ChannelEnds<MotNode> {
        let wiring = &self.fabric.channels[channel];
        let upstream = match wiring.upstream {
            Entity::Source(s) => NodeRef::Source(s),
            Entity::Fanout(f) => NodeRef::Node(MotNode::Fanout(f)),
            Entity::Fanin(f) => NodeRef::Node(MotNode::Fanin(f)),
        };
        let downstream = match wiring.downstream {
            Downstream::Fanout(f) => NodeRef::Node(MotNode::Fanout(f)),
            Downstream::Fanin { flat, .. } => NodeRef::Node(MotNode::Fanin(flat)),
            Downstream::Sink(d) => NodeRef::Sink(d),
        };
        ChannelEnds {
            upstream,
            downstream,
        }
    }

    fn source_channel(&self, source: usize) -> usize {
        self.fabric.source_out[source]
    }

    fn source_wire_delay(&self) -> Duration {
        self.timing.wire_delay
    }

    fn source_cycle(&self) -> Duration {
        self.timing.source_cycle
    }

    fn sink_ack(&self) -> Duration {
        self.timing.sink_ack
    }

    fn serializes_multicast(&self) -> bool {
        self.fabric.serializes_multicast
    }

    fn fire(&mut self, node: MotNode, ctx: &mut impl Ctx<MotNode>) {
        match node {
            MotNode::Fanout(flat) => self.fire_fanout(flat, ctx),
            MotNode::Fanin(flat) => self.fire_fanin(flat, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::config::{NetworkConfig, RunConfig};
    use asynoc_telemetry::{Action, RecordSink, Recorder, SpeculationWaste, TraceRecord};
    use asynoc_topology::Architecture;
    use asynoc_traffic::Benchmark;

    fn quick_run(arch: Architecture, benchmark: Benchmark, rate: f64) -> RunReport {
        let network = Network::new(NetworkConfig::eight_by_eight(arch).with_seed(42)).unwrap();
        network.run(&RunConfig::quick(benchmark, rate)).unwrap()
    }

    /// Replication happens inside a parallel-multicast network, never in
    /// front of a serializing one: delivered / injected flits.
    #[test]
    fn only_a_parallel_network_replicates_in_flight() {
        for (arch, replication) in [
            (Architecture::OptHybridSpeculative, 1.05..=f64::MAX),
            (Architecture::Baseline, 0.9..=1.1),
        ] {
            let report = quick_run(arch, Benchmark::Multicast10, 0.2);
            let throughput = report.throughput;
            let ratio = throughput.delivered / throughput.injected.max(1e-9);
            assert!(replication.contains(&ratio), "{arch}: {throughput}");
        }
    }

    /// A fanout node fires at most once per cycle floor: stretched past
    /// every acknowledge, the floor alone caps an uncontended permutation.
    #[test]
    fn a_cycle_floor_paces_its_node() {
        let mut timing = TimingModel::calibrated();
        timing.baseline.cycle_floor = Duration::from_ps(2_000);
        let config = NetworkConfig::eight_by_eight(Architecture::Baseline).with_timing(timing);
        let network = Network::new(config.with_seed(42)).unwrap();
        let report = network
            .run(&RunConfig::quick(Benchmark::Shuffle, 1.0))
            .unwrap();
        // One flit per 2 ns per source, where 1.0 GF/s is otherwise accepted.
        let delivered = report.throughput.delivered;
        assert!((0.4..=0.5).contains(&delivered), "{delivered} GF/s");
    }

    #[test]
    fn power_scales_with_load() {
        let low = quick_run(Architecture::Baseline, Benchmark::UniformRandom, 0.1);
        let high = quick_run(Architecture::Baseline, Benchmark::UniformRandom, 0.4);
        assert!(
            high.power.total_mw() > low.power.total_mw(),
            "power must grow with activity: {} vs {}",
            high.power,
            low.power
        );
        assert!(low.power.leakage_mw() > 0.0);
    }

    /// One quick run on `network` whose records `sinks` see.
    fn recorded_run(
        network: &Network,
        benchmark: Benchmark,
        rate: f64,
        sinks: Vec<&mut dyn RecordSink>,
    ) -> RunReport {
        let mut recorder = Recorder::new(network.site_of(), sinks);
        let run = RunConfig::quick(benchmark, rate);
        drive(network, &run, &mut [&mut recorder], None).unwrap()
    }

    /// Redundant copies die at the first non-speculative node: a fanout
    /// level throttles exactly when it obeys its symbols and the level
    /// above it speculates — the paper's "local region" of speculation.
    #[test]
    fn copies_die_at_the_first_non_speculative_level_below_a_speculative_one() {
        let size = asynoc_topology::MotSize::new(8).unwrap();
        for map in [
            "levels:ns,ns,ns",
            "levels:sp,ns,ns",
            "levels:ons,osp,ons",
            "levels:osp,osp,ons",
        ] {
            let map = asynoc_topology::SpecMap::parse(size, map).unwrap();
            let kinds = map.level_kinds().to_vec();
            let network = Network::new(NetworkConfig::with_spec_map(map).with_seed(42)).unwrap();
            let timing = network.config().timing();
            let mut waste = SpeculationWaste::new(timing.wire_fj, timing.drop_fj);
            let report = recorded_run(&network, Benchmark::UniformRandom, 0.2, vec![&mut waste]);
            assert_eq!(report.packets_incomplete, 0, "{kinds:?}");
            let mut throttles = vec![0; kinds.len()];
            for (label, node) in waste.per_node() {
                if let Stage::Fanout(level) = label.parse::<Site>().unwrap().stage() {
                    throttles[level as usize] += node.throttles;
                }
            }
            assert_eq!(throttles.iter().sum::<u64>(), report.flits_throttled);
            for (level, &count) in throttles.iter().enumerate() {
                let region_edge = level > 0
                    && kinds[level - 1].is_speculative()
                    && !kinds[level].is_speculative();
                assert_eq!(
                    count > 0,
                    region_edge,
                    "{kinds:?}: level {level} {throttles:?}"
                );
            }
        }
    }

    /// Fires and busy picoseconds per fanin node over the measurement
    /// window.
    #[derive(Default)]
    struct FaninLoad(HashMap<FaninNodeId, (u64, u64)>);

    impl RecordSink for FaninLoad {
        fn on_record(&mut self, record: &TraceRecord, in_window: bool) {
            if let (true, Action::Forward, Site::Fanin { tree, level, index }) =
                (in_window, record.action, record.site)
            {
                let load = self
                    .0
                    .entry(FaninNodeId { tree, level, index })
                    .or_default();
                *load = (load.0 + 1, load.1 + record.busy_ps);
            }
        }
    }

    #[test]
    fn hotspot_activity_concentrates_on_one_fanin_tree() {
        let network =
            Network::new(NetworkConfig::eight_by_eight(Architecture::Baseline).with_seed(42))
                .unwrap();
        let mut load = FaninLoad::default();
        recorded_run(&network, Benchmark::Hotspot, 0.15, vec![&mut load]);
        let mut per_tree = vec![0; network.config().size().n()];
        for (node, (fires, _)) in &load.0 {
            per_tree[node.tree] += fires;
        }
        assert!(per_tree[0] > 0);
        assert!(per_tree[1..].iter().all(|&fires| fires == 0));
        let busiest = load
            .0
            .iter()
            .max_by_key(|(_, &(_, busy))| busy)
            .expect("nodes exist")
            .0;
        assert_eq!(busiest.tree, 0, "hotspot bottleneck must sit in tree 0");
    }

    fn network_of(n: usize) -> Network {
        let size = asynoc_topology::MotSize::new(n).expect("a power of two");
        Network::new(NetworkConfig::new(size, Architecture::OptHybridSpeculative))
            .expect("a preset builds")
    }

    #[test]
    fn every_node_has_one_spelling_and_it_reads_back() {
        // The topology crate's coordinate types keep a `Display` of their
        // own; it must be the `Site` spelling, node for node.
        for n in [2, 4, 8, 16, 32, 64] {
            let network = network_of(n);
            let (size, site_of) = (network.config().size(), network.site_of());
            for flat in 0..size.total_fanout_nodes() {
                let site = site_of(MotNode::Fanout(flat));
                let label = FanoutNodeId::from_flat_index(size, flat).to_string();
                assert_eq!(site.to_string(), label);
                assert_eq!(label.parse(), Ok(site));
            }
            for flat in 0..size.total_fanin_nodes() {
                let site = site_of(MotNode::Fanin(flat));
                let label = FaninNodeId::from_flat_index(size, flat).to_string();
                assert_eq!(site.to_string(), label);
                assert_eq!(label.parse(), Ok(site));
            }
            // One group per level and kind, every node in exactly one.
            let levels = network.levels();
            let grouped: usize = levels.iter().map(|level| level.nodes).sum();
            assert_eq!(levels.len(), 2 * size.levels() as usize);
            assert_eq!(
                grouped,
                size.total_fanout_nodes() + size.total_fanin_nodes()
            );
        }
        // Endpoints and the routers of every mesh up to 8 x 8.
        for n in 0..64 {
            for site in [Site::Source(n), Site::Sink(n), Site::Router(n)] {
                assert_eq!(site.to_string().parse(), Ok(site));
            }
        }
    }

    #[test]
    fn every_node_key_reads_back_its_node() {
        let size = network_of(64).config().size();
        let fanouts = (0..size.total_fanout_nodes()).map(MotNode::Fanout);
        let fanins = (0..size.total_fanin_nodes()).map(MotNode::Fanin);
        for node in fanouts.chain(fanins) {
            assert_eq!(MotNode::from_node_key(node.node_key()), node);
        }
    }

    #[test]
    fn site_arithmetic_is_the_fabric_wiring() {
        for n in [2, 4, 8, 16] {
            let network = network_of(n);
            let (fabric, site_of) = (&network.fabric, network.site_of());
            // The upstream end of every channel is among the downstream
            // end's parent candidates — for the source tree the flit is in.
            for wiring in &fabric.channels {
                let (upstream, tree) = match wiring.upstream {
                    Entity::Source(source) => (Site::Source(source), source),
                    Entity::Fanout(flat) => (
                        site_of(MotNode::Fanout(flat)),
                        fabric.fanout_coords[flat].tree,
                    ),
                    // Past the fanout leaves the candidates name no source.
                    Entity::Fanin(flat) => (site_of(MotNode::Fanin(flat)), usize::MAX),
                };
                let downstream = match wiring.downstream {
                    Downstream::Fanout(flat) => site_of(MotNode::Fanout(flat)),
                    Downstream::Fanin { flat, .. } => site_of(MotNode::Fanin(flat)),
                    Downstream::Sink(dest) => Site::Sink(dest),
                };
                assert!(
                    downstream.parent_candidates(tree).any(|c| c == upstream),
                    "{n}x{n}: {upstream} feeds {downstream}"
                );
            }
            // A throttled copy's creator is the throttler's wiring parent:
            // "redundant copies die at the first non-speculative node"
            // needs exactly this edge.
            for (flat, &input) in fabric.fanout_input.iter().enumerate() {
                let site = site_of(MotNode::Fanout(flat));
                match fabric.channels[input].upstream {
                    Entity::Fanout(parent) => {
                        assert_eq!(site.creator(), site_of(MotNode::Fanout(parent)));
                    }
                    // A root throttle is attributed to the root itself.
                    _ => assert_eq!(site.creator(), site),
                }
            }
        }
    }
}
