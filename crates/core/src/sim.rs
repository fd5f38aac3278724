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
//! section) the engine's one driver runs it through. Statistics and power
//! attach as [`Observer`]s (see [`crate::observers`]); telemetry is one
//! more, a [`Recorder`](asynoc_telemetry::Recorder) the caller registers,
//! its nodes placed by [`Network::site_of`].

use std::rc::Rc;

use asynoc_engine::{
    drive, ArmedFaults, ChannelEnds, Ctx, EngineReport, FaultDomain, ForwardInfo, NodeKey, NodeRef,
    Observer, Partition, ShardModel, SimEvent, SimModel, Substrate,
};
use asynoc_kernel::{Duration, Time};
use asynoc_nodes::{FaninState, FanoutState, FlitClass, TimingModel};
use asynoc_packet::{DestSet, RouteHeader};
use asynoc_telemetry::{LevelSpec, Site, SiteOf, Stage};
use asynoc_topology::{
    multicast_route, multicast_route_into, FaninNodeId, FanoutKind, FanoutNodeId, OutputPort,
};

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

    /// Executes one run with caller-supplied observers registered after
    /// the standard power/activity pair.
    ///
    /// Extra observers see the identical event stream the built-in ones
    /// do, in registration order, without perturbing the simulation.
    ///
    /// # Errors
    ///
    /// Returns an error if the traffic specification is invalid for this
    /// network (rate, benchmark/source mismatch).
    pub fn run_with_observers(
        &self,
        run: &RunConfig,
        extra: &mut [&mut dyn Observer<MotNode>],
    ) -> Result<RunReport, SimError> {
        Ok(drive(self, run, extra, None)?)
    }

    /// Executes one run with an armed fault table threaded into the
    /// engine's injection hooks (see [`asynoc_engine::run_with_faults`]).
    ///
    /// The caller keeps ownership of `faults` and reads back its
    /// [`summary`](ArmedFaults::summary) afterwards; target indices
    /// should come from [`fault_domain`](Substrate::fault_domain).
    ///
    /// # Errors
    ///
    /// Returns an error if the traffic specification is invalid for this
    /// network (rate, benchmark/source mismatch).
    pub fn run_with_faults(
        &self,
        run: &RunConfig,
        faults: &mut ArmedFaults,
        extra: &mut [&mut dyn Observer<MotNode>],
    ) -> Result<RunReport, SimError> {
        Ok(drive(self, run, extra, Some(faults))?)
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

    fn prepare(&self, run: &RunConfig) -> (MotModel<'_>, MotProbes<'_>) {
        let timing = self.config.timing();
        (
            MotModel::new(&self.fabric, timing),
            MotProbes::new(timing, &self.fabric, run),
        )
    }

    fn report(
        &self,
        run: &RunConfig,
        engine: EngineReport,
        _model: MotModel<'_>,
        probes: MotProbes<'_>,
    ) -> RunReport {
        let (ledger, activity) = probes.finish();
        RunReport {
            engine,
            power: ledger.report(run.phases().measure(), self.leakage_mw()),
            activity,
        }
    }
}

/// The MoT substrate: fabric wiring, node firing rules, tree routing.
///
/// Dynamic per-node state (speculation latches, arbitration fairness,
/// cycle floors) lives here; everything substrate-independent lives in
/// the engine.
#[derive(Clone)]
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

    fn fire_fanout(&mut self, flat: usize, ctx: &mut Ctx<'_, '_, MotNode>) {
        let input = self.fabric.fanout_input[flat];
        let Some(flit_ref) = ctx.arrived(input) else {
            return;
        };
        let coords = self.fabric.fanout_coords[flat];
        let mut symbol = flit_ref
            .descriptor()
            .route()
            .symbol(coords.level, coords.index);
        let flit_kind = flit_ref.kind();
        let packet = flit_ref.descriptor().id().as_u64();
        if let Some((corrupted, fresh)) = ctx.fault_symbol(flat, packet, flit_kind.is_header()) {
            symbol = corrupted;
            if let Some(class) = fresh {
                // First read of the afflicted train: report the injection
                // once, even if the node then stalls and re-fires.
                let flit = ctx
                    .arrived(input)
                    .expect("flit checked present above")
                    .clone();
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
                    return; // woken by that channel's free event
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
                ctx.launch(out, flit.clone(), forward + self.timing.wire_delay);
            }
            ctx.free_after(input, timing.free_delay(class));
        }
        self.fanout_next_fire[flat] = ctx.now() + timing.cycle_floor;
    }

    fn fire_fanin(&mut self, flat: usize, ctx: &mut Ctx<'_, '_, MotNode>) {
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
            return; // woken when the output drains
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

    fn route(&self, source: usize, dests: DestSet) -> RouteHeader {
        multicast_route(self.fabric.size, source, dests)
            .expect("benchmark destinations are validated at construction")
    }

    fn route_into(&self, source: usize, dests: DestSet, header: &mut RouteHeader) {
        multicast_route_into(self.fabric.size, source, dests, header)
            .expect("benchmark destinations are validated at construction");
    }

    fn fire(&mut self, node: MotNode, ctx: &mut Ctx<'_, '_, MotNode>) {
        match node {
            MotNode::Fanout(flat) => self.fire_fanout(flat, ctx),
            MotNode::Fanin(flat) => self.fire_fanin(flat, ctx),
        }
    }
}

impl MotModel<'_> {
    /// The smallest delay that can cross a shard cut. Every cut channel
    /// is a fanout-leaf → fanin-leaf link, crossed forward only by a
    /// *leaf* fanout's launch (`forward + wire`) and backward only by the
    /// fanin's acknowledge (`free_delay`), so the minimum runs over the
    /// kinds present at the leaf fanout level and the fanin — not over
    /// the faster speculative kinds further up, which `SpecMap` keeps
    /// off the leaves and which would only narrow the windows.
    fn min_cut_delay(&self) -> Duration {
        let wire = self.timing.wire_delay;
        let classes = [FlitClass::Header, FlitClass::Body];
        let leaf_level = self.fabric.size.levels() - 1;
        let launches = self
            .fabric
            .fanout_kind
            .iter()
            .zip(&self.fabric.fanout_coords)
            .filter(|(_, coords)| coords.level == leaf_level)
            .flat_map(|(&kind, _)| {
                let timing = self.timing.fanout(kind);
                classes.map(|class| timing.forward(class) + wire)
            });
        let acknowledges = classes.map(|class| self.timing.fanin.free_delay(class));
        launches
            .chain(acknowledges)
            .min()
            .expect("the fanin acknowledges")
    }
}

impl ShardModel for MotModel<'_> {
    /// Bands of whole endpoint trees: source `s`'s fanout tree and sink
    /// `d`'s fanin tree live with their endpoints, so the only channels
    /// crossing shards are fanout-leaf → fanin-leaf links.
    fn partition(&self, shards: usize) -> Partition {
        let n = self.fabric.size.n();
        let shards = shards.clamp(1, n);
        let lookahead = if shards > 1 {
            self.min_cut_delay()
        } else {
            // Unused on the serial path, but must be non-zero.
            Duration::from_ps(1)
        };
        let size = self.fabric.size;
        let band = |endpoint: usize| endpoint * shards / n;
        Partition::from_assignment(self, shards, lookahead, |node| match node {
            NodeRef::Source(s) => band(s),
            NodeRef::Sink(d) => band(d),
            NodeRef::Node(MotNode::Fanout(flat)) => band(self.fabric.fanout_coords[flat].tree),
            NodeRef::Node(MotNode::Fanin(flat)) => {
                band(FaninNodeId::from_flat_index(size, flat).tree)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkConfig, RunConfig};
    use asynoc_packet::RouteSymbol;
    use asynoc_stats::Phases;
    use asynoc_telemetry::{Action, Detail, Recorder, TraceCollector};
    use asynoc_topology::Architecture;
    use asynoc_traffic::Benchmark;

    fn quick_run(arch: Architecture, benchmark: Benchmark, rate: f64) -> RunReport {
        let network = Network::new(NetworkConfig::eight_by_eight(arch).with_seed(42)).unwrap();
        network.run(&RunConfig::quick(benchmark, rate)).unwrap()
    }

    #[test]
    fn light_load_delivers_everything() {
        for arch in Architecture::ALL {
            let report = quick_run(arch, Benchmark::UniformRandom, 0.1);
            assert!(report.packets_measured > 0, "{arch}: no packets measured");
            assert_eq!(
                report.packets_incomplete, 0,
                "{arch}: packets stuck at light load"
            );
            assert!(
                report.acceptance() > 0.99,
                "{arch}: acceptance {} at light load",
                report.acceptance()
            );
        }
    }

    #[test]
    fn zero_load_latency_reflects_path_length() {
        // At very light load, mean latency approaches the sum of node
        // forward latencies + wire hops. Baseline 8x8: 3 fanout (263 ps)
        // + 3 fanin (220 ps) + 7 wires (60 ps) ≈ 1.9 ns.
        let report = quick_run(Architecture::Baseline, Benchmark::Shuffle, 0.05);
        let mean = report.latency.mean().unwrap();
        assert!(
            mean.as_ps() > 1_500 && mean.as_ps() < 3_000,
            "unexpected zero-load latency {mean}"
        );
    }

    #[test]
    fn speculative_networks_are_faster_at_light_load() {
        let baseline = quick_run(
            Architecture::BasicNonSpeculative,
            Benchmark::UniformRandom,
            0.2,
        );
        let hybrid = quick_run(
            Architecture::BasicHybridSpeculative,
            Benchmark::UniformRandom,
            0.2,
        );
        let base_mean = baseline.latency.mean().unwrap();
        let hybrid_mean = hybrid.latency.mean().unwrap();
        assert!(
            hybrid_mean < base_mean,
            "hybrid {hybrid_mean} not faster than non-speculative {base_mean}"
        );
    }

    #[test]
    fn speculation_throttles_redundant_copies() {
        let hybrid = quick_run(
            Architecture::BasicHybridSpeculative,
            Benchmark::UniformRandom,
            0.2,
        );
        assert!(
            hybrid.flits_throttled > 0,
            "speculative broadcasts must produce throttled copies"
        );
        let nonspec = quick_run(
            Architecture::BasicNonSpeculative,
            Benchmark::UniformRandom,
            0.2,
        );
        assert_eq!(
            nonspec.flits_throttled, 0,
            "non-speculative unicast traffic has nothing to throttle"
        );
    }

    #[test]
    fn multicast_delivers_replicas() {
        let report = quick_run(
            Architecture::OptHybridSpeculative,
            Benchmark::Multicast10,
            0.3,
        );
        // Delivered exceeds injected because replicas fan out inside the
        // network.
        assert!(
            report.throughput.delivered > report.throughput.injected * 1.05,
            "expected replication: {}",
            report.throughput
        );
    }

    #[test]
    fn serial_baseline_injects_clones() {
        let report = quick_run(Architecture::Baseline, Benchmark::Multicast10, 0.2);
        // The baseline serializes multicasts into clones, so offered ≈
        // injected ≈ delivered (no in-network replication).
        assert!(report.packets_measured > 0);
        let ratio = report.throughput.delivered / report.throughput.injected.max(1e-9);
        assert!(
            (0.9..=1.1).contains(&ratio),
            "serial multicast should not replicate in-network: {}",
            report.throughput
        );
    }

    #[test]
    fn overload_is_detected_as_non_acceptance() {
        // 3 flits/ns per source is far beyond any architecture's capacity.
        let network =
            Network::new(NetworkConfig::eight_by_eight(Architecture::Baseline).with_seed(1))
                .unwrap();
        let run = RunConfig::quick(Benchmark::UniformRandom, 3.0).with_drain(false);
        let report = network.run(&run).unwrap();
        assert!(
            report.acceptance() < 0.9,
            "overload must show up as refused injections, got {}",
            report.acceptance()
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let a = quick_run(Architecture::OptAllSpeculative, Benchmark::Multicast5, 0.4);
        let b = quick_run(Architecture::OptAllSpeculative, Benchmark::Multicast5, 0.4);
        assert_eq!(a.latency.mean(), b.latency.mean());
        assert_eq!(a.flits_delivered, b.flits_delivered);
        assert_eq!(a.flits_throttled, b.flits_throttled);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn sharded_runs_match_serial_bit_for_bit() {
        asynoc_kernel::with_deadline(120, || {
            for arch in [Architecture::Baseline, Architecture::OptHybridSpeculative] {
                let network =
                    Network::new(NetworkConfig::eight_by_eight(arch).with_seed(7)).unwrap();
                let run = RunConfig::quick(Benchmark::Multicast5, 0.3);
                let traced = |run: &RunConfig| {
                    let mut trace = TraceCollector::new(512);
                    let mut recorder = Recorder::new(network.site_of(), vec![&mut trace]);
                    let report = network
                        .run_with_observers(run, &mut [&mut recorder])
                        .unwrap();
                    (report, trace.into_records())
                };
                let (serial, serial_trace) = traced(&run);
                assert_eq!(serial.shards, 1);
                for shards in [2, 3, 8] {
                    let (sharded, sharded_trace) = traced(&run.clone().with_shards(shards));
                    assert_eq!(sharded.shards, shards, "{arch}: shard count honoured");
                    assert_eq!(
                        sharded.shard_events.iter().sum::<u64>(),
                        sharded.events_processed
                    );
                    assert_eq!(sharded.events_processed, serial.events_processed, "{arch}");
                    assert_eq!(sharded.latency, serial.latency, "{arch}");
                    assert_eq!(sharded.throughput, serial.throughput, "{arch}");
                    assert_eq!(sharded.packets_measured, serial.packets_measured);
                    assert_eq!(sharded.packets_incomplete, serial.packets_incomplete);
                    assert_eq!(sharded.flits_throttled, serial.flits_throttled, "{arch}");
                    assert_eq!(sharded.flits_delivered, serial.flits_delivered, "{arch}");
                    assert_eq!(sharded_trace, serial_trace, "{arch}: trace streams differ");
                    assert_eq!(
                        format!("{:?}", sharded.activity),
                        format!("{:?}", serial.activity),
                        "{arch}: per-node activity differs"
                    );
                    assert!(
                        (sharded.power.total_mw() - serial.power.total_mw()).abs() < 1e-12,
                        "{arch}: power accounting differs"
                    );
                }
            }
        });
    }

    /// The cut is crossed forward by a leaf fanout's launch and backward
    /// by the fanin's acknowledge, and no preset puts a speculative kind
    /// on the leaves: the fanin's 160 ps is the tight bound everywhere,
    /// not the 112–150 ps of a speculative node further up the tree.
    #[test]
    fn lookahead_is_the_tightest_delay_on_the_cut() {
        for arch in Architecture::ALL {
            let network = Network::new(NetworkConfig::eight_by_eight(arch)).unwrap();
            let (model, _) = network.prepare(&RunConfig::quick(Benchmark::Shuffle, 0.1));
            let fanin = network.config().timing().fanin;
            assert_eq!(
                model.partition(2).lookahead(),
                fanin.free_delay(FlitClass::Header),
                "{arch}"
            );
            assert_eq!(model.partition(2).lookahead(), Duration::from_ps(160));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let network1 =
            Network::new(NetworkConfig::eight_by_eight(Architecture::Baseline).with_seed(1))
                .unwrap();
        let network2 =
            Network::new(NetworkConfig::eight_by_eight(Architecture::Baseline).with_seed(2))
                .unwrap();
        let run = RunConfig::quick(Benchmark::UniformRandom, 0.3);
        let a = network1.run(&run).unwrap();
        let b = network2.run(&run).unwrap();
        assert_ne!(a.latency.mean(), b.latency.mean());
    }

    #[test]
    fn hotspot_saturates_near_paper_anchor() {
        // All 8 sources hammer destination 0; the fanin root → sink stage
        // caps per-source throughput at ≈ 0.29 GF/s.
        let network =
            Network::new(NetworkConfig::eight_by_eight(Architecture::Baseline).with_seed(3))
                .unwrap();
        let run = RunConfig::new(Benchmark::Hotspot, 0.8)
            .unwrap()
            .with_phases(Phases::new(Duration::from_ns(200), Duration::from_ns(2000)))
            .with_drain(false);
        let report = network.run(&run).unwrap();
        let delivered = report.throughput.delivered;
        assert!(
            (0.26..=0.32).contains(&delivered),
            "hotspot ceiling {delivered} GF/s per source"
        );
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

    #[test]
    fn custom_speculation_map_network_runs_and_throttles() {
        let size = asynoc_topology::MotSize::new(8).unwrap();
        let map = asynoc_topology::SpecMap::parse(size, "levels:ons,osp,ons").unwrap();
        let network = Network::new(NetworkConfig::with_spec_map(map).with_seed(42)).unwrap();
        let report = network
            .run(&RunConfig::quick(Benchmark::Multicast10, 0.3))
            .unwrap();
        assert!(report.packets_measured > 0);
        assert_eq!(report.packets_incomplete, 0, "custom map lost packets");
        assert!(
            report.flits_throttled > 0,
            "mid-level speculation must produce throttled copies"
        );
    }

    #[test]
    fn activity_localizes_throttling_below_speculative_levels() {
        // In the hybrid (speculative root only), redundant copies die at
        // level 1 — the "local region" of local speculation.
        let report = quick_run(
            Architecture::BasicHybridSpeculative,
            Benchmark::UniformRandom,
            0.2,
        );
        let throttles = report.activity.fanout_level_throttles();
        assert_eq!(throttles[0], 0, "the root level has nothing to throttle");
        assert!(throttles[1] > 0, "wrong-path copies must die at level 1");
        assert_eq!(
            throttles[2], 0,
            "local speculation must confine waste to the region below the root"
        );
    }

    #[test]
    fn activity_throttling_widens_under_full_speculation() {
        // Almost-fully-speculative: copies travel further before dying at
        // the (non-speculative) leaf level.
        let report = quick_run(
            Architecture::OptAllSpeculative,
            Benchmark::UniformRandom,
            0.2,
        );
        let throttles = report.activity.fanout_level_throttles();
        assert!(
            throttles[2] > 0,
            "all-speculative waste must reach the leaf level"
        );
    }

    #[test]
    fn activity_counts_match_totals() {
        let report = quick_run(
            Architecture::OptHybridSpeculative,
            Benchmark::Multicast10,
            0.3,
        );
        let throttle_total: u64 = report.activity.fanout_level_throttles().iter().sum();
        assert_eq!(throttle_total, report.flits_throttled);
        let fanin_total: u64 = report.activity.fanin_tree_fires().iter().sum();
        assert!(fanin_total > 0);
        let (busiest, utilization) = report.activity.busiest_fanin().expect("nodes exist");
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "{busiest}: {utilization}"
        );
    }

    #[test]
    fn hotspot_activity_concentrates_on_one_fanin_tree() {
        let report = quick_run(Architecture::Baseline, Benchmark::Hotspot, 0.15);
        let per_tree = report.activity.fanin_tree_fires();
        assert!(per_tree[0] > 0);
        assert!(per_tree[1..].iter().all(|&fires| fires == 0));
        let (busiest, _) = report.activity.busiest_fanin().expect("nodes exist");
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

    #[test]
    fn trace_records_a_packet_journey() {
        let network = Network::new(
            NetworkConfig::eight_by_eight(Architecture::BasicHybridSpeculative).with_seed(42),
        )
        .unwrap();
        let run = RunConfig::quick(Benchmark::UniformRandom, 0.1);
        let mut collector = TraceCollector::new(500);
        network
            .run_with_observers(
                &run,
                &mut [&mut Recorder::new(network.site_of(), vec![&mut collector])],
            )
            .unwrap();
        let trace = collector.into_records();
        assert_eq!(trace.len(), 500, "the run outlasts the cap");
        // Times are non-decreasing.
        assert!(trace.windows(2).all(|w| w[0].t_ps <= w[1].t_ps));
        // With a speculative root, the trace must show both broadcasts and
        // throttles, and at least one delivery.
        assert!(trace.iter().any(|e| e.action == Action::Throttle));
        assert!(trace.iter().any(|e| e.action == Action::Deliver));
        assert!(trace.iter().any(|e| e.action == Action::Forward
            && matches!(e.site, Site::Fanout { level: 0, .. })
            && e.detail == Detail::Routed(RouteSymbol::Both)));
        // Every traced packet's journey starts with an injection.
        assert_eq!(trace[0].action, Action::Inject);
    }

    #[test]
    fn multicast_static_only_three_sources_multicast() {
        let report = quick_run(
            Architecture::OptHybridSpeculative,
            Benchmark::MulticastStatic,
            0.3,
        );
        assert!(report.packets_measured > 0);
        assert!(report.throughput.delivered > report.throughput.injected);
    }

    #[test]
    fn engine_counters_populate_the_report() {
        let report = quick_run(Architecture::Baseline, Benchmark::UniformRandom, 0.1);
        assert!(report.events_processed > 0, "engine processed no events");
        assert!(report.wall > std::time::Duration::ZERO);
    }

    #[test]
    fn extra_observers_see_the_run_without_perturbing_it() {
        struct Counter {
            injects: u64,
            delivers: u64,
        }
        impl Observer<MotNode> for Counter {
            fn on_event(&mut self, _at: Time, _in_window: bool, event: &SimEvent<'_, MotNode>) {
                match event {
                    SimEvent::Inject { .. } => self.injects += 1,
                    SimEvent::Deliver { .. } => self.delivers += 1,
                    _ => {}
                }
            }
        }

        let network =
            Network::new(NetworkConfig::eight_by_eight(Architecture::Baseline).with_seed(42))
                .unwrap();
        let run = RunConfig::quick(Benchmark::UniformRandom, 0.2);
        let plain = network.run(&run).unwrap();
        let mut counter = Counter {
            injects: 0,
            delivers: 0,
        };
        let observed = network
            .run_with_observers(&run, &mut [&mut counter])
            .unwrap();
        assert!(counter.injects > 0);
        assert!(counter.delivers > 0);
        assert_eq!(plain.latency.mean(), observed.latency.mean());
        assert_eq!(plain.flits_delivered, observed.flits_delivered);
        assert_eq!(plain.events_processed, observed.events_processed);
    }
}
