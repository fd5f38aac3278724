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
//! only what is MoT-specific — the fanout/fanin firing rules and the tree
//! routing — via [`MotModel`], and the [`Substrate`] contract
//! ([`Network`]'s netlist, symbol-corruption sites, and report section)
//! the engine's one driver runs it through. Power is counted:
//! the model tallies its in-window forwards and launched copies, and
//! [`Network`]'s report prices them with the [`TimingModel`]'s per-event
//! energies. Telemetry is an [`Observer`](asynoc_engine::Observer), a
//! [`Recorder`](asynoc_telemetry::Recorder) the caller registers, its
//! nodes placed by [`Network::site_of`]; a run with none registers no
//! observer at all.

use std::rc::Rc;

use asynoc_engine::{
    drive, Ctx, EngineReport, ForwardInfo, Netlist, NodeKey, SimEvent, SimModel, Substrate,
};
use asynoc_kernel::Duration;
use asynoc_nodes::{FlitClass, KindTiming, TimingModel};
use asynoc_packet::RouteSymbol;
use asynoc_power::PowerReport;
use asynoc_telemetry::{LevelSpec, Site, SiteOf, Stage};
use asynoc_topology::{FaninNodeId, FanoutKind, FanoutNodeId};

use crate::config::{NetworkConfig, RunConfig};
use crate::error::SimError;
use crate::fabric::{Fabric, FaninSlot, FanoutSlot};
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
        let fabric = Fabric::build(&config);
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
        let fanout: f64 = self.fabric.kinds().map(|k| timing.fanout_area(k)).sum();
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
    type Model<'a> = MotModel;
    type Report = RunReport;

    fn netlist(&self) -> &Netlist<MotNode> {
        &self.fabric.netlist
    }

    fn flits_per_packet(&self) -> u8 {
        self.config.flits_per_packet()
    }

    fn seed(&self) -> u64 {
        self.config.seed()
    }

    /// Every fanout node reads a routing symbol.
    fn symbol_sites(&self) -> usize {
        self.config.size().total_fanout_nodes()
    }

    /// Symbol-corruption sites are restricted to fanout nodes where a
    /// widened (`Both`) override is provably recoverable: the node is
    /// not a baseline node (baseline hardware has no replication path at
    /// all), and some deeper fanout level consists entirely of
    /// symbol-obeying kinds, so every spurious copy reads its
    /// default-`Drop` symbol there and throttles before arbitration —
    /// the same local-recovery region speculation itself relies on.
    fn corrupt_sites(&self) -> Vec<usize> {
        let size = self.config.size();
        let levels = size.levels();
        // A level is a guaranteed throttle stage iff *every* node on it
        // obeys its routing symbol (speculative kinds forward headers
        // regardless, letting spurious copies slip deeper).
        let mut level_throttles = vec![true; levels as usize];
        for (flat, kind) in self.fabric.kinds().enumerate() {
            if !matches!(
                kind,
                FanoutKind::NonSpeculative | FanoutKind::OptNonSpeculative
            ) {
                level_throttles[FanoutNodeId::from_flat_index(size, flat).level as usize] = false;
            }
        }
        self.fabric
            .kinds()
            .enumerate()
            .filter(|&(flat, kind)| {
                let level = FanoutNodeId::from_flat_index(size, flat).level;
                kind != FanoutKind::Baseline
                    && (level + 1..levels).any(|m| level_throttles[m as usize])
            })
            .map(|(flat, _)| flat)
            .collect()
    }

    fn prepare(&self, _run: &RunConfig) -> MotModel {
        MotModel::new(&self.fabric, self.config.timing())
    }

    /// Prices the window's activity: each fanout forward at its kind's
    /// and class's energy, each fanin forward at its class's, every wire
    /// launch (the engine's injections plus the nodes' copies) at
    /// `wire_fj`, and every throttled flit at `drop_fj`.
    fn report(&self, run: &RunConfig, engine: EngineReport, model: MotModel) -> RunReport {
        let (timing, activity) = (self.config.timing(), &model.activity);
        let fanout = FanoutKind::ALL
            .into_iter()
            .flat_map(|kind| {
                FlitClass::ALL.map(|class| {
                    let count = activity.fanout[kind as usize][class as usize];
                    priced(count, timing.fanout_energy(kind).for_class(class))
                })
            })
            .sum();
        let fanin = FlitClass::ALL
            .into_iter()
            .map(|class| {
                let count = activity.fanin[class as usize];
                priced(count, timing.fanin_energy.for_class(class))
            })
            .sum();
        let wire = priced(engine.flits_injected + activity.copies, timing.wire_fj);
        let dropped = priced(engine.flits_throttled, timing.drop_fj);
        RunReport {
            power: PowerReport::new(
                [fanout, fanin, wire, dropped],
                run.phases().measure(),
                self.leakage_mw(),
            ),
            engine,
        }
    }
}

/// The energy of `count` events at `fj` femtojoules each.
///
/// Every energy constant of the presets is a whole number of fJ, at
/// most 1 000 (`asynoc_nodes::timing`'s tests hold each one to it), so
/// each product and every sum of them is exact — the same `f64` as adding
/// `fj` once per event, in any order — while totals stay below 2^53 fJ.
/// They do: a total that large needs some 9 × 10^12 priced events in one
/// measurement window, weeks of host time at the engine's ~10^7 events
/// per second.
///
/// # Panics
///
/// Panics if `fj` is negative or not finite.
fn priced(count: u64, fj: f64) -> f64 {
    assert!(
        fj.is_finite() && fj >= 0.0,
        "energy per event must be finite and non-negative, got {fj}"
    );
    count as f64 * fj
}

/// The switching activity a run's power is priced from, counted inside
/// the measurement window. A source's launches are the engine's
/// [`flits_injected`](EngineReport::flits_injected) and a throttle its
/// [`flits_throttled`](EngineReport::flits_throttled), so neither is
/// counted here.
#[derive(Default)]
struct Activity {
    /// Flits forwarded by fanout nodes, by kind and flit class.
    fanout: [[u64; 2]; FanoutKind::ALL.len()],
    /// Flits forwarded by fanin nodes, by flit class.
    fanin: [u64; 2],
    /// Copies the nodes launched onto channels.
    copies: u64,
}

/// A node kind's delays for one flit class: a launched copy's `flight`
/// (forward latency plus the wire), the input's `free` after a forward and
/// `drop` after a throttle, and the cycle `floor` between two fires.
#[derive(Clone, Copy)]
struct Delays {
    flight: Duration,
    free: Duration,
    drop: Duration,
    floor: Duration,
}

impl Delays {
    fn resolve(kind: &KindTiming, wire: Duration) -> [Delays; 2] {
        FlitClass::ALL.map(|class| Delays {
            flight: kind.forward(class) + wire,
            free: kind.free_delay(class),
            drop: kind.drop_ack,
            floor: kind.cycle_floor,
        })
    }
}

/// The MoT substrate's firing rules and tree routing.
///
/// Each run's node state sits in one slot per node, indexed by the flat
/// id, with the node's channels beside it: a clone of the fabric's slots,
/// built in the same traversal as its netlist. Everything
/// substrate-independent — the netlist included — lives in the engine.
pub struct MotModel {
    fanout: Vec<FanoutSlot>,
    fanin: Vec<FaninSlot>,
    /// Per fanout kind, then per flit class.
    fanout_delays: [[Delays; 2]; FanoutKind::ALL.len()],
    fanin_delays: [Delays; 2],
    activity: Activity,
}

impl MotModel {
    fn new(fabric: &Fabric, timing: &TimingModel) -> Self {
        let wire = timing.wire_delay;
        MotModel {
            fanout: fabric.fanout.clone(),
            fanin: fabric.fanin.clone(),
            fanout_delays: FanoutKind::ALL.map(|kind| Delays::resolve(timing.fanout(kind), wire)),
            fanin_delays: Delays::resolve(&timing.fanin, wire),
            activity: Activity::default(),
        }
    }

    fn fire_fanout(&mut self, flat: usize, ctx: &mut impl Ctx<MotNode>) {
        let slot = &self.fanout[flat];
        let input = slot.input as usize;
        let Some(flit) = ctx.arrived(input) else {
            return;
        };
        // No header rides the flit: the node reads its symbol from the
        // destination set, through the masks of its two output spans.
        let [top, bottom] = slot.masks;
        let dests = flit.descriptor().dests();
        let mut symbol = RouteSymbol::from_ports(dests.intersects(top), dests.intersects(bottom));
        let flit_kind = flit.kind();
        let packet = flit.descriptor().id().as_u64();
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
        // Decided on a copy of the latch, committed only if the node fires.
        let mut state = slot.state;
        let forward = state.decide(flit_kind, symbol);

        if ctx.now() < slot.next_fire {
            ctx.retry(MotNode::Fanout(flat), slot.next_fire);
            return;
        }
        let demanded = [forward.wants_top(), forward.wants_bottom()];
        // All demanded outputs must be free *simultaneously*: the
        // speculative node's C-element acknowledge and the non-speculative
        // node's parallel Reqout generation both couple the outputs.
        for (out, demanded) in slot.out.into_iter().zip(demanded) {
            if demanded && !ctx.is_free(out as usize) {
                return; // subscribed: that channel's free wakes us
            }
        }

        let flit = ctx.take_arrived(input);
        let (kind, class) = (state.kind(), FlitClass::of(flit_kind));
        let delays = self.fanout_delays[kind as usize][class as usize];
        if forward.is_drop() {
            // Throttle: acknowledge upstream without forwarding.
            ctx.emit(&SimEvent::Drop {
                node: MotNode::Fanout(flat),
                flit: &flit,
                busy: delays.drop,
            });
            ctx.free_after(input, delays.drop);
        } else {
            let copies = u8::from(demanded[0]) + u8::from(demanded[1]);
            ctx.emit(&SimEvent::Forward {
                node: MotNode::Fanout(flat),
                flit: &flit,
                info: ForwardInfo::Routed(forward),
                copies,
                busy: delays.free,
            });
            if ctx.in_window() {
                self.activity.fanout[kind as usize][class as usize] += 1;
                self.activity.copies += u64::from(copies);
            }
            for (out, demanded) in slot.out.into_iter().zip(demanded) {
                if demanded {
                    ctx.launch(out as usize, flit, delays.flight);
                }
            }
            ctx.free_after(input, delays.free);
        }
        let slot = &mut self.fanout[flat];
        (slot.state, slot.next_fire) = (state, ctx.now() + delays.floor);
    }

    fn fire_fanin(&mut self, flat: usize, ctx: &mut impl Ctx<MotNode>) {
        let slot = &self.fanin[flat];
        let [c0, c1] = slot.input.map(|channel| channel as usize);
        let p0 = ctx.arrived(c0).is_some();
        let p1 = ctx.arrived(c1).is_some();
        let Some(winner) = slot.arbiter.select(p0, p1) else {
            return;
        };
        if ctx.now() < slot.next_fire {
            ctx.retry(MotNode::Fanin(flat), slot.next_fire);
            return;
        }
        let out = slot.out as usize;
        if !ctx.is_free(out) {
            return; // subscribed: woken when the output drains
        }

        let input_channel = [c0, c1][winner];
        let flit = ctx.take_arrived(input_channel);
        let class = FlitClass::of(flit.kind());
        let delays = self.fanin_delays[class as usize];
        ctx.emit(&SimEvent::Forward {
            node: MotNode::Fanin(flat),
            flit: &flit,
            info: ForwardInfo::Arbitrated { input: winner },
            copies: 1,
            busy: delays.free,
        });
        if ctx.in_window() {
            self.activity.fanin[class as usize] += 1;
            self.activity.copies += 1;
        }
        ctx.launch(out, flit, delays.flight);
        if ctx.arrived([c1, c0][winner]).is_some() {
            // The losing input waits on the output just taken.
            ctx.wake_on_free(out);
        }
        ctx.free_after(input_channel, delays.free);
        let slot = &mut self.fanin[flat];
        slot.arbiter.advance(winner, flit.kind());
        slot.next_fire = ctx.now() + delays.floor;
    }
}

impl SimModel for MotModel {
    type Node = MotNode;

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

    /// Every constant is checked, even one no event of the run used: a
    /// baseline network never throttles.
    #[test]
    #[should_panic(expected = "non-negative")]
    fn a_negative_energy_is_rejected() {
        let mut timing = TimingModel::calibrated();
        timing.drop_fj = -1.0;
        let config = NetworkConfig::eight_by_eight(Architecture::Baseline).with_timing(timing);
        let network = Network::new(config).unwrap();
        let _ = network.run(&RunConfig::quick(Benchmark::UniformRandom, 0.1));
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
        use asynoc_engine::NodeRef;

        for n in [2, 4, 8, 16] {
            let network = network_of(n);
            let (size, site_of) = (network.config().size(), network.site_of());
            let site = |end: NodeRef<MotNode>| match end {
                NodeRef::Source(source) => Site::Source(source),
                NodeRef::Node(node) => site_of(node),
                NodeRef::Sink(dest) => Site::Sink(dest),
            };
            for ends in &network.netlist().channels {
                // The upstream end of every channel is among the downstream
                // end's parent candidates — for the source tree the flit is
                // in; past the fanout leaves the candidates name no source.
                let tree = match ends.upstream {
                    NodeRef::Source(source) => source,
                    NodeRef::Node(MotNode::Fanout(flat)) => {
                        FanoutNodeId::from_flat_index(size, flat).tree
                    }
                    _ => usize::MAX,
                };
                let (upstream, downstream) = (site(ends.upstream), site(ends.downstream));
                assert!(
                    downstream.parent_candidates(tree).any(|c| c == upstream),
                    "{n}x{n}: {upstream} feeds {downstream}"
                );
                // A throttled copy's creator is the throttler's wiring
                // parent: "redundant copies die at the first non-speculative
                // node" needs exactly this edge. A root throttle is
                // attributed to the root itself.
                if let NodeRef::Node(MotNode::Fanout(_)) = ends.downstream {
                    let creator = match ends.upstream {
                        NodeRef::Node(MotNode::Fanout(_)) => upstream,
                        _ => downstream,
                    };
                    assert_eq!(downstream.creator(), creator);
                }
            }
        }
    }
}
