//! The credit-based VC mesh simulator, expressed as an engine
//! [`SimModel`].
//!
//! Unlike the wormhole mesh baseline (single-flit channels, stall
//! pressure propagating link by link), this substrate models the modern
//! synchronous reference design: per-VC input FIFOs, credit-based flow
//! control, and in-network multicast. Each inter-router link carries
//! `VC_COUNT` data channels and `VC_COUNT` credit-return channels, all
//! first-class sim channels — so link-stall faults apply to the credit
//! loop exactly as they do to data, and the sharded engine cuts the
//! credit loop with the same conservative lookahead discipline.
//!
//! A router's `fire` runs a fixpoint over four phases — absorb returned
//! credits, transmit FIFO heads (VC + switch allocation), drain arrived
//! flits into FIFOs, and return credits upstream — because progress in
//! one phase (a pop freeing a FIFO slot) can enable another within the
//! same wakeup without generating an engine event.
//!
//! Multicast forks are atomic: a header forwards only when *every*
//! branch of its scheme partition is ready (output VC unowned, credits
//! available, channel free, cycle floor elapsed), and all copies launch
//! together. Forks with two or more neighbor branches additionally
//! require enough credits for the whole packet on each branch, so a fork
//! is fully absorbed downstream and branch coupling cannot close a cycle
//! the XY channel order leaves open.

use std::collections::VecDeque;

use asynoc_engine::{
    drive, ChannelEnds, Ctx, EngineReport, FaultDomain, ForwardInfo, NodeRef, Partition, RunConfig,
    ShardModel, SimEvent, SimModel, Substrate,
};
use asynoc_kernel::{Duration, Time};
use asynoc_mesh::{MeshError, MeshSize, Port};
use asynoc_nodes::{FlitClass, KindTiming};
use asynoc_packet::{DestSet, Flit, RouteHeader};
use asynoc_stats::Phases;
use asynoc_traffic::Benchmark;

use crate::scheme::{tree_partition, DpmPlanner, McastScheme};

/// Virtual channels per link.
pub const VC_COUNT: usize = 2;
/// Flit slots per input VC FIFO (= the credit pool per output VC).
pub const VC_DEPTH: usize = 8;

const PORTS: usize = 5;
const LOCAL: usize = 4; // Port::Local.index()
const SLOTS: usize = PORTS * VC_COUNT;

/// Timing parameters of the VC mesh.
///
/// The router core reuses the wormhole mesh's calibrated traversal
/// figures (the comparison should isolate the flow-control and multicast
/// discipline, not re-litigate gate delays); the credit loop adds the
/// return-wire flight and the upstream acknowledge.
#[derive(Clone, Debug, PartialEq)]
pub struct VcMeshTiming {
    /// Router traversal parameters (shared by all ports and VCs).
    pub router: KindTiming,
    /// Per-link wire delay (data direction).
    pub wire_delay: Duration,
    /// Channel-free delay at an ejection sink.
    pub sink_ack: Duration,
    /// Minimum flit spacing out of a source.
    pub source_cycle: Duration,
    /// Credit-return wire flight (downstream router → upstream counter).
    pub credit_flight: Duration,
    /// Channel-free delay after absorbing a returned credit.
    pub credit_ack: Duration,
}

impl VcMeshTiming {
    /// The default comparison parameters.
    #[must_use]
    pub fn calibrated() -> Self {
        VcMeshTiming {
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
            credit_flight: Duration::from_ps(300),
            credit_ack: Duration::from_ps(200),
        }
    }
}

impl Default for VcMeshTiming {
    fn default() -> Self {
        VcMeshTiming::calibrated()
    }
}

/// Static description of a VC mesh network: what is fixed about the
/// fabric. Everything that varies per run (benchmark, rate, phases,
/// shards, profiling) is a [`RunConfig`].
#[derive(Clone, Debug, PartialEq)]
pub struct VcMeshConfig {
    size: MeshSize,
    timing: VcMeshTiming,
    flits_per_packet: u8,
    seed: u64,
    mcast: McastScheme,
}

impl VcMeshConfig {
    /// Creates a configuration with calibrated timing, 5-flit packets,
    /// tree-based XY multicast, and seed 0.
    #[must_use]
    pub fn new(size: MeshSize) -> Self {
        VcMeshConfig {
            size,
            timing: VcMeshTiming::calibrated(),
            flits_per_packet: 5,
            seed: 0,
            mcast: McastScheme::XyTree,
        }
    }

    /// Replaces the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the timing parameters.
    #[must_use]
    pub fn with_timing(mut self, timing: VcMeshTiming) -> Self {
        self.timing = timing;
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

    /// Replaces the multicast routing scheme.
    #[must_use]
    pub fn with_mcast(mut self, mcast: McastScheme) -> Self {
        self.mcast = mcast;
        self
    }

    /// The multicast routing scheme runs use.
    #[must_use]
    pub fn mcast(&self) -> McastScheme {
        self.mcast
    }

    /// The mesh dimensions.
    #[must_use]
    pub fn size(&self) -> MeshSize {
        self.size
    }
}

/// Measurements from one VC mesh run: the engine's (`latency`,
/// `throughput`, `packets_measured`, `flits_delivered`, `profile`, … —
/// reachable directly through `Deref`; a non-zero `packets_incomplete`
/// here indicates saturation or VC deadlock) beside the VC mesh's own
/// section.
#[derive(Clone, Debug)]
pub struct VcMeshReport {
    /// What the engine measured.
    pub engine: EngineReport,
    /// Mean router-to-router hops of measured destinations (analytic XY
    /// distance, as the benchmark sampled them).
    pub mean_hops: f64,
    /// Inter-router header-flit launches for measured packets: the link
    /// traversals a multicast scheme pays. DPM's total is ≤ the XY
    /// tree's on identical traffic (the Tiwari et al. claim).
    pub link_traversals: u64,
    /// In-measurement-window FIFO pushes per VC.
    pub vc_pushes: [u64; VC_COUNT],
    /// Peak in-window FIFO occupancy per VC (over all routers/ports).
    pub vc_peak: [u64; VC_COUNT],
    /// Credit-conservation audits performed (serial runs only: the
    /// ledger needs the whole fabric in one address space).
    pub credit_checks: u64,
    /// Audits where `free + in-flight + buffered + owed + returning`
    /// differed from the credit pool. Always 0 in a correct build.
    pub credit_violations: u64,
}

impl std::ops::Deref for VcMeshReport {
    type Target = EngineReport;

    fn deref(&self) -> &EngineReport {
        &self.engine
    }
}

impl std::ops::DerefMut for VcMeshReport {
    fn deref_mut(&mut self) -> &mut EngineReport {
        &mut self.engine
    }
}

impl std::fmt::Display for VcMeshReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "packets={} latency[{}] throughput[{}] hops={:.2} links={} vc_pushes={:?} \
             vc_peak={:?} credit_audits={}/{} events={} shards={} wall={:?}",
            self.packets_measured,
            self.latency,
            self.throughput,
            self.mean_hops,
            self.link_traversals,
            self.vc_pushes,
            self.vc_peak,
            self.credit_violations,
            self.credit_checks,
            self.events_processed,
            self.shards,
            self.wall
        )
    }
}

/// A ready-to-run VC mesh network. Router nodes are identified to
/// observers by their linear index.
#[derive(Clone, Debug)]
pub struct VcMeshNetwork {
    config: VcMeshConfig,
}

impl VcMeshNetwork {
    /// Builds the network.
    ///
    /// # Errors
    ///
    /// Currently infallible for a valid [`VcMeshConfig`]; returns
    /// `Result` for API parity with the other substrates.
    pub fn new(config: VcMeshConfig) -> Result<Self, MeshError> {
        Ok(VcMeshNetwork { config })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &VcMeshConfig {
        &self.config
    }

    /// Runs `benchmark` at `rate` flits/ns per endpoint over `phases`,
    /// serially and with a bounded drain. Observers, fault tables, shards
    /// and profiling go through [`drive`] with a full [`RunConfig`].
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
    ) -> Result<VcMeshReport, MeshError> {
        let run = RunConfig::new(benchmark, rate)?.with_phases(phases);
        Ok(drive(self, &run, &mut [], None)?)
    }
}

impl Substrate for VcMeshNetwork {
    type Node = usize;
    type Model<'a> = VcMeshModel;
    type Probes<'a> = ();
    type Report = VcMeshReport;

    fn endpoints(&self) -> usize {
        self.config.size.endpoints()
    }

    fn flits_per_packet(&self) -> u8 {
        self.config.flits_per_packet
    }

    fn seed(&self) -> u64 {
        self.config.seed
    }

    /// Every data *and* credit channel is stallable (stall faults apply
    /// to credit-return channels exactly as to data channels); XY
    /// multicast reads destination indices, not tree symbols, so there
    /// are no corruption sites.
    fn fault_domain(&self) -> FaultDomain {
        let model = VcMeshModel::new(&self.config, Phases::paper_standard(false), false);
        FaultDomain {
            channels: model.wiring.len(),
            endpoints: self.endpoints(),
            corrupt_sites: Vec::new(),
        }
    }

    fn prepare(&self, run: &RunConfig) -> (VcMeshModel, ()) {
        let model = VcMeshModel::new(&self.config, run.phases(), run.shards() == 1);
        (model, ())
    }

    fn report(
        &self,
        _run: &RunConfig,
        engine: EngineReport,
        model: VcMeshModel,
        _probes: (),
    ) -> VcMeshReport {
        VcMeshReport {
            engine,
            mean_hops: model.mean_hops(),
            link_traversals: model.link_traversals,
            vc_pushes: model.vc_pushes,
            vc_peak: model.vc_peak,
            credit_checks: model.credit_checks,
            credit_violations: model.credit_violations,
        }
    }
}

// ---------------------------------------------------------------------
// The substrate
// ---------------------------------------------------------------------

/// The scheme partition a header locked in, replayed by its body and
/// tail flits: up to five `(output port, output VC, destination subset)`
/// branches.
#[derive(Clone, Copy, Debug)]
struct RouteBranches {
    branches: [(u8, u8, DestSet); PORTS],
    len: u8,
}

impl RouteBranches {
    fn new() -> Self {
        RouteBranches {
            branches: [(0, 0, DestSet::EMPTY); PORTS],
            len: 0,
        }
    }

    fn push(&mut self, port: usize, vc: usize, part: DestSet) {
        self.branches[self.len as usize] = (port as u8, vc as u8, part);
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = (usize, usize, DestSet)> + '_ {
        self.branches[..self.len as usize]
            .iter()
            .map(|&(p, v, d)| (p as usize, v as usize, d))
    }

    fn neighbor_branches(&self) -> usize {
        self.iter().filter(|&(p, _, _)| p != LOCAL).count()
    }
}

/// Per-router state: input FIFOs, credit counters, worm bookkeeping.
#[derive(Clone, Debug)]
struct RouterState {
    /// Input FIFOs, `[in port][vc]` (Local uses VC 0 only).
    fifo: [[VecDeque<Flit>; VC_COUNT]; PORTS],
    /// Credits held for the output link at `[out port][vc]`.
    credits: [[u8; VC_COUNT]; PORTS],
    /// Credits to return upstream for the input link at `[in port][vc]`.
    owed: [[u8; VC_COUNT]; PORTS],
    /// Payload for the next returned credit: a clone of the last flit
    /// popped from that FIFO (channels carry flits; any flit will do).
    token: [[Option<Flit>; VC_COUNT]; PORTS],
    /// Active route per input VC, set by the header, cleared by the tail.
    route: [[Option<RouteBranches>; VC_COUNT]; PORTS],
    /// Worm ownership of output VCs: which `(in port, in vc)` holds them.
    owner: [[Option<(u8, u8)>; VC_COUNT]; PORTS],
    /// Per-output-port cycle floor (shared by the port's VCs: one
    /// physical link).
    next_fire: [Time; PORTS],
    /// Round-robin start slot for the input scan.
    prefer: usize,
}

impl RouterState {
    fn new() -> Self {
        RouterState {
            fifo: std::array::from_fn(|_| std::array::from_fn(|_| VecDeque::new())),
            credits: [[VC_DEPTH as u8; VC_COUNT]; PORTS],
            owed: [[0; VC_COUNT]; PORTS],
            token: std::array::from_fn(|_| std::array::from_fn(|_| None)),
            route: [[None; VC_COUNT]; PORTS],
            owner: [[None; VC_COUNT]; PORTS],
            next_fire: [Time::ZERO; PORTS],
            prefer: 0,
        }
    }
}

/// The VC mesh substrate. Channel ids are allocated router by router:
/// for each neighbor link (north/south/east/west order, skipping edges)
/// the `VC_COUNT` data channels then the `VC_COUNT` credit-return
/// channels, then the injection channel, then the ejection channel.
#[derive(Clone)]
pub struct VcMeshModel {
    size: MeshSize,
    timing: VcMeshTiming,
    mcast: McastScheme,
    phases: Phases,
    /// Credit-conservation ledger armed? Serial runs only: in-flight
    /// counts span both ends of a link, which sharded clones cannot see.
    ledger: bool,
    wiring: Vec<ChannelEnds<usize>>,
    /// Data channels into router `r`, `[in port][vc]` (`usize::MAX`
    /// where absent; Local = the injection channel at VC 0).
    in_data: Vec<[[usize; VC_COUNT]; PORTS]>,
    /// Data channels out of router `r` (Local = the ejection channel).
    out_data: Vec<[[usize; VC_COUNT]; PORTS]>,
    /// Credit channels into `r`, indexed by the *output* port they
    /// replenish.
    credit_in: Vec<[[usize; VC_COUNT]; PORTS]>,
    /// Credit channels out of `r`, indexed by the *input* port they
    /// acknowledge.
    credit_out: Vec<[[usize; VC_COUNT]; PORTS]>,
    state: Vec<RouterState>,
    dpm: DpmPlanner,
    /// Ledger: flits launched but not yet drained, per data channel.
    data_in_flight: Vec<u32>,
    /// Ledger: credits launched but not yet absorbed, per credit channel.
    credit_in_flight: Vec<u32>,
    hop_sum: u64,
    hop_count: u64,
    link_traversals: u64,
    vc_pushes: [u64; VC_COUNT],
    vc_peak: [u64; VC_COUNT],
    credit_checks: u64,
    credit_violations: u64,
}

impl VcMeshModel {
    fn new(config: &VcMeshConfig, phases: Phases, ledger: bool) -> Self {
        let size = config.size;
        let n = size.endpoints();
        let mut wiring: Vec<ChannelEnds<usize>> = Vec::new();
        let mut in_data = vec![[[usize::MAX; VC_COUNT]; PORTS]; n];
        let mut out_data = vec![[[usize::MAX; VC_COUNT]; PORTS]; n];
        let mut credit_in = vec![[[usize::MAX; VC_COUNT]; PORTS]; n];
        let mut credit_out = vec![[[usize::MAX; VC_COUNT]; PORTS]; n];
        let mut alloc = |ends: ChannelEnds<usize>| -> usize {
            wiring.push(ends);
            wiring.len() - 1
        };
        for r in 0..n {
            let (x, y) = size.coords(r);
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
                for v in 0..VC_COUNT {
                    let data = alloc(ChannelEnds {
                        upstream: NodeRef::Node(r),
                        downstream: NodeRef::Node(neighbor),
                    });
                    out_data[r][port.index()][v] = data;
                    in_data[neighbor][opposite.index()][v] = data;
                }
                for v in 0..VC_COUNT {
                    let credit = alloc(ChannelEnds {
                        upstream: NodeRef::Node(neighbor),
                        downstream: NodeRef::Node(r),
                    });
                    credit_in[r][port.index()][v] = credit;
                    credit_out[neighbor][opposite.index()][v] = credit;
                }
            }
            let inject = alloc(ChannelEnds {
                upstream: NodeRef::Source(r),
                downstream: NodeRef::Node(r),
            });
            in_data[r][LOCAL][0] = inject;
            let eject = alloc(ChannelEnds {
                upstream: NodeRef::Node(r),
                downstream: NodeRef::Sink(r),
            });
            out_data[r][LOCAL][0] = eject;
        }

        let channels = wiring.len();
        VcMeshModel {
            size,
            timing: config.timing.clone(),
            mcast: config.mcast,
            phases,
            ledger,
            wiring,
            in_data,
            out_data,
            credit_in,
            credit_out,
            state: (0..n).map(|_| RouterState::new()).collect(),
            dpm: DpmPlanner::new(),
            data_in_flight: vec![0; channels],
            credit_in_flight: vec![0; channels],
            hop_sum: 0,
            hop_count: 0,
            link_traversals: 0,
            vc_pushes: [0; VC_COUNT],
            vc_peak: [0; VC_COUNT],
            credit_checks: 0,
            credit_violations: 0,
        }
    }

    fn mean_hops(&self) -> f64 {
        if self.hop_count == 0 {
            0.0
        } else {
            self.hop_sum as f64 / self.hop_count as f64
        }
    }

    /// Splits `branch` at `r` per the configured scheme and assigns each
    /// neighbor branch an output VC. XY-tree keeps the input VC (each VC
    /// is then an independent, acyclic XY tree network); DPM toggles the
    /// VC when this router is itself a delivery point, so a merged
    /// worm's post-delivery segment — the spot where DPM's path can
    /// break XY order — continues on the other VC.
    fn plan(&mut self, r: usize, branch: DestSet, in_vc: usize) -> RouteBranches {
        let parts = match self.mcast {
            McastScheme::XyTree => tree_partition(self.size, r, branch),
            McastScheme::Dpm => self.dpm.partition(self.size, r, branch),
        };
        let out_vc = if self.mcast == McastScheme::Dpm && branch.contains(r) {
            (in_vc + 1) % VC_COUNT
        } else {
            in_vc
        };
        let mut route = RouteBranches::new();
        for port in Port::ALL {
            let part = parts[port.index()];
            if part.is_empty() {
                continue;
            }
            if port == Port::Local {
                route.push(LOCAL, 0, part);
            } else {
                route.push(port.index(), out_vc, part);
            }
        }
        route
    }

    fn receive_credits(&mut self, r: usize, ctx: &mut Ctx<'_, '_, usize>) -> bool {
        let mut progress = false;
        for p in 0..LOCAL {
            for v in 0..VC_COUNT {
                let ch = self.credit_in[r][p][v];
                if ch == usize::MAX || ctx.arrived(ch).is_none() {
                    continue;
                }
                let _credit = ctx.take_arrived(ch);
                ctx.free_after(ch, self.timing.credit_ack);
                if self.ledger {
                    self.credit_in_flight[ch] -= 1;
                }
                let credits = &mut self.state[r].credits[p][v];
                *credits += 1;
                debug_assert!(
                    *credits as usize <= VC_DEPTH,
                    "credit counter overran the pool at router {r}"
                );
                progress = true;
            }
        }
        progress
    }

    /// VC + switch allocation over the FIFO heads, round-robin across
    /// the ten `(in port, vc)` slots.
    fn transmit(&mut self, r: usize, ctx: &mut Ctx<'_, '_, usize>) -> bool {
        let mut progress = false;
        let start = self.state[r].prefer;
        for k in 0..SLOTS {
            let slot = (start + k) % SLOTS;
            if self.try_forward(r, slot / VC_COUNT, slot % VC_COUNT, ctx) {
                self.state[r].prefer = (slot + 1) % SLOTS;
                progress = true;
            }
        }
        progress
    }

    fn try_forward(&mut self, r: usize, p: usize, v: usize, ctx: &mut Ctx<'_, '_, usize>) -> bool {
        let (kind, branch, flit_count, id_bit) = match self.state[r].fifo[p][v].front() {
            None => return false,
            Some(flit) => (
                flit.kind(),
                flit.branch(),
                flit.descriptor().flit_count(),
                (flit.descriptor().id().as_u64() & 1) as usize,
            ),
        };
        let route = match (kind.is_header(), self.state[r].route[p][v]) {
            (true, None) => {
                // Injected packets pick their starting VC by packet-id
                // parity, spreading load across both VC planes.
                let in_vc = if p == LOCAL { id_bit % VC_COUNT } else { v };
                self.plan(r, branch, in_vc)
            }
            (false, Some(route)) => route,
            (got_header, _) => unreachable!(
                "router {r} port {p} vc {v}: {} flit with route state {}",
                kind,
                if got_header { "already set" } else { "missing" }
            ),
        };

        // Atomic fork: every branch must be ready before any copy moves.
        // A multi-neighbor fork needs whole-packet credits per branch so
        // it is fully absorbed downstream (no branch coupling).
        let needed = if kind.is_header() && route.neighbor_branches() >= 2 {
            (flit_count as usize).min(VC_DEPTH) as u8
        } else {
            1
        };
        let now = ctx.now();
        let mut floor_block: Option<Time> = None;
        for (po, vo, _) in route.iter() {
            let (ch, vc) = if po == LOCAL {
                (self.out_data[r][LOCAL][0], 0)
            } else {
                (self.out_data[r][po][vo], vo)
            };
            if po != LOCAL {
                match self.state[r].owner[po][vc] {
                    None => {
                        if !kind.is_header() {
                            debug_assert!(false, "worm body lost its output lock");
                            return false;
                        }
                    }
                    Some(owner) => {
                        if kind.is_header() || owner != (p as u8, v as u8) {
                            return false; // held by another worm
                        }
                    }
                }
                if self.state[r].credits[po][vc] < needed {
                    return false; // woken by the credit's arrival
                }
            }
            if !ctx.is_free(ch) {
                return false; // woken by the output's free event
            }
            if now < self.state[r].next_fire[po] {
                let at = self.state[r].next_fire[po];
                floor_block = Some(floor_block.map_or(at, |t: Time| t.max(at)));
            }
        }
        if let Some(at) = floor_block {
            ctx.retry(r, at);
            return false;
        }

        let flit = self.state[r].fifo[p][v].pop_front().expect("head checked");
        let class = FlitClass::of(kind);
        let measured = self.phases.in_measurement(flit.descriptor().created_at());
        ctx.emit(&SimEvent::Forward {
            node: r,
            flit: &flit,
            info: ForwardInfo::Arbitrated { input: p },
            copies: route.len,
            busy: self.timing.router.free_delay(class),
        });
        let flight = self.timing.router.forward(class) + self.timing.wire_delay;
        for (po, vo, part) in route.iter() {
            if po == LOCAL {
                ctx.launch(
                    self.out_data[r][LOCAL][0],
                    flit.clone().with_branch(part),
                    flight,
                );
            } else {
                let ch = self.out_data[r][po][vo];
                ctx.launch(ch, flit.clone().with_branch(part), flight);
                self.state[r].credits[po][vo] -= 1;
                if self.ledger {
                    self.data_in_flight[ch] += 1;
                }
                if kind.is_header() && measured {
                    self.link_traversals += 1;
                }
                match kind {
                    asynoc_packet::FlitKind::Header => {
                        self.state[r].owner[po][vo] = Some((p as u8, v as u8));
                    }
                    asynoc_packet::FlitKind::Tail => {
                        self.state[r].owner[po][vo] = None;
                    }
                    _ => {}
                }
            }
            self.state[r].next_fire[po] = now + self.timing.router.cycle_floor;
        }
        match kind {
            asynoc_packet::FlitKind::Header => self.state[r].route[p][v] = Some(route),
            asynoc_packet::FlitKind::Tail => self.state[r].route[p][v] = None,
            _ => {}
        }
        if p != LOCAL {
            // The pop freed a FIFO slot: owe the upstream router a credit.
            self.state[r].owed[p][v] += 1;
            self.state[r].token[p][v] = Some(flit);
        }
        true
    }

    fn drain_inputs(&mut self, r: usize, ctx: &mut Ctx<'_, '_, usize>) -> bool {
        let mut progress = false;
        for p in 0..PORTS {
            let vcs = if p == LOCAL { 1 } else { VC_COUNT };
            for v in 0..vcs {
                let ch = self.in_data[r][p][v];
                if ch == usize::MAX || ctx.arrived(ch).is_none() {
                    continue;
                }
                if self.state[r].fifo[p][v].len() >= VC_DEPTH {
                    // Only the creditless injection channel may back up;
                    // neighbor links never overrun their credit pool.
                    debug_assert!(p == LOCAL, "credit overrun on a neighbor link at {r}");
                    continue;
                }
                let flit = ctx.take_arrived(ch);
                let class = FlitClass::of(flit.kind());
                ctx.free_after(ch, self.timing.router.free_delay(class));
                if self.ledger && p != LOCAL {
                    self.data_in_flight[ch] -= 1;
                }
                self.state[r].fifo[p][v].push_back(flit);
                if ctx.in_window() {
                    self.vc_pushes[v] += 1;
                    self.vc_peak[v] = self.vc_peak[v].max(self.state[r].fifo[p][v].len() as u64);
                }
                progress = true;
            }
        }
        progress
    }

    fn return_credits(&mut self, r: usize, ctx: &mut Ctx<'_, '_, usize>) -> bool {
        let mut progress = false;
        for p in 0..LOCAL {
            for v in 0..VC_COUNT {
                let ch = self.credit_out[r][p][v];
                if ch == usize::MAX || self.state[r].owed[p][v] == 0 || !ctx.is_free(ch) {
                    continue; // the channel's free event re-fires us
                }
                let token = self.state[r].token[p][v]
                    .clone()
                    .expect("an owed credit implies a previously popped flit");
                ctx.launch(ch, token, self.timing.credit_flight);
                self.state[r].owed[p][v] -= 1;
                if self.ledger {
                    self.credit_in_flight[ch] += 1;
                }
                progress = true;
            }
        }
        progress
    }

    /// Serial-run invariant: for every output link and VC, the credit
    /// pool splits exactly into free credits + flits in flight + flits
    /// buffered downstream + credits owed + credits in flight back.
    fn audit_credits(&mut self, r: usize) {
        let (x, y) = self.size.coords(r);
        let neighbors = [
            (Port::North, x as isize, y as isize - 1, Port::South),
            (Port::South, x as isize, y as isize + 1, Port::North),
            (Port::East, x as isize + 1, y as isize, Port::West),
            (Port::West, x as isize - 1, y as isize, Port::East),
        ];
        for (port, nx, ny, opposite) in neighbors {
            if nx < 0
                || ny < 0
                || nx as usize >= self.size.cols()
                || ny as usize >= self.size.rows()
            {
                continue;
            }
            let nb = self.size.index(nx as usize, ny as usize);
            let (p, q) = (port.index(), opposite.index());
            for v in 0..VC_COUNT {
                let total = u32::from(self.state[r].credits[p][v])
                    + self.data_in_flight[self.out_data[r][p][v]]
                    + self.state[nb].fifo[q][v].len() as u32
                    + u32::from(self.state[nb].owed[q][v])
                    + self.credit_in_flight[self.credit_in[r][p][v]];
                self.credit_checks += 1;
                if total != VC_DEPTH as u32 {
                    self.credit_violations += 1;
                }
            }
        }
    }
}

impl SimModel for VcMeshModel {
    type Node = usize;

    fn endpoints(&self) -> usize {
        self.size.endpoints()
    }

    fn channel_count(&self) -> usize {
        self.wiring.len()
    }

    fn channel_ends(&self, channel: usize) -> ChannelEnds<usize> {
        self.wiring[channel]
    }

    fn source_channel(&self, source: usize) -> usize {
        self.in_data[source][LOCAL][0]
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

    /// In-network multicast: one packet, forked at divergence points.
    fn serializes_multicast(&self) -> bool {
        false
    }

    fn route(&self, _source: usize, _dests: DestSet) -> RouteHeader {
        // The VC mesh routes by the flit's destination subset, not tree
        // symbols; a minimal one-slot header keeps allocation trivial.
        RouteHeader::for_tree(2)
    }

    fn route_into(&self, _source: usize, _dests: DestSet, header: &mut RouteHeader) {
        header.reset_for_tree(2);
    }

    fn on_packet(&mut self, source: usize, dests: DestSet, measured: bool) {
        if !measured {
            return;
        }
        for dest in dests.iter() {
            self.hop_sum += self.size.hops(source, dest) as u64;
            self.hop_count += 1;
        }
    }

    fn fire(&mut self, router: usize, ctx: &mut Ctx<'_, '_, usize>) {
        // Fixpoint: a pop frees a FIFO slot, enabling a drain, enabling
        // a credit return — none of which generates an engine event for
        // this router, so iterate until nothing moves.
        loop {
            let mut progress = false;
            progress |= self.receive_credits(router, ctx);
            progress |= self.transmit(router, ctx);
            progress |= self.drain_inputs(router, ctx);
            progress |= self.return_credits(router, ctx);
            if !progress {
                break;
            }
        }
        if self.ledger {
            self.audit_credits(router);
        }
    }
}

impl ShardModel for VcMeshModel {
    /// Bands of whole mesh rows, exactly like the wormhole mesh — but
    /// the cut north/south links each drag their credit-return twins
    /// across the band boundary, so the lookahead must also admit the
    /// credit loop's delays: a credit launch (`credit_flight`) and its
    /// absorption acknowledge (`credit_ack`), alongside data launches
    /// and frees.
    fn partition(&self, shards: usize) -> Partition {
        let rows = self.size.rows();
        let shards = shards.clamp(1, rows);
        let router = &self.timing.router;
        let wire = self.timing.wire_delay;
        let lookahead = [FlitClass::Header, FlitClass::Body]
            .into_iter()
            .flat_map(|class| [router.forward(class) + wire, router.free_delay(class)])
            .chain([self.timing.credit_flight, self.timing.credit_ack])
            .min()
            .expect("delays considered");
        let band = |endpoint: usize| {
            let (_, y) = self.size.coords(endpoint);
            y * shards / rows
        };
        Partition::from_assignment(self, shards, lookahead, |node| match node {
            NodeRef::Source(s) => band(s),
            NodeRef::Node(r) => band(r),
            NodeRef::Sink(d) => band(d),
        })
    }

    /// Counters accumulate per shard (each router is owned by exactly
    /// one shard); fold them back. Per-VC peaks merge by maximum.
    fn merge_shards(&mut self, shards: Vec<Self>) {
        for shard in shards {
            self.hop_sum += shard.hop_sum;
            self.hop_count += shard.hop_count;
            self.link_traversals += shard.link_traversals;
            for v in 0..VC_COUNT {
                self.vc_pushes[v] += shard.vc_pushes[v];
                self.vc_peak[v] = self.vc_peak[v].max(shard.vc_peak[v]);
            }
            self.credit_checks += shard.credit_checks;
            self.credit_violations += shard.credit_violations;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_engine::Observer;

    fn quick_phases() -> Phases {
        Phases::new(Duration::from_ns(80), Duration::from_ns(800))
    }

    fn network(cols: usize, rows: usize, mcast: McastScheme) -> VcMeshNetwork {
        VcMeshNetwork::new(
            VcMeshConfig::new(MeshSize::new(cols, rows).unwrap())
                .with_seed(42)
                .with_mcast(mcast),
        )
        .unwrap()
    }

    #[test]
    fn light_load_delivers_everything() {
        for mcast in [McastScheme::XyTree, McastScheme::Dpm] {
            for (c, r) in [(2usize, 2usize), (4, 4)] {
                let report = network(c, r, mcast)
                    .run(Benchmark::UniformRandom, 0.1, quick_phases())
                    .unwrap();
                assert!(
                    report.packets_measured > 0,
                    "{mcast} {c}x{r}: nothing measured"
                );
                assert_eq!(
                    report.packets_incomplete, 0,
                    "{mcast} {c}x{r}: lost packets"
                );
                assert!(
                    report.acceptance() > 0.98,
                    "{mcast} {c}x{r}: refused at light load"
                );
                assert_eq!(report.credit_violations, 0, "{mcast} {c}x{r}: ledger broke");
                assert!(
                    report.credit_checks > 0,
                    "{mcast} {c}x{r}: ledger never ran"
                );
            }
        }
    }

    #[test]
    fn multicast_delivers_in_network() {
        for mcast in [McastScheme::XyTree, McastScheme::Dpm] {
            let report = network(4, 4, mcast)
                .run(Benchmark::Multicast5, 0.15, quick_phases())
                .unwrap();
            assert!(report.packets_measured > 0, "{mcast}: nothing measured");
            assert_eq!(
                report.packets_incomplete, 0,
                "{mcast}: undelivered multicast"
            );
            assert!(report.link_traversals > 0, "{mcast}: no links counted");
            assert_eq!(report.credit_violations, 0, "{mcast}: ledger broke");
        }
    }

    #[test]
    fn both_vc_planes_carry_traffic() {
        let report = network(4, 4, McastScheme::XyTree)
            .run(Benchmark::UniformRandom, 0.2, quick_phases())
            .unwrap();
        assert!(report.vc_pushes[0] > 0, "VC0 idle");
        assert!(
            report.vc_pushes[1] > 0,
            "VC1 idle (id-parity allocation broken)"
        );
        assert!(report.vc_peak.iter().all(|&p| p <= VC_DEPTH as u64));
    }

    #[test]
    fn dpm_uses_no_more_links_than_tree() {
        for seed in [1u64, 7, 42] {
            let mut reports = Vec::new();
            for mcast in [McastScheme::XyTree, McastScheme::Dpm] {
                let net = VcMeshNetwork::new(
                    VcMeshConfig::new(MeshSize::new(4, 4).unwrap())
                        .with_seed(seed)
                        .with_mcast(mcast),
                )
                .unwrap();
                reports.push(
                    net.run(Benchmark::Multicast10, 0.1, quick_phases())
                        .unwrap(),
                );
            }
            let (tree, dpm) = (&reports[0], &reports[1]);
            assert_eq!(
                tree.packets_measured, dpm.packets_measured,
                "seed {seed}: injection must be identical across schemes"
            );
            assert_eq!(tree.packets_incomplete, 0, "seed {seed}");
            assert_eq!(dpm.packets_incomplete, 0, "seed {seed}");
            assert!(
                dpm.link_traversals <= tree.link_traversals,
                "seed {seed}: DPM {} > tree {}",
                dpm.link_traversals,
                tree.link_traversals
            );
        }
    }

    #[test]
    fn determinism() {
        for mcast in [McastScheme::XyTree, McastScheme::Dpm] {
            let a = network(4, 4, mcast)
                .run(Benchmark::Multicast5, 0.2, quick_phases())
                .unwrap();
            let b = network(4, 4, mcast)
                .run(Benchmark::Multicast5, 0.2, quick_phases())
                .unwrap();
            assert_eq!(a.latency.mean(), b.latency.mean());
            assert_eq!(a.events_processed, b.events_processed);
            assert_eq!(a.link_traversals, b.link_traversals);
        }
    }

    #[test]
    fn sharded_runs_match_serial_bit_for_bit() {
        asynoc_kernel::with_deadline(120, || {
            for mcast in [McastScheme::XyTree, McastScheme::Dpm] {
                let net = VcMeshNetwork::new(
                    VcMeshConfig::new(MeshSize::new(4, 4).unwrap())
                        .with_seed(11)
                        .with_mcast(mcast),
                )
                .unwrap();
                let serial = net.run(Benchmark::Multicast5, 0.2, quick_phases()).unwrap();
                assert_eq!(serial.shards, 1);
                for shards in [2, 4] {
                    let run = RunConfig::new(Benchmark::Multicast5, 0.2)
                        .unwrap()
                        .with_phases(quick_phases())
                        .with_shards(shards);
                    let sharded = drive(&net, &run, &mut [], None).unwrap();
                    assert_eq!(sharded.shards, shards);
                    assert_eq!(sharded.events_processed, serial.events_processed, "{mcast}");
                    assert_eq!(sharded.latency, serial.latency, "{mcast}");
                    assert_eq!(sharded.throughput, serial.throughput);
                    assert_eq!(sharded.packets_measured, serial.packets_measured);
                    assert_eq!(sharded.packets_incomplete, serial.packets_incomplete);
                    assert_eq!(sharded.mean_hops, serial.mean_hops);
                    assert_eq!(sharded.link_traversals, serial.link_traversals, "{mcast}");
                    assert_eq!(sharded.vc_pushes, serial.vc_pushes, "{mcast}");
                    assert_eq!(sharded.vc_peak, serial.vc_peak, "{mcast}");
                }
            }
        });
    }

    #[test]
    fn rate_validation() {
        assert!(matches!(
            network(2, 2, McastScheme::XyTree).run(Benchmark::Shuffle, 0.0, quick_phases()),
            Err(MeshError::InvalidRate { .. })
        ));
    }

    #[test]
    fn forwards_report_fork_copies() {
        struct Spy {
            forwards: u64,
            max_copies: u8,
            delivers: u64,
        }
        impl Observer<usize> for Spy {
            fn on_event(&mut self, _at: Time, _in_window: bool, event: &SimEvent<'_, usize>) {
                match event {
                    SimEvent::Forward { copies, .. } => {
                        self.forwards += 1;
                        self.max_copies = self.max_copies.max(*copies);
                    }
                    SimEvent::Deliver { .. } => self.delivers += 1,
                    _ => {}
                }
            }
        }
        let mut spy = Spy {
            forwards: 0,
            max_copies: 0,
            delivers: 0,
        };
        let run = RunConfig::quick(Benchmark::Multicast10, 0.1);
        let net = network(4, 4, McastScheme::XyTree);
        let report = drive(&net, &run, &mut [&mut spy], None).unwrap();
        assert!(spy.forwards > 0, "routers forwarded nothing");
        assert!(spy.delivers > 0, "nothing delivered");
        assert!(spy.max_copies >= 2, "multicast never forked in-network");
        assert!(report.packets_measured > 0);
    }
}
