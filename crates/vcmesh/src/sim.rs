//! The credit-based VC router, run on `asynoc-mesh`'s fabric.
//!
//! Unlike the wormhole router (single-flit channels, stall pressure
//! propagating link by link), this router models the modern synchronous
//! reference design: per-VC input FIFOs, credit-based flow control, and
//! in-network multicast. Each inter-router link carries `VC_COUNT` data
//! channels and `VC_COUNT` credit-return channels, all first-class sim
//! channels — so link-stall faults apply to the credit loop exactly as
//! they do to data.
//!
//! A router's `fire` runs a fixpoint over four phases — absorb returned
//! credits, transmit FIFO heads (VC + switch allocation), drain arrived
//! flits into FIFOs, and return credits upstream — because progress in
//! one phase (a pop freeing a FIFO slot) can enable another within the
//! same wakeup without generating an engine event. Each phase visits
//! only the `(port, vc)` slots a mask marks as having work; the router
//! that launches a flit or a credit sets the receiver's bit.
//!
//! Multicast forks are atomic: a header forwards only when *every*
//! branch of its scheme partition is ready (output VC unowned, credits
//! available, channel free, cycle floor elapsed), and all copies launch
//! together. Forks with two or more neighbor branches additionally
//! require enough credits for the whole packet on each branch, so a fork
//! is fully absorbed downstream and branch coupling cannot close a cycle
//! the XY channel order leaves open.

use std::collections::VecDeque;

use asynoc_engine::{Ctx, ForwardInfo, RunConfig, SimEvent};
use asynoc_kernel::{Duration, Time};
use asynoc_mesh::{Config, Grid, MeshSize, Network, Port, Report, Router};
use asynoc_nodes::FlitClass;
use asynoc_packet::{DestSet, Flit, FlitKind};
use asynoc_stats::Phases;

use crate::scheme::{DpmPlanner, McastScheme};

/// Virtual channels per link.
pub const VC_COUNT: usize = 2;
/// Flit slots per input VC FIFO (= the credit pool per output VC).
pub const VC_DEPTH: usize = 8;

const PORTS: usize = 5;
const LOCAL: usize = 4; // Port::Local.index()
const SLOTS: usize = PORTS * VC_COUNT;

/// The mask bit of slot `(port, vc)`.
const fn bit(port: usize, vc: usize) -> u16 {
    1 << (port * VC_COUNT + vc)
}

/// The set bits of `mask`, lowest first.
fn set_bits(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let at = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            at
        })
    })
}

/// The `(port, vc)` slots set in `mask`, lowest bit first.
fn slots(mask: u16) -> impl Iterator<Item = (usize, usize)> {
    set_bits(mask).map(|slot| (slot / VC_COUNT, slot % VC_COUNT))
}

/// Credit-return wire flight (downstream router → upstream counter). The
/// credit loop's two delays come on top of the fabric's
/// [`MeshTiming`](asynoc_mesh::MeshTiming): the comparison should isolate
/// the flow-control and multicast discipline, not re-litigate gate delays.
const CREDIT_FLIGHT: Duration = Duration::from_ps(300);
/// Channel-free delay after absorbing a returned credit.
const CREDIT_ACK: Duration = Duration::from_ps(200);

/// Static description of a VC mesh network: the fabric's (size, packet
/// length, seed) and the multicast scheme, tree-based XY by default.
#[derive(Clone, Debug, PartialEq)]
pub struct VcMeshConfig(Config<McastScheme>);

impl VcMeshConfig {
    /// Creates a configuration with 5-flit packets, tree-based XY
    /// multicast, and seed 0.
    #[must_use]
    pub fn new(size: MeshSize) -> Self {
        VcMeshConfig(Config::new(size))
    }

    /// Replaces the RNG seed.
    #[must_use]
    pub fn with_seed(self, seed: u64) -> Self {
        VcMeshConfig(self.0.with_seed(seed))
    }

    /// Replaces the packet length.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    #[must_use]
    pub fn with_flits_per_packet(self, flits: u8) -> Self {
        VcMeshConfig(self.0.with_flits_per_packet(flits))
    }

    /// Replaces the multicast routing scheme.
    #[must_use]
    pub fn with_mcast(self, mcast: McastScheme) -> Self {
        VcMeshConfig(self.0.with_router(mcast))
    }
}

impl From<VcMeshConfig> for Config<McastScheme> {
    fn from(config: VcMeshConfig) -> Self {
        config.0
    }
}

/// A ready-to-run VC mesh network; its `config().router()` is the
/// multicast scheme runs use.
pub type VcMeshNetwork = Network<VcRouter>;

/// Measurements from one VC mesh run (a non-zero `packets_incomplete`
/// indicates saturation or VC deadlock); `router` is the [`VcSection`].
pub type VcMeshReport = Report<VcSection>;

/// The VC router's section of a [`VcMeshReport`].
#[derive(Clone, Debug, Default)]
pub struct VcSection {
    /// Inter-router header-flit launches for measured packets: the link
    /// traversals a multicast scheme pays. DPM's total is ≤ the XY
    /// tree's on identical traffic (the Tiwari et al. claim).
    pub link_traversals: u64,
    /// In-measurement-window FIFO pushes per VC.
    pub vc_pushes: [u64; VC_COUNT],
    /// Peak in-window FIFO occupancy per VC (over all routers/ports).
    pub vc_peak: [u64; VC_COUNT],
    /// Credit-conservation audits performed.
    pub credit_checks: u64,
    /// Audits where `free + in-flight + buffered + owed + returning`
    /// differed from the credit pool. Always 0 in a correct build.
    pub credit_violations: u64,
}

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

/// Per-router state: input FIFOs, credit counters, worm bookkeeping,
/// and the slot masks (bit `port * VC_COUNT + vc`) that say where the
/// four phases of `fire` have work.
#[derive(Debug)]
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
    /// Input FIFOs that are not empty.
    queued: u16,
    /// Inputs with a data flit launched toward them and not yet drained.
    inbound: u16,
    /// Outputs with a credit flying back to them.
    returning: u16,
    /// Inputs owing credits upstream.
    owing: u16,
    /// The router through each neighbor port (`Grid::ABSENT` at an edge).
    neighbor: [usize; LOCAL],
}

impl RouterState {
    fn new(neighbor: [usize; LOCAL]) -> Self {
        RouterState {
            fifo: std::array::from_fn(|_| std::array::from_fn(|_| VecDeque::new())),
            credits: [[VC_DEPTH as u8; VC_COUNT]; PORTS],
            owed: [[0; VC_COUNT]; PORTS],
            token: std::array::from_fn(|_| std::array::from_fn(|_| None)),
            route: [[None; VC_COUNT]; PORTS],
            owner: [[None; VC_COUNT]; PORTS],
            next_fire: [Time::ZERO; PORTS],
            prefer: 0,
            queued: 0,
            inbound: 0,
            returning: 0,
            owing: 0,
            neighbor,
        }
    }
}

/// The VC router's per-run state. On the fabric's channel table a link's
/// first channel `l` is followed by its siblings: data on VC `v` is
/// `l + v`, the credit return for VC `v` is `l + VC_COUNT + v` — so a
/// router's outgoing links carry its data out and its credits back in,
/// and its incoming links the reverse.
#[derive(Debug)]
pub struct VcRouter {
    mcast: McastScheme,
    phases: Phases,
    state: Vec<RouterState>,
    planner: DpmPlanner,
    section: VcSection,
}

impl VcRouter {
    /// Splits `branch` at `r` per the configured scheme and assigns each
    /// neighbor branch an output VC. XY-tree keeps the input VC (each VC
    /// is then an independent, acyclic XY tree network); DPM toggles the
    /// VC when this router is itself a delivery point, so a merged
    /// worm's post-delivery segment — the spot where DPM's path can
    /// break XY order — continues on the other VC.
    fn plan(&mut self, r: usize, branch: DestSet, in_vc: usize) -> RouteBranches {
        let parts = match self.mcast {
            McastScheme::XyTree => self.planner.split(r, branch),
            McastScheme::Dpm => self.planner.partition(r, branch),
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

    fn receive_credits(&mut self, grid: &Grid, r: usize, ctx: &mut impl Ctx<usize>) -> bool {
        let mut progress = false;
        let out = grid.link_out(r);
        for (p, v) in slots(self.state[r].returning) {
            let ch = out[p] + VC_COUNT + v;
            if ctx.arrived(ch).is_none() {
                continue;
            }
            let _credit = ctx.take_arrived(ch);
            ctx.free_after(ch, CREDIT_ACK);
            self.state[r].returning &= !bit(p, v);
            let credits = &mut self.state[r].credits[p][v];
            *credits += 1;
            debug_assert!(
                *credits as usize <= VC_DEPTH,
                "credit counter overran the pool at router {r}"
            );
            progress = true;
        }
        progress
    }

    /// VC + switch allocation over the FIFO heads, round-robin across
    /// the ten `(in port, vc)` slots. Only the non-empty ones are tried:
    /// nothing fills a FIFO here and only a slot's own pop can empty it,
    /// so the mask read once names exactly the heads a full scan would.
    fn transmit(&mut self, grid: &Grid, r: usize, ctx: &mut impl Ctx<usize>) -> bool {
        let mut progress = false;
        let start = self.state[r].prefer;
        let queued = self.state[r].queued;
        // Rotated so that bit k is slot `start + k`: the scan's order.
        let rotated = (queued >> start | queued << (SLOTS - start)) & ((1 << SLOTS) - 1);
        for k in set_bits(rotated) {
            let slot = (start + k) % SLOTS;
            if self.try_forward(grid, r, slot / VC_COUNT, slot % VC_COUNT, ctx) {
                self.state[r].prefer = (slot + 1) % SLOTS;
                progress = true;
            }
        }
        progress
    }

    fn try_forward(
        &mut self,
        grid: &Grid,
        r: usize,
        p: usize,
        v: usize,
        ctx: &mut impl Ctx<usize>,
    ) -> bool {
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
        // The data channel of branch `(po, vo)`; the ejection channel at
        // `LOCAL`, whose branches are always on VC 0.
        let out = grid.link_out(r);
        let now = ctx.now();
        let mut floor_block: Option<Time> = None;
        for (po, vo, _) in route.iter() {
            if po != LOCAL {
                match self.state[r].owner[po][vo] {
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
                if self.state[r].credits[po][vo] < needed {
                    return false; // woken by the credit's arrival
                }
            }
            if !ctx.is_free(out[po] + vo) {
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
        if self.state[r].fifo[p][v].is_empty() {
            self.state[r].queued &= !bit(p, v);
        }
        let class = FlitClass::of(kind);
        let timing = grid.timing();
        let measured = self.phases.in_measurement(flit.descriptor().created_at());
        ctx.emit(&SimEvent::Forward {
            node: r,
            flit: &flit,
            info: ForwardInfo::Arbitrated { input: p },
            copies: route.len,
            busy: timing.router.free_delay(class),
        });
        let flight = timing.router.forward(class) + timing.wire_delay;
        for (po, vo, part) in route.iter() {
            let ch = out[po] + vo;
            ctx.launch(ch, flit.with_branch(part), flight);
            if po != LOCAL {
                self.state[r].credits[po][vo] -= 1;
                let nb = self.state[r].neighbor[po];
                self.state[nb].inbound |= bit(po ^ 1, vo);
                if kind.is_header() && measured {
                    self.section.link_traversals += 1;
                }
                match kind {
                    FlitKind::Header => {
                        self.state[r].owner[po][vo] = Some((p as u8, v as u8));
                    }
                    FlitKind::Tail => {
                        self.state[r].owner[po][vo] = None;
                    }
                    _ => {}
                }
            }
            self.state[r].next_fire[po] = now + timing.router.cycle_floor;
        }
        match kind {
            FlitKind::Header => self.state[r].route[p][v] = Some(route),
            FlitKind::Tail => self.state[r].route[p][v] = None,
            _ => {}
        }
        if p != LOCAL {
            // The pop freed a FIFO slot: owe the upstream router a credit.
            self.state[r].owed[p][v] += 1;
            self.state[r].owing |= bit(p, v);
            self.state[r].token[p][v] = Some(flit);
        }
        true
    }

    /// Drains arrived flits: the neighbor inputs with a flit on the wire,
    /// then the injection channel, which sources launch into unmarked.
    fn drain_inputs(&mut self, grid: &Grid, r: usize, ctx: &mut impl Ctx<usize>) -> bool {
        let mut progress = false;
        let link_in = grid.link_in(r);
        for (p, v) in slots(self.state[r].inbound).chain([(LOCAL, 0)]) {
            let ch = link_in[p] + v;
            if ctx.arrived(ch).is_none() {
                continue;
            }
            let state = &mut self.state[r];
            if state.fifo[p][v].len() >= VC_DEPTH {
                // Only the creditless injection channel may back up;
                // neighbor links never overrun their credit pool.
                debug_assert!(p == LOCAL, "credit overrun on a neighbor link at {r}");
                continue;
            }
            let flit = ctx.take_arrived(ch);
            let class = FlitClass::of(flit.kind());
            ctx.free_after(ch, grid.timing().router.free_delay(class));
            state.inbound &= !bit(p, v);
            state.queued |= bit(p, v);
            state.fifo[p][v].push_back(flit);
            if ctx.in_window() {
                let depth = state.fifo[p][v].len() as u64;
                self.section.vc_pushes[v] += 1;
                self.section.vc_peak[v] = self.section.vc_peak[v].max(depth);
            }
            progress = true;
        }
        progress
    }

    fn return_credits(&mut self, grid: &Grid, r: usize, ctx: &mut impl Ctx<usize>) -> bool {
        let mut progress = false;
        let link_in = grid.link_in(r);
        for (p, v) in slots(self.state[r].owing) {
            let ch = link_in[p] + VC_COUNT + v;
            if !ctx.is_free(ch) {
                continue; // the channel's free event re-fires us
            }
            let state = &mut self.state[r];
            let token = state.token[p][v].expect("an owed credit implies a previously popped flit");
            ctx.launch(ch, token, CREDIT_FLIGHT);
            state.owed[p][v] -= 1;
            if state.owed[p][v] == 0 {
                state.owing &= !bit(p, v);
            }
            let nb = state.neighbor[p];
            self.state[nb].returning |= bit(p ^ 1, v);
            progress = true;
        }
        progress
    }

    /// Invariant checked at every firing: for every output link and VC,
    /// the credit pool splits exactly into free credits + flits in
    /// flight + flits buffered downstream + credits owed + credits in
    /// flight back. A channel holds at most one flit, so the in-flight
    /// terms are the `inbound` and `returning` bits.
    fn audit_credits(&mut self, r: usize) {
        let here = &self.state[r];
        for (p, &nb) in here.neighbor.iter().enumerate() {
            if nb == Grid::ABSENT {
                continue;
            }
            // The neighbor receives the link on the opposite port, which
            // the dense N, S, E, W order pairs up as 0/1 and 2/3.
            let q = p ^ 1;
            let far = &self.state[nb];
            for v in 0..VC_COUNT {
                let total = u32::from(here.credits[p][v])
                    + u32::from(far.inbound & bit(q, v) != 0)
                    + far.fifo[q][v].len() as u32
                    + u32::from(far.owed[q][v])
                    + u32::from(here.returning & bit(p, v) != 0);
                self.section.credit_checks += 1;
                if total != VC_DEPTH as u32 {
                    self.section.credit_violations += 1;
                }
            }
        }
    }
}

impl Router for VcRouter {
    type Settings = McastScheme;
    type Section = VcSection;

    const DATA_CHANNELS: usize = VC_COUNT;
    const RETURN_CHANNELS: usize = VC_COUNT;
    /// In-network multicast: one packet, forked at divergence points.
    const SERIALIZES_MULTICAST: bool = false;

    fn new(grid: &Grid, mcast: &McastScheme, run: &RunConfig) -> Self {
        let neighbors = |r: usize| {
            std::array::from_fn(|p| {
                let nb = grid.neighbor(r, p).unwrap_or(Grid::ABSENT);
                debug_assert!(nb == Grid::ABSENT || grid.link_in(nb)[p ^ 1] == grid.link_out(r)[p]);
                nb
            })
        };
        VcRouter {
            mcast: *mcast,
            phases: run.phases(),
            state: (0..grid.size().endpoints())
                .map(|r| RouterState::new(neighbors(r)))
                .collect(),
            planner: DpmPlanner::new(grid.size()),
            section: VcSection::default(),
        }
    }

    fn fire(&mut self, grid: &Grid, router: usize, ctx: &mut impl Ctx<usize>) {
        // Fixpoint: a pop frees a FIFO slot, enabling a drain, enabling
        // a credit return — none of which generates an engine event for
        // this router, so iterate until nothing moves.
        loop {
            let mut progress = false;
            progress |= self.receive_credits(grid, router, ctx);
            progress |= self.transmit(grid, router, ctx);
            progress |= self.drain_inputs(grid, router, ctx);
            progress |= self.return_credits(grid, router, ctx);
            if !progress {
                break;
            }
        }
        self.audit_credits(router);
    }

    fn section(self) -> VcSection {
        self.section
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_engine::{drive, Observer};
    use asynoc_traffic::Benchmark;

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
    fn both_vc_planes_carry_traffic() {
        let report = network(4, 4, McastScheme::XyTree)
            .run(Benchmark::UniformRandom, 0.2, quick_phases())
            .unwrap();
        assert!(report.router.vc_pushes[0] > 0, "VC0 idle");
        assert!(
            report.router.vc_pushes[1] > 0,
            "VC1 idle (id-parity allocation broken)"
        );
        assert!(report.router.vc_peak.iter().all(|&p| p <= VC_DEPTH as u64));
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
