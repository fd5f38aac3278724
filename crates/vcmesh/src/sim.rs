//! The credit-based VC router, run on `asynoc-mesh`'s fabric.
//!
//! Unlike the wormhole router (single-flit channels, stall pressure
//! propagating link by link), this router models the modern synchronous
//! reference design: per-VC input FIFOs, credit-based flow control, and
//! in-network multicast. Each inter-router link carries `VC_COUNT` data
//! channels and `VC_COUNT` credit-return channels, all first-class sim
//! channels — so link-stall faults apply to the credit loop exactly as
//! they do to data, and the sharded engine cuts the credit loop with the
//! same conservative lookahead discipline.
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

use asynoc_engine::{Ctx, ForwardInfo, RunConfig, SimEvent};
use asynoc_kernel::{Duration, Time};
use asynoc_mesh::{Config, Grid, MeshSize, MeshTiming, Network, Port, Report, Router};
use asynoc_nodes::FlitClass;
use asynoc_packet::{DestSet, Flit, FlitKind};
use asynoc_stats::Phases;

use crate::scheme::{tree_partition, DpmPlanner, McastScheme};

/// Virtual channels per link.
pub const VC_COUNT: usize = 2;
/// Flit slots per input VC FIFO (= the credit pool per output VC).
pub const VC_DEPTH: usize = 8;

const PORTS: usize = 5;
const LOCAL: usize = 4; // Port::Local.index()
const SLOTS: usize = PORTS * VC_COUNT;

/// Credit-return wire flight (downstream router → upstream counter). The
/// credit loop's two delays come on top of the fabric's [`MeshTiming`]:
/// the comparison should isolate the flow-control and multicast
/// discipline, not re-litigate gate delays.
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
    /// Credit-conservation audits performed (serial runs only: the
    /// ledger needs the whole fabric in one address space).
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

/// The VC router's per-run state. On the fabric's channel table a link's
/// first channel `l` is followed by its siblings: data on VC `v` is
/// `l + v`, the credit return for VC `v` is `l + VC_COUNT + v` — so a
/// router's outgoing links carry its data out and its credits back in,
/// and its incoming links the reverse.
#[derive(Clone, Debug)]
pub struct VcRouter {
    mcast: McastScheme,
    phases: Phases,
    /// Credit-conservation ledger armed? Serial runs only: in-flight
    /// counts span both ends of a link, which sharded clones cannot see.
    ledger: bool,
    state: Vec<RouterState>,
    dpm: DpmPlanner,
    /// Ledger: flits launched but not yet drained, per data channel.
    data_in_flight: Vec<u32>,
    /// Ledger: credits launched but not yet absorbed, per credit channel.
    credit_in_flight: Vec<u32>,
    section: VcSection,
}

impl VcRouter {
    /// Splits `branch` at `r` per the configured scheme and assigns each
    /// neighbor branch an output VC. XY-tree keeps the input VC (each VC
    /// is then an independent, acyclic XY tree network); DPM toggles the
    /// VC when this router is itself a delivery point, so a merged
    /// worm's post-delivery segment — the spot where DPM's path can
    /// break XY order — continues on the other VC.
    fn plan(&mut self, size: MeshSize, r: usize, branch: DestSet, in_vc: usize) -> RouteBranches {
        let parts = match self.mcast {
            McastScheme::XyTree => tree_partition(size, r, branch),
            McastScheme::Dpm => self.dpm.partition(size, r, branch),
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

    fn receive_credits(&mut self, grid: &Grid, r: usize, ctx: &mut Ctx<'_, '_, usize>) -> bool {
        let mut progress = false;
        for (p, &link) in grid.link_out(r)[..LOCAL].iter().enumerate() {
            if link == Grid::ABSENT {
                continue;
            }
            for v in 0..VC_COUNT {
                let ch = link + VC_COUNT + v;
                if ctx.arrived(ch).is_none() {
                    continue;
                }
                let _credit = ctx.take_arrived(ch);
                ctx.free_after(ch, CREDIT_ACK);
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
    fn transmit(&mut self, grid: &Grid, r: usize, ctx: &mut Ctx<'_, '_, usize>) -> bool {
        let mut progress = false;
        let start = self.state[r].prefer;
        for k in 0..SLOTS {
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
        ctx: &mut Ctx<'_, '_, usize>,
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
                self.plan(grid.size(), r, branch, in_vc)
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
            ctx.launch(ch, flit.clone().with_branch(part), flight);
            if po != LOCAL {
                self.state[r].credits[po][vo] -= 1;
                if self.ledger {
                    self.data_in_flight[ch] += 1;
                }
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
            self.state[r].token[p][v] = Some(flit);
        }
        true
    }

    fn drain_inputs(&mut self, grid: &Grid, r: usize, ctx: &mut Ctx<'_, '_, usize>) -> bool {
        let mut progress = false;
        for (p, &link) in grid.link_in(r).iter().enumerate() {
            if link == Grid::ABSENT {
                continue;
            }
            let vcs = if p == LOCAL { 1 } else { VC_COUNT };
            for v in 0..vcs {
                let ch = link + v;
                if ctx.arrived(ch).is_none() {
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
                ctx.free_after(ch, grid.timing().router.free_delay(class));
                if self.ledger && p != LOCAL {
                    self.data_in_flight[ch] -= 1;
                }
                self.state[r].fifo[p][v].push_back(flit);
                if ctx.in_window() {
                    let depth = self.state[r].fifo[p][v].len() as u64;
                    self.section.vc_pushes[v] += 1;
                    self.section.vc_peak[v] = self.section.vc_peak[v].max(depth);
                }
                progress = true;
            }
        }
        progress
    }

    fn return_credits(&mut self, grid: &Grid, r: usize, ctx: &mut Ctx<'_, '_, usize>) -> bool {
        let mut progress = false;
        for (p, &link) in grid.link_in(r)[..LOCAL].iter().enumerate() {
            if link == Grid::ABSENT {
                continue;
            }
            for v in 0..VC_COUNT {
                let ch = link + VC_COUNT + v;
                if self.state[r].owed[p][v] == 0 || !ctx.is_free(ch) {
                    continue; // the channel's free event re-fires us
                }
                let token = self.state[r].token[p][v]
                    .clone()
                    .expect("an owed credit implies a previously popped flit");
                ctx.launch(ch, token, CREDIT_FLIGHT);
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
    fn audit_credits(&mut self, grid: &Grid, r: usize) {
        for (p, &link) in grid.link_out(r)[..LOCAL].iter().enumerate() {
            let Some(nb) = grid.neighbor(r, p) else {
                continue;
            };
            // The neighbor receives the link on the opposite port, which
            // the dense N, S, E, W order pairs up as 0/1 and 2/3.
            let q = p ^ 1;
            debug_assert_eq!(grid.link_in(nb)[q], link);
            for v in 0..VC_COUNT {
                let total = u32::from(self.state[r].credits[p][v])
                    + self.data_in_flight[link + v]
                    + self.state[nb].fifo[q][v].len() as u32
                    + u32::from(self.state[nb].owed[q][v])
                    + self.credit_in_flight[link + VC_COUNT + v];
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

    /// The cut north/south links each drag their credit-return twins
    /// across the band boundary, so the lookahead must also admit the
    /// credit loop's delays: a credit launch and its absorption
    /// acknowledge, alongside data launches and frees.
    fn lookahead(timing: &MeshTiming) -> Duration {
        timing.data_lookahead().min(CREDIT_FLIGHT).min(CREDIT_ACK)
    }

    fn new(grid: &Grid, mcast: &McastScheme, run: &RunConfig) -> Self {
        VcRouter {
            mcast: *mcast,
            phases: run.phases(),
            ledger: run.shards() == 1,
            state: (0..grid.size().endpoints())
                .map(|_| RouterState::new())
                .collect(),
            dpm: DpmPlanner::new(),
            data_in_flight: vec![0; grid.channels()],
            credit_in_flight: vec![0; grid.channels()],
            section: VcSection::default(),
        }
    }

    fn fire(&mut self, grid: &Grid, router: usize, ctx: &mut Ctx<'_, '_, usize>) {
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
        if self.ledger {
            self.audit_credits(grid, router);
        }
    }

    /// Each router is owned by exactly one shard, so counters add; per-VC
    /// peaks merge by maximum.
    fn merge(&mut self, shard: Self) {
        let (total, part) = (&mut self.section, shard.section);
        total.link_traversals += part.link_traversals;
        for v in 0..VC_COUNT {
            total.vc_pushes[v] += part.vc_pushes[v];
            total.vc_peak[v] = total.vc_peak[v].max(part.vc_peak[v]);
        }
        total.credit_checks += part.credit_checks;
        total.credit_violations += part.credit_violations;
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
            assert!(
                report.router.link_traversals > 0,
                "{mcast}: no links counted"
            );
            assert_eq!(report.router.credit_violations, 0, "{mcast}: ledger broke");
        }
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
                dpm.router.link_traversals <= tree.router.link_traversals,
                "seed {seed}: DPM {} > tree {}",
                dpm.router.link_traversals,
                tree.router.link_traversals
            );
        }
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
