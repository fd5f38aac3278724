//! The wormhole router: XY routing, per-output wormhole locks and cycle
//! floors over single-flit bundled-data channels.
//!
//! Same execution discipline as the MoT simulator — fire-when-ready
//! routers, stall-and-notify wakeups, FIFO tie breaking, deterministic per
//! seed — because both run on the shared `asynoc-engine` event loop, and
//! everything a mesh is before its router fires is [`crate::fabric`]'s.
//! A router moves the flit at input *i* to the XY-routed output when that
//! output's wormhole lock admits it, the output channel is free, and the
//! per-output cycle floor has elapsed.

use asynoc_engine::{Ctx, ForwardInfo, RunConfig, SimEvent};
use asynoc_kernel::Time;
use asynoc_nodes::FlitClass;

use crate::fabric::{Config, Grid, Network, Report, Router};
use crate::router::{route_port, OutputLock, Port, RouterId};

/// Static description of a wormhole mesh network.
pub type MeshConfig = Config<()>;
/// Measurements from one wormhole mesh run.
pub type MeshReport = Report<()>;
/// A ready-to-run wormhole mesh network.
pub type MeshNetwork = Network<Wormhole>;

/// The wormhole router's per-run state: one output lock and one cycle
/// floor per router and output port. A link is one data channel, and
/// every multicast is serialized at its source.
#[derive(Clone, Debug)]
pub struct Wormhole {
    locks: Vec<[OutputLock; 5]>,
    out_next_fire: Vec<[Time; 5]>,
}

impl Router for Wormhole {
    type Settings = ();
    type Section = ();

    const DATA_CHANNELS: usize = 1;
    const RETURN_CHANNELS: usize = 0;
    const SERIALIZES_MULTICAST: bool = true;

    fn new(grid: &Grid, _settings: &(), _run: &RunConfig) -> Self {
        let n = grid.size().endpoints();
        Wormhole {
            locks: (0..n)
                .map(|_| std::array::from_fn(|_| OutputLock::new()))
                .collect(),
            out_next_fire: vec![[Time::ZERO; 5]; n],
        }
    }

    fn fire(&mut self, grid: &Grid, router: usize, ctx: &mut impl Ctx<usize>) {
        let size = grid.size();
        let timing = &grid.timing().router;
        let (router_in, router_out) = (grid.link_in(router), grid.link_out(router));
        let (x, y) = size.coords(router);
        let here = RouterId { x, y };
        // Collect, per output port, the inputs whose head flit routes there.
        for out_port in Port::ALL {
            let out_channel = router_out[out_port.index()];
            if out_channel == Grid::ABSENT {
                continue;
            }
            // Inline buffer: at most five ports can request one output,
            // and `fire` runs on every wakeup — heap-allocating here
            // would dominate the run loop's allocation profile.
            let mut requesting = [0usize; 5];
            let mut request_count = 0;
            for in_port in Port::ALL {
                let in_channel = router_in[in_port.index()];
                if in_channel == Grid::ABSENT {
                    continue;
                }
                if let Some(flit) = ctx.arrived(in_channel) {
                    let dest = flit
                        .descriptor()
                        .dests()
                        .first()
                        .expect("mesh packets are unicast clones");
                    if route_port(size, here, dest) == out_port {
                        requesting[request_count] = in_port.index();
                        request_count += 1;
                    }
                }
            }
            let Some(winner) =
                self.locks[router][out_port.index()].select(&requesting[..request_count])
            else {
                continue;
            };
            if !ctx.is_free(out_channel) {
                continue; // woken by the output's free event
            }
            if ctx.now() < self.out_next_fire[router][out_port.index()] {
                ctx.retry(router, self.out_next_fire[router][out_port.index()]);
                continue;
            }

            let in_channel = router_in[winner];
            let flit = ctx.take_arrived(in_channel);
            self.locks[router][out_port.index()].advance(winner, flit.kind());

            let class = FlitClass::of(flit.kind());
            ctx.emit(&SimEvent::Forward {
                node: router,
                flit: &flit,
                info: ForwardInfo::Arbitrated { input: winner },
                copies: 1,
                busy: timing.free_delay(class),
            });
            ctx.launch(
                out_channel,
                flit,
                timing.forward(class) + grid.timing().wire_delay,
            );
            ctx.free_after(in_channel, timing.free_delay(class));
            self.out_next_fire[router][out_port.index()] = ctx.now() + timing.cycle_floor;
        }
    }

    fn section(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MeshSize, MeshTiming};
    use asynoc_kernel::Duration;
    use asynoc_stats::Phases;
    use asynoc_traffic::Benchmark;

    fn quick_phases() -> Phases {
        Phases::new(Duration::from_ns(80), Duration::from_ns(800))
    }

    fn network(cols: usize, rows: usize) -> MeshNetwork {
        MeshNetwork::new(MeshConfig::new(MeshSize::new(cols, rows).unwrap()).with_seed(42)).unwrap()
    }

    #[test]
    fn zero_load_latency_matches_hop_count_golden_model() {
        // Shuffle on a 4x4: every packet's latency at zero load is
        // (hops + 1 router traversals? no —) injection wire + per-hop
        // (router forward + wire) … the *minimum* over uncontended packets
        // must equal wire + (hops+1)·(fwd_header + wire) for its own
        // source/dest pair; check the global minimum against the minimum
        // over pairs.
        let net = network(4, 4);
        let report = net.run(Benchmark::Shuffle, 0.02, quick_phases()).unwrap();
        let timing = MeshTiming::calibrated();
        let size = MeshSize::new(4, 4).unwrap();
        // Shuffle maps some endpoints to themselves (e.g. 0 -> 0); those
        // zero-hop self-deliveries still traverse the local router once.
        let min_hops = (0..16)
            .map(|s| size.hops(s, asynoc_traffic::Benchmark::shuffle_destination(16, s)))
            .min()
            .unwrap();
        let golden = timing.wire_delay
            + (timing.router.forward_header + timing.wire_delay) * (min_hops as u64 + 1);
        assert_eq!(report.latency.min().unwrap(), golden);
    }

    #[test]
    fn serialized_multicast_pays_per_destination() {
        let net = network(4, 4);
        let unicast = net
            .run(Benchmark::UniformRandom, 0.1, quick_phases())
            .unwrap();
        let multicast = net
            .run(Benchmark::Multicast10, 0.1, quick_phases())
            .unwrap();
        assert!(
            multicast.latency.mean().unwrap() > unicast.latency.mean().unwrap(),
            "serialized multicast must cost latency"
        );
        assert_eq!(multicast.packets_incomplete, 0);
    }

    #[test]
    fn overload_is_detected() {
        let report = network(4, 4)
            .run(Benchmark::Hotspot, 1.5, quick_phases())
            .unwrap();
        assert!(
            report.acceptance() < 0.9,
            "hotspot at 1.5 GF/s must saturate"
        );
    }

    #[test]
    fn mean_hops_tracks_pattern() {
        let net = network(4, 4);
        let neighbor = net
            .run(Benchmark::NearestNeighbor, 0.1, quick_phases())
            .unwrap();
        let complement = net
            .run(Benchmark::BitComplement, 0.1, quick_phases())
            .unwrap();
        assert!(
            complement.mean_hops > neighbor.mean_hops,
            "bit-complement ({}) must travel further than nearest-neighbor ({})",
            complement.mean_hops,
            neighbor.mean_hops
        );
    }
}
