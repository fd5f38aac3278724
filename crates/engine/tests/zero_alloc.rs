//! The zero-allocation steady-state guarantee.
//!
//! The probe crate's counting global allocator wraps the system
//! allocator (this harness is where it grew out of; the CLI installs
//! the same one for its profile report); an observer snapshots the
//! count at the first in-window event and at the first post-window
//! event. Construction and warm-up may allocate freely (the event queue's
//! node arena, source queues and bucket rings reach their high-water
//! marks); once the measurement window opens, the run loop must not touch
//! the allocator at all. A flit carries its descriptor by value, so no
//! packet needs the heap.
//!
//! This test runs with `harness = false` and owns the whole process: the
//! counter is process-global, and libtest's runner machinery (the main
//! thread parked on a channel while the test thread runs) performs a
//! one-time lazy allocation at a nondeterministic moment — occasionally
//! inside the measurement window. A single-threaded `main` makes every
//! count in the window attributable to the run loop.

use asynoc_engine::probe::{allocations, CountingAlloc};
use asynoc_engine::{
    run, ChannelEnds, Ctx, ForwardInfo, Netlist, NodeRef, Observer, RunSpec, SimEvent, SimModel,
};
use asynoc_kernel::{Duration, Time};
use asynoc_stats::Phases;
use asynoc_traffic::{Benchmark, SourceTraffic};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Two endpoints joined by one arbitrating crossbar node: channels 0–1
/// inject into the node, channels 2–3 deliver to the sinks. The smallest
/// substrate that still exercises forwarding, arbitration-free conflict
/// (output busy), and serialized multicast clones.
struct Crossbar;

/// The crossbar's wiring.
fn crossbar() -> Netlist<()> {
    let ends = |upstream, downstream| ChannelEnds {
        upstream,
        downstream,
    };
    Netlist {
        channels: vec![
            ends(NodeRef::Source(0), NodeRef::Node(())),
            ends(NodeRef::Source(1), NodeRef::Node(())),
            ends(NodeRef::Node(()), NodeRef::Sink(0)),
            ends(NodeRef::Node(()), NodeRef::Sink(1)),
        ],
        source_channel: vec![0, 1],
        source_wire_delay: Duration::from_ps(50),
        source_cycle: Duration::from_ps(100),
        sink_ack: Duration::from_ps(100),
        serializes_multicast: true,
    }
}

impl SimModel for Crossbar {
    type Node = ();

    fn fire(&mut self, _node: (), ctx: &mut impl Ctx<()>) {
        for input in 0..2 {
            let Some(flit) = ctx.arrived(input) else {
                continue;
            };
            let dest = flit.descriptor().dests().first().expect("unicast clones");
            let out = 2 + dest;
            if !ctx.is_free(out) {
                continue;
            }
            let flit = ctx.take_arrived(input);
            ctx.emit(&SimEvent::Forward {
                node: (),
                flit: &flit,
                info: ForwardInfo::Arbitrated { input },
                copies: 1,
                busy: Duration::from_ps(150),
            });
            ctx.launch(out, flit, Duration::from_ps(200));
            ctx.free_after(input, Duration::from_ps(150));
        }
    }
}

/// Snapshots the global allocation counter at the first in-window event
/// and keeps re-snapshotting at every later one, so `at_window_close`
/// ends up holding the count at the window's last event. Holds only two
/// `Option<u64>`s, so observing never allocates.
#[derive(Default)]
struct AllocWindow {
    at_window_open: Option<u64>,
    at_window_close: Option<u64>,
}

impl Observer<()> for AllocWindow {
    fn on_event(&mut self, _at: Time, in_window: bool, _event: &SimEvent<'_, ()>) {
        if in_window {
            let count = allocations();
            if self.at_window_open.is_none() {
                self.at_window_open = Some(count);
            }
            self.at_window_close = Some(count);
        }
    }
}

fn main() {
    let traffic: Vec<SourceTraffic> = (0..2)
        .map(|s| SourceTraffic::new(Benchmark::Multicast5, 2, s, 0.4, 5, 23).unwrap())
        .collect();
    let spec = RunSpec::new(
        Phases::new(Duration::from_ns(200), Duration::from_ns(800)),
        true,
    );
    let mut window = AllocWindow::default();
    let (report, _model) = run(
        &crossbar(),
        Crossbar,
        traffic,
        spec,
        None,
        &mut [&mut window],
    );

    assert!(report.packets_measured > 0, "nothing measured");
    assert_eq!(report.packets_incomplete, 0, "packets in flight");
    let open = window
        .at_window_open
        .expect("the window saw at least one event");
    let close = window
        .at_window_close
        .expect("the window saw a closing event");
    assert_eq!(
        close - open,
        0,
        "{} heap allocation(s) inside the measurement window",
        close - open
    );
    println!("zero allocations in window, ok");
}
