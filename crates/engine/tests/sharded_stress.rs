//! The sharded engine under partitions no substrate would choose.
//!
//! The substrates cut their fabrics in tidy bands; the window protocol
//! and the incremental fold must not depend on that. Here a ring of
//! relay nodes — every launch takes the same flight time and every
//! acknowledge the same delay, so *any* cut has the same lookahead —
//! runs under xoshiro-seeded random assignments of every source, node
//! and sink to 2…n shards, and each run must hand its observer the
//! serial event stream and return the serial report. Two more tests pin
//! the abort path: a panic on a worker shard, and one on shard 0 inside
//! the fold, must surface instead of parking the other shards for ever.
//! Everything runs under [`with_deadline`], so a lost wake-up fails the
//! suite rather than hanging it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asynoc_engine::{
    run, ChannelEnds, Ctx, EngineReport, ForwardInfo, NodeRef, Observer, Partition, RunSpec,
    SimEvent, SimModel,
};
use asynoc_kernel::{with_deadline, Duration, SimRng, Time};
use asynoc_packet::{DestSet, RouteHeader};
use asynoc_stats::Phases;
use asynoc_traffic::{Benchmark, SourceTraffic};

/// Endpoints (and relay nodes) on the ring.
const N: usize = 8;
const FLIGHT: Duration = Duration::from_ps(120);
const ACK: Duration = Duration::from_ps(90);
const CYCLE: Duration = Duration::from_ps(100);
const DEADLINE_S: u64 = 120;

/// Node `i` takes flits from source `i` (channel `i`) and from node
/// `i − 1` (channel `N + i − 1`), and passes each on to sink `i`
/// (channel `2N + i`) or to node `i + 1` (channel `N + i`). A cycle
/// floor makes it schedule retries, the one event kind that can repeat
/// a `(time, key)` pair.
#[derive(Clone)]
struct RelayRing {
    /// Shard of every entity: sources, then nodes, then sinks.
    assignment: Arc<Vec<usize>>,
    shards: usize,
    next_fire: Vec<Time>,
    /// Flits forwarded inside the measurement window.
    forwarded: u64,
    /// Panics in `fire` once this node has forwarded this many flits.
    fails: Option<(usize, u64)>,
    /// Flits forwarded on any shard so far, for a test to watch the run
    /// from outside; nothing in the model reads it.
    progress: Arc<AtomicU64>,
}

impl RelayRing {
    fn new(shards: usize, assignment: Vec<usize>) -> Self {
        assert_eq!(assignment.len(), 3 * N);
        RelayRing {
            assignment: Arc::new(assignment),
            shards,
            next_fire: vec![Time::ZERO; N],
            forwarded: 0,
            fails: None,
            progress: Arc::default(),
        }
    }

    fn serial() -> Self {
        RelayRing::new(1, vec![0; 3 * N])
    }
}

impl SimModel for RelayRing {
    type Node = usize;

    fn endpoints(&self) -> usize {
        N
    }

    fn channel_count(&self) -> usize {
        3 * N
    }

    fn channel_ends(&self, channel: usize) -> ChannelEnds<usize> {
        let i = channel % N;
        let (upstream, downstream) = match channel / N {
            0 => (NodeRef::Source(i), NodeRef::Node(i)),
            1 => (NodeRef::Node(i), NodeRef::Node((i + 1) % N)),
            _ => (NodeRef::Node(i), NodeRef::Sink(i)),
        };
        ChannelEnds {
            upstream,
            downstream,
        }
    }

    fn source_channel(&self, source: usize) -> usize {
        source
    }

    fn source_wire_delay(&self) -> Duration {
        FLIGHT
    }

    fn source_cycle(&self) -> Duration {
        CYCLE
    }

    fn sink_ack(&self) -> Duration {
        ACK
    }

    fn serializes_multicast(&self) -> bool {
        true
    }

    fn route(&self, _source: usize, _dests: DestSet) -> RouteHeader {
        RouteHeader::for_tree(N)
    }

    fn fire(&mut self, node: usize, ctx: &mut impl Ctx<usize>) {
        // The ring input goes first: traffic already on the ring must
        // keep moving or a full ring would never drain.
        for input in [N + (node + N - 1) % N, node] {
            let Some(flit) = ctx.arrived(input) else {
                continue;
            };
            if ctx.now() < self.next_fire[node] {
                ctx.retry(node, self.next_fire[node]);
                return;
            }
            let dest = flit.descriptor().dests().first().expect("unicast clone");
            let out = if dest == node { 2 * N + node } else { N + node };
            if !ctx.is_free(out) {
                continue;
            }
            if let Some((failing, after)) = self.fails {
                assert!(
                    node != failing || self.forwarded < after,
                    "relay {node} broke down"
                );
            }
            let flit = ctx.take_arrived(input);
            ctx.emit(&SimEvent::Forward {
                node,
                flit: &flit,
                info: ForwardInfo::Arbitrated {
                    input: usize::from(input == node),
                },
                copies: 1,
                busy: ACK,
            });
            ctx.launch(out, flit, FLIGHT);
            ctx.free_after(input, ACK);
            // Shards overrun the serial stopping point, but only past the
            // window's end: an in-window count is what merges exactly.
            self.forwarded += u64::from(ctx.in_window());
            self.progress.fetch_add(1, Ordering::Relaxed);
            self.next_fire[node] = ctx.now() + CYCLE;
        }
    }

    fn partition(&self, _shards: usize) -> Partition {
        let lookahead = FLIGHT.min(ACK);
        Partition::from_assignment(self, self.shards, lookahead, |entity| {
            self.assignment[match entity {
                NodeRef::Source(s) => s,
                NodeRef::Node(i) => N + i,
                NodeRef::Sink(d) => 2 * N + d,
            }]
        })
    }

    fn merge_shards(&mut self, shards: Vec<Self>) {
        self.forwarded += shards.iter().map(|shard| shard.forwarded).sum::<u64>();
    }
}

/// The whole observer stream, comparable.
#[derive(Default)]
struct Tape {
    events: Vec<(u64, bool, u8, usize, u64, u8)>,
    /// Panics on receiving this event (0-based), if set.
    breaks_at: Option<usize>,
    /// The run's progress counter, and what it read at the first event.
    progress: Arc<AtomicU64>,
    progress_at_first_event: Option<u64>,
}

impl Observer<usize> for Tape {
    fn on_event(&mut self, at: Time, in_window: bool, event: &SimEvent<'_, usize>) {
        assert!(
            self.breaks_at != Some(self.events.len()),
            "the observer broke down"
        );
        self.progress_at_first_event
            .get_or_insert_with(|| self.progress.load(Ordering::Relaxed));
        let (tag, place, flit) = match *event {
            SimEvent::Inject { source, flit } => (0, source, flit),
            SimEvent::Forward { node, flit, .. } => (1, node, flit),
            SimEvent::Drop { node, flit, .. } => (2, node, flit),
            SimEvent::Deliver { dest, flit } => (3, dest, flit),
            SimEvent::Fault { site, flit, .. } => (4, site, flit),
        };
        self.events.push((
            at.as_ps(),
            in_window,
            tag,
            place,
            flit.descriptor().id().as_u64(),
            flit.kind() as u8,
        ));
    }
}

fn traffic(seed: u64) -> Vec<SourceTraffic> {
    (0..N)
        .map(|s| SourceTraffic::new(Benchmark::Multicast10, N, s, 0.25, 3, seed).unwrap())
        .collect()
}

fn spec(measure_ps: u64, drain: bool) -> RunSpec {
    let mut spec = RunSpec::new(
        Phases::new(Duration::from_ps(400), Duration::from_ps(measure_ps)),
        drain,
    );
    // The profile carries the window count the short-run case checks.
    spec.profile = true;
    spec
}

fn serial_run(seed: u64, spec: RunSpec) -> (EngineReport, u64, Tape) {
    let mut tape = Tape::default();
    let model = RelayRing::serial();
    let (report, model) = run(model, traffic(seed), spec, 1, None, &mut [&mut tape]);
    (report, model.forwarded, tape)
}

fn sharded_run(seed: u64, spec: RunSpec, model: RelayRing) -> (EngineReport, u64, Tape) {
    let mut tape = Tape::default();
    let shards = model.shards;
    let (report, model) = run(model, traffic(seed), spec, shards, None, &mut [&mut tape]);
    (report, model.forwarded, tape)
}

fn assert_same_run(
    what: &str,
    serial: &(EngineReport, u64, Tape),
    sharded: &(EngineReport, u64, Tape),
) {
    let ((want, want_forwarded, want_tape), (got, got_forwarded, got_tape)) = (serial, sharded);
    assert_eq!(want_tape.events.len(), got_tape.events.len(), "{what}");
    assert!(
        want_tape.events == got_tape.events,
        "{what}: observer streams diverged"
    );
    assert_eq!(want_forwarded, got_forwarded, "{what}: merged model state");
    assert_eq!(got.shard_events.iter().sum::<u64>(), got.events_processed);
    assert_eq!(want.events_processed, got.events_processed, "{what}");
    assert_eq!(want.packets_measured, got.packets_measured, "{what}");
    assert_eq!(want.packets_incomplete, got.packets_incomplete, "{what}");
    assert_eq!(want.flits_throttled, got.flits_throttled, "{what}");
    assert_eq!(want.flits_delivered, got.flits_delivered, "{what}");
    assert_eq!(want.throughput, got.throughput, "{what}");
    assert_eq!(want.latency, got.latency, "{what}");
}

fn random_assignment(rng: &mut SimRng, shards: usize) -> Vec<usize> {
    (0..3 * N).map(|_| rng.index(shards)).collect()
}

#[test]
fn random_partitions_match_serial_on_every_seed_and_shard_count() {
    with_deadline(DEADLINE_S, || {
        let mut sourceless = 0;
        for seed in 1..=10u64 {
            let mut rng = SimRng::seed_from(seed);
            for drain in [true, false] {
                let spec = spec(24_000, drain);
                let serial = serial_run(seed, spec);
                assert!(serial.0.packets_measured > 0, "seed {seed}: degenerate run");
                for shards in 2..=N {
                    let assignment = random_assignment(&mut rng, shards);
                    sourceless +=
                        usize::from((0..shards).any(|shard| !assignment[..N].contains(&shard)));
                    let what = format!("seed {seed} drain {drain} shards {shards} {assignment:?}");
                    let sharded = sharded_run(seed, spec, RelayRing::new(shards, assignment));
                    assert_eq!(sharded.0.shards, shards, "{what}");
                    assert_same_run(&what, &serial, &sharded);
                }
            }
        }
        assert!(
            sourceless > 0,
            "no assignment left a shard without a source"
        );
    });
}

/// A shard that owns nothing logs nothing: every hand-off finds its log
/// empty, and it must still keep in step with the windows.
#[test]
fn a_shard_that_owns_nothing_keeps_in_step() {
    with_deadline(DEADLINE_S, || {
        for seed in [3, 11] {
            let mut rng = SimRng::seed_from(seed);
            let spec = spec(24_000, true);
            let serial = serial_run(seed, spec);
            // Shards 0 and 2 share the ring; shard 1 idles between them.
            let assignment = (0..3 * N).map(|_| 2 * rng.index(2)).collect();
            let sharded = sharded_run(seed, spec, RelayRing::new(3, assignment));
            assert_eq!(sharded.0.shard_events[1], 0);
            assert_same_run(&format!("seed {seed}"), &serial, &sharded);
        }
    });
}

/// A run that ends before the first hand-off is folded entirely from
/// what the shards return.
#[test]
fn a_run_shorter_than_one_handoff_interval_matches_serial() {
    with_deadline(DEADLINE_S, || {
        for seed in [5, 6, 7] {
            let mut rng = SimRng::seed_from(seed);
            let spec = spec(2_000, false);
            let serial = serial_run(seed, spec);
            assert!(!serial.2.events.is_empty(), "seed {seed}: nothing happened");
            let sharded = sharded_run(
                seed,
                spec,
                RelayRing::new(4, random_assignment(&mut rng, 4)),
            );
            let profile = sharded.0.profile.as_ref().expect("profiled run");
            // `HANDOFF_WINDOWS` in `src/shard.rs`.
            assert!(profile.shards[0].windows < 64, "longer than one interval");
            assert_same_run(&format!("seed {seed}"), &serial, &sharded);
        }
    });
}

/// The observers see the run while it happens: the first event reaches
/// them at the first hand-off, not after the last shard has finished.
#[test]
fn the_fold_keeps_up_with_the_shards() {
    with_deadline(DEADLINE_S, || {
        let mut rng = SimRng::seed_from(9);
        let model = RelayRing::new(3, random_assignment(&mut rng, 3));
        let mut tape = Tape {
            progress: Arc::clone(&model.progress),
            ..Tape::default()
        };
        let progress = Arc::clone(&model.progress);
        run(
            model,
            traffic(9),
            spec(48_000, true),
            3,
            None,
            &mut [&mut tape],
        );
        let at_first_event = tape.progress_at_first_event.expect("events observed");
        let at_the_end = progress.load(Ordering::Relaxed);
        assert!(
            at_first_event * 2 < at_the_end,
            "first event observed after {at_first_event} of {at_the_end} forwards"
        );
    });
}

/// Node 5 lives on shard 1; everything else on shard 0.
fn node_five_apart() -> RelayRing {
    let mut assignment = vec![0; 3 * N];
    assignment[N + 5] = 1;
    RelayRing::new(2, assignment)
}

#[test]
#[should_panic(expected = "relay 5 broke down")]
fn a_panic_on_a_worker_shard_surfaces_instead_of_hanging() {
    with_deadline(DEADLINE_S, || {
        let mut model = node_five_apart();
        model.fails = Some((5, 5));
        sharded_run(1, spec(24_000, true), model);
    });
}

#[test]
#[should_panic(expected = "the observer broke down")]
fn a_panic_in_the_fold_surfaces_instead_of_hanging() {
    with_deadline(DEADLINE_S, || {
        let mut tape = Tape {
            breaks_at: Some(100),
            ..Tape::default()
        };
        run(
            node_five_apart(),
            traffic(1),
            spec(24_000, true),
            2,
            None,
            &mut [&mut tape],
        );
    });
}
