//! The engine's one event loop, its channel plumbing, and the
//! measurement protocol.
//!
//! A [`Session`] is one prepared simulation. It runs on the calling
//! thread, hands every event's effects straight on to the observers and
//! the pending-packet table, and tears down into the run's report.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use asynoc_kernel::{CalendarQueue, Duration, FaultClass, Time};
use asynoc_packet::{DestSet, Flit, PacketDescriptor, PacketId, RouteHeader, RouteSymbol};
use asynoc_probe::{EngineProfile, EventKindCounts, PhaseWall, ProgressMeter};
use asynoc_stats::throughput::ThroughputReport;
use asynoc_stats::{LogHistogram, Phases, ThroughputCounter};
use asynoc_traffic::SourceTraffic;

use crate::fault::{ArmedFaults, SourceFaultAction};
use crate::observer::{Observer, SimEvent};
use crate::pending::PendingTable;
use crate::pool::FlitPool;

/// One end of a channel: who launches into it / who consumes from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRef<N> {
    /// A traffic source (engine-managed).
    Source(usize),
    /// A substrate node (model-managed).
    Node(N),
    /// A delivery endpoint (engine-managed).
    Sink(usize),
}

/// Static wiring of one channel.
#[derive(Clone, Copy, Debug)]
pub struct ChannelEnds<N> {
    /// The entity that launches flits into this channel and is woken when
    /// it frees.
    pub upstream: NodeRef<N>,
    /// The entity woken when a flit arrives at this channel's far end.
    pub downstream: NodeRef<N>,
}

/// A stable ordering key for a substrate's node identifiers.
///
/// The engine totally orders simultaneous events by a canonical
/// `(event kind, entity index)` key (see the crate docs on scheduler
/// independence); retry events target model nodes, so the model's node
/// type must map injectively into a `u64` that is the same on every
/// run. Keys must fit in 56 bits — the top byte carries the event kind.
/// The queue stores an event as its key alone, so the map must also be
/// inverted.
pub trait NodeKey {
    /// This node's ordering key (injective over the substrate's nodes).
    fn node_key(&self) -> u64;
    /// The node whose [`node_key`](NodeKey::node_key) is `key`.
    fn from_node_key(key: u64) -> Self;
}

impl NodeKey for () {
    fn node_key(&self) -> u64 {
        0
    }

    fn from_node_key(_key: u64) -> Self {}
}

impl NodeKey for usize {
    fn node_key(&self) -> u64 {
        *self as u64
    }

    fn from_node_key(key: u64) -> Self {
        key as usize
    }
}

/// What a substrate must provide to run on the engine.
///
/// The engine owns sources, sinks, channels, the event queue, and all
/// measurement; the model owns its nodes' dynamic state and fires them
/// when the engine wakes them.
pub trait SimModel {
    /// The substrate's node identifier (e.g. an enum of fanout/fanin
    /// indices for the MoT, a router index for the mesh).
    type Node: Copy + std::fmt::Debug + NodeKey;

    /// Number of traffic endpoints (sources == sinks).
    fn endpoints(&self) -> usize;
    /// Total channel count; channel ids are `0..channel_count()`.
    fn channel_count(&self) -> usize;
    /// Wiring of `channel`.
    fn channel_ends(&self, channel: usize) -> ChannelEnds<Self::Node>;
    /// The injection channel of `source`.
    fn source_channel(&self, source: usize) -> usize;
    /// Flight time of a flit from a source onto its injection channel.
    fn source_wire_delay(&self) -> Duration;
    /// Minimum flit spacing out of a source.
    fn source_cycle(&self) -> Duration;
    /// Channel-free delay after a sink consumes a flit.
    fn sink_ack(&self) -> Duration;
    /// Whether multicasts are serialized at the source into unicast
    /// clones (the paper's baseline; always true for the mesh).
    fn serializes_multicast(&self) -> bool;
    /// Builds the routing header a packet from `source` to `dests`
    /// carries.
    fn route(&self, source: usize, dests: DestSet) -> RouteHeader;
    /// Rewrites `header` in place for a packet from `source` to `dests`,
    /// reusing its symbol storage. The engine calls this when it recycles
    /// a delivered packet's descriptor; substrates with an in-place
    /// encoder should override the default (which falls back to
    /// [`route`](SimModel::route) and allocates).
    fn route_into(&self, source: usize, dests: DestSet, header: &mut RouteHeader) {
        *header = self.route(source, dests);
    }
    /// Hook called once per created physical packet (serialized clones
    /// included); models accumulate per-packet analytics here.
    fn on_packet(&mut self, source: usize, dest: DestSet, measured: bool) {
        let _ = (source, dest, measured);
    }
    /// Attempts to fire `node`: consume an arrived input flit, launch
    /// outputs, schedule frees/retries via `ctx`. Called whenever an
    /// event may have unblocked the node; must do nothing if the node's
    /// preconditions do not hold.
    fn fire(&mut self, node: Self::Node, ctx: &mut impl Ctx<Self::Node>);
}

/// Execution parameters of one run, as the event loop sees them: the
/// part of a [`RunConfig`](crate::RunConfig) that does not depend on the
/// traffic or the fabric. The run options are set through
/// [`RunConfig`](crate::RunConfig)'s builders; the fields are public for
/// callers that drive [`run`] directly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSpec {
    /// Warmup/measurement windows.
    pub phases: Phases,
    /// Whether to drain in-flight measured packets after injection stops
    /// (bounded by a hard cap so saturated runs still terminate).
    pub drain: bool,
    /// Collect a runtime self-profile ([`EngineReport::profile`]): host
    /// wall-clock phase splits and queue/pool counters. Profiling only
    /// reads clocks and counters; the simulated results stay
    /// bit-identical with it on or off.
    pub profile: bool,
    /// Draw a single-line stderr heartbeat (events done, rate) while the
    /// run executes. Suppressed automatically when stderr
    /// is not a terminal unless `ASYNOC_PROGRESS_FORCE` is set.
    pub progress: bool,
}

impl RunSpec {
    /// Creates a spec with profiling and the heartbeat off.
    #[must_use]
    pub fn new(phases: Phases, drain: bool) -> Self {
        RunSpec {
            phases,
            drain,
            profile: false,
            progress: false,
        }
    }

    /// The bound a run executes events strictly before: the injection
    /// end without a drain; with one, a picosecond past the hard cap —
    /// one extra measurement window plus warmup, since a saturated run
    /// never finishes draining.
    fn end(&self) -> Time {
        let injection_end = self.phases.measurement_end();
        if self.drain {
            injection_end + self.phases.measure() + self.phases.warmup() + Duration::from_ps(1)
        } else {
            injection_end
        }
    }
}

/// How often the progress heartbeat may redraw.
const PROGRESS_INTERVAL_MS: u64 = 250;
/// Event-count mask between heartbeat ticks: the run loop only consults
/// the wall clock every `PROGRESS_TICK_MASK + 1` events.
const PROGRESS_TICK_MASK: u64 = 0xFFF;

/// The host wall-clock phase tracker of a profiled run: stamps the
/// simulated-phase boundary crossings (warmup → measurement → drain) so
/// the profile can say where the *host's* time went. Boxed behind an
/// `Option` in [`Core`]; a non-profiled run pays one predictable branch
/// per event and never reads the clock.
#[derive(Debug)]
struct RunProf {
    measure_start: Time,
    injection_end: Time,
    /// 0 = warmup, 1 = measurement, 2 = drain.
    stage: u8,
    stamp: Instant,
    wall: PhaseWall,
}

impl RunProf {
    fn new(phases: Phases) -> Self {
        RunProf {
            measure_start: Time::ZERO + phases.warmup(),
            injection_end: phases.measurement_end(),
            stage: 0,
            stamp: Instant::now(),
            wall: PhaseWall::default(),
        }
    }

    /// Notes that the run is about to execute an event at `t`, closing
    /// any simulated phase the event has moved past. Reads the clock
    /// only at the two boundary crossings.
    #[inline]
    fn note(&mut self, t: Time) {
        while self.stage < 2 {
            let boundary = if self.stage == 0 {
                self.measure_start
            } else {
                self.injection_end
            };
            if t < boundary {
                break;
            }
            let now = Instant::now();
            let elapsed = u64::try_from((now - self.stamp).as_nanos()).unwrap_or(u64::MAX);
            if self.stage == 0 {
                self.wall.warmup_ns += elapsed;
            } else {
                self.wall.measure_ns += elapsed;
            }
            self.stamp = now;
            self.stage += 1;
        }
    }

    /// Closes the profile, attributing the remaining time to whichever
    /// phase the run ended in.
    fn close(self) -> PhaseWall {
        let mut wall = self.wall;
        let elapsed = u64::try_from(self.stamp.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match self.stage {
            0 => wall.warmup_ns += elapsed,
            1 => wall.measure_ns += elapsed,
            _ => wall.drain_ns += elapsed,
        }
        wall
    }
}

/// Everything the engine measured in one run.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Per-logical-packet latency (creation → last header arrival).
    pub latency: LogHistogram,
    /// Offered/injected/delivered flit rates per endpoint.
    pub throughput: ThroughputReport,
    /// Logical packets whose latency was measured.
    pub packets_measured: usize,
    /// Measured packets still in flight at the end (saturation
    /// indicator).
    pub packets_incomplete: usize,
    /// Flits throttled (dropped by speculation recovery) in the window.
    pub flits_throttled: u64,
    /// Flits delivered to sinks in the window.
    pub flits_delivered: u64,
    /// Events the engine processed over the whole run.
    pub events_processed: u64,
    /// Host wall-clock time the run took.
    pub wall: std::time::Duration,
    /// The runtime self-profile, when [`RunSpec::profile`] was set.
    pub profile: Option<Box<EngineProfile>>,
}

impl EngineReport {
    /// Accepted/offered ratio (1.0 when nothing was offered).
    #[must_use]
    pub fn acceptance(&self) -> f64 {
        self.throughput.acceptance()
    }
}

/// Events driving a simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Event<N> {
    /// Source `source` generates its next packet.
    Inject { source: usize },
    /// The flit in flight on `channel` reaches the downstream input.
    Arrive { channel: usize },
    /// `channel` completes its handshake and becomes free.
    FreeChannel { channel: usize },
    /// Re-attempt firing after a cycle-floor stall.
    Retry { target: NodeRef<N> },
}

/// The canonical ordering key of an event: kind rank in the top byte,
/// entity index below. Simultaneous events fire in ascending key order
/// on every scheduler. This order decides every tie, so changing it moves
/// report bytes. The key is injective, so the queue holds an event as its
/// key alone ([`Event::from_key`]): two entries with equal `(time, key)`
/// are the same event, and their order cannot move a byte.
fn event_key<N: NodeKey>(event: &Event<N>) -> u64 {
    match event {
        Event::Inject { source } => *source as u64,
        Event::Arrive { channel } => (1 << KIND_SHIFT) | *channel as u64,
        Event::FreeChannel { channel } => (2 << KIND_SHIFT) | *channel as u64,
        Event::Retry {
            target: NodeRef::Source(source),
        } => (3 << KIND_SHIFT) | *source as u64,
        Event::Retry {
            target: NodeRef::Node(node),
        } => (4 << KIND_SHIFT) | node.node_key(),
        Event::Retry {
            target: NodeRef::Sink(sink),
        } => (5 << KIND_SHIFT) | *sink as u64,
    }
}

/// An event key's kind rank sits above this bit; its entity index below.
const KIND_SHIFT: u32 = 56;

impl<N: NodeKey> Event<N> {
    /// The event whose [`event_key`] is `key`.
    fn from_key(key: u64) -> Self {
        let index = key & ((1 << KIND_SHIFT) - 1);
        let entity = index as usize;
        match key >> KIND_SHIFT {
            0 => Event::Inject { source: entity },
            1 => Event::Arrive { channel: entity },
            2 => Event::FreeChannel { channel: entity },
            3 => Event::Retry {
                target: NodeRef::Source(entity),
            },
            4 => Event::Retry {
                target: NodeRef::Node(N::from_node_key(index)),
            },
            _ => Event::Retry {
                target: NodeRef::Sink(entity),
            },
        }
    }
}

/// Dynamic state of one channel.
#[derive(Clone, Debug)]
enum ChannelState {
    /// Empty; upstream may launch.
    Free,
    /// A flit was launched and is in flight.
    InFlight(Flit),
    /// The flit sits at the downstream input, awaiting consumption.
    Arrived(Flit),
    /// Consumed; the handshake is completing (ack in flight).
    Draining,
}

impl ChannelState {
    fn is_free(&self) -> bool {
        matches!(self, ChannelState::Free)
    }

    fn arrived(&self) -> Option<&Flit> {
        match self {
            ChannelState::Arrived(flit) => Some(flit),
            _ => None,
        }
    }
}

/// The engine state a firing node may touch.
///
/// Models read inputs ([`arrived`](Ctx::arrived)), consume them
/// ([`take_arrived`](Ctx::take_arrived)), launch outputs
/// ([`launch`](Ctx::launch)), schedule handshake completion
/// ([`free_after`](Ctx::free_after)) and cycle-floor retries
/// ([`retry`](Ctx::retry)), and report what they did
/// ([`emit`](Ctx::emit)).
pub trait Ctx<N> {
    /// Current simulated time.
    #[must_use]
    fn now(&self) -> Time;
    /// Whether `now` falls inside the measurement window.
    #[must_use]
    fn in_window(&self) -> bool;
    /// Whether `channel` is free for a launch.
    #[must_use]
    fn is_free(&self, channel: usize) -> bool;
    /// The flit awaiting consumption on `channel`, if any.
    #[must_use]
    fn arrived(&self, channel: usize) -> Option<&Flit>;
    /// Consumes the arrived flit on `channel`, leaving the channel
    /// draining (its handshake completes via [`free_after`](Ctx::free_after)).
    ///
    /// # Panics
    ///
    /// Panics if no flit is awaiting consumption on `channel`.
    fn take_arrived(&mut self, channel: usize) -> Flit;
    /// Launches `flit` onto `channel`; it arrives downstream after
    /// `flight`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `channel` is not free.
    fn launch(&mut self, channel: usize, flit: Flit, flight: Duration);
    /// The routing symbol fanout site `site` reads for a flit of
    /// `packet`, when an armed fault overrides the encoded one. Returns
    /// the override plus the class to report — the class is `Some`
    /// exactly once per afflicted train, when the override first
    /// latches; the model emits the [`SimEvent::Fault`] then.
    fn fault_symbol(
        &mut self,
        site: usize,
        packet: u64,
        is_header: bool,
    ) -> Option<(RouteSymbol, Option<FaultClass>)>;
    /// Schedules `channel` (currently draining) to become free after
    /// `delay`, waking its upstream entity.
    fn free_after(&mut self, channel: usize, delay: Duration);
    /// Schedules a re-attempt to fire `node` at `at` (cycle-floor
    /// stalls only; all other blockings are woken by the event that
    /// clears them).
    fn retry(&mut self, node: N, at: Time);
    /// Reports an instrumented event to every registered observer, and
    /// folds throttle counts into the engine's statistics.
    fn emit(&mut self, event: &SimEvent<'_, N>);
}

/// The engine state of one session: the queue, the channels, the
/// sources, the counters, and where events go. Models see it as a
/// [`Ctx`].
struct Core<'r, 'obs, N> {
    phases: Phases,
    drain: bool,
    injection_end: Time,

    /// Pending events, each held as its [`event_key`].
    queue: CalendarQueue<()>,
    now: Time,

    channels: Vec<ChannelState>,
    source_queue: Vec<VecDeque<Flit>>,
    source_next_fire: Vec<Time>,
    traffic: Vec<SourceTraffic>,

    /// Per-source packet counters: ids are `(source << 32) | counter`.
    next_packet_id: Vec<u64>,

    /// Every observer, handed each event in registration order.
    observers: &'r mut [&'obs mut dyn Observer<N>],
    /// Every logical packet in flight; where latencies are recorded.
    pending: PendingTable,

    throughput: ThroughputCounter,
    flits_throttled: u64,
    flits_delivered: u64,
    events_processed: u64,
    /// Per-kind event counts (always on; a u64 add per event).
    kinds: EventKindCounts,
    /// Phase wall-clock tracker, armed by [`RunSpec::profile`].
    prof: Option<Box<RunProf>>,
    /// Progress heartbeat, armed by [`RunSpec::progress`].
    progress: Option<ProgressMeter>,

    /// Armed fault tables, or `None` on clean runs (one branch per hook
    /// keeps the disarmed path free).
    faults: Option<&'r mut ArmedFaults>,
}

impl<N: NodeKey> Core<'_, '_, N> {
    /// Schedules `event` at `at` under its canonical ordering key.
    fn schedule_event(&mut self, at: Time, event: Event<N>) {
        self.queue.schedule_keyed(at, event_key(&event), ());
    }

    fn alloc_id(&mut self, source: usize) -> PacketId {
        let id = PacketId::new(((source as u64) << 32) | self.next_packet_id[source]);
        self.next_packet_id[source] += 1;
        id
    }
}

impl<N: NodeKey> Ctx<N> for Core<'_, '_, N> {
    fn now(&self) -> Time {
        self.now
    }

    fn in_window(&self) -> bool {
        self.phases.in_measurement(self.now)
    }

    fn is_free(&self, channel: usize) -> bool {
        self.channels[channel].is_free()
    }

    fn arrived(&self, channel: usize) -> Option<&Flit> {
        self.channels[channel].arrived()
    }

    fn take_arrived(&mut self, channel: usize) -> Flit {
        let state = std::mem::replace(&mut self.channels[channel], ChannelState::Draining);
        let ChannelState::Arrived(flit) = state else {
            unreachable!("take_arrived on a channel with no waiting flit");
        };
        flit
    }

    fn launch(&mut self, channel: usize, flit: Flit, flight: Duration) {
        debug_assert!(self.channels[channel].is_free(), "launch on busy channel");
        let mut flight = flight;
        if let Some(extra) = self
            .faults
            .as_mut()
            .and_then(|faults| faults.stall_for(channel))
        {
            self.emit(&SimEvent::Fault {
                class: FaultClass::LinkStall,
                site: channel,
                flit: &flit,
            });
            flight += extra;
        }
        self.channels[channel] = ChannelState::InFlight(flit);
        self.schedule_event(self.now + flight, Event::Arrive { channel });
    }

    fn fault_symbol(
        &mut self,
        site: usize,
        packet: u64,
        is_header: bool,
    ) -> Option<(RouteSymbol, Option<FaultClass>)> {
        let faults = self.faults.as_mut()?;
        let (symbol, class, fresh) = faults.symbol_override(site, packet, is_header)?;
        Some((symbol, fresh.then_some(class)))
    }

    fn free_after(&mut self, channel: usize, delay: Duration) {
        self.schedule_event(self.now + delay, Event::FreeChannel { channel });
    }

    fn retry(&mut self, node: N, at: Time) {
        self.schedule_event(
            at,
            Event::Retry {
                target: NodeRef::Node(node),
            },
        );
    }

    fn emit(&mut self, event: &SimEvent<'_, N>) {
        let in_window = self.in_window();
        if in_window {
            if let SimEvent::Drop { .. } = event {
                self.flits_throttled += 1;
            }
        }
        for observer in self.observers.iter_mut() {
            observer.on_event(self.now, in_window, event);
        }
    }
}

/// Executes one simulation of `model` fed by `traffic` on the calling
/// thread, reporting to `observers`, and returns the measurements plus
/// the model (whose accumulated state — e.g. per-packet analytics from
/// [`SimModel::on_packet`] — the caller may harvest).
///
/// `faults`, when given, is threaded into the loop's hooks: channel
/// launches may be stalled, routing-symbol reads overridden, and source
/// headers dropped (with re-send) or lost, exactly as it prescribes. The
/// caller keeps the table and reads back its
/// [`summary`](ArmedFaults::summary) afterwards.
///
/// # Panics
///
/// Panics if `traffic` does not provide one generator per endpoint, or
/// if a header reaches a destination outside its packet's awaited set
/// (the delivery audit: a duplicate means a redundant speculative copy
/// escaped throttling).
///
/// # Examples
///
/// ```
/// use asynoc_engine::{run, ChannelEnds, Ctx, NodeRef, RunSpec, SimModel};
/// use asynoc_kernel::Duration;
/// use asynoc_packet::{DestSet, RouteHeader};
/// use asynoc_stats::Phases;
/// use asynoc_traffic::{Benchmark, SourceTraffic};
///
/// /// Two endpoints joined by crossed wires: source 0 feeds sink 1 and
/// /// source 1 feeds sink 0, with no routing nodes in between.
/// struct CrossedWires;
///
/// impl SimModel for CrossedWires {
///     type Node = ();
///     fn endpoints(&self) -> usize { 2 }
///     fn channel_count(&self) -> usize { 2 }
///     fn channel_ends(&self, channel: usize) -> ChannelEnds<()> {
///         ChannelEnds {
///             upstream: NodeRef::Source(channel),
///             downstream: NodeRef::Sink(1 - channel),
///         }
///     }
///     fn source_channel(&self, source: usize) -> usize { source }
///     fn source_wire_delay(&self) -> Duration { Duration::from_ps(50) }
///     fn source_cycle(&self) -> Duration { Duration::from_ps(100) }
///     fn sink_ack(&self) -> Duration { Duration::from_ps(100) }
///     fn serializes_multicast(&self) -> bool { true }
///     fn route(&self, _source: usize, _dests: DestSet) -> RouteHeader {
///         RouteHeader::for_tree(2)
///     }
///     fn fire(&mut self, _node: (), _ctx: &mut impl Ctx<()>) {}
/// }
///
/// // Nearest-neighbor traffic sends each packet to source + 1 (mod 2),
/// // which is exactly where the crossed wires deliver.
/// let traffic: Vec<SourceTraffic> = (0..2)
///     .map(|s| SourceTraffic::new(Benchmark::NearestNeighbor, 2, s, 0.4, 1, 7).unwrap())
///     .collect();
/// let spec = RunSpec::new(Phases::new(Duration::from_ns(2), Duration::from_ns(20)), true);
/// let (report, _model) = run(CrossedWires, traffic, spec, None, &mut []);
/// assert!(report.packets_measured > 0);
/// assert_eq!(report.packets_incomplete, 0);
/// ```
pub fn run<M: SimModel>(
    model: M,
    traffic: Vec<SourceTraffic>,
    spec: RunSpec,
    faults: Option<&mut ArmedFaults>,
    observers: &mut [&mut dyn Observer<M::Node>],
) -> (EngineReport, M) {
    let start = Instant::now();
    let mut session = Session::new(model, traffic, spec, faults, observers);
    session.execute(spec.end());
    session.finish(spec, start)
}

/// One prepared simulation: model, traffic, wiring, and all pre-sized
/// engine state.
///
/// Construction does all the setup allocation — channel wiring, the
/// event queue, source queues — so that the loop itself can stay
/// allocation-free once the descriptor pool warms up.
struct Session<'r, 'obs, M: SimModel> {
    model: M,
    wiring: Vec<ChannelEnds<M::Node>>,
    source_channel: Vec<usize>,
    source_wire_delay: Duration,
    source_cycle: Duration,
    sink_ack: Duration,
    serializes_multicast: bool,
    pool: FlitPool,
    ctx: Core<'r, 'obs, M::Node>,
}

impl<'r, 'obs, M: SimModel> Session<'r, 'obs, M> {
    /// Prepares a session, with `faults` threaded into its hooks when
    /// given.
    ///
    /// # Panics
    ///
    /// Panics if `traffic` does not provide one generator per endpoint.
    fn new(
        model: M,
        traffic: Vec<SourceTraffic>,
        spec: RunSpec,
        faults: Option<&'r mut ArmedFaults>,
        observers: &'r mut [&'obs mut dyn Observer<M::Node>],
    ) -> Self {
        let n = model.endpoints();
        assert_eq!(traffic.len(), n, "one traffic generator per endpoint");
        let channels = model.channel_count();
        let mut ctx = Core {
            phases: spec.phases,
            drain: spec.drain,
            injection_end: spec.phases.measurement_end(),
            queue: CalendarQueue::new(),
            now: Time::ZERO,
            channels: vec![ChannelState::Free; channels],
            source_queue: (0..n).map(|_| VecDeque::with_capacity(64)).collect(),
            source_next_fire: vec![Time::ZERO; n],
            traffic,
            next_packet_id: vec![0; n],
            observers,
            pending: PendingTable::new(n),
            throughput: ThroughputCounter::new(n),
            flits_throttled: 0,
            flits_delivered: 0,
            events_processed: 0,
            kinds: EventKindCounts::default(),
            prof: spec.profile.then(|| Box::new(RunProf::new(spec.phases))),
            progress: if spec.progress {
                ProgressMeter::stderr(PROGRESS_INTERVAL_MS)
            } else {
                None
            },
            faults,
        };

        // Prime each source's first injection.
        for s in 0..n {
            let gap = ctx.traffic[s].next_gap();
            ctx.schedule_event(Time::ZERO + gap, Event::Inject { source: s });
        }

        Session {
            wiring: (0..channels).map(|c| model.channel_ends(c)).collect(),
            source_channel: (0..n).map(|s| model.source_channel(s)).collect(),
            source_wire_delay: model.source_wire_delay(),
            source_cycle: model.source_cycle(),
            sink_ack: model.sink_ack(),
            serializes_multicast: model.serializes_multicast(),
            model,
            pool: FlitPool::new(n * 64 + 256),
            ctx,
        }
    }

    /// Executes every event due before `end`, or until the drain tail
    /// leaves no measured packet in flight: the event that passes `end`
    /// is popped and dropped with the rest of the queue.
    fn execute(&mut self, end: Time) {
        while let Some((t, key, ())) = self.ctx.queue.pop_keyed().filter(|&(at, ..)| at < end) {
            self.step(t, Event::from_key(key));
            let ctx = &self.ctx;
            let drain_tail = ctx.drain && t >= ctx.injection_end;
            if drain_tail && ctx.pending.measured_in_flight() == 0 {
                break;
            }
        }
    }

    /// The per-event body.
    fn step(&mut self, t: Time, event: Event<M::Node>) {
        self.ctx.now = t;
        self.ctx.events_processed += 1;
        if let Some(prof) = self.ctx.prof.as_deref_mut() {
            prof.note(t);
        }
        match event {
            Event::Inject { source } => {
                self.ctx.kinds.inject += 1;
                self.handle_inject(source);
            }
            Event::Arrive { channel } => {
                self.ctx.kinds.arrive += 1;
                self.handle_arrive(channel);
            }
            Event::FreeChannel { channel } => {
                self.ctx.kinds.free += 1;
                self.handle_free(channel);
            }
            Event::Retry { target } => {
                self.ctx.kinds.retry += 1;
                self.wake(target);
            }
        }
        let ctx = &mut self.ctx;
        if ctx.events_processed & PROGRESS_TICK_MASK == 0 {
            if let Some(progress) = &mut ctx.progress {
                progress.record(ctx.events_processed);
            }
        }
    }

    /// Tears the session down into the run's report and the model.
    fn finish(self, spec: RunSpec, start: Instant) -> (EngineReport, M) {
        let pool = self.pool.stats();
        let mut ctx = self.ctx;
        if let Some(progress) = &mut ctx.progress {
            progress.finish();
        }
        let wall = start.elapsed();
        let profile = ctx.prof.map(|prof| {
            Box::new(EngineProfile {
                wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
                events: ctx.events_processed,
                kinds: ctx.kinds,
                queue: ctx.queue.stats(),
                pool,
                phase: prof.close(),
            })
        });
        let (latency, packets_incomplete) = ctx.pending.finish();
        let report = EngineReport {
            packets_measured: latency.count() as usize,
            latency,
            throughput: ctx.throughput.per_source_gfs(spec.phases.measure()),
            packets_incomplete,
            flits_throttled: ctx.flits_throttled,
            flits_delivered: ctx.flits_delivered,
            events_processed: ctx.events_processed,
            wall,
            profile,
        };
        (report, self.model)
    }

    // ------------------------------------------------------------------
    // Injection
    // ------------------------------------------------------------------

    fn handle_inject(&mut self, source: usize) {
        if self.ctx.now >= self.ctx.injection_end {
            return;
        }
        let dests = self.ctx.traffic[source].next_dests();
        self.create_packets(source, dests);
        let gap = self.ctx.traffic[source].next_gap();
        self.ctx
            .schedule_event(self.ctx.now + gap, Event::Inject { source });
        self.fire_source(source);
    }

    /// Produces a descriptor for a new packet, rewriting a recycled one
    /// in place when the pool has one (no heap allocation) and
    /// allocating fresh otherwise.
    fn alloc_descriptor(
        &mut self,
        id: PacketId,
        source: usize,
        dests: DestSet,
        flits: u8,
        group: Option<PacketId>,
    ) -> Arc<PacketDescriptor> {
        if let Some(mut recycled) = self.pool.take() {
            let descriptor = Arc::get_mut(&mut recycled).expect("pooled descriptors are unique");
            descriptor.reset(id, source, dests, flits, self.ctx.now, group);
            self.model.route_into(source, dests, descriptor.route_mut());
            recycled
        } else {
            let route = self.model.route(source, dests);
            let mut descriptor =
                PacketDescriptor::new(id, source, dests, route, flits, self.ctx.now);
            if let Some(group) = group {
                descriptor = descriptor.with_group(group);
            }
            Arc::new(descriptor)
        }
    }

    fn create_packets(&mut self, source: usize, dests: DestSet) {
        let measured = self.ctx.in_window();
        let logical = self.ctx.alloc_id(source);
        let flits = self.ctx.traffic[source].flits_per_packet();
        let serialize = self.serializes_multicast && dests.len() > 1;

        let mut offered_flits = 0u64;
        if serialize {
            // Serial multicast: one unicast clone per destination, queued
            // back to back; latency is accounted against the logical packet.
            for dest in dests.iter() {
                let id = self.ctx.alloc_id(source);
                let clone_dests = DestSet::unicast(dest);
                let descriptor =
                    self.alloc_descriptor(id, source, clone_dests, flits, Some(logical));
                self.ctx.source_queue[source].extend(Flit::train(&descriptor));
                offered_flits += u64::from(flits);
                self.model.on_packet(source, clone_dests, measured);
            }
        } else {
            let descriptor = self.alloc_descriptor(logical, source, dests, flits, None);
            self.ctx.source_queue[source].extend(Flit::train(&descriptor));
            offered_flits = u64::from(flits);
            self.model.on_packet(source, dests, measured);
        }

        let (ctx, logical) = (&mut self.ctx, logical.as_u64());
        ctx.pending.insert(ctx.now, logical, dests, measured);
        if measured {
            ctx.throughput.record_offered(offered_flits);
        }
    }

    // ------------------------------------------------------------------
    // Channel events
    // ------------------------------------------------------------------

    fn handle_arrive(&mut self, channel: usize) {
        let state = std::mem::replace(&mut self.ctx.channels[channel], ChannelState::Free);
        let ChannelState::InFlight(flit) = state else {
            unreachable!("arrival on a channel that was not in flight");
        };
        self.ctx.channels[channel] = ChannelState::Arrived(flit);
        match self.wiring[channel].downstream {
            NodeRef::Sink(dest) => self.sink_consume(channel, dest),
            other => self.wake(other),
        }
    }

    fn handle_free(&mut self, channel: usize) {
        debug_assert!(
            matches!(self.ctx.channels[channel], ChannelState::Draining),
            "freed a channel that was not draining"
        );
        self.ctx.channels[channel] = ChannelState::Free;
        self.wake(self.wiring[channel].upstream);
    }

    fn wake(&mut self, target: NodeRef<M::Node>) {
        match target {
            NodeRef::Source(s) => self.fire_source(s),
            NodeRef::Node(node) => self.model.fire(node, &mut self.ctx),
            NodeRef::Sink(_) => {}
        }
    }

    // ------------------------------------------------------------------
    // Engine-managed entities
    // ------------------------------------------------------------------

    fn fire_source(&mut self, source: usize) {
        if self.ctx.source_queue[source].is_empty() {
            return;
        }
        let channel = self.source_channel[source];
        if !self.ctx.channels[channel].is_free() {
            return;
        }
        if self.ctx.now < self.ctx.source_next_fire[source] {
            self.ctx.schedule_event(
                self.ctx.source_next_fire[source],
                Event::Retry {
                    target: NodeRef::Source(source),
                },
            );
            return;
        }
        let flit = self.ctx.source_queue[source]
            .pop_front()
            .expect("queue checked non-empty");
        if flit.kind().is_header() {
            let action = self.ctx.faults.as_mut().and_then(|faults| {
                faults.on_source_header(source, flit.descriptor().id().as_u64())
            });
            match action {
                Some(SourceFaultAction::Resend { delay }) => {
                    // The header is dropped on the injection link; the
                    // source times out and re-sends the same flit.
                    self.ctx.emit(&SimEvent::Fault {
                        class: FaultClass::FlitDrop,
                        site: source,
                        flit: &flit,
                    });
                    self.ctx.source_queue[source].push_front(flit);
                    let resume = self.ctx.now + delay;
                    self.ctx.source_next_fire[source] = resume;
                    self.ctx.schedule_event(
                        resume,
                        Event::Retry {
                            target: NodeRef::Source(source),
                        },
                    );
                    return;
                }
                Some(SourceFaultAction::Lose) => {
                    // Drop budget exhausted by plan: discard the whole
                    // train. Never silent — observers see both the drop
                    // and the loss.
                    self.ctx.emit(&SimEvent::Fault {
                        class: FaultClass::FlitDrop,
                        site: source,
                        flit: &flit,
                    });
                    self.ctx.emit(&SimEvent::Fault {
                        class: FaultClass::PacketLost,
                        site: source,
                        flit: &flit,
                    });
                    let id = flit.descriptor().id();
                    while self.ctx.source_queue[source]
                        .front()
                        .is_some_and(|f| f.descriptor().id() == id)
                    {
                        self.ctx.source_queue[source].pop_front();
                    }
                    // Release its latency bookkeeping, so the drain
                    // still terminates.
                    let descriptor = flit.descriptor();
                    self.ctx
                        .pending
                        .lose(descriptor.logical_id().as_u64(), descriptor.dests());
                    self.fire_source(source);
                    return;
                }
                None => {}
            }
        }
        self.ctx.emit(&SimEvent::Inject {
            source,
            flit: &flit,
        });
        if self.ctx.in_window() {
            self.ctx.throughput.record_injected(1);
        }
        let wire = self.source_wire_delay;
        self.ctx.launch(channel, flit, wire);
        self.ctx.source_next_fire[source] = self.ctx.now + self.source_cycle;
    }

    fn sink_consume(&mut self, channel: usize, dest: usize) {
        let flit = self.ctx.take_arrived(channel);
        self.ctx.free_after(channel, self.sink_ack);
        self.ctx.emit(&SimEvent::Deliver { dest, flit: &flit });
        if self.ctx.in_window() {
            self.ctx.throughput.record_delivered(1);
            self.ctx.flits_delivered += 1;
        }
        if flit.kind().is_header() {
            let logical = flit.descriptor().logical_id().as_u64();
            self.ctx.pending.deliver(self.ctx.now, logical, dest);
        }
        if flit.kind().is_tail() {
            // The tail is the last flit of its train to be consumed here;
            // once every sibling copy has delivered, the descriptor is
            // unique again and the next injection rewrites it in place.
            self.pool.recycle(flit.into_descriptor());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::ForwardInfo;
    use asynoc_traffic::Benchmark;

    /// The simplest possible substrate: two endpoints joined by one
    /// arbitrating crossbar node. Channels 0–1 inject into the node,
    /// channels 2–3 deliver to the sinks.
    struct Crossbar {
        forward: Duration,
        free: Duration,
        packets_seen: usize,
    }

    impl Crossbar {
        fn new() -> Self {
            Crossbar {
                forward: Duration::from_ps(200),
                free: Duration::from_ps(150),
                packets_seen: 0,
            }
        }
    }

    impl SimModel for Crossbar {
        type Node = ();

        fn endpoints(&self) -> usize {
            2
        }

        fn channel_count(&self) -> usize {
            4
        }

        fn channel_ends(&self, channel: usize) -> ChannelEnds<()> {
            if channel < 2 {
                ChannelEnds {
                    upstream: NodeRef::Source(channel),
                    downstream: NodeRef::Node(()),
                }
            } else {
                ChannelEnds {
                    upstream: NodeRef::Node(()),
                    downstream: NodeRef::Sink(channel - 2),
                }
            }
        }

        fn source_channel(&self, source: usize) -> usize {
            source
        }

        fn source_wire_delay(&self) -> Duration {
            Duration::from_ps(50)
        }

        fn source_cycle(&self) -> Duration {
            Duration::from_ps(100)
        }

        fn sink_ack(&self) -> Duration {
            Duration::from_ps(100)
        }

        fn serializes_multicast(&self) -> bool {
            true
        }

        fn route(&self, _source: usize, _dests: DestSet) -> RouteHeader {
            RouteHeader::for_tree(2)
        }

        fn on_packet(&mut self, _source: usize, _dest: DestSet, _measured: bool) {
            self.packets_seen += 1;
        }

        fn fire(&mut self, _node: (), ctx: &mut impl Ctx<()>) {
            for input in 0..2 {
                let Some(flit) = ctx.arrived(input) else {
                    continue;
                };
                let dest = flit.descriptor().dests().first().expect("unicast dest");
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
                    busy: self.free,
                });
                let flight = self.forward;
                ctx.launch(out, flit, flight);
                ctx.free_after(input, self.free);
            }
        }
    }

    fn toy_traffic(seed: u64) -> Vec<SourceTraffic> {
        (0..2)
            .map(|s| SourceTraffic::new(Benchmark::UniformRandom, 2, s, 0.4, 1, seed).unwrap())
            .collect()
    }

    fn toy_spec() -> RunSpec {
        RunSpec::new(
            Phases::new(Duration::from_ns(2), Duration::from_ns(40)),
            true,
        )
    }

    #[test]
    fn every_event_reads_back_from_its_key() {
        let widest = (1usize << KIND_SHIFT) - 1;
        let events = [
            Event::Inject { source: 3 },
            Event::Arrive { channel: widest },
            Event::FreeChannel { channel: 0 },
            Event::Retry {
                target: NodeRef::Source(7),
            },
            Event::Retry {
                target: NodeRef::Node(widest),
            },
            Event::Retry {
                target: NodeRef::Sink(widest),
            },
        ];
        for event in events {
            assert_eq!(Event::from_key(event_key(&event)), event);
        }
        let unit = Event::Retry {
            target: NodeRef::Node(()),
        };
        assert_eq!(Event::from_key(event_key(&unit)), unit);
    }

    #[test]
    fn crossbar_delivers_and_counts() {
        let (report, model) = run(Crossbar::new(), toy_traffic(7), toy_spec(), None, &mut []);
        assert!(report.packets_measured > 0, "no packets measured");
        assert_eq!(report.packets_incomplete, 0, "drain left packets in flight");
        assert!(report.flits_delivered > 0);
        assert!(report.events_processed > 0);
        assert!(model.packets_seen > 0);
        // Uncontended path: source wire (50) + node forward (200).
        assert_eq!(report.latency.min(), Some(Duration::from_ps(250)));
        // Without a drain the run stops at the injection end.
        let spec = RunSpec::new(toy_spec().phases, false);
        let (report, _) = run(Crossbar::new(), toy_traffic(5), spec, None, &mut []);
        assert!(report.packets_measured > 0);
    }
}
