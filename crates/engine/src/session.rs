//! The engine's one event loop, its channel plumbing, and the
//! measurement protocol.
//!
//! A [`Session`] is one prepared simulation, or one shard of one. Its
//! [`Role`] — a type parameter, so the choice costs nothing at run time —
//! says where the effects of an event go: straight on to the observers
//! and the pending-packet table on a serial run ([`Direct`]), into a log
//! and an outbox on a shard ([`Shard`](crate::shard::Shard)). Everything
//! else — the per-event body, the handlers, the teardown, the report — is
//! written once, and a serial run is the one-shard run.

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use asynoc_kernel::{CalendarQueue, Duration, FaultClass, Time};
use asynoc_packet::{DestSet, Flit, PacketDescriptor, PacketId, RouteHeader, RouteSymbol};
use asynoc_probe::{EngineProfile, EventKindCounts, PhaseWall, ProgressMeter, ShardProfile};
use asynoc_stats::throughput::ThroughputReport;
use asynoc_stats::{LogHistogram, Phases, ThroughputCounter};
use asynoc_traffic::SourceTraffic;

use crate::fault::{ArmedFaults, SourceFaultAction};
use crate::observer::{Observer, SimEvent};
use crate::pending::{PendOp, PendingTable};
use crate::pool::FlitPool;
use crate::shard::{run_sharded, End, Partition, WireMsg};

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
pub trait NodeKey {
    /// This node's ordering key (injective over the substrate's nodes).
    fn node_key(&self) -> u64;
}

impl NodeKey for () {
    fn node_key(&self) -> u64 {
        0
    }
}

impl NodeKey for usize {
    fn node_key(&self) -> u64 {
        *self as u64
    }
}

/// What a substrate must provide to run on the engine.
///
/// The engine owns sources, sinks, channels, the event queue, and all
/// measurement; the model owns its nodes' dynamic state and fires them
/// when the engine wakes them. A sharded run clones the model once per
/// shard beyond the first; each copy only ever fires the nodes its shard
/// owns, so node state never needs synchronisation.
pub trait SimModel: Clone + Send {
    /// The substrate's node identifier (e.g. an enum of fanout/fanin
    /// indices for the MoT, a router index for the mesh).
    type Node: Copy + std::fmt::Debug + NodeKey + Send;

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
    /// Assigns every entity to one of at most `shards` shards, with the
    /// lookahead bound that makes the cut safe. Implementations may clamp
    /// `shards` (e.g. to the row count of a mesh); the engine honours
    /// whatever the returned partition says. The default keeps the whole
    /// model on one shard: a model that does not override it always runs
    /// serially.
    fn partition(&self, shards: usize) -> Partition {
        let _ = shards;
        Partition::from_assignment(self, 1, Duration::ZERO, |_| 0)
    }
    /// Folds the other shards' models into this one — the model shard 0
    /// ran — after a sharded run, so that its accumulated analytics (e.g.
    /// hop counters) cover the whole run. The default does nothing, which
    /// is correct for a model whose caller reads nothing it accumulated.
    fn merge_shards(&mut self, shards: Vec<Self>) {
        drop(shards);
    }
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
    /// wall-clock phase splits, queue/pool counters, and — on sharded
    /// runs — per-shard barrier-wait histograms and mailbox traffic.
    /// Profiling only reads clocks and counters; the simulated results
    /// stay bit-identical with it on or off.
    pub profile: bool,
    /// Draw a single-line stderr heartbeat (events done, rate, per-shard
    /// lag) while the run executes. Suppressed automatically when stderr
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
    pub(crate) fn end(&self) -> Time {
        let injection_end = self.phases.measurement_end();
        if self.drain {
            injection_end + self.phases.measure() + self.phases.warmup() + Duration::from_ps(1)
        } else {
            injection_end
        }
    }
}

/// The event queue's initial capacity. Pending events are bounded by the
/// channel count (one in-flight or free event each) plus a few per source.
pub(crate) fn queue_presize(channels: usize, endpoints: usize) -> usize {
    (channels * 2 + endpoints * 4).max(1024)
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
    /// How many shards executed the run (1 for a serial run).
    pub shards: usize,
    /// Events processed per shard (one entry, equal to
    /// `events_processed`, for a serial run).
    pub shard_events: Vec<u64>,
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
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event<N> {
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
/// on every scheduler *and* on every shard layout — a serial session and
/// the sharded merge both sort by `(time, key)`, which is what makes a
/// sharded run's observable stream bit-identical to the serial one.
/// Equal `(time, key)` pairs (re-scheduled retries of one target) are
/// always scheduled by the same shard and fall back to insertion order.
pub(crate) fn event_key<N: NodeKey>(event: &Event<N>) -> u64 {
    match event {
        Event::Inject { source } => *source as u64,
        Event::Arrive { channel } => (1 << 56) | *channel as u64,
        Event::FreeChannel { channel } => (2 << 56) | *channel as u64,
        Event::Retry {
            target: NodeRef::Source(source),
        } => (3 << 56) | *source as u64,
        Event::Retry {
            target: NodeRef::Node(node),
        } => (4 << 56) | node.node_key(),
        Event::Retry {
            target: NodeRef::Sink(sink),
        } => (5 << 56) | *sink as u64,
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
/// ([`emit`](Ctx::emit)). The engine implements it once for a serial run
/// and once for a shard, so [`SimModel::fire`] is compiled for each and
/// neither pays for the other.
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

/// Where the effects of a session's events go. [`Direct`] hands them
/// straight on (a serial run); [`Shard`](crate::shard::Shard) logs them
/// for the fold and posts cut-channel events to the other shards.
pub(crate) trait Role<N> {
    /// The shard this session runs.
    fn shard(&self) -> usize;
    /// Whether this session injects `source`'s packets.
    fn owns_source(&self, source: usize) -> bool;
    /// Pops the next event due before `end`; `None` ends the loop.
    fn pop(queue: &mut CalendarQueue<Event<N>>, end: Time) -> Option<(Time, Event<N>)>;
    /// The other shard that executes the event due `delay` from now at
    /// `end` of `channel`, when the channel is cut there.
    fn remote(&self, channel: usize, end: End, delay: Duration) -> Option<usize>;
    /// Sends `message` to shard `to`, which [`remote`](Role::remote) named.
    fn post(&mut self, to: usize, message: WireMsg);
    /// Hands on an observer event of the event being executed.
    fn emit(&mut self, at: Time, in_window: bool, event: &SimEvent<'_, N>);
    /// Hands on a pending-packet transition of the event being executed.
    fn pend(&mut self, at: Time, op: PendOp);
    /// Closes the event that executed at `at` under `key` as the
    /// session's `occ`-th; `Break` ends the run.
    fn close(
        &mut self,
        at: Time,
        key: u64,
        occ: u64,
        drain_tail: bool,
        faults: Option<&ArmedFaults>,
    ) -> ControlFlow<()>;
}

/// A serial run's role, and what the sharded fold replays into: the
/// observers, and the pending-packet table in which every logical packet
/// completes.
pub(crate) struct Direct<'obs, 'run, N> {
    pub(crate) observers: &'run mut [&'obs mut dyn Observer<N>],
    pub(crate) pending: PendingTable,
}

impl<N> Direct<'_, '_, N> {
    /// Whether the run is over after an event: the serial loop stops at
    /// the first drain-tail event that leaves no measured packet in
    /// flight.
    pub(crate) fn settled(&self, drain_tail: bool) -> bool {
        drain_tail && self.pending.measured_in_flight() == 0
    }
}

impl<N> Role<N> for Direct<'_, '_, N> {
    fn shard(&self) -> usize {
        0
    }

    fn owns_source(&self, _source: usize) -> bool {
        true
    }

    /// The run is one window: the event that passes `end` is popped and
    /// dropped with the rest of the queue.
    fn pop(queue: &mut CalendarQueue<Event<N>>, end: Time) -> Option<(Time, Event<N>)> {
        queue.pop().filter(|&(at, _)| at < end)
    }

    fn remote(&self, _channel: usize, _end: End, _delay: Duration) -> Option<usize> {
        None
    }

    fn post(&mut self, _to: usize, _message: WireMsg) {
        unreachable!("a serial run cuts no channel");
    }

    /// Hands `event` to every observer, in registration order.
    fn emit(&mut self, at: Time, in_window: bool, event: &SimEvent<'_, N>) {
        for observer in self.observers.iter_mut() {
            observer.on_event(at, in_window, event);
        }
    }

    fn pend(&mut self, at: Time, op: PendOp) {
        self.pending.apply(at, &op);
    }

    fn close(
        &mut self,
        _at: Time,
        _key: u64,
        _occ: u64,
        drain_tail: bool,
        _faults: Option<&ArmedFaults>,
    ) -> ControlFlow<()> {
        if self.settled(drain_tail) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// The engine state of one session: the queue, the channels, the
/// sources, the counters, and its [`Role`]. Models see it as a [`Ctx`].
pub(crate) struct Core<'f, N, R> {
    phases: Phases,
    drain: bool,
    injection_end: Time,

    queue: CalendarQueue<Event<N>>,
    now: Time,

    channels: Vec<ChannelState>,
    source_queue: Vec<VecDeque<Flit>>,
    source_next_fire: Vec<Time>,
    traffic: Vec<SourceTraffic>,

    /// Per-source packet counters: ids are `(source << 32) | counter`,
    /// so every shard allocates the exact ids a serial run would without
    /// any cross-shard coordination.
    next_packet_id: Vec<u64>,

    role: R,

    throughput: ThroughputCounter,
    flits_throttled: u64,
    flits_delivered: u64,
    events_processed: u64,
    /// Per-kind event counts (always on; a u64 add per event).
    kinds: EventKindCounts,
    /// Phase wall-clock tracker, armed by [`RunSpec::profile`].
    prof: Option<Box<RunProf>>,
    /// Progress heartbeat, armed by [`RunSpec::progress`] (shared with
    /// the other shards of a sharded run).
    progress: Option<Arc<ProgressMeter>>,

    /// Armed fault tables, or `None` on clean runs (one branch per hook
    /// keeps the disarmed path free).
    faults: Option<&'f mut ArmedFaults>,
}

impl<N: NodeKey, R: Role<N>> Core<'_, N, R> {
    /// Schedules `event` at `at` under its canonical ordering key.
    fn schedule_event(&mut self, at: Time, event: Event<N>) {
        let key = event_key(&event);
        self.queue.schedule_keyed(at, key, event);
    }

    /// Hands on a pending-packet transition of the event being executed.
    fn pend(&mut self, op: PendOp) {
        self.role.pend(self.now, op);
    }

    fn alloc_id(&mut self, source: usize) -> PacketId {
        let id = PacketId::new(((source as u64) << 32) | self.next_packet_id[source]);
        self.next_packet_id[source] += 1;
        id
    }
}

impl<N: NodeKey, R: Role<N>> Ctx<N> for Core<'_, N, R> {
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
        let at = self.now + flight;
        if let Some(owner) = self.role.remote(channel, End::Downstream, flight) {
            // Cut channel: the arrival executes on the downstream owner.
            // Keep the local copy in flight so this side's `is_free` stays
            // honest until the free message returns.
            self.channels[channel] = ChannelState::InFlight(flit.clone());
            self.role.post(owner, WireMsg::Arrive { channel, flit, at });
            return;
        }
        self.channels[channel] = ChannelState::InFlight(flit);
        self.schedule_event(at, Event::Arrive { channel });
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
        let at = self.now + delay;
        if let Some(owner) = self.role.remote(channel, End::Upstream, delay) {
            // Cut channel consumed on this side: the free event wakes the
            // upstream launcher, so it executes on its shard.
            self.role.post(owner, WireMsg::Free { channel, at });
            return;
        }
        self.schedule_event(at, Event::FreeChannel { channel });
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
        self.role.emit(self.now, in_window, event);
    }
}

/// Executes one simulation of `model` fed by `traffic` on up to `shards`
/// shards, reporting to `observers`, and returns the measurements plus
/// the model (whose accumulated state — e.g. per-packet analytics from
/// [`SimModel::on_packet`] — the caller may harvest).
///
/// With `shards` 1, or a model that [partitions](SimModel::partition)
/// into one shard, the run executes serially on the calling thread.
/// Otherwise it executes as conservative shards synchronised in
/// lookahead-bounded windows, and the results — the report, every
/// observer's event stream, the fault summary, any panic from the
/// delivery audit — are bit-identical to the serial run's; only
/// [`EngineReport::shards`], [`EngineReport::shard_events`] and the host
/// figures differ.
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
/// escaped throttling). A panic on any shard — in the model, an
/// observer, or the audit — ends the other shards' loops and is
/// re-raised here once they have joined.
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
/// #[derive(Clone)]
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
/// let (report, _model) = run(CrossedWires, traffic, spec, 1, None, &mut []);
/// assert!(report.packets_measured > 0);
/// assert_eq!(report.packets_incomplete, 0);
/// ```
pub fn run<M: SimModel>(
    model: M,
    traffic: Vec<SourceTraffic>,
    spec: RunSpec,
    shards: usize,
    faults: Option<&mut ArmedFaults>,
    observers: &mut [&mut dyn Observer<M::Node>],
) -> (EngineReport, M) {
    let start = Instant::now();
    let partition = if shards > 1 {
        Some(model.partition(shards)).filter(|partition| partition.shards() > 1)
    } else {
        None
    };
    let lookahead = partition
        .as_ref()
        .map_or(Duration::ZERO, Partition::lookahead);
    let progress = if spec.progress {
        let shards = partition.as_ref().map_or(1, Partition::shards);
        ProgressMeter::stderr(shards, PROGRESS_INTERVAL_MS).map(Arc::new)
    } else {
        None
    };
    let direct = Direct {
        observers,
        pending: PendingTable::new(model.endpoints()),
    };
    let (parts, direct) = match partition {
        None => {
            let queue = CalendarQueue::with_capacity(queue_presize(
                model.channel_count(),
                model.endpoints(),
            ));
            let mut session = Session::new(
                model,
                traffic,
                spec,
                faults,
                direct,
                queue,
                progress.clone(),
            );
            session.execute(spec.end());
            let (part, direct) = session.into_part();
            (vec![part], direct)
        }
        Some(partition) => run_sharded(
            model,
            traffic,
            spec,
            partition,
            faults,
            direct,
            progress.clone(),
        ),
    };
    if let Some(progress) = &progress {
        progress.finish();
    }
    report(parts, direct.pending, spec, lookahead, start)
}

/// What one finished session contributes to its run's report.
pub(crate) struct Part<M> {
    /// Events the report attributes to this shard.
    pub(crate) events: u64,
    throughput: ThroughputCounter,
    flits_throttled: u64,
    flits_delivered: u64,
    /// This shard's profile section, when the run was profiled.
    pub(crate) profile: Option<ShardProfile>,
    model: M,
}

/// Assembles a run's report from its shards' parts — one, on a serial
/// run — and the pending-packet table their events completed in. The
/// model that comes back is shard 0's, the others merged into it.
fn report<M: SimModel>(
    parts: Vec<Part<M>>,
    pending: PendingTable,
    spec: RunSpec,
    lookahead: Duration,
    start: Instant,
) -> (EngineReport, M) {
    let mut throughput = ThroughputCounter::new(parts[0].model.endpoints());
    let (mut flits_throttled, mut flits_delivered) = (0, 0);
    let mut shard_events = Vec::with_capacity(parts.len());
    let mut profiles = Vec::new();
    let mut models = Vec::with_capacity(parts.len());
    for part in parts {
        throughput.absorb(&part.throughput);
        flits_throttled += part.flits_throttled;
        flits_delivered += part.flits_delivered;
        shard_events.push(part.events);
        profiles.extend(part.profile);
        models.push(part.model);
    }
    let mut models = models.into_iter();
    let mut model = models.next().expect("a run has a shard");
    model.merge_shards(models.collect());
    let wall = start.elapsed();
    let profile = spec.profile.then(|| {
        Box::new(EngineProfile {
            wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            lookahead_ps: lookahead.as_ps(),
            shards: profiles,
        })
    });
    let (latency, packets_incomplete) = pending.finish();
    let report = EngineReport {
        packets_measured: latency.count() as usize,
        latency,
        throughput: throughput.per_source_gfs(spec.phases.measure()),
        packets_incomplete,
        flits_throttled,
        flits_delivered,
        events_processed: shard_events.iter().sum(),
        shards: shard_events.len(),
        shard_events,
        wall,
        profile,
    };
    (report, model)
}

/// One prepared simulation, or one shard of one: model, traffic, wiring,
/// and all pre-sized engine state.
///
/// Construction does all the setup allocation — channel wiring, the
/// event queue, source queues — so that the loop itself can stay
/// allocation-free once the descriptor pool warms up.
pub(crate) struct Session<'f, M: SimModel, R> {
    model: M,
    wiring: Vec<ChannelEnds<M::Node>>,
    source_channel: Vec<usize>,
    source_wire_delay: Duration,
    source_cycle: Duration,
    sink_ack: Duration,
    serializes_multicast: bool,
    pool: FlitPool,
    ctx: Core<'f, M::Node, R>,
}

impl<'f, M: SimModel, R: Role<M::Node>> Session<'f, M, R> {
    /// Prepares a session that plays `role`, with `faults` threaded into
    /// its hooks when given.
    ///
    /// # Panics
    ///
    /// Panics if `traffic` does not provide one generator per endpoint.
    pub(crate) fn new(
        model: M,
        traffic: Vec<SourceTraffic>,
        spec: RunSpec,
        faults: Option<&'f mut ArmedFaults>,
        role: R,
        queue: CalendarQueue<Event<M::Node>>,
        progress: Option<Arc<ProgressMeter>>,
    ) -> Self {
        let n = model.endpoints();
        assert_eq!(traffic.len(), n, "one traffic generator per endpoint");
        let channels = model.channel_count();
        let mut ctx = Core {
            phases: spec.phases,
            drain: spec.drain,
            injection_end: spec.phases.measurement_end(),
            queue,
            now: Time::ZERO,
            channels: vec![ChannelState::Free; channels],
            source_queue: (0..n).map(|_| VecDeque::with_capacity(64)).collect(),
            source_next_fire: vec![Time::ZERO; n],
            traffic,
            next_packet_id: vec![0; n],
            role,
            throughput: ThroughputCounter::new(n),
            flits_throttled: 0,
            flits_delivered: 0,
            events_processed: 0,
            kinds: EventKindCounts::default(),
            prof: spec.profile.then(|| Box::new(RunProf::new(spec.phases))),
            progress,
            faults,
        };

        // Prime each source's first injection. A shard advances every
        // source's traffic RNG identically (the per-source generators are
        // self-seeded, so unowned ones simply never advance again) but
        // schedules only the sources it owns.
        for s in 0..n {
            let gap = ctx.traffic[s].next_gap();
            if ctx.role.owns_source(s) {
                ctx.schedule_event(Time::ZERO + gap, Event::Inject { source: s });
            }
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

    /// Executes every event due before `end` — the whole run on a serial
    /// session, one window on a shard — unless the role ends the run
    /// first.
    pub(crate) fn execute(&mut self, end: Time) {
        while let Some((t, event)) = R::pop(&mut self.ctx.queue, end) {
            if self.step(t, event).is_break() {
                break;
            }
        }
    }

    /// The per-event body every run kind shares.
    fn step(&mut self, t: Time, event: Event<M::Node>) -> ControlFlow<()> {
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
            if let Some(progress) = &ctx.progress {
                progress.record(ctx.role.shard(), ctx.events_processed);
            }
        }
        let drain_tail = ctx.drain && t >= ctx.injection_end;
        let faults = ctx.faults.as_deref();
        ctx.role.close(
            t,
            event_key(&event),
            ctx.events_processed,
            drain_tail,
            faults,
        )
    }

    /// Tears the session down into its part of the report, and its role.
    ///
    /// The profile section carries what the session observed (events,
    /// kinds, queue/pool counters, phase wall split); a shard's window
    /// loop fills in the window-protocol figures it alone can see.
    pub(crate) fn into_part(self) -> (Part<M>, R) {
        let pool = self.pool.stats();
        let ctx = self.ctx;
        let profile = ctx.prof.map(|prof| ShardProfile {
            shard: ctx.role.shard(),
            events: ctx.events_processed,
            kinds: ctx.kinds,
            queue: ctx.queue.stats(),
            pool,
            phase: prof.close(),
            ..ShardProfile::default()
        });
        let part = Part {
            events: ctx.events_processed,
            throughput: ctx.throughput,
            flits_throttled: ctx.flits_throttled,
            flits_delivered: ctx.flits_delivered,
            profile,
            model: self.model,
        };
        (part, ctx.role)
    }

    /// The role, for a shard's window loop to drain its outbox and hand
    /// its log off.
    pub(crate) fn role_mut(&mut self) -> &mut R {
        &mut self.ctx.role
    }

    /// Earliest pending local event time (published at window barriers).
    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.ctx.queue.peek_time()
    }

    /// Applies one cross-shard message: reconstructs the channel state
    /// the sending shard established and schedules the carried event
    /// under its canonical key, so local ordering is independent of the
    /// order messages happened to be drained in.
    pub(crate) fn apply_wire_message(&mut self, message: WireMsg) {
        match message {
            WireMsg::Arrive { channel, flit, at } => {
                self.ctx.channels[channel] = ChannelState::InFlight(flit);
                self.ctx.schedule_event(at, Event::Arrive { channel });
            }
            WireMsg::Free { channel, at } => {
                // The downstream shard consumed the flit; mirror its
                // draining state so `handle_free`'s invariant holds here.
                self.ctx.channels[channel] = ChannelState::Draining;
                self.ctx.schedule_event(at, Event::FreeChannel { channel });
            }
        }
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

        self.ctx.pend(PendOp::Insert {
            logical: logical.as_u64(),
            awaiting: dests,
            measured,
        });
        if measured {
            self.ctx.throughput.record_offered(offered_flits);
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
                    self.ctx.pend(PendOp::Lose {
                        logical: flit.descriptor().logical_id().as_u64(),
                        dests: flit.descriptor().dests(),
                    });
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
            self.ctx.pend(PendOp::Deliver { logical, dest });
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
    #[derive(Clone)]
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
    fn crossbar_delivers_and_counts() {
        let (report, model) = run(
            Crossbar::new(),
            toy_traffic(7),
            toy_spec(),
            1,
            None,
            &mut [],
        );
        assert!(report.packets_measured > 0, "no packets measured");
        assert_eq!(report.packets_incomplete, 0, "drain left packets in flight");
        assert!(report.flits_delivered > 0);
        assert!(report.events_processed > 0);
        assert!(model.packets_seen > 0);
        // Uncontended path: source wire (50) + node forward (200).
        assert_eq!(report.latency.min(), Some(Duration::from_ps(250)));
        // Without a drain the run stops at the injection end.
        let spec = RunSpec::new(toy_spec().phases, false);
        let (report, _) = run(Crossbar::new(), toy_traffic(5), spec, 1, None, &mut []);
        assert!(report.packets_measured > 0);
    }
}
