//! The engine's event loop, channel plumbing, and measurement protocol.

use std::collections::VecDeque;
use std::sync::Arc;

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
use crate::shard::{OwnedSimEvent, ShardLog, ShardState, WireMsg};

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
/// when the engine wakes them.
pub trait SimModel {
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
    fn fire(&mut self, node: Self::Node, ctx: &mut Ctx<'_, '_, Self::Node>);
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
}

/// The event queue's initial capacity. Pending events are bounded by the
/// channel count (one in-flight or free event each) plus a few per source.
pub(crate) fn queue_presize(channels: usize, endpoints: usize) -> usize {
    (channels * 2 + endpoints * 4).max(1024)
}

/// How often the progress heartbeat may redraw.
pub(crate) const PROGRESS_INTERVAL_MS: u64 = 250;
/// Event-count mask between heartbeat ticks: the run loop only consults
/// the wall clock every `PROGRESS_TICK_MASK + 1` events.
pub(crate) const PROGRESS_TICK_MASK: u64 = 0xFFF;

/// The heartbeat a serial run owns outright (sharded runs build one
/// shared meter in the sharded runner instead).
fn serial_progress(spec: &RunSpec) -> Option<Arc<ProgressMeter>> {
    if spec.progress {
        ProgressMeter::stderr(1, PROGRESS_INTERVAL_MS).map(Arc::new)
    } else {
        None
    }
}

/// The host wall-clock phase tracker of a profiled run: stamps the
/// simulated-phase boundary crossings (warmup → measurement → drain) so
/// the profile can say where the *host's* time went. Boxed behind an
/// `Option` in [`Ctx`]; a non-profiled run pays one predictable branch
/// per event and never reads the clock.
#[derive(Debug)]
pub(crate) struct RunProf {
    measure_start: Time,
    injection_end: Time,
    /// 0 = warmup, 1 = measurement, 2 = drain.
    stage: u8,
    stamp: std::time::Instant,
    wall: PhaseWall,
}

impl RunProf {
    fn new(phases: Phases) -> Self {
        RunProf {
            measure_start: Time::ZERO + phases.warmup(),
            injection_end: phases.measurement_end(),
            stage: 0,
            stamp: std::time::Instant::now(),
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
            let now = std::time::Instant::now();
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
/// on every scheduler *and* on every shard layout — the serial loop and
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
/// ([`emit`](Ctx::emit)).
pub struct Ctx<'obs, 'run, N> {
    phases: Phases,
    drain: bool,
    injection_end: Time,
    hard_cap: Time,

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
    /// Completion accounting (a shard logs its transitions instead).
    pending: PendingTable,

    /// Sharded-run state, or `None` on a serial run (one branch per
    /// touch point keeps the serial hot path free).
    shard: Option<Box<ShardState<N>>>,

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

    observers: &'run mut [&'obs mut dyn Observer<N>],
    /// Armed fault tables, or `None` on clean runs (one branch per hook
    /// keeps the disarmed path free).
    faults: Option<&'run mut ArmedFaults>,
}

impl<N: Copy + std::fmt::Debug + NodeKey> Ctx<'_, '_, N> {
    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Whether `now` falls inside the measurement window.
    #[must_use]
    pub fn in_window(&self) -> bool {
        self.phases.in_measurement(self.now)
    }

    /// Whether `channel` is free for a launch.
    #[must_use]
    pub fn is_free(&self, channel: usize) -> bool {
        self.channels[channel].is_free()
    }

    /// The flit awaiting consumption on `channel`, if any.
    #[must_use]
    pub fn arrived(&self, channel: usize) -> Option<&Flit> {
        self.channels[channel].arrived()
    }

    /// Consumes the arrived flit on `channel`, leaving the channel
    /// draining (its handshake completes via [`free_after`](Ctx::free_after)).
    ///
    /// # Panics
    ///
    /// Panics if no flit is awaiting consumption on `channel`.
    pub fn take_arrived(&mut self, channel: usize) -> Flit {
        let state = std::mem::replace(&mut self.channels[channel], ChannelState::Draining);
        let ChannelState::Arrived(flit) = state else {
            unreachable!("take_arrived on a channel with no waiting flit");
        };
        flit
    }

    /// Schedules `event` at `at` under its canonical ordering key.
    fn schedule_event(&mut self, at: Time, event: Event<N>) {
        let key = event_key(&event);
        self.queue.schedule_keyed(at, key, event);
    }

    /// Launches `flit` onto `channel`; it arrives downstream after
    /// `flight`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `channel` is not free.
    pub fn launch(&mut self, channel: usize, flit: Flit, flight: Duration) {
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
        if let Some(shard) = self.shard.as_mut() {
            let owner = shard.partition.channel_downstream_shard(channel);
            if owner != shard.shard {
                // Cut channel: the arrival executes on the downstream
                // owner. Keep the local copy in flight so this side's
                // `is_free` stays honest until the free message returns.
                debug_assert!(
                    flight >= shard.partition.lookahead(),
                    "cut-channel flight below the partition's lookahead"
                );
                let at = self.now + flight;
                self.channels[channel] = ChannelState::InFlight(flit.clone());
                shard
                    .outbox
                    .push((owner, WireMsg::Arrive { channel, flit, at }));
                return;
            }
        }
        self.channels[channel] = ChannelState::InFlight(flit);
        self.schedule_event(self.now + flight, Event::Arrive { channel });
    }

    /// The routing symbol fanout site `site` reads for a flit of
    /// `packet`, when an armed fault overrides the encoded one. Returns
    /// the override plus the class to report — the class is `Some`
    /// exactly once per afflicted train, when the override first
    /// latches; the model emits the [`SimEvent::Fault`] then.
    pub fn fault_symbol(
        &mut self,
        site: usize,
        packet: u64,
        is_header: bool,
    ) -> Option<(RouteSymbol, Option<FaultClass>)> {
        let faults = self.faults.as_mut()?;
        let (symbol, class, fresh) = faults.symbol_override(site, packet, is_header)?;
        Some((symbol, fresh.then_some(class)))
    }

    /// Schedules `channel` (currently draining) to become free after
    /// `delay`, waking its upstream entity.
    pub fn free_after(&mut self, channel: usize, delay: Duration) {
        if let Some(shard) = self.shard.as_mut() {
            let owner = shard.partition.channel_upstream_shard(channel);
            if owner != shard.shard {
                // Cut channel consumed on this side: the free event wakes
                // the upstream launcher, so it executes on its shard.
                debug_assert!(
                    delay >= shard.partition.lookahead(),
                    "cut-channel free delay below the partition's lookahead"
                );
                let at = self.now + delay;
                shard.outbox.push((owner, WireMsg::Free { channel, at }));
                return;
            }
        }
        self.schedule_event(self.now + delay, Event::FreeChannel { channel });
    }

    /// Schedules a re-attempt to fire `node` at `at` (cycle-floor
    /// stalls only; all other blockings are woken by the event that
    /// clears them).
    pub fn retry(&mut self, node: N, at: Time) {
        self.schedule_event(
            at,
            Event::Retry {
                target: NodeRef::Node(node),
            },
        );
    }

    /// Reports an instrumented event to every registered observer, and
    /// folds throttle counts into the engine's statistics.
    pub fn emit(&mut self, event: &SimEvent<'_, N>) {
        let in_window = self.in_window();
        if in_window {
            if let SimEvent::Drop { .. } = event {
                self.flits_throttled += 1;
            }
        }
        if let Some(shard) = self.shard.as_mut() {
            // Sharded runs log the stream per executed event; shard 0
            // replays it to the real observers in exact serial order.
            if shard.record_obs {
                shard.log.push_obs(OwnedSimEvent::capture(event));
            }
            return;
        }
        for observer in self.observers.iter_mut() {
            observer.on_event(self.now, in_window, event);
        }
    }

    /// Applies a pending-packet transition of the event being executed.
    /// A shard only logs it: the packet's destinations may live on other
    /// shards, so shard 0 applies every shard's in the serial order.
    fn pend(&mut self, op: PendOp) {
        match self.shard.as_mut() {
            Some(shard) => shard.log.push_pend(op),
            None => self.pending.apply(self.now, &op),
        }
    }

    fn alloc_id(&mut self, source: usize) -> PacketId {
        let id = PacketId::new(((source as u64) << 32) | self.next_packet_id[source]);
        self.next_packet_id[source] += 1;
        id
    }
}

/// Executes one simulation of `model` fed by `traffic`, reporting to
/// `observers`, and returns the measurements plus the model (whose
/// accumulated state — e.g. per-packet analytics from
/// [`SimModel::on_packet`] — the caller may harvest).
///
/// # Panics
///
/// Panics if `traffic` does not provide one generator per endpoint, or
/// if a header reaches a destination outside its packet's awaited set
/// (the delivery audit: a duplicate means a redundant speculative copy
/// escaped throttling).
pub fn run<M: SimModel>(
    model: M,
    traffic: Vec<SourceTraffic>,
    spec: RunSpec,
    observers: &mut [&mut dyn Observer<M::Node>],
) -> (EngineReport, M) {
    Session::new(model, traffic, spec, observers).run()
}

/// [`run`], with an armed fault table threaded into the loop's hooks:
/// channel launches may be stalled, routing-symbol reads overridden, and
/// source headers dropped (with re-send) or lost, exactly as `faults`
/// prescribes. The caller keeps ownership of `faults` and reads back its
/// [`summary`](ArmedFaults::summary) afterwards.
///
/// # Panics
///
/// As [`run`].
pub fn run_with_faults<M: SimModel>(
    model: M,
    traffic: Vec<SourceTraffic>,
    spec: RunSpec,
    faults: &mut ArmedFaults,
    observers: &mut [&mut dyn Observer<M::Node>],
) -> (EngineReport, M) {
    Session::with_faults(model, traffic, spec, observers, faults).run()
}

/// One prepared simulation: model, traffic, wiring, and all pre-sized
/// engine state, ready to [`run`](Session::run).
///
/// Construction does all the setup allocation — channel wiring, the
/// event queue, source queues, and the pending-packet table with its
/// latency histogram — so that the run loop itself can stay
/// allocation-free once the descriptor pool warms up.
///
/// # Examples
///
/// ```
/// use asynoc_engine::{ChannelEnds, Ctx, NodeRef, RunSpec, Session, SimModel};
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
///     fn fire(&mut self, _node: (), _ctx: &mut Ctx<'_, '_, ()>) {}
/// }
///
/// // Nearest-neighbor traffic sends each packet to source + 1 (mod 2),
/// // which is exactly where the crossed wires deliver.
/// let traffic: Vec<SourceTraffic> = (0..2)
///     .map(|s| SourceTraffic::new(Benchmark::NearestNeighbor, 2, s, 0.4, 1, 7).unwrap())
///     .collect();
/// let spec = RunSpec::new(Phases::new(Duration::from_ns(2), Duration::from_ns(20)), true);
/// let (report, _model) = Session::new(CrossedWires, traffic, spec, &mut []).run();
/// assert!(report.packets_measured > 0);
/// assert_eq!(report.packets_incomplete, 0);
/// ```
pub struct Session<'obs, 'run, M: SimModel> {
    model: M,
    wiring: Vec<ChannelEnds<M::Node>>,
    source_channel: Vec<usize>,
    source_wire_delay: Duration,
    source_cycle: Duration,
    sink_ack: Duration,
    serializes_multicast: bool,
    pool: FlitPool,
    ctx: Ctx<'obs, 'run, M::Node>,
}

impl<'obs, 'run, M: SimModel> Session<'obs, 'run, M> {
    /// Prepares a clean (fault-free) simulation.
    ///
    /// # Panics
    ///
    /// Panics if `traffic` does not provide one generator per endpoint.
    pub fn new(
        model: M,
        traffic: Vec<SourceTraffic>,
        spec: RunSpec,
        observers: &'run mut [&'obs mut dyn Observer<M::Node>],
    ) -> Self {
        let progress = serial_progress(&spec);
        Session::build(model, traffic, spec, observers, None, None, None, progress)
    }

    /// Prepares a simulation with an armed fault table threaded into the
    /// loop's hooks (see [`run_with_faults`]).
    ///
    /// # Panics
    ///
    /// Panics if `traffic` does not provide one generator per endpoint.
    pub fn with_faults(
        model: M,
        traffic: Vec<SourceTraffic>,
        spec: RunSpec,
        observers: &'run mut [&'obs mut dyn Observer<M::Node>],
        faults: &'run mut ArmedFaults,
    ) -> Self {
        let progress = serial_progress(&spec);
        Session::build(
            model,
            traffic,
            spec,
            observers,
            Some(faults),
            None,
            None,
            progress,
        )
    }

    /// Prepares one shard of a sharded run: the session owns only the
    /// sources its shard was assigned, logs its observable stream into
    /// the shard's log, and exchanges cut-channel influence via the
    /// sharded runner's mailboxes (see `crate::shard`).
    pub(crate) fn build_shard(
        model: M,
        traffic: Vec<SourceTraffic>,
        spec: RunSpec,
        faults: Option<&'run mut ArmedFaults>,
        shard: Box<ShardState<M::Node>>,
        queue: CalendarQueue<Event<M::Node>>,
        progress: Option<Arc<ProgressMeter>>,
    ) -> Self
    where
        'obs: 'run,
    {
        Session::build(
            model,
            traffic,
            spec,
            &mut [],
            faults,
            Some(shard),
            Some(queue),
            progress,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        model: M,
        traffic: Vec<SourceTraffic>,
        spec: RunSpec,
        observers: &'run mut [&'obs mut dyn Observer<M::Node>],
        faults: Option<&'run mut ArmedFaults>,
        shard: Option<Box<ShardState<M::Node>>>,
        queue: Option<CalendarQueue<Event<M::Node>>>,
        progress: Option<Arc<ProgressMeter>>,
    ) -> Self {
        let n = model.endpoints();
        assert_eq!(traffic.len(), n, "one traffic generator per endpoint");
        let channels = model.channel_count();
        let wiring = (0..channels).map(|c| model.channel_ends(c)).collect();
        let source_channel = (0..n).map(|s| model.source_channel(s)).collect();
        let source_wire_delay = model.source_wire_delay();
        let source_cycle = model.source_cycle();
        let sink_ack = model.sink_ack();
        let serializes_multicast = model.serializes_multicast();

        let injection_end = spec.phases.measurement_end();
        // Saturated runs never finish draining; cap the drain at one extra
        // measurement window plus warmup.
        let hard_cap = injection_end + spec.phases.measure() + spec.phases.warmup();

        // Pre-size everything the run loop touches.
        let queue =
            queue.unwrap_or_else(|| CalendarQueue::with_capacity(queue_presize(channels, n)));
        let mut ctx = Ctx {
            phases: spec.phases,
            drain: spec.drain,
            injection_end,
            hard_cap,
            queue,
            now: Time::ZERO,
            channels: vec![ChannelState::Free; channels],
            source_queue: (0..n).map(|_| VecDeque::with_capacity(64)).collect(),
            source_next_fire: vec![Time::ZERO; n],
            traffic,
            next_packet_id: vec![0; n],
            pending: PendingTable::new(n),
            shard,
            throughput: ThroughputCounter::new(n),
            flits_throttled: 0,
            flits_delivered: 0,
            events_processed: 0,
            kinds: EventKindCounts::default(),
            prof: spec.profile.then(|| Box::new(RunProf::new(spec.phases))),
            progress,
            observers,
            faults,
        };

        // Prime each source's first injection. A shard advances every
        // source's traffic RNG identically (the per-source generators are
        // self-seeded, so unowned ones simply never advance again) but
        // schedules only the sources it owns.
        for s in 0..n {
            let gap = ctx.traffic[s].next_gap();
            let owned = ctx
                .shard
                .as_ref()
                .is_none_or(|shard| shard.partition.source_shard(s) == shard.shard);
            if owned {
                ctx.schedule_event(Time::ZERO + gap, Event::Inject { source: s });
            }
        }

        Session {
            model,
            wiring,
            source_channel,
            source_wire_delay,
            source_cycle,
            sink_ack,
            serializes_multicast,
            pool: FlitPool::new(n * 64 + 256),
            ctx,
        }
    }

    /// Executes the event loop to completion and returns the
    /// measurements plus the model (whose accumulated state the caller
    /// may harvest).
    ///
    /// # Panics
    ///
    /// Panics if a header reaches a destination outside its packet's
    /// awaited set (the delivery audit: a duplicate means a redundant
    /// speculative copy escaped throttling).
    pub fn run(mut self) -> (EngineReport, M) {
        let start = std::time::Instant::now();
        self.execute();
        self.finish(start)
    }

    fn execute(&mut self) {
        while let Some((t, event)) = self.ctx.queue.pop() {
            self.ctx.now = t;
            if t > self.ctx.hard_cap {
                break;
            }
            if !self.ctx.drain && t >= self.ctx.injection_end {
                break;
            }
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
            if self.ctx.events_processed & PROGRESS_TICK_MASK == 0 {
                if let Some(progress) = &self.ctx.progress {
                    progress.record(0, self.ctx.events_processed);
                }
            }
            if self.ctx.drain
                && self.ctx.now >= self.ctx.injection_end
                && self.ctx.pending.measured_in_flight() == 0
            {
                break;
            }
        }
    }

    fn finish(self, start: std::time::Instant) -> (EngineReport, M) {
        let pool_stats = self.pool.stats();
        let ctx = self.ctx;
        if let Some(progress) = &ctx.progress {
            progress.finish();
        }
        let wall = start.elapsed();
        let profile = ctx.prof.map(|prof| {
            Box::new(EngineProfile {
                wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
                lookahead_ps: 0,
                shards: vec![ShardProfile {
                    shard: 0,
                    events: ctx.events_processed,
                    kinds: ctx.kinds,
                    queue: ctx.queue.stats(),
                    pool: pool_stats,
                    phase: prof.close(),
                    ..ShardProfile::default()
                }],
            })
        });
        let throughput = ctx.throughput.per_source_gfs(ctx.phases.measure());
        let (latency, packets_incomplete) = ctx.pending.finish();
        let report = EngineReport {
            packets_measured: latency.count() as usize,
            latency,
            throughput,
            packets_incomplete,
            flits_throttled: ctx.flits_throttled,
            flits_delivered: ctx.flits_delivered,
            events_processed: ctx.events_processed,
            shards: 1,
            shard_events: vec![ctx.events_processed],
            wall,
            profile,
        };
        (report, self.model)
    }

    // ------------------------------------------------------------------
    // Sharded execution (driven by `crate::shard::run_sharded`)
    // ------------------------------------------------------------------

    /// Earliest pending local event time (published at window barriers).
    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.ctx.queue.peek_time()
    }

    /// Executes every local event strictly before `end`, logging each
    /// executed event's observable effects into the shard's log.
    ///
    /// Newly scheduled local events that still fall inside the window
    /// are executed too, so on return the local frontier is at least
    /// `end` — the invariant the conservative window protocol rests on.
    pub(crate) fn execute_window(&mut self, end: Time) {
        while self.ctx.queue.peek_time().is_some_and(|t| t < end) {
            let (t, event) = self.ctx.queue.pop().expect("peeked non-empty");
            self.ctx.now = t;
            if let Some(prof) = self.ctx.prof.as_deref_mut() {
                prof.note(t);
            }
            let key = event_key(&event);
            let fault_before = self.ctx.faults.as_deref().map(ArmedFaults::summary);
            let (shard_index, occ) = {
                let shard = self.ctx.shard.as_mut().expect("sharded session");
                shard.occ += 1;
                (shard.shard, shard.occ)
            };
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
            if occ & PROGRESS_TICK_MASK == 0 {
                if let Some(progress) = &self.ctx.progress {
                    progress.record(shard_index, occ);
                }
            }
            let fault_delta = fault_before.and_then(|before| {
                let after = self.ctx.faults.as_deref().expect("still armed").summary();
                crate::shard::summary_delta(before, after)
            });
            // An event that did nothing observable leaves no record —
            // except in the drain tail, where the fold needs every event
            // to find the serial loop's exact stopping point.
            let drain_tail = self.ctx.drain && t >= self.ctx.injection_end;
            let shard = self.ctx.shard.as_mut().expect("sharded session");
            shard.log.close(t, key, occ, fault_delta, drain_tail);
            if t < self.ctx.injection_end {
                shard.pre_end_events += 1;
            }
        }
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

    /// The cut-channel messages this shard's last window produced, for
    /// the runner to drain into the mailboxes.
    pub(crate) fn outbox(&mut self) -> &mut Vec<(usize, WireMsg)> {
        &mut self.ctx.shard.as_mut().expect("sharded session").outbox
    }

    /// The shard's log, for the runner to swap out at a hand-off.
    pub(crate) fn log_mut(&mut self) -> &mut ShardLog<M::Node> {
        &mut self.ctx.shard.as_mut().expect("sharded session").log
    }

    /// Tears one finished shard down into what the runner collects.
    ///
    /// The shard's profile section carries what the *session* observed
    /// (events, kinds, queue/pool counters, phase wall split); the
    /// worker loop fills in the window-protocol figures (windows,
    /// barrier waits, mailbox traffic) it alone can see.
    pub(crate) fn into_shard_parts(self) -> crate::shard::ShardParts<M> {
        let pool_stats = self.pool.stats();
        let ctx = self.ctx;
        let shard = *ctx.shard.expect("sharded session");
        let profile = ctx.prof.map(|prof| {
            Box::new(ShardProfile {
                shard: shard.shard,
                events: shard.occ,
                kinds: ctx.kinds,
                queue: ctx.queue.stats(),
                pool: pool_stats,
                phase: prof.close(),
                ..ShardProfile::default()
            })
        });
        crate::shard::ShardParts {
            log: shard.log,
            pre_end_events: shard.pre_end_events,
            throughput: ctx.throughput,
            flits_throttled: ctx.flits_throttled,
            flits_delivered: ctx.flits_delivered,
            profile,
            model: self.model,
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

        fn fire(&mut self, _node: (), ctx: &mut Ctx<'_, '_, ()>) {
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
        let (report, model) = run(Crossbar::new(), toy_traffic(7), toy_spec(), &mut []);
        assert!(report.packets_measured > 0, "no packets measured");
        assert_eq!(report.packets_incomplete, 0, "drain left packets in flight");
        assert!(report.flits_delivered > 0);
        assert!(report.events_processed > 0);
        assert!(model.packets_seen > 0);
        // Uncontended path: source wire (50) + node forward (200).
        assert_eq!(report.latency.min(), Some(Duration::from_ps(250)));
    }

    /// Records the engine's event stream as comparable tuples.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, &'static str, bool)>,
    }

    impl Observer<()> for Recorder {
        fn on_event(&mut self, at: Time, in_window: bool, event: &SimEvent<'_, ()>) {
            let tag = match event {
                SimEvent::Inject { .. } => "inject",
                SimEvent::Forward { .. } => "forward",
                SimEvent::Drop { .. } => "drop",
                SimEvent::Deliver { .. } => "deliver",
                SimEvent::Fault { .. } => "fault",
            };
            self.seen.push((at.as_ps(), tag, in_window));
        }
    }

    #[test]
    fn observers_see_identical_streams_in_registration_order() {
        let mut first = Recorder::default();
        let mut second = Recorder::default();
        run(
            Crossbar::new(),
            toy_traffic(3),
            toy_spec(),
            &mut [&mut first, &mut second],
        );
        assert!(!first.seen.is_empty());
        assert_eq!(first.seen, second.seen);
        let count = |tag| first.seen.iter().filter(|(_, t, _)| *t == tag).count();
        assert!(count("inject") > 0);
        assert!(count("forward") > 0);
        assert!(count("deliver") > 0);
        assert_eq!(count("drop"), 0, "the crossbar never throttles");
    }

    #[test]
    fn reruns_are_bit_identical() {
        let run_once = || run(Crossbar::new(), toy_traffic(11), toy_spec(), &mut []).0;
        let (a, b) = (run_once(), run_once());
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.flits_delivered, b.flits_delivered);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn no_drain_stops_at_injection_end() {
        let spec = RunSpec::new(
            Phases::new(Duration::from_ns(2), Duration::from_ns(40)),
            false,
        );
        let (report, _) = run(Crossbar::new(), toy_traffic(5), spec, &mut []);
        assert!(report.packets_measured > 0);
    }
}
