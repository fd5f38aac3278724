//! The engine's one event loop, its channel plumbing, and the
//! measurement protocol.
//!
//! A [`Session`] is one prepared simulation. It runs on the calling
//! thread, hands every event's effects straight on to the observers and
//! the pending-packet table, and tears down into the run's report.

use std::collections::VecDeque;
use std::time::Instant;

use asynoc_kernel::{CalendarQueue, Duration, FaultClass, Time};
use asynoc_packet::{DestSet, Flit, PacketDescriptor, PacketId, RouteSymbol};
use asynoc_probe::{EngineProfile, EventKindCounts, PhaseWall, ProgressMeter};
use asynoc_stats::throughput::ThroughputReport;
use asynoc_stats::{LogHistogram, Phases, ThroughputCounter};
use asynoc_traffic::SourceTraffic;

use crate::fault::{ArmedFaults, SourceFaultAction};
use crate::netlist::{ChannelEnds, Netlist, NodeRef};
use crate::observer::{Observer, SimEvent};
use crate::pending::PendingTable;

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

/// What a substrate must provide to run on the engine, beside its
/// [`Netlist`].
///
/// The engine owns sources, sinks, channels, the event queue, and all
/// measurement, and reads the channel table off the netlist; the model
/// owns its nodes' dynamic state and fires them when the engine wakes
/// them. A flit carries its packet's descriptor by value and no route: a
/// node routes from the descriptor's destination set.
pub trait SimModel {
    /// The substrate's node identifier (e.g. an enum of fanout/fanin
    /// indices for the MoT, a router index for the mesh).
    type Node: Copy + std::fmt::Debug + NodeKey;

    /// Hook called once per created physical packet (serialized clones
    /// included); models accumulate per-packet analytics here.
    fn on_packet(&mut self, source: usize, dest: DestSet, measured: bool) {
        let _ = (source, dest, measured);
    }
    /// Attempts to fire `node`: consume an arrived input flit, launch
    /// outputs, schedule frees/retries via `ctx`. Called whenever an
    /// event may have unblocked the node; must do nothing if the node's
    /// preconditions do not hold.
    ///
    /// A channel's free wakes its upstream only if the upstream waits on
    /// it, so the model must leave no wait unannounced: a node blocked on
    /// a busy output learns so from [`Ctx::is_free`], which subscribes it,
    /// and a node that launches onto an output while another of its flits
    /// still needs that output calls [`Ctx::wake_on_free`] for it.
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
    /// Draw a single-line stderr heartbeat (events done, rate) while the
    /// run executes. Suppressed automatically when stderr
    /// is not a terminal unless `ASYNOC_PROGRESS_FORCE` is set.
    pub progress: bool,
}

impl RunSpec {
    /// Creates a spec with the heartbeat off.
    #[must_use]
    pub fn new(phases: Phases, drain: bool) -> Self {
        RunSpec {
            phases,
            drain,
            progress: false,
        }
    }

    /// The bound the drain tail executes events strictly before: a
    /// picosecond past the hard cap — one extra measurement window plus
    /// warmup, since a saturated run never finishes draining.
    fn drain_end(&self) -> Time {
        let phases = self.phases;
        phases.measurement_end() + phases.measure() + phases.warmup() + Duration::from_ps(1)
    }
}

/// How often the progress heartbeat may redraw.
const PROGRESS_INTERVAL_MS: u64 = 250;
/// Event-count mask between heartbeat ticks: the run loop only consults
/// the wall clock every `PROGRESS_TICK_MASK + 1` events.
const PROGRESS_TICK_MASK: u64 = 0xFFF;

/// A host duration in whole nanoseconds, saturating.
fn nanos(duration: std::time::Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
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
    /// Flits injected (accepted from the source queues) in the window.
    pub flits_injected: u64,
    /// Flits throttled (dropped by speculation recovery) in the window.
    pub flits_throttled: u64,
    /// Flits delivered to sinks in the window.
    pub flits_delivered: u64,
    /// Events the engine processed over the whole run.
    pub events_processed: u64,
    /// The run's self-profile: host wall clock, its split across the
    /// simulated phases, and the event and queue counters. Host-side
    /// metadata, excluded from determinism comparisons.
    pub profile: EngineProfile,
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
    /// `channel` completes its handshake and becomes free; scheduled only
    /// for a channel whose upstream waits on it.
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

/// Dynamic state of one channel. `waited` is set once the channel's
/// upstream waits on its free (see [`Ctx::is_free`]): only a waited
/// channel's free is an event.
#[derive(Clone, Debug)]
enum ChannelState {
    /// Empty; upstream may launch.
    Free,
    /// A flit was launched: in flight until `arrived` (set in place: the
    /// flit does not move), then awaiting consumption downstream.
    Held {
        flit: Flit,
        arrived: bool,
        waited: bool,
    },
    /// Consumed; the handshake is completing (ack in flight). It completes
    /// at `free_at`, set by [`Ctx::free_after`]; from then on the channel
    /// reads free without any event (see [`Core::acknowledged`]).
    Draining { free_at: Option<Time>, waited: bool },
}

// Every channel holds one of these: the flags and the completion time
// must fit beside the flit, in the tag's word.
const _: () = assert!(std::mem::size_of::<ChannelState>() <= 64);

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
    /// Whether `channel` is free for a launch. A busy answer subscribes
    /// the channel's upstream — the firing node, the only one that asks —
    /// to its free: the free wakes it as an event. A channel nobody waits
    /// on frees without one, so a model must ask here (or call
    /// [`wake_on_free`](Ctx::wake_on_free)) before it relies on being
    /// woken.
    #[must_use]
    fn is_free(&mut self, channel: usize) -> bool;
    /// Subscribes `channel`'s upstream to its free, as a busy
    /// [`is_free`](Ctx::is_free) answer does. A node calls it after a
    /// launch when another of its flits still needs the same channel;
    /// does nothing if the channel reads free.
    fn wake_on_free(&mut self, channel: usize);
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
    /// Completes the handshake of `channel` (consumed, so draining) after
    /// `delay`, which must be positive: from then on the channel reads
    /// free, and the free wakes its upstream if the upstream waits on it.
    ///
    /// # Panics
    ///
    /// Panics if `channel` has not been consumed with
    /// [`take_arrived`](Ctx::take_arrived).
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
    injection_end: Time,

    /// Pending events, each held as its [`event_key`].
    queue: CalendarQueue<()>,
    now: Time,
    /// The [`event_key`] of the event being executed; with `now`, its
    /// place in the run's total order.
    key: u64,

    channels: Vec<ChannelState>,
    /// Per-source packets waiting to inject, and the index of the front
    /// packet's next flit.
    source_queue: Vec<VecDeque<PacketDescriptor>>,
    source_next_flit: Vec<u8>,
    source_next_fire: Vec<Time>,
    traffic: Vec<SourceTraffic>,

    /// Per-source packet counters: ids are `(source << 32) | counter`.
    next_packet_id: Vec<u64>,
    /// Physical packets created (serialized clones counted one by one).
    packets_created: u64,

    /// Every observer, handed each event in registration order.
    observers: &'r mut [&'obs mut dyn Observer<N>],
    /// Every logical packet in flight; where latencies are recorded.
    pending: PendingTable,

    throughput: ThroughputCounter,
    flits_injected: u64,
    flits_throttled: u64,
    flits_delivered: u64,
    events_processed: u64,
    /// Per-kind event counts (a u64 add per event).
    kinds: EventKindCounts,
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

    /// Whether an acknowledge completing at `at` on `channel` has
    /// completed by the current event: exactly when that channel's
    /// `FreeChannel` event, were it scheduled, would already have run.
    fn acknowledged(&self, at: Time, channel: usize) -> bool {
        at < self.now
            || (at == self.now && event_key(&Event::<N>::FreeChannel { channel }) < self.key)
    }

    /// Whether `channel` is free at the current event.
    fn reads_free(&self, channel: usize) -> bool {
        match self.channels[channel] {
            ChannelState::Free => true,
            ChannelState::Draining {
                free_at: Some(at), ..
            } => self.acknowledged(at, channel),
            _ => false,
        }
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

    fn is_free(&mut self, channel: usize) -> bool {
        if self.reads_free(channel) {
            return true;
        }
        let free_at = match &mut self.channels[channel] {
            ChannelState::Held { waited, .. } => {
                *waited = true;
                None
            }
            // The first subscription of a draining channel schedules its
            // free, if `free_after` has timed it; a later one finds it
            // scheduled.
            ChannelState::Draining { free_at, waited } if !*waited => {
                *waited = true;
                *free_at
            }
            ChannelState::Draining { .. } => None,
            ChannelState::Free => unreachable!("a free channel reads free"),
        };
        if let Some(at) = free_at {
            self.schedule_event(at, Event::FreeChannel { channel });
        }
        false
    }

    fn wake_on_free(&mut self, channel: usize) {
        let _ = self.is_free(channel);
    }

    fn arrived(&self, channel: usize) -> Option<&Flit> {
        match &self.channels[channel] {
            ChannelState::Held { flit, arrived, .. } if *arrived => Some(flit),
            _ => None,
        }
    }

    fn take_arrived(&mut self, channel: usize) -> Flit {
        let ChannelState::Held {
            flit,
            arrived: true,
            waited,
        } = self.channels[channel]
        else {
            unreachable!("take_arrived on a channel with no waiting flit");
        };
        self.channels[channel] = ChannelState::Draining {
            free_at: None,
            waited,
        };
        flit
    }

    fn launch(&mut self, channel: usize, flit: Flit, flight: Duration) {
        debug_assert!(self.reads_free(channel), "launch on busy channel");
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
        self.channels[channel] = ChannelState::Held {
            flit,
            arrived: false,
            waited: false,
        };
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
        // A zero delay would read free at once, ahead of where its event
        // would have run.
        debug_assert!(!delay.is_zero(), "an acknowledge takes time");
        let at = self.now + delay;
        let ChannelState::Draining { free_at, waited } = &mut self.channels[channel] else {
            unreachable!("free_after on a channel that was not consumed");
        };
        *free_at = Some(at);
        if *waited {
            self.schedule_event(at, Event::FreeChannel { channel });
        }
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

/// Executes one simulation of `model` on `netlist`, fed by `traffic`, on
/// the calling thread, reporting to `observers`, and returns the
/// measurements plus the model (whose accumulated state — e.g.
/// per-packet analytics from [`SimModel::on_packet`] — the caller may
/// harvest). The netlist is read in place: a network that runs many
/// times states its channel table once.
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
/// use asynoc_engine::{run, ChannelEnds, Ctx, Netlist, NodeRef, RunSpec, SimModel};
/// use asynoc_kernel::Duration;
/// use asynoc_stats::Phases;
/// use asynoc_traffic::{Benchmark, SourceTraffic};
///
/// // Two endpoints joined by crossed wires: source 0 feeds sink 1 and
/// // source 1 feeds sink 0, with no routing nodes in between.
/// let crossed = |source: usize| ChannelEnds {
///     upstream: NodeRef::Source(source),
///     downstream: NodeRef::Sink(1 - source),
/// };
/// let netlist = Netlist {
///     channels: vec![crossed(0), crossed(1)],
///     source_channel: vec![0, 1],
///     source_wire_delay: Duration::from_ps(50),
///     source_cycle: Duration::from_ps(100),
///     sink_ack: Duration::from_ps(100),
///     serializes_multicast: true,
/// };
///
/// /// Nothing between the wires fires.
/// struct NoNodes;
///
/// impl SimModel for NoNodes {
///     type Node = ();
///     fn fire(&mut self, _node: (), _ctx: &mut impl Ctx<()>) {}
/// }
///
/// // Nearest-neighbor traffic sends each packet to source + 1 (mod 2),
/// // which is exactly where the crossed wires deliver.
/// let traffic: Vec<SourceTraffic> = (0..2)
///     .map(|s| SourceTraffic::new(Benchmark::NearestNeighbor, 2, s, 0.4, 1, 7).unwrap())
///     .collect();
/// let spec = RunSpec::new(Phases::new(Duration::from_ns(2), Duration::from_ns(20)), true);
/// let (report, _model) = run(&netlist, NoNodes, traffic, spec, None, &mut []);
/// assert!(report.packets_measured > 0);
/// assert_eq!(report.packets_incomplete, 0);
/// ```
pub fn run<M: SimModel>(
    netlist: &Netlist<M::Node>,
    model: M,
    traffic: Vec<SourceTraffic>,
    spec: RunSpec,
    faults: Option<&mut ArmedFaults>,
    observers: &mut [&mut dyn Observer<M::Node>],
) -> (EngineReport, M) {
    let start = Instant::now();
    let mut session = Session::new(netlist, model, traffic, spec, faults, observers);
    let phase = session.execute(spec, start);
    session.finish(spec, start, phase)
}

/// One prepared simulation: the borrowed netlist, the model, and all
/// pre-sized engine state.
///
/// Construction does all the setup allocation — channel states, the
/// event queue, source queues — so that the loop itself allocates
/// nothing: a flit carries its descriptor by value, so nothing per packet
/// lives on the heap.
struct Session<'r, 'obs, M: SimModel> {
    netlist: &'r Netlist<M::Node>,
    /// The netlist's channel table, read on every arrival and free: held
    /// as its own slice so that the per-event lookup does not first load
    /// the netlist's address.
    channels: &'r [ChannelEnds<M::Node>],
    model: M,
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
        netlist: &'r Netlist<M::Node>,
        model: M,
        traffic: Vec<SourceTraffic>,
        spec: RunSpec,
        faults: Option<&'r mut ArmedFaults>,
        observers: &'r mut [&'obs mut dyn Observer<M::Node>],
    ) -> Self {
        let n = netlist.endpoints();
        assert_eq!(traffic.len(), n, "one traffic generator per endpoint");
        let mut ctx = Core {
            phases: spec.phases,
            injection_end: spec.phases.measurement_end(),
            queue: CalendarQueue::new(),
            now: Time::ZERO,
            key: 0,
            channels: vec![ChannelState::Free; netlist.channels.len()],
            source_queue: (0..n).map(|_| VecDeque::with_capacity(16)).collect(),
            source_next_flit: vec![0; n],
            source_next_fire: vec![Time::ZERO; n],
            traffic,
            next_packet_id: vec![0; n],
            packets_created: 0,
            observers,
            pending: PendingTable::new(n),
            throughput: ThroughputCounter::new(n),
            flits_injected: 0,
            flits_throttled: 0,
            flits_delivered: 0,
            events_processed: 0,
            kinds: EventKindCounts::default(),
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
            netlist,
            channels: &netlist.channels,
            model,
            ctx,
        }
    }

    /// Executes the run phase by phase — the warmup window, the
    /// measurement window, then the drain tail when `spec` drains and a
    /// measured packet is still in flight — and returns the host time each
    /// phase took, counted from `start`. The event that ends one phase
    /// opens the next; the one that passes the last bound is dropped with
    /// the rest of the queue.
    fn execute(&mut self, spec: RunSpec, start: Instant) -> PhaseWall {
        let mut wall = PhaseWall::default();
        let mut since = start;
        let mut lap = |ns: &mut u64| {
            let now = Instant::now();
            *ns = nanos(now - since);
            since = now;
        };
        let next = self.segment(None, Time::ZERO + spec.phases.warmup(), false);
        lap(&mut wall.warmup_ns);
        let next = self.segment(next, spec.phases.measurement_end(), false);
        lap(&mut wall.measure_ns);
        if spec.drain && self.ctx.pending.measured_in_flight() > 0 {
            self.segment(next, spec.drain_end(), true);
            lap(&mut wall.drain_ns);
        }
        wall
    }

    /// Executes the events due before `bound`, starting with `next` (the
    /// event the previous phase popped past its own bound). Returns the
    /// first event due at or past `bound` — popped, not executed — or
    /// `None` once the queue runs dry or, `until_drained`, once no
    /// measured packet is in flight.
    fn segment(
        &mut self,
        next: Option<(Time, u64)>,
        bound: Time,
        until_drained: bool,
    ) -> Option<(Time, u64)> {
        let pop = |queue: &mut CalendarQueue<()>| queue.pop_keyed().map(|(t, key, ())| (t, key));
        let mut next = next.or_else(|| pop(&mut self.ctx.queue));
        while let Some((t, key)) = next {
            if t >= bound {
                return next;
            }
            self.step(t, key);
            if until_drained && self.ctx.pending.measured_in_flight() == 0 {
                return None;
            }
            next = pop(&mut self.ctx.queue);
        }
        None
    }

    /// The per-event body: executes the event whose key is `key`.
    fn step(&mut self, t: Time, key: u64) {
        self.ctx.now = t;
        self.ctx.key = key;
        self.ctx.events_processed += 1;
        match Event::from_key(key) {
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
    fn finish(self, spec: RunSpec, start: Instant, phase: PhaseWall) -> (EngineReport, M) {
        let mut ctx = self.ctx;
        if let Some(progress) = &mut ctx.progress {
            progress.finish();
        }
        let profile = EngineProfile {
            wall_ns: nanos(start.elapsed()),
            kinds: ctx.kinds,
            queue: ctx.queue.stats(),
            packets: ctx.packets_created,
            phase,
        };
        let (latency, packets_incomplete) = ctx.pending.finish();
        let report = EngineReport {
            packets_measured: latency.count() as usize,
            latency,
            throughput: ctx.throughput.per_source_gfs(spec.phases.measure()),
            packets_incomplete,
            flits_injected: ctx.flits_injected,
            flits_throttled: ctx.flits_throttled,
            flits_delivered: ctx.flits_delivered,
            events_processed: ctx.events_processed,
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

    fn create_packets(&mut self, source: usize, dests: DestSet) {
        let measured = self.ctx.in_window();
        let logical = self.ctx.alloc_id(source);
        let flits = self.ctx.traffic[source].flits_per_packet();
        let serialize = self.netlist.serializes_multicast && dests.len() > 1;

        let mut offered_flits = 0u64;
        if serialize {
            // Serial multicast: one unicast clone per destination, queued
            // back to back; latency is accounted against the logical packet.
            for dest in dests.iter() {
                let id = self.ctx.alloc_id(source);
                let clone_dests = DestSet::unicast(dest);
                let clone = PacketDescriptor::new(id, source, clone_dests, flits, self.ctx.now)
                    .with_group(logical);
                self.ctx.source_queue[source].push_back(clone);
                self.ctx.packets_created += 1;
                offered_flits += u64::from(flits);
                self.model.on_packet(source, clone_dests, measured);
            }
        } else {
            let packet = PacketDescriptor::new(logical, source, dests, flits, self.ctx.now);
            self.ctx.source_queue[source].push_back(packet);
            self.ctx.packets_created += 1;
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
        let ChannelState::Held { arrived, .. } = &mut self.ctx.channels[channel] else {
            unreachable!("arrival on a channel that was not in flight");
        };
        debug_assert!(!*arrived, "a flit arrives once");
        *arrived = true;
        match self.channels[channel].downstream {
            NodeRef::Sink(dest) => self.sink_consume(channel, dest),
            other => self.wake(other),
        }
    }

    fn handle_free(&mut self, channel: usize) {
        debug_assert!(
            matches!(
                self.ctx.channels[channel],
                ChannelState::Draining { free_at: Some(at), waited: true } if at == self.ctx.now
            ),
            "freed a channel that was not waited on to free now"
        );
        self.ctx.channels[channel] = ChannelState::Free;
        self.wake(self.channels[channel].upstream);
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
        let Some(&packet) = self.ctx.source_queue[source].front() else {
            return;
        };
        let channel = self.netlist.source_channel[source];
        if !self.ctx.is_free(channel) {
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
        let flit = Flit::new(packet, self.ctx.source_next_flit[source]);
        if flit.kind().is_header() {
            let action = self
                .ctx
                .faults
                .as_mut()
                .and_then(|faults| faults.on_source_header(source, packet.id().as_u64()));
            match action {
                Some(SourceFaultAction::Resend { delay }) => {
                    // The header is dropped on the injection link; the
                    // source times out and re-sends the same flit, which
                    // is still at the head of its queue.
                    self.ctx.emit(&SimEvent::Fault {
                        class: FaultClass::FlitDrop,
                        site: source,
                        flit: &flit,
                    });
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
                    self.ctx.source_queue[source].pop_front();
                    // Release its latency bookkeeping, so the drain
                    // still terminates.
                    self.ctx
                        .pending
                        .lose(packet.logical_id().as_u64(), packet.dests());
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
            self.ctx.flits_injected += 1;
        }
        if flit.kind().is_tail() {
            self.ctx.source_next_flit[source] = 0;
            self.ctx.source_queue[source].pop_front();
        } else {
            self.ctx.source_next_flit[source] += 1;
        }
        self.ctx
            .launch(channel, flit, self.netlist.source_wire_delay);
        if !self.ctx.source_queue[source].is_empty() {
            // The next flit waits on the channel just taken.
            self.ctx.wake_on_free(channel);
        }
        self.ctx.source_next_fire[source] = self.ctx.now + self.netlist.source_cycle;
    }

    fn sink_consume(&mut self, channel: usize, dest: usize) {
        let flit = self.ctx.take_arrived(channel);
        self.ctx.free_after(channel, self.netlist.sink_ack);
        self.ctx.emit(&SimEvent::Deliver { dest, flit: &flit });
        if self.ctx.in_window() {
            self.ctx.throughput.record_delivered(1);
            self.ctx.flits_delivered += 1;
        }
        if flit.kind().is_header() {
            let logical = flit.descriptor().logical_id().as_u64();
            self.ctx.pending.deliver(self.ctx.now, logical, dest);
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

    /// The crossbar's wiring.
    fn crossbar() -> Netlist<()> {
        let ends = |upstream, downstream| crate::ChannelEnds {
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
        let (report, model) = run(
            &crossbar(),
            Crossbar::new(),
            toy_traffic(7),
            toy_spec(),
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
        let (report, _) = run(
            &crossbar(),
            Crossbar::new(),
            toy_traffic(5),
            spec,
            None,
            &mut [],
        );
        assert!(report.packets_measured > 0);
    }

    #[test]
    fn a_losing_input_is_woken_by_the_output_it_waits_on() {
        // Hotspot traffic: both sources aim at sink 0, so the crossbar's
        // second input keeps losing output 2 to the first and must be
        // woken by that output's free, which it subscribed to by asking.
        let traffic = (0..2)
            .map(|s| SourceTraffic::new(Benchmark::Hotspot, 2, s, 0.8, 1, 7).unwrap())
            .collect();
        let (report, _) = run(
            &crossbar(),
            Crossbar::new(),
            traffic,
            toy_spec(),
            None,
            &mut [],
        );
        assert_eq!(report.packets_incomplete, 0, "a waiting input was stranded");
        assert!(report.profile.kinds.free > 0, "nobody waited on a free");
        // The latencies every acknowledge waking its sender gave.
        let latency = &report.latency;
        assert_eq!(
            (
                latency.count(),
                latency.min(),
                latency.max(),
                latency.mean()
            ),
            (
                71,
                Some(Duration::from_ps(250)),
                Some(Duration::from_ps(1_433)),
                Some(Duration::from_ps(418))
            )
        );
    }

    #[test]
    fn a_free_due_now_is_seen_by_later_kinds_only() {
        let netlist = crossbar();
        let mut session = Session::new(
            &netlist,
            Crossbar::new(),
            toy_traffic(7),
            toy_spec(),
            None,
            &mut [],
        );
        let ctx = &mut session.ctx;
        let now = Time::from_ps(1_000);
        ctx.now = now;
        ctx.channels[2] = ChannelState::Draining {
            free_at: Some(now),
            waited: false,
        };
        let key = |event: Event<()>| event_key(&event);
        // A retry at `now` runs after the channel's free would have.
        ctx.key = key(Event::Retry {
            target: NodeRef::Node(()),
        });
        assert!(ctx.is_free(2));
        // So does the free of a higher channel; an arrival, or the free of
        // a lower channel, runs before it.
        ctx.key = key(Event::FreeChannel { channel: 3 });
        assert!(ctx.is_free(2));
        let queued = ctx.queue.len();
        ctx.key = key(Event::Arrive { channel: 0 });
        assert!(!ctx.is_free(2));
        ctx.key = key(Event::FreeChannel { channel: 1 });
        assert!(!ctx.is_free(2));
        // The first busy answer subscribed: the free became one event.
        assert_eq!(ctx.queue.len(), queued + 1);
    }

    #[test]
    fn a_run_with_nothing_to_drain_stops_at_the_window() {
        // A seed whose window closes with no measured packet in flight:
        // draining it must execute nothing past the window.
        let phases = toy_spec().phases;
        let cut = |seed| {
            run(
                &crossbar(),
                Crossbar::new(),
                toy_traffic(seed),
                RunSpec::new(phases, false),
                None,
                &mut [],
            )
            .0
        };
        let seed = (0..64)
            .find(|&seed| cut(seed).packets_incomplete == 0)
            .expect("some seed completes every measured packet in the window");
        let (drained, _) = run(
            &crossbar(),
            Crossbar::new(),
            toy_traffic(seed),
            toy_spec(),
            None,
            &mut [],
        );
        assert_eq!(drained.events_processed, cut(seed).events_processed);
        assert_eq!(drained.profile.phase.drain_ns, 0);
    }

    #[test]
    fn the_phase_split_comes_from_the_loop_segments() {
        for drain in [true, false] {
            let spec = RunSpec::new(toy_spec().phases, drain);
            let (report, _) = run(
                &crossbar(),
                Crossbar::new(),
                toy_traffic(7),
                spec,
                None,
                &mut [],
            );
            let (profile, phase) = (&report.profile, report.profile.phase);
            if !drain {
                assert_eq!(phase.drain_ns, 0, "a run without a drain has no drain time");
            }
            assert!(
                phase.warmup_ns + phase.measure_ns + phase.drain_ns <= profile.wall_ns,
                "{phase:?} exceeds the run's {} ns",
                profile.wall_ns
            );
            assert_eq!(profile.kinds.total(), report.events_processed);
        }
    }
}
