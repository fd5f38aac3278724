//! Conservative sharded execution with bit-identical observable streams.
//!
//! [`run_sharded`] partitions one simulation across OS threads: each
//! shard owns a subset of sources, nodes, sinks, and channels (the
//! [`Partition`] a [`ShardModel`] computes), runs its own event queue,
//! and synchronises with the other shards in lookahead-bounded time
//! windows (see `asynoc_kernel::sharded` for the window protocol).
//!
//! # Why the results are bit-identical to a serial run
//!
//! Three mechanisms compose:
//!
//! 1. **Canonical event keys.** Both the serial loop and every shard
//!    order simultaneous events by the same `(time, key)` pair (see
//!    `event_key` in the session module), so "which event fires first at
//!    time t" does not depend on which queue holds it.
//! 2. **Conservative windows.** A window never extends past the minimum
//!    cross-shard influence delay (the partition's *lookahead*), and
//!    cut-channel messages are exchanged at every window boundary, so a
//!    shard executes an event only after every message that could
//!    precede it has been delivered. Each shard therefore executes
//!    exactly the serial event sequence restricted to its own entities.
//! 3. **A deterministic fold.** Each shard records the observable
//!    payload of every interesting event (observer emissions, pending-
//!    packet transitions, fault-summary increments) tagged with
//!    `(time, key, occurrence)`. After the workers join, the fold merges
//!    the records into exact serial order on one thread: it replays
//!    observers, reruns the delivery audit, computes latency, finds the
//!    serial loop's precise drain stopping point, and trims everything
//!    the workers executed past it.
//!
//! Live aggregates that only accumulate inside the measurement window
//! (throughput counters, delivered/throttled flits) are summed directly:
//! workers never overrun *into* the window, only past its end, so those
//! sums are exact without trimming.

use std::collections::HashMap;
use std::sync::Arc;

use asynoc_kernel::{
    CalendarQueue, Duration, FaultClass, Mailboxes, ShardedScheduler, Time, WindowBarrier,
};
use asynoc_packet::{DestSet, Flit};
use asynoc_probe::{EngineProfile, HostHistogram, ProfileSink, ProgressMeter, ShardProfile};
use asynoc_stats::ThroughputCounter;
use asynoc_traffic::SourceTraffic;

use crate::fault::{ArmedFaults, FaultSummary};
use crate::observer::{ForwardInfo, Observer, SimEvent};
use crate::session::{
    latency_reservoir, run, run_with_faults, DetHashState, EngineReport, Event, NodeRef, Pending,
    RunSpec, Session, SimModel, PROGRESS_INTERVAL_MS,
};

// ---------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------

/// A static assignment of every simulated entity to a shard, plus the
/// lookahead bound that makes the assignment safe.
///
/// The lookahead must be a lower bound on **every** delay that crosses a
/// cut channel in either direction: flit flight times (upstream shard →
/// downstream shard) *and* handshake free delays (downstream → upstream).
/// The engine debug-asserts this on every cut-channel operation.
#[derive(Clone, Debug)]
pub struct Partition {
    shards: usize,
    lookahead: Duration,
    source_shard: Vec<u32>,
    channel_up: Vec<u32>,
    channel_down: Vec<u32>,
}

impl Partition {
    /// Derives a partition from one assignment function over the
    /// model's entities. Using a single function for sources, nodes, and
    /// sinks guarantees the maps are mutually consistent (a source and
    /// its injection channel can never disagree about their shard).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, if `lookahead` is zero while more
    /// than one shard exists, or if `assign` returns an out-of-range
    /// shard.
    pub fn from_assignment<M: SimModel>(
        model: &M,
        shards: usize,
        lookahead: Duration,
        assign: impl Fn(NodeRef<M::Node>) -> usize,
    ) -> Partition {
        assert!(shards > 0, "a partition needs at least one shard");
        assert!(
            shards == 1 || lookahead > Duration::ZERO,
            "a multi-shard partition needs a positive lookahead"
        );
        let place = |node: NodeRef<M::Node>| -> u32 {
            let shard = assign(node);
            assert!(
                shard < shards,
                "entity {node:?} assigned to shard {shard} of {shards}"
            );
            shard as u32
        };
        let source_shard = (0..model.endpoints())
            .map(|s| place(NodeRef::Source(s)))
            .collect();
        let mut channel_up = Vec::with_capacity(model.channel_count());
        let mut channel_down = Vec::with_capacity(model.channel_count());
        for channel in 0..model.channel_count() {
            let ends = model.channel_ends(channel);
            channel_up.push(place(ends.upstream));
            channel_down.push(place(ends.downstream));
        }
        Partition {
            shards,
            lookahead,
            source_shard,
            channel_up,
            channel_down,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The window width: the minimum cross-shard influence delay.
    #[must_use]
    pub fn lookahead(&self) -> Duration {
        self.lookahead
    }

    /// How many channels have their two ends on different shards.
    #[must_use]
    pub fn cut_channels(&self) -> usize {
        self.channel_up
            .iter()
            .zip(&self.channel_down)
            .filter(|(up, down)| up != down)
            .count()
    }

    /// The shard owning `source` (and its injection events).
    #[must_use]
    pub fn source_shard(&self, source: usize) -> usize {
        self.source_shard[source] as usize
    }

    /// The shard owning `channel`'s upstream end (launches, frees).
    #[must_use]
    pub fn channel_upstream_shard(&self, channel: usize) -> usize {
        self.channel_up[channel] as usize
    }

    /// The shard owning `channel`'s downstream end (arrivals).
    #[must_use]
    pub fn channel_downstream_shard(&self, channel: usize) -> usize {
        self.channel_down[channel] as usize
    }
}

/// A [`SimModel`] that can be partitioned for sharded execution.
///
/// The model is cloned once per shard; each clone only ever fires the
/// nodes its shard owns, so node state never needs synchronisation.
/// After the run, [`merge_shards`](ShardModel::merge_shards) folds the
/// clones' accumulated analytics back into the original.
pub trait ShardModel: SimModel + Clone + Send {
    /// Computes the entity-to-shard assignment and its lookahead bound
    /// for `shards` shards. Implementations may clamp `shards` down
    /// (e.g. to the row count of a mesh); the runner honours whatever
    /// the returned partition says.
    fn partition(&self, shards: usize) -> Partition;

    /// Folds the per-shard model clones' accumulated state (e.g. hop
    /// counters) back into `self` after a sharded run. The default does
    /// nothing, which is correct for models without cross-run analytics.
    fn merge_shards(&mut self, shards: Vec<Self>) {
        drop(shards);
    }
}

// ---------------------------------------------------------------------
// Per-shard record machinery (driven by the session)
// ---------------------------------------------------------------------

/// A cross-shard influence message, exchanged at window boundaries.
#[derive(Clone, Debug)]
pub(crate) enum WireMsg {
    /// A flit launched on a cut channel; it arrives downstream at `at`.
    Arrive {
        channel: usize,
        flit: Flit,
        at: Time,
    },
    /// A cut channel consumed downstream frees (upstream) at `at`.
    Free { channel: usize, at: Time },
}

/// An owned copy of one observer event, buffered for ordered replay.
#[derive(Clone, Debug)]
pub(crate) enum OwnedSimEvent<N> {
    Inject {
        source: usize,
        flit: Flit,
    },
    Forward {
        node: N,
        flit: Flit,
        info: ForwardInfo,
        copies: u8,
        busy: Duration,
    },
    Drop {
        node: N,
        flit: Flit,
        busy: Duration,
    },
    Deliver {
        dest: usize,
        flit: Flit,
    },
    Fault {
        class: FaultClass,
        site: usize,
        flit: Flit,
    },
}

impl<N: Copy> OwnedSimEvent<N> {
    /// Captures a borrowed event (the flit clone is an `Arc` bump).
    pub(crate) fn capture(event: &SimEvent<'_, N>) -> Self {
        match *event {
            SimEvent::Inject { source, flit } => OwnedSimEvent::Inject {
                source,
                flit: flit.clone(),
            },
            SimEvent::Forward {
                node,
                flit,
                info,
                copies,
                busy,
            } => OwnedSimEvent::Forward {
                node,
                flit: flit.clone(),
                info,
                copies,
                busy,
            },
            SimEvent::Drop { node, flit, busy } => OwnedSimEvent::Drop {
                node,
                flit: flit.clone(),
                busy,
            },
            SimEvent::Deliver { dest, flit } => OwnedSimEvent::Deliver {
                dest,
                flit: flit.clone(),
            },
            SimEvent::Fault { class, site, flit } => OwnedSimEvent::Fault {
                class,
                site,
                flit: flit.clone(),
            },
        }
    }

    /// The borrowed view observers receive at replay.
    pub(crate) fn as_event(&self) -> SimEvent<'_, N> {
        match self {
            OwnedSimEvent::Inject { source, flit } => SimEvent::Inject {
                source: *source,
                flit,
            },
            OwnedSimEvent::Forward {
                node,
                flit,
                info,
                copies,
                busy,
            } => SimEvent::Forward {
                node: *node,
                flit,
                info: *info,
                copies: *copies,
                busy: *busy,
            },
            OwnedSimEvent::Drop { node, flit, busy } => SimEvent::Drop {
                node: *node,
                flit,
                busy: *busy,
            },
            OwnedSimEvent::Deliver { dest, flit } => SimEvent::Deliver { dest: *dest, flit },
            OwnedSimEvent::Fault { class, site, flit } => SimEvent::Fault {
                class: *class,
                site: *site,
                flit,
            },
        }
    }
}

/// One transition of the (centrally folded) pending-packet table.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PendOp {
    /// A logical packet entered the network.
    Insert {
        logical: u64,
        awaiting: DestSet,
        measured: bool,
    },
    /// A header reached `dest`.
    Deliver { logical: u64, dest: usize },
    /// A packet was discarded at its source (lethal fault).
    Lose { logical: u64, dests: DestSet },
}

/// Everything observable one executed event produced, tagged with its
/// position in the canonical total order.
#[derive(Debug)]
pub(crate) struct EventRecord<N> {
    pub(crate) time: Time,
    pub(crate) key: u64,
    /// The shard's pop counter at this event: orders equal `(time, key)`
    /// pairs, which are always same-shard re-schedules.
    pub(crate) occ: u64,
    pub(crate) obs: Vec<OwnedSimEvent<N>>,
    pub(crate) pend: Vec<PendOp>,
    pub(crate) fault_delta: Option<FaultSummary>,
}

impl<N> EventRecord<N> {
    pub(crate) fn open(time: Time, key: u64, occ: u64) -> Self {
        EventRecord {
            time,
            key,
            occ,
            obs: Vec::new(),
            pend: Vec::new(),
            fault_delta: None,
        }
    }
}

/// The shard-local state a sharded session threads through its hooks.
#[derive(Debug)]
pub(crate) struct ShardState<N> {
    pub(crate) shard: usize,
    pub(crate) partition: Arc<Partition>,
    /// Whether observer events must be buffered (any observer present).
    pub(crate) record_obs: bool,
    /// Events popped so far (the `occ` tag).
    pub(crate) occ: u64,
    /// Events executed before the injection end (never trimmed).
    pub(crate) pre_end_events: u64,
    pub(crate) outbox: Vec<(usize, WireMsg)>,
    pub(crate) records: Vec<EventRecord<N>>,
}

impl<N> ShardState<N> {
    pub(crate) fn new(shard: usize, partition: Arc<Partition>, record_obs: bool) -> Box<Self> {
        Box::new(ShardState {
            shard,
            partition,
            record_obs,
            occ: 0,
            pre_end_events: 0,
            outbox: Vec::new(),
            records: Vec::new(),
        })
    }

    /// The record of the event currently being executed.
    pub(crate) fn open_record(&mut self) -> &mut EventRecord<N> {
        self.records
            .last_mut()
            .expect("an event record is open during dispatch")
    }
}

/// The increments `after` added over `before`, or `None` if nothing
/// fired.
pub(crate) fn summary_delta(before: FaultSummary, after: FaultSummary) -> Option<FaultSummary> {
    if before == after {
        return None;
    }
    Some(FaultSummary {
        stalls: after.stalls - before.stalls,
        corrupted: after.corrupted - before.corrupted,
        stuck: after.stuck - before.stuck,
        drops: after.drops - before.drops,
        lost: after.lost - before.lost,
    })
}

fn summary_add(a: FaultSummary, b: FaultSummary) -> FaultSummary {
    FaultSummary {
        stalls: a.stalls + b.stalls,
        corrupted: a.corrupted + b.corrupted,
        stuck: a.stuck + b.stuck,
        drops: a.drops + b.drops,
        lost: a.lost + b.lost,
    }
}

/// What one finished shard hands to the fold.
pub(crate) struct ShardParts<M: SimModel> {
    pub(crate) records: Vec<EventRecord<M::Node>>,
    pub(crate) pre_end_events: u64,
    pub(crate) throughput: ThroughputCounter,
    pub(crate) flits_throttled: u64,
    pub(crate) flits_delivered: u64,
    /// This shard's profile section, when the run was profiled.
    pub(crate) profile: Option<Box<ShardProfile>>,
    pub(crate) model: M,
}

// ---------------------------------------------------------------------
// The sharded runner
// ---------------------------------------------------------------------

/// [`run`](crate::run), executed across `shards` conservative shards.
///
/// Results — the report, every observer's event stream, and any panic
/// from the delivery audit — are bit-identical to the serial runner's
/// for every shard count, including 1 (which simply delegates to it).
/// Only [`EngineReport::shards`] / [`EngineReport::shard_events`] and
/// the wall-clock time differ.
///
/// # Panics
///
/// As [`run`](crate::run); additionally if a worker thread panics.
pub fn run_sharded<M: ShardModel>(
    model: M,
    traffic: Vec<SourceTraffic>,
    spec: RunSpec,
    shards: usize,
    observers: &mut [&mut dyn Observer<M::Node>],
) -> (EngineReport, M) {
    run_sharded_inner(model, traffic, spec, shards, observers, None)
}

/// [`run_with_faults`](crate::run_with_faults), executed across
/// `shards` conservative shards. The caller's fault table is cloned
/// into every shard; its summary is rewritten afterwards to exactly the
/// counts the serial runner would have accumulated.
///
/// # Panics
///
/// As [`run_sharded`].
pub fn run_sharded_with_faults<M: ShardModel>(
    model: M,
    traffic: Vec<SourceTraffic>,
    spec: RunSpec,
    shards: usize,
    faults: &mut ArmedFaults,
    observers: &mut [&mut dyn Observer<M::Node>],
) -> (EngineReport, M) {
    run_sharded_inner(model, traffic, spec, shards, observers, Some(faults))
}

fn run_sharded_inner<M: ShardModel>(
    mut model: M,
    traffic: Vec<SourceTraffic>,
    spec: RunSpec,
    shards: usize,
    observers: &mut [&mut dyn Observer<M::Node>],
    faults: Option<&mut ArmedFaults>,
) -> (EngineReport, M) {
    let partition = model.partition(shards);
    if partition.shards() <= 1 {
        return match faults {
            None => run(model, traffic, spec, observers),
            Some(faults) => run_with_faults(model, traffic, spec, faults, observers),
        };
    }
    let start = std::time::Instant::now();
    let n = model.endpoints();
    assert_eq!(traffic.len(), n, "one traffic generator per endpoint");
    let shard_count = partition.shards();
    let lookahead = partition.lookahead();
    let injection_end = spec.phases.measurement_end();
    let hard_cap = injection_end + spec.phases.measure() + spec.phases.warmup();
    let queue_capacity = spec
        .queue_capacity
        .unwrap_or_else(|| (model.channel_count() * 2 + n * 4).max(1024));

    let scheduler: ShardedScheduler<Event<M::Node>> =
        ShardedScheduler::new(shard_count, queue_capacity, lookahead);
    let barrier = WindowBarrier::new(shard_count);
    let mailboxes: Mailboxes<WireMsg> = Mailboxes::new(shard_count);
    let partition = Arc::new(partition);
    let record_obs = !observers.is_empty();
    let base_summary = faults.as_deref().map(ArmedFaults::summary);
    let progress = if spec.progress {
        ProgressMeter::stderr(shard_count, PROGRESS_INTERVAL_MS).map(Arc::new)
    } else {
        None
    };

    let parts: Vec<ShardParts<M>> = std::thread::scope(|scope| {
        let handles: Vec<_> = scheduler
            .into_queues()
            .into_iter()
            .enumerate()
            .map(|(shard, queue)| {
                let model = model.clone();
                let traffic = traffic.clone();
                let shard_faults = faults.as_deref().cloned();
                let state = ShardState::new(shard, Arc::clone(&partition), record_obs);
                let barrier = &barrier;
                let mailboxes = &mailboxes;
                let progress = progress.clone();
                scope.spawn(move || {
                    run_shard_worker(
                        model,
                        traffic,
                        spec,
                        shard_faults,
                        state,
                        queue,
                        barrier,
                        mailboxes,
                        injection_end,
                        hard_cap,
                        lookahead,
                        progress,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(parts) => parts,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    if let Some(progress) = &progress {
        progress.finish();
    }

    // ------------------------------------------------------------------
    // The fold: replay the merged record stream in serial order.
    // ------------------------------------------------------------------

    // Merge positions: each shard's records are already sorted, and
    // equal (time, key) pairs never span shards, so a global sort by
    // (time, key, occ) reproduces the serial loop's execution order.
    let mut order: Vec<(u32, u32)> = Vec::new();
    for (si, part) in parts.iter().enumerate() {
        order.extend((0..part.records.len()).map(|ri| (si as u32, ri as u32)));
    }
    order.sort_by_key(|&(si, ri)| {
        let record = &parts[si as usize].records[ri as usize];
        (record.time, record.key, record.occ, si)
    });

    let mut pending: HashMap<u64, Pending, DetHashState> =
        HashMap::with_capacity_and_hasher(n * 16 + 256, DetHashState);
    let mut pending_measured = 0usize;
    let mut latency = latency_reservoir(&traffic, &spec);
    let mut fault_total = base_summary.unwrap_or_default();
    let mut tail_events = vec![0u64; shard_count];
    for &(si, ri) in &order {
        let record = &parts[si as usize].records[ri as usize];
        let time = record.time;
        let drain_tail = spec.drain && time >= injection_end;
        if drain_tail {
            tail_events[si as usize] += 1;
        }
        if record_obs && !record.obs.is_empty() {
            let in_window = spec.phases.in_measurement(time);
            for owned in &record.obs {
                let event = owned.as_event();
                for observer in observers.iter_mut() {
                    observer.on_event(time, in_window, &event);
                }
            }
        }
        for op in &record.pend {
            match *op {
                PendOp::Insert {
                    logical,
                    awaiting,
                    measured,
                } => {
                    pending.insert(
                        logical,
                        Pending {
                            created_at: time,
                            awaiting,
                            measured,
                        },
                    );
                    if measured {
                        pending_measured += 1;
                    }
                }
                PendOp::Deliver { logical, dest } => {
                    if let Some(entry) = pending.get_mut(&logical) {
                        assert!(
                            entry.awaiting.contains(dest),
                            "packet {logical}: duplicate or misrouted header at destination {dest}"
                        );
                        entry.awaiting.remove(dest);
                        if entry.awaiting.is_empty() {
                            let done = pending.remove(&logical).expect("entry present");
                            if done.measured {
                                latency.record(time.saturating_since(done.created_at));
                                pending_measured -= 1;
                            }
                        }
                    } else {
                        panic!(
                            "packet {logical}: header delivered at destination {dest} after \
                             completion — a redundant speculative copy escaped throttling"
                        );
                    }
                }
                PendOp::Lose { logical, dests } => {
                    if let Some(entry) = pending.get_mut(&logical) {
                        for dest in dests.iter() {
                            entry.awaiting.remove(dest);
                        }
                        if entry.awaiting.is_empty() {
                            let done = pending.remove(&logical).expect("entry present");
                            if done.measured {
                                pending_measured -= 1;
                            }
                        }
                    }
                }
            }
        }
        if let Some(delta) = record.fault_delta {
            fault_total = summary_add(fault_total, delta);
        }
        // The serial loop stops at the first post-injection event that
        // leaves no measured packet in flight; trim everything after it.
        if drain_tail && pending_measured == 0 {
            break;
        }
    }

    if let Some(faults) = faults {
        faults.force_summary(fault_total);
    }

    let mut throughput = ThroughputCounter::new(n);
    let mut flits_throttled = 0;
    let mut flits_delivered = 0;
    let mut shard_events = Vec::with_capacity(shard_count);
    let mut shard_models = Vec::with_capacity(shard_count);
    let mut shard_profiles = Vec::new();
    for (si, part) in parts.into_iter().enumerate() {
        throughput.absorb(&part.throughput);
        flits_throttled += part.flits_throttled;
        flits_delivered += part.flits_delivered;
        shard_events.push(part.pre_end_events + tail_events[si]);
        shard_models.push(part.model);
        if let Some(profile) = part.profile {
            shard_profiles.push(*profile);
        }
    }
    model.merge_shards(shard_models);

    let profile = spec.profile.then(|| {
        Box::new(EngineProfile {
            wall_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            lookahead_ps: lookahead.as_ps(),
            shards: shard_profiles,
        })
    });
    let packets_measured = latency.count();
    let report = EngineReport {
        latency,
        throughput: throughput.per_source_gfs(spec.phases.measure()),
        packets_measured,
        packets_incomplete: pending_measured,
        flits_throttled,
        flits_delivered,
        events_processed: shard_events.iter().sum(),
        shards: shard_count,
        shard_events,
        wall: start.elapsed(),
        profile,
    };
    (report, model)
}

/// One shard's worker: the conservative window loop.
///
/// Every shard derives the same window plan from the same barrier-
/// published snapshot, so there is no coordinator thread. Cut-channel
/// messages sent inside a window are stamped at least one lookahead
/// ahead of its start, and are delivered before the window that could
/// execute them — the conservative correctness invariant.
#[allow(clippy::too_many_arguments)]
fn run_shard_worker<M: SimModel>(
    model: M,
    traffic: Vec<SourceTraffic>,
    spec: RunSpec,
    mut faults: Option<ArmedFaults>,
    state: Box<ShardState<M::Node>>,
    queue: CalendarQueue<Event<M::Node>>,
    barrier: &WindowBarrier,
    mailboxes: &Mailboxes<WireMsg>,
    injection_end: Time,
    hard_cap: Time,
    lookahead: Duration,
    progress: Option<Arc<ProgressMeter>>,
) -> ShardParts<M> {
    let shard = state.shard;
    let drain = spec.drain;
    // Window-protocol profiling: barrier waits are the only probes that
    // read the host clock, so they sit behind the sink; the message
    // counters are plain adds on the (cold) per-window path.
    let sink = ProfileSink::new(spec.profile);
    let mut windows = 0u64;
    let mut barrier_wait = HostHistogram::new();
    let mut sent = vec![0u64; mailboxes.shards()];
    let mut received = 0u64;
    let mut mailbox_high_water = 0u64;
    let mut session = Session::build_shard(
        model,
        traffic,
        spec,
        faults.as_mut(),
        state,
        queue,
        progress,
    );
    let mut inbox: Vec<WireMsg> = Vec::new();
    // Publish the local frontier; every shard computes the same global
    // minimum and hence the same next window. `None` means globally
    // idle: the run quiesced.
    loop {
        let wait = sink.start();
        let Some(window_start) = barrier.publish_and_sync(shard, session.peek_time()) else {
            break;
        };
        if let Some(wait) = wait {
            barrier_wait.record(wait.elapsed());
        }
        if !drain && window_start >= injection_end {
            break;
        }
        if window_start > hard_cap {
            break;
        }
        let window_end = if drain {
            // `hard_cap` is inclusive in the serial loop; one extra
            // picosecond makes the exclusive window bound match it.
            (window_start + lookahead).min(hard_cap + Duration::from_ps(1))
        } else {
            (window_start + lookahead).min(injection_end)
        };
        windows += 1;
        session.execute_window(window_end);
        let mut outbox = session.take_outbox();
        for (to, message) in outbox.drain(..) {
            let depth = mailboxes.send(to, message);
            sent[to] += 1;
            mailbox_high_water = mailbox_high_water.max(depth as u64);
        }
        session.restore_outbox(outbox);
        let wait = sink.start();
        barrier.flush_done();
        if let Some(wait) = wait {
            barrier_wait.record(wait.elapsed());
        }
        mailboxes.drain_into(shard, &mut inbox);
        received += inbox.len() as u64;
        for message in inbox.drain(..) {
            session.apply_wire_message(message);
        }
    }
    let mut parts = session.into_shard_parts();
    if let Some(profile) = parts.profile.as_deref_mut() {
        profile.windows = windows;
        profile.barrier_wait = barrier_wait;
        profile.sent = sent;
        profile.received = received;
        profile.mailbox_depth_high_water = mailbox_high_water;
    }
    parts
}
