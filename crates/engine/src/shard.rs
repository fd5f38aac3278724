//! Conservative sharded execution with bit-identical observable streams.
//!
//! When a model partitions a run into more than one shard,
//! [`run`](crate::run) hands it to [`run_sharded`]: each shard owns a
//! subset of sources, nodes, sinks, and channels (the [`Partition`] the
//! model computes), runs the serial run's [`Session`] in the [`Shard`]
//! role on an event queue of its own, and synchronises with the other
//! shards in lookahead-bounded time windows (see `asynoc_kernel::sharded`
//! for the window protocol).
//!
//! # Why the results are bit-identical to a serial run
//!
//! Three mechanisms compose:
//!
//! 1. **Canonical event keys.** A serial session and every shard order
//!    simultaneous events by the same `(time, key)` pair (see
//!    `event_key` in the session module), so "which event fires first at
//!    time t" does not depend on which queue holds it.
//! 2. **Conservative windows.** A window never extends past the minimum
//!    cross-shard influence delay (the partition's *lookahead*), and
//!    cut-channel messages are exchanged at every window boundary, so a
//!    shard executes an event only after every message that could
//!    precede it has been delivered. Each shard therefore executes
//!    exactly the serial event sequence restricted to its own entities.
//! 3. **A deterministic fold, as the run goes.** Each shard logs the
//!    observable payload of every interesting event (observer emissions,
//!    pending-packet transitions, fault-summary increments) tagged with
//!    `(time, key, occurrence)` into one flat, reusable [`ShardLog`].
//!    Every [`HANDOFF_WINDOWS`] windows each shard swaps its log into a
//!    slot *before* the window barrier, and shard 0 — the calling
//!    thread, which holds the observers — merges the slots *after* it:
//!    every shard has then executed everything before the window's end,
//!    so those records are final and their `(time, key, occurrence)`
//!    merge is the serial loop's order. The fold replays them into the
//!    serial run's [`Direct`] role — observers, delivery audit, latency —
//!    finds the serial loop's precise drain stopping point and drops
//!    everything logged past it. Shard 0 cannot reach the next barrier
//!    before it has folded, so the barrier is the only synchronisation,
//!    two logs per shard bound the memory, and a streaming observer sees
//!    the run while it happens.
//!
//! Live aggregates that only accumulate inside the measurement window
//! (throughput counters, delivered/throttled flits) are summed directly:
//! workers never overrun *into* the window, only past its end, so those
//! sums are exact without trimming.
//!
//! A shard that panics — in a model's `fire`, or shard 0 in an observer
//! or in the fold's delivery audit — aborts the barrier from a drop
//! guard, the other shards leave their loops as if the run had
//! quiesced, and the first payload is re-raised once all have joined.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{ControlFlow, Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use asynoc_kernel::{
    CalendarQueue, Duration, FaultClass, Mailboxes, ShardedScheduler, Time, WindowBarrier,
};
use asynoc_packet::Flit;
use asynoc_probe::{HostHistogram, ProfileSink, ProgressMeter};
use asynoc_stats::Phases;
use asynoc_traffic::SourceTraffic;

use crate::fault::{ArmedFaults, FaultSummary};
use crate::observer::{ForwardInfo, SimEvent};
use crate::pending::PendOp;
use crate::session::{
    queue_presize, Direct, Event, NodeRef, Part, Role, RunSpec, Session, SimModel,
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

/// Which end of a channel an event executes at.
#[derive(Clone, Copy, Debug)]
pub(crate) enum End {
    /// The launching end, which a free wakes.
    Upstream,
    /// The consuming end, at which a flit arrives.
    Downstream,
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

impl WireMsg {
    /// When the carried event executes on the receiving shard.
    fn at(&self) -> Time {
        match *self {
            WireMsg::Arrive { at, .. } | WireMsg::Free { at, .. } => at,
        }
    }
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

/// The head of one logged event: its position in the canonical total
/// order, and where its payload ends in the log's two arenas (it starts
/// where the previous head's ends).
#[derive(Clone, Copy, Debug)]
struct RecordHead {
    time: Time,
    key: u64,
    /// The shard's pop counter at this event: orders equal `(time, key)`
    /// pairs, which are always same-shard re-schedules.
    occ: u64,
    obs_end: usize,
    pend_end: usize,
    fault_delta: Option<FaultSummary>,
}

/// Everything observable one executed event produced, as the fold reads
/// it back out of a [`ShardLog`].
struct Record<'a, N> {
    time: Time,
    obs: &'a [OwnedSimEvent<N>],
    pend: &'a [PendOp],
    fault_delta: Option<FaultSummary>,
}

/// One shard's observable output since its last hand-off, in execution
/// order: record heads indexing one arena of observer events and one of
/// pending-packet transitions. The log is cleared and reused, never
/// dropped, so an executed event allocates nothing once the arenas have
/// grown to a hand-off interval's worth.
#[derive(Debug)]
pub(crate) struct ShardLog<N> {
    heads: Vec<RecordHead>,
    obs: Vec<OwnedSimEvent<N>>,
    pend: Vec<PendOp>,
}

impl<N> ShardLog<N> {
    pub(crate) fn new() -> Self {
        ShardLog {
            heads: Vec::new(),
            obs: Vec::new(),
            pend: Vec::new(),
        }
    }

    /// Logs an observer event of the event being executed.
    pub(crate) fn push_obs(&mut self, event: OwnedSimEvent<N>) {
        self.obs.push(event);
    }

    /// Logs a pending-packet transition of the event being executed.
    pub(crate) fn push_pend(&mut self, op: PendOp) {
        self.pend.push(op);
    }

    /// Closes the event being executed: everything pushed since the
    /// previous close is its payload. An event that did nothing
    /// observable leaves no record unless `keep` asks for one.
    pub(crate) fn close(
        &mut self,
        time: Time,
        key: u64,
        occ: u64,
        fault_delta: Option<FaultSummary>,
        keep: bool,
    ) {
        let (obs_start, pend_start) = self.ends(self.heads.len());
        if keep
            || fault_delta.is_some()
            || self.obs.len() > obs_start
            || self.pend.len() > pend_start
        {
            self.heads.push(RecordHead {
                time,
                key,
                occ,
                obs_end: self.obs.len(),
                pend_end: self.pend.len(),
                fault_delta,
            });
        }
    }

    /// Where the arenas stand after the first `records` records.
    fn ends(&self, records: usize) -> (usize, usize) {
        match records.checked_sub(1) {
            Some(last) => (self.heads[last].obs_end, self.heads[last].pend_end),
            None => (0, 0),
        }
    }

    fn record(&self, index: usize) -> Record<'_, N> {
        let head = &self.heads[index];
        let (obs_start, pend_start) = self.ends(index);
        Record {
            time: head.time,
            obs: &self.obs[obs_start..head.obs_end],
            pend: &self.pend[pend_start..head.pend_end],
            fault_delta: head.fault_delta,
        }
    }

    /// Position `index`'s sort key in the merged order.
    fn order(&self, index: usize, shard: usize) -> Option<MergeKey> {
        let head = self.heads.get(index)?;
        Some((head.time, head.key, head.occ, shard))
    }

    /// Empties the log, keeping its capacity.
    fn clear(&mut self) {
        self.heads.clear();
        self.obs.clear();
        self.pend.clear();
    }
}

/// `(time, key, occurrence, shard)`: the serial loop's execution order.
type MergeKey = (Time, u64, u64, usize);

/// Visits the records of `logs` in the serial loop's order until `visit`
/// breaks. Each log is already sorted — it is its shard's execution
/// order — and equal `(time, key)` pairs never span shards, so merging
/// by `(time, key, occurrence)` reproduces the order one queue would
/// have popped them in.
fn merge_logs<N, L: Deref<Target = ShardLog<N>>>(
    logs: &[L],
    mut visit: impl FnMut(usize, Record<'_, N>) -> ControlFlow<()>,
) {
    let mut cursor = vec![0usize; logs.len()];
    let mut heads: BinaryHeap<Reverse<MergeKey>> = logs
        .iter()
        .enumerate()
        .filter_map(|(shard, log)| log.order(0, shard).map(Reverse))
        .collect();
    while let Some(Reverse((.., shard))) = heads.pop() {
        // This shard's records run on until they pass the earliest head
        // of any other shard.
        let limit = heads.peek().map(|&Reverse(key)| key);
        loop {
            if visit(shard, logs[shard].record(cursor[shard])).is_break() {
                return;
            }
            cursor[shard] += 1;
            match logs[shard].order(cursor[shard], shard) {
                None => break,
                Some(next) if limit.is_some_and(|limit| next > limit) => {
                    heads.push(Reverse(next));
                    break;
                }
                Some(_) => {}
            }
        }
    }
}

/// One shard's [`Role`]: what its events produce goes into its log for
/// the fold, and the events they schedule on another shard into its
/// outbox for the window loop to deliver.
#[derive(Debug)]
pub(crate) struct Shard<N> {
    shard: usize,
    partition: Arc<Partition>,
    /// Whether observer events must be logged (any observer present).
    record_obs: bool,
    /// The fault table's summary as of the last event.
    faults_seen: FaultSummary,
    /// Events executed before the injection end (never trimmed).
    pre_end_events: u64,
    outbox: Vec<(usize, WireMsg)>,
    log: ShardLog<N>,
}

impl<N: Copy> Role<N> for Shard<N> {
    fn shard(&self) -> usize {
        self.shard
    }

    fn owns_source(&self, source: usize) -> bool {
        self.partition.source_shard(source) == self.shard
    }

    /// A window at a time: the event past `end` stays queued for the
    /// next.
    fn pop(queue: &mut CalendarQueue<Event<N>>, end: Time) -> Option<(Time, Event<N>)> {
        if queue.peek_time()? < end {
            queue.pop()
        } else {
            None
        }
    }

    fn remote(&self, channel: usize, end: End, delay: Duration) -> Option<usize> {
        let owner = match end {
            End::Upstream => self.partition.channel_upstream_shard(channel),
            End::Downstream => self.partition.channel_downstream_shard(channel),
        };
        (owner != self.shard).then(|| {
            debug_assert!(
                delay >= self.partition.lookahead(),
                "a cut-channel delay below the partition's lookahead"
            );
            owner
        })
    }

    fn post(&mut self, to: usize, message: WireMsg) {
        self.outbox.push((to, message));
    }

    fn emit(&mut self, _at: Time, _in_window: bool, event: &SimEvent<'_, N>) {
        if self.record_obs {
            self.log.push_obs(OwnedSimEvent::capture(event));
        }
    }

    /// The packet's destinations may live on other shards, so the fold
    /// applies every shard's transitions in the serial order.
    fn pend(&mut self, _at: Time, op: PendOp) {
        self.log.push_pend(op);
    }

    fn close(
        &mut self,
        at: Time,
        key: u64,
        occ: u64,
        drain_tail: bool,
        faults: Option<&ArmedFaults>,
    ) -> ControlFlow<()> {
        let fault_delta = faults.and_then(|faults| {
            let seen = std::mem::replace(&mut self.faults_seen, faults.summary());
            summary_delta(seen, self.faults_seen)
        });
        // An event that did nothing observable leaves no record — except
        // in the drain tail, where the fold needs every event to find the
        // serial loop's exact stopping point.
        self.log.close(at, key, occ, fault_delta, drain_tail);
        self.pre_end_events += u64::from(!drain_tail);
        ControlFlow::Continue(())
    }
}

/// The increments `after` added over `before`, or `None` if nothing
/// fired.
fn summary_delta(before: FaultSummary, after: FaultSummary) -> Option<FaultSummary> {
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

// ---------------------------------------------------------------------
// The sharded runner
// ---------------------------------------------------------------------

/// Runs one simulation as the shards `partition` names and returns one
/// part per shard, its events those the fold attributes to it, plus
/// `direct` with the fold's replay applied. Shard 0 runs on the calling
/// thread — it holds the observers, so it is the one that can fold — on
/// the caller's model, traffic and fault table; the others run on
/// threads of their own, on copies taken before shard 0 starts. The
/// caller's fault summary is rewritten to the counts the serial run
/// accumulates.
pub(crate) fn run_sharded<'obs, 'run, M: SimModel>(
    model: M,
    traffic: Vec<SourceTraffic>,
    spec: RunSpec,
    partition: Partition,
    mut faults: Option<&mut ArmedFaults>,
    direct: Direct<'obs, 'run, M::Node>,
    progress: Option<Arc<ProgressMeter>>,
) -> (Vec<Part<M>>, Direct<'obs, 'run, M::Node>) {
    let shard_count = partition.shards();
    let lookahead = partition.lookahead();
    let scheduler: ShardedScheduler<Event<M::Node>> = ShardedScheduler::new(
        shard_count,
        queue_presize(model.channel_count(), model.endpoints()),
        lookahead,
    );
    let mut shared = Shared {
        barrier: WindowBarrier::new(shard_count),
        mailboxes: [Mailboxes::new(shard_count), Mailboxes::new(shard_count)],
        slots: (0..shard_count)
            .map(|_| Mutex::new(ShardLog::new()))
            .collect(),
        end: spec.end(),
        lookahead,
        profile: spec.profile,
    };
    let partition = Arc::new(partition);
    let record_obs = !direct.observers.is_empty();
    let faults_seen = faults
        .as_deref()
        .map(ArmedFaults::summary)
        .unwrap_or_default();
    let role = |shard| Shard {
        shard,
        partition: Arc::clone(&partition),
        record_obs,
        faults_seen,
        pre_end_events: 0,
        outbox: Vec::new(),
        log: ShardLog::new(),
    };
    let mut fold = Fold {
        direct,
        phases: spec.phases,
        drain: spec.drain,
        injection_end: spec.phases.measurement_end(),
        fault_total: faults_seen,
        tail_events: vec![0; shard_count],
        done: false,
    };

    let joined = std::thread::scope(|scope| {
        let mut queues = scheduler.into_queues().into_iter().enumerate();
        let (_, queue) = queues.next().expect("a sharded run has shards");
        let handles: Vec<_> = queues
            .map(|(shard, queue)| {
                let (model, traffic, role) = (model.clone(), traffic.clone(), role(shard));
                let mut faults = faults.as_deref().cloned();
                let (shared, progress) = (&shared, progress.clone());
                scope.spawn(move || {
                    run_shard(shared, None, || {
                        Session::new(model, traffic, spec, faults.as_mut(), role, queue, progress)
                    })
                })
            })
            .collect();
        let first = run_shard(&shared, Some(&mut fold), || {
            let faults = faults.as_deref_mut();
            Session::new(model, traffic, spec, faults, role(0), queue, progress)
        });
        let mut joined = vec![Ok(first)];
        joined.extend(handles.into_iter().map(|handle| handle.join()));
        joined
    });
    let (mut parts, mut roles): (Vec<_>, Vec<_>) = joined
        .into_iter()
        .map(|shard| shard.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .unzip();

    // What is left to fold: a hand-off the run ended on before shard 0
    // got to it, then what each shard logged after its last one.
    let mut last_handoff: Vec<_> = shared
        .slots
        .iter_mut()
        .map(|slot| slot.get_mut().unwrap_or_else(PoisonError::into_inner))
        .collect();
    fold.replay(&mut last_handoff);
    let mut tails: Vec<_> = roles.iter_mut().map(|role| &mut role.log).collect();
    fold.replay(&mut tails);
    if let Some(faults) = faults {
        faults.force_summary(fold.fault_total);
    }
    for ((part, role), tail) in parts.iter_mut().zip(&roles).zip(&fold.tail_events) {
        part.events = role.pre_end_events + tail;
    }
    (parts, fold.direct)
}

/// Windows between two hand-offs of the shards' logs to the fold. A
/// constant every shard applies to the window count it derives from the
/// same barrier snapshots, so all agree on the hand-off windows without
/// saying so. It bounds a log at this many windows' events, and is large
/// enough that the slot swap and the merge set-up vanish beside the
/// windows themselves. Must be at least 2: a shard swaps its log into
/// its slot *before* the barrier shard 0 folds *after*, so with 1 the
/// next swap could overtake the fold of the previous one.
const HANDOFF_WINDOWS: u64 = 64;
const _: () = assert!(HANDOFF_WINDOWS >= 2);

/// What the shards of one run share.
struct Shared<N> {
    barrier: WindowBarrier,
    /// Cut-channel messages, one set per window parity.
    mailboxes: [Mailboxes<WireMsg>; 2],
    /// Where shard `s` leaves a finished log for the fold and finds the
    /// emptied one of the hand-off before.
    slots: Vec<Mutex<ShardLog<N>>>,
    /// The run's end ([`RunSpec::end`]): no window reaches past it.
    end: Time,
    lookahead: Duration,
    /// Whether barrier waits are timed for the profile.
    profile: bool,
}

/// A slot's log. Its holders swap, merge and clear — never leave it
/// half-written — and the fold may panic (the delivery audit) with every
/// slot locked, so a poisoned slot is read like any other.
fn lock_slot<N>(slot: &Mutex<ShardLog<N>>) -> MutexGuard<'_, ShardLog<N>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Ends every shard's barrier wait if this shard's loop unwinds.
struct AbortOnUnwind<'a>(&'a WindowBarrier);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

/// The serial run's [`Direct`] role, replayed from the shards' merged
/// logs.
struct Fold<'obs, 'run, N> {
    direct: Direct<'obs, 'run, N>,
    phases: Phases,
    drain: bool,
    injection_end: Time,
    fault_total: FaultSummary,
    /// Drain-tail events per shard, up to the stopping point.
    tail_events: Vec<u64>,
    /// The serial loop's stopping point has been replayed: whatever the
    /// shards log from here on happened in no serial run.
    done: bool,
}

impl<N: Copy> Fold<'_, '_, N> {
    /// Replays `logs` — every record final, i.e. no shard will log an
    /// earlier one — in serial order, and empties them.
    fn replay<L: DerefMut<Target = ShardLog<N>>>(&mut self, logs: &mut [L]) {
        if !self.done {
            merge_logs(logs, |shard, record| self.apply(shard, &record));
        }
        for log in logs {
            log.clear();
        }
    }

    fn replay_slots(&mut self, slots: &[Mutex<ShardLog<N>>]) {
        let mut held: Vec<_> = slots.iter().map(lock_slot).collect();
        self.replay(&mut held);
    }

    fn apply(&mut self, shard: usize, record: &Record<'_, N>) -> ControlFlow<()> {
        let time = record.time;
        let drain_tail = self.drain && time >= self.injection_end;
        if drain_tail {
            self.tail_events[shard] += 1;
        }
        let in_window = self.phases.in_measurement(time);
        for owned in record.obs {
            self.direct.emit(time, in_window, &owned.as_event());
        }
        for &op in record.pend {
            self.direct.pend(time, op);
        }
        if let Some(delta) = record.fault_delta {
            self.fault_total = summary_add(self.fault_total, delta);
        }
        if self.direct.settled(drain_tail) {
            self.done = true;
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }
}

/// One shard: the conservative window loop, one barrier wait per
/// window, around the session `session` builds. `fold` is `Some` on
/// shard 0 alone.
///
/// Every shard derives the same window plan from the same barrier-
/// published snapshot, so there is no coordinator thread. Cut-channel
/// messages sent inside a window are stamped at least one lookahead
/// ahead of its start, and are delivered before the window that could
/// execute them — the conservative correctness invariant. A shard
/// publishes the earliest of its own queue's head and the messages it
/// has just sent: those are in no queue yet, and the minimum over queues
/// plus messages in flight is what the receivers' queues would report
/// once they had drained them.
fn run_shard<'f, M: SimModel>(
    shared: &Shared<M::Node>,
    mut fold: Option<&mut Fold<'_, '_, M::Node>>,
    session: impl FnOnce() -> Session<'f, M, Shard<M::Node>>,
) -> (Part<M>, Shard<M::Node>) {
    let _abort = AbortOnUnwind(&shared.barrier);
    let mut session = session();
    let shard = session.role_mut().shard;
    // Window-protocol profiling: barrier waits are the only probes that
    // read the host clock, so they sit behind the sink; the message
    // counters are plain adds on the (cold) per-window path.
    let sink = ProfileSink::new(shared.profile);
    let mut windows = 0u64;
    let mut barrier_wait = HostHistogram::new();
    let mut sent = vec![0u64; shared.slots.len()];
    let mut received = 0u64;
    let mut mailbox_high_water = 0u64;
    let mut inbox: Vec<WireMsg> = Vec::new();
    // The earliest event this shard sent away in the window just run.
    let mut sent_earliest: Option<Time> = None;
    loop {
        let handoff = windows > 0 && windows.is_multiple_of(HANDOFF_WINDOWS);
        if handoff {
            let log = &mut session.role_mut().log;
            std::mem::swap(&mut *lock_slot(&shared.slots[shard]), log);
        }
        let frontier = [session.peek_time(), sent_earliest]
            .into_iter()
            .flatten()
            .min();
        let wait = sink.start();
        // `None` means globally idle (the run quiesced) or aborted.
        let Some(window_start) = shared.barrier.publish_and_sync(shard, frontier) else {
            break;
        };
        if let Some(wait) = wait {
            barrier_wait.record(wait.elapsed());
        }
        if handoff {
            if let Some(fold) = fold.as_deref_mut() {
                fold.replay_slots(&shared.slots);
            }
        }
        // The messages of the window just run; a faster shard may
        // already be filling the other set with the next window's.
        shared.mailboxes[(windows & 1) as usize].drain_into(shard, &mut inbox);
        received += inbox.len() as u64;
        for message in inbox.drain(..) {
            session.apply_wire_message(message);
        }
        if window_start >= shared.end {
            break;
        }
        windows += 1;
        session.execute((window_start + shared.lookahead).min(shared.end));
        sent_earliest = None;
        for (to, message) in session.role_mut().outbox.drain(..) {
            sent_earliest = Some(sent_earliest.map_or(message.at(), |at| at.min(message.at())));
            let depth = shared.mailboxes[(windows & 1) as usize].send(to, message);
            sent[to] += 1;
            mailbox_high_water = mailbox_high_water.max(depth as u64);
        }
    }
    let (mut part, role) = session.into_part();
    if let Some(profile) = part.profile.as_mut() {
        profile.windows = windows;
        profile.barrier_wait = barrier_wait;
        profile.sent = sent;
        profile.received = received;
        profile.mailbox_depth_high_water = mailbox_high_water;
    }
    (part, role)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A log of payload-free records at the given `(time ps, key, occ)`.
    fn log_of(records: &[(u64, u64, u64)]) -> ShardLog<()> {
        let mut log = ShardLog::new();
        for &(ps, key, occ) in records {
            log.close(Time::from_ps(ps), key, occ, None, true);
        }
        log
    }

    fn merged(logs: &[&ShardLog<()>]) -> Vec<(usize, u64)> {
        let mut order = Vec::new();
        merge_logs(logs, |shard, record| {
            order.push((shard, record.time.as_ps()));
            ControlFlow::Continue(())
        });
        order
    }

    #[test]
    fn merge_orders_by_time_then_key_then_occurrence() {
        // Shard 1 re-scheduled one retry target twice at t = 20: equal
        // (time, key), told apart by the occurrence alone — and both
        // sort between shard 0's smaller and larger keys at that time.
        let a = log_of(&[(10, 7, 1), (20, 3, 2), (20, 9, 3), (30, 1, 4)]);
        let b = log_of(&[(20, 5, 1), (20, 5, 2), (25, 0, 3)]);
        let empty = log_of(&[]);
        assert_eq!(
            merged(&[&a, &empty, &b]),
            [
                (0, 10),
                (0, 20),
                (2, 20),
                (2, 20),
                (0, 20),
                (2, 25),
                (0, 30)
            ]
        );
        assert!(merged(&[&empty, &empty]).is_empty());
    }

    #[test]
    fn merge_yields_each_record_its_own_payload_and_stops_on_break() {
        let mut log: ShardLog<()> = ShardLog::new();
        let op = |logical| PendOp::Deliver { logical, dest: 0 };
        log.push_pend(op(1));
        log.close(Time::from_ps(5), 0, 1, None, false);
        // Nothing observable and not kept: no record.
        log.close(Time::from_ps(6), 0, 2, None, false);
        log.push_pend(op(2));
        log.push_pend(op(3));
        log.close(Time::from_ps(7), 0, 3, None, false);
        log.close(Time::from_ps(8), 0, 4, Some(FaultSummary::default()), false);
        log.close(Time::from_ps(9), 0, 5, None, true);
        let mut seen = Vec::new();
        merge_logs(&[&log], |_, record| {
            let logicals: Vec<u64> = record
                .pend
                .iter()
                .map(|op| match *op {
                    PendOp::Deliver { logical, .. } => logical,
                    _ => unreachable!(),
                })
                .collect();
            seen.push((record.time.as_ps(), logicals, record.fault_delta.is_some()));
            if seen.len() == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(
            seen,
            [
                (5, vec![1], false),
                (7, vec![2, 3], false),
                (8, vec![], true)
            ]
        );
        log.clear();
        assert!(merged(&[&log]).is_empty());
    }
}
