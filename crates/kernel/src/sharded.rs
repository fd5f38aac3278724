//! Cross-shard plumbing for conservative parallel simulation.
//!
//! A sharded run partitions the simulated system into `S` shards, each
//! owning one [`CalendarQueue`] and executing events in lock-step time
//! windows of width `lookahead` — the minimum delay any event on one
//! shard needs before it can affect another shard. Inside a window each
//! shard runs completely independently; influence that crosses a shard
//! boundary travels through a [`Mailboxes`] slot and is delivered at the
//! window barrier, always stamped at least `lookahead` into the future,
//! so no shard ever receives an event earlier than its own frontier.
//! This is classic conservative (Chandy–Misra style) synchronisation
//! with a global window instead of per-link null messages.
//!
//! # One wait per window
//!
//! After executing window `r` a shard sends its cross-shard messages
//! into the [`Mailboxes`] set of parity `r & 1`, publishes the earliest
//! time it knows of — its own queue's head *or* a message it just sent,
//! whichever is sooner — through [`WindowBarrier::publish_and_sync`],
//! and only then drains the parity-`r` mailboxes. The minimum over
//! queues plus messages in flight is the number a second barrier (send,
//! wait, drain, publish, wait) would have produced from the drained
//! queues, so the window sequence is the same and one wait is saved.
//! What makes it safe is that the barrier lets a shard get at most one
//! round ahead of another: a fast shard may already be sending window
//! `r + 1`'s messages while a slow one is still draining window `r`'s,
//! and the two parities keep them apart; the same argument covers the
//! barrier's two frontier tables.
//!
//! The pieces here are deliberately mechanism-only — partitioning policy
//! (which node lives on which shard, what the lookahead bound is) lives
//! with the models in the upper layers; see `asynoc-engine`'s sharded
//! runner for the event-ordering contract that makes parallel runs
//! bit-identical to serial ones.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::calendar::CalendarQueue;
use crate::time::{Duration, Time};

/// One mailbox per shard: unbounded, mutex-guarded message vectors.
///
/// Senders append under the destination shard's lock; the owner swaps
/// the vector out at a window boundary ([`Mailboxes::drain_into`]), so
/// steady-state traffic reuses the two vectors' capacity and the lock is
/// held only for a pointer swap on the receive side.
///
/// # Examples
///
/// ```
/// use asynoc_kernel::Mailboxes;
///
/// let boxes: Mailboxes<u32> = Mailboxes::new(2);
/// boxes.send(1, 7);
/// let mut inbox = Vec::new();
/// boxes.drain_into(1, &mut inbox);
/// assert_eq!(inbox, [7]);
/// ```
#[derive(Debug)]
pub struct Mailboxes<M> {
    boxes: Vec<Mutex<Vec<M>>>,
}

impl<M> Mailboxes<M> {
    /// Creates one empty mailbox per shard.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Mailboxes {
            boxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Number of shards (mailboxes).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.boxes.len()
    }

    /// Appends `message` to shard `to`'s mailbox and returns the
    /// mailbox's depth after the append — the sender's view of how far
    /// behind the receiver is, which the profiler turns into a
    /// high-water mark.
    pub fn send(&self, to: usize, message: M) -> usize {
        let mut boxed = self.boxes[to].lock().expect("mailbox poisoned");
        boxed.push(message);
        boxed.len()
    }

    /// Moves every pending message for `shard` into `inbox` (appending),
    /// leaving the mailbox empty but with its capacity intact.
    pub fn drain_into(&self, shard: usize, inbox: &mut Vec<M>) {
        let mut boxed = self.boxes[shard].lock().expect("mailbox poisoned");
        if inbox.is_empty() {
            // Steady state: swap the empty inbox in so neither side
            // reallocates.
            std::mem::swap(&mut *boxed, inbox);
        } else {
            inbox.append(&mut boxed);
        }
    }
}

/// Each shard's published frontier, one table per round parity.
///
/// A shard that has left round `r`'s wait may publish round `r + 1`'s
/// frontier before a slower shard has read round `r`'s minimum; it
/// cannot reach round `r + 2` until that shard has arrived at round
/// `r + 1`, so two tables are enough for the slower reader never to see
/// a value from the wrong round.
#[derive(Debug)]
struct Frontiers {
    tables: [Vec<Option<Time>>; 2],
}

impl Frontiers {
    fn new(shards: usize) -> Self {
        Frontiers {
            tables: [vec![None; shards], vec![None; shards]],
        }
    }

    fn publish(&mut self, round: u64, shard: usize, peek: Option<Time>) {
        self.tables[(round & 1) as usize][shard] = peek;
    }

    /// The earliest frontier published for `round`, or `None` when
    /// every shard reported idle.
    fn minimum(&self, round: u64) -> Option<Time> {
        self.tables[(round & 1) as usize]
            .iter()
            .copied()
            .flatten()
            .min()
    }
}

/// What the barrier's mutex guards.
#[derive(Debug)]
struct Rendezvous {
    arrived: usize,
    /// Completed waits; its parity selects the frontier table.
    round: u64,
    aborted: bool,
    frontiers: Frontiers,
}

/// The window barrier shards synchronise on: one wait per window.
///
/// [`publish_and_sync`](WindowBarrier::publish_and_sync) publishes the
/// caller's frontier, waits for every shard, and returns the global
/// minimum. Every shard reads the *same* minimum from the same published
/// snapshot, so the next window's bounds are derived independently on
/// each shard with no coordinator thread.
///
/// Unlike [`std::sync::Barrier`] the wait can be abandoned:
/// [`abort`](WindowBarrier::abort) releases every current and future
/// waiter with `None` — the answer an idle system gives, so a shard's
/// loop ends the way it ends a finished run — and a shard that panics
/// calls it from a drop guard, instead of leaving the others parked for
/// ever.
#[derive(Debug)]
pub struct WindowBarrier {
    shards: usize,
    state: Mutex<Rendezvous>,
    released: Condvar,
}

impl WindowBarrier {
    /// Creates a barrier synchronising `shards` participants.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        WindowBarrier {
            shards,
            state: Mutex::new(Rendezvous {
                arrived: 0,
                round: 0,
                aborted: false,
                frontiers: Frontiers::new(shards),
            }),
            released: Condvar::new(),
        }
    }

    /// Every update under the lock is a complete step (a counter, a
    /// flag, one table slot), so the state a panicking holder leaves
    /// behind is valid — and [`abort`](WindowBarrier::abort) runs while
    /// a thread unwinds, where a second panic would end the process.
    fn lock(&self) -> MutexGuard<'_, Rendezvous> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arrives at the current round and waits until every shard has (or
    /// the barrier is aborted). Hands the lock back, so the caller reads
    /// the round's table under the acquisition the wake-up already paid
    /// for.
    fn arrive<'a>(&'a self, mut state: MutexGuard<'a, Rendezvous>) -> MutexGuard<'a, Rendezvous> {
        let round = state.round;
        state.arrived += 1;
        if state.arrived == self.shards {
            state.arrived = 0;
            state.round += 1;
            self.released.notify_all();
        }
        while state.round == round && !state.aborted {
            state = self
                .released
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state
    }

    /// A plain wait: returns once every shard has called it (or the
    /// barrier was aborted). The engine's window loop no longer calls
    /// this — it waits once per window, in
    /// [`publish_and_sync`](WindowBarrier::publish_and_sync); what still
    /// does is the stand-alone benchmark's barrier round-trip adapter
    /// (`benchmark/layers`), which times it together with that call.
    pub fn flush_done(&self) {
        drop(self.arrive(self.lock()));
    }

    /// Publishes this shard's frontier — the earliest time at which it
    /// holds an event or has sent one to another shard — and waits for
    /// all shards; returns the global minimum, or `None` when every
    /// shard is idle or the barrier was aborted.
    pub fn publish_and_sync(&self, shard: usize, peek: Option<Time>) -> Option<Time> {
        let mut state = self.lock();
        let round = state.round;
        state.frontiers.publish(round, shard, peek);
        let state = self.arrive(state);
        if state.aborted {
            return None;
        }
        // This round's table is not written again until every shard,
        // this one included, has arrived at the next round.
        state.frontiers.minimum(round)
    }

    /// Abandons the barrier: every shard waiting now or later leaves at
    /// once (`publish_and_sync` returns `None`). Safe to call from a
    /// destructor of an unwinding thread; idempotent.
    pub fn abort(&self) {
        self.lock().aborted = true;
        self.released.notify_all();
    }
}

/// Constructor for a sharded run's event queues: one [`CalendarQueue`]
/// per shard plus the window width (`lookahead`) that bounds how far a
/// window may extend before cross-shard influence must be exchanged.
///
/// The engine moves each queue into its worker thread via
/// [`ShardedScheduler::into_queues`]; this type exists so the
/// pre-sizing and lookahead are decided in one place.
///
/// # Examples
///
/// ```
/// use asynoc_kernel::{Duration, ShardedScheduler};
///
/// let sched: ShardedScheduler<&str> =
///     ShardedScheduler::new(4, 256, Duration::from_ps(500));
/// assert_eq!(sched.shards(), 4);
/// assert_eq!(sched.lookahead(), Duration::from_ps(500));
/// assert_eq!(sched.into_queues().len(), 4);
/// ```
#[derive(Debug)]
pub struct ShardedScheduler<E> {
    queues: Vec<CalendarQueue<E>>,
    lookahead: Duration,
}

impl<E> ShardedScheduler<E> {
    /// Creates `shards` queues, each pre-sized for about
    /// `capacity` pending events, with the given window `lookahead`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `lookahead` is zero — a zero-width
    /// window can never advance.
    #[must_use]
    pub fn new(shards: usize, capacity: usize, lookahead: Duration) -> Self {
        assert!(shards > 0, "a sharded scheduler needs at least one shard");
        assert!(
            lookahead > Duration::ZERO,
            "zero lookahead cannot advance time"
        );
        ShardedScheduler {
            queues: (0..shards)
                .map(|_| CalendarQueue::with_capacity(capacity))
                .collect(),
            lookahead,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The window width: the minimum cross-shard influence delay.
    #[must_use]
    pub fn lookahead(&self) -> Duration {
        self.lookahead
    }

    /// Consumes the scheduler, yielding one queue per shard to move into
    /// the worker threads.
    #[must_use]
    pub fn into_queues(self) -> Vec<CalendarQueue<E>> {
        self.queues
    }
}

/// Runs `body` on a thread of its own and returns its result, or
/// panics once `secs` seconds have passed without one.
///
/// A window protocol that loses a wake-up does not fail, it hangs; every
/// test in the workspace that runs more than one shard goes through
/// here, so that such a bug fails the suite instead of stalling it. A
/// panic inside `body` is re-raised unchanged. The thread of a run that
/// did hang is left behind — it cannot be cancelled — which is why the
/// closure must own what it uses.
///
/// # Panics
///
/// On expiry, and with `body`'s own payload if it panics.
pub fn with_deadline<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        // The receiver is gone only after the deadline panicked.
        let _ = done.send(body());
    });
    match result.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(value) => value,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("no result within {secs} s: the sharded run hung")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("the worker sends before it returns"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailboxes_deliver_to_the_right_shard() {
        let boxes: Mailboxes<(usize, u32)> = Mailboxes::new(3);
        assert_eq!(boxes.shards(), 3);
        boxes.send(0, (0, 1));
        boxes.send(2, (2, 2));
        boxes.send(2, (2, 3));
        let mut inbox = Vec::new();
        boxes.drain_into(2, &mut inbox);
        assert_eq!(inbox, [(2, 2), (2, 3)]);
        inbox.clear();
        boxes.drain_into(1, &mut inbox);
        assert!(inbox.is_empty());
        boxes.drain_into(0, &mut inbox);
        assert_eq!(inbox, [(0, 1)]);
    }

    #[test]
    fn drain_appends_when_inbox_is_non_empty() {
        let boxes: Mailboxes<u32> = Mailboxes::new(1);
        boxes.send(0, 9);
        let mut inbox = vec![1];
        boxes.drain_into(0, &mut inbox);
        assert_eq!(inbox, [1, 9]);
        // Drained mailbox is empty again.
        boxes.drain_into(0, &mut inbox);
        assert_eq!(inbox, [1, 9]);
    }

    /// Every test that waits on a barrier runs under a deadline.
    const DEADLINE_S: u64 = 30;

    #[test]
    fn window_barrier_agrees_on_the_global_minimum() {
        let minima = with_deadline(DEADLINE_S, || {
            let shards = 4;
            let barrier = WindowBarrier::new(shards);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..shards)
                    .map(|shard| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            barrier.flush_done();
                            let peek = if shard == 2 {
                                None // idle shard
                            } else {
                                Some(Time::from_ps(100 + shard as u64 * 10))
                            };
                            barrier.publish_and_sync(shard, peek)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panic"))
                    .collect::<Vec<_>>()
            })
        });
        assert!(minima.iter().all(|m| *m == Some(Time::from_ps(100))));
    }

    #[test]
    fn window_barrier_reports_global_idle() {
        let minima = with_deadline(DEADLINE_S, || {
            let barrier = WindowBarrier::new(2);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|shard| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            barrier.flush_done();
                            barrier.publish_and_sync(shard, None)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panic"))
                    .collect::<Vec<_>>()
            })
        });
        assert_eq!(minima, [None, None]);
    }

    /// A shard that is one round ahead writes the other parity's table,
    /// so what a slower shard reads for its own round does not move.
    #[test]
    fn a_shard_one_round_ahead_never_changes_what_a_slower_shard_reads() {
        let mut frontiers = Frontiers::new(2);
        for round in 0..6u64 {
            let at = |ps| Some(Time::from_ps(1_000 * round + ps));
            frontiers.publish(round, 0, at(300));
            frontiers.publish(round, 1, at(200));
            assert_eq!(frontiers.minimum(round), at(200));
            // Shard 0 has left the wait and already published the next
            // round — an earlier time, and then an idle one.
            frontiers.publish(round + 1, 0, Some(Time::from_ps(1)));
            assert_eq!(frontiers.minimum(round), at(200));
            frontiers.publish(round + 1, 0, None);
            assert_eq!(frontiers.minimum(round), at(200));
        }
    }

    /// The same property through the barrier itself: whichever shard the
    /// host lets run ahead, both read each round's own minimum.
    #[test]
    fn the_barrier_keeps_rounds_apart() {
        let (first, second) = with_deadline(DEADLINE_S, || {
            let barrier = WindowBarrier::new(2);
            std::thread::scope(|scope| {
                let ahead = scope.spawn(|| {
                    let first = barrier.publish_and_sync(0, Some(Time::from_ps(50)));
                    let second = barrier.publish_and_sync(0, Some(Time::from_ps(7)));
                    (first, second)
                });
                let first = barrier.publish_and_sync(1, Some(Time::from_ps(40)));
                let second = barrier.publish_and_sync(1, Some(Time::from_ps(90)));
                assert_eq!(ahead.join().expect("no panic"), (first, second));
                (first, second)
            })
        });
        assert_eq!(first, Some(Time::from_ps(40)));
        assert_eq!(second, Some(Time::from_ps(7)));
    }

    /// Two mailbox sets, indexed by window parity: a fast shard's
    /// window-`r + 1` messages are in flight while the slow shard drains
    /// window `r`, and must wait for their own round.
    #[test]
    fn messages_of_a_window_are_never_drained_a_round_early() {
        const ROUNDS: u64 = 8;
        with_deadline(DEADLINE_S, || {
            let barrier = WindowBarrier::new(2);
            let sets: [Mailboxes<u64>; 2] = [Mailboxes::new(2), Mailboxes::new(2)];
            let (sent, sent_seen) = std::sync::mpsc::channel();
            std::thread::scope(|scope| {
                // The fast shard: sends window r's message, waits, and
                // goes straight on to window r + 1's.
                scope.spawn(|| {
                    for round in 0..ROUNDS {
                        sets[(round & 1) as usize].send(1, round);
                        sent.send(round).expect("receiver alive");
                        barrier.publish_and_sync(0, Some(Time::from_ps(round)));
                    }
                });
                // The slow shard drains window r only after the fast one
                // has sent window r + 1.
                let mut inbox = Vec::new();
                for round in 0..ROUNDS {
                    barrier.publish_and_sync(1, Some(Time::from_ps(round)));
                    if round + 1 < ROUNDS {
                        while sent_seen.recv().expect("sender alive") != round + 1 {}
                    }
                    sets[(round & 1) as usize].drain_into(1, &mut inbox);
                    assert_eq!(inbox, [round], "round {round}");
                    inbox.clear();
                }
            });
        });
    }

    #[test]
    fn abort_releases_current_and_later_waiters() {
        with_deadline(DEADLINE_S, || {
            let barrier = WindowBarrier::new(3);
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| barrier.publish_and_sync(0, Some(Time::from_ps(5))));
                // Whether the waiter has parked yet or not, the flag is
                // sticky: it leaves with `None` either way.
                barrier.abort();
                assert_eq!(waiter.join().expect("no panic"), None);
            });
            assert_eq!(barrier.publish_and_sync(1, Some(Time::from_ps(9))), None);
            barrier.flush_done();
            barrier.abort();
        });
    }

    #[test]
    fn a_deadline_passes_results_and_panics_through() {
        assert_eq!(with_deadline(DEADLINE_S, || 6 * 7), 42);
        let caught = std::panic::catch_unwind(|| with_deadline(DEADLINE_S, || panic!("inner")));
        let payload = caught.expect_err("the panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"inner"));
    }

    #[test]
    #[should_panic(expected = "no result within 0 s")]
    fn a_deadline_expires() {
        let (_hold, parked) = std::sync::mpsc::channel::<()>();
        let _ = with_deadline(0, move || parked.recv());
    }

    #[test]
    fn sharded_scheduler_hands_out_queues() {
        let sched: ShardedScheduler<u32> = ShardedScheduler::new(3, 16, Duration::from_ps(42));
        assert_eq!(sched.shards(), 3);
        assert_eq!(sched.lookahead(), Duration::from_ps(42));
        let mut queues = sched.into_queues();
        assert_eq!(queues.len(), 3);
        queues[1].schedule(Time::from_ps(5), 1);
        assert_eq!(queues[1].pop(), Some((Time::from_ps(5), 1)));
        assert!(queues[0].is_empty() && queues[2].is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _: ShardedScheduler<()> = ShardedScheduler::new(0, 0, Duration::from_ps(1));
    }

    #[test]
    #[should_panic(expected = "zero lookahead")]
    fn zero_lookahead_rejected() {
        let _: ShardedScheduler<()> = ShardedScheduler::new(1, 0, Duration::ZERO);
    }
}
