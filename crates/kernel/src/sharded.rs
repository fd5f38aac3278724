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
//! The pieces here are deliberately mechanism-only — partitioning policy
//! (which node lives on which shard, what the lookahead bound is) lives
//! with the models in the upper layers; see `asynoc-engine`'s sharded
//! runner for the event-ordering contract that makes parallel runs
//! bit-identical to serial ones.

use std::sync::{Barrier, Mutex};

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

/// The two-phase window barrier shards synchronise on.
///
/// Each window runs the same globally ordered protocol on every shard:
///
/// 1. execute local events inside the window, sending cross-shard
///    messages into [`Mailboxes`];
/// 2. [`WindowBarrier::flush_done`] — after this, every in-window
///    message has been sent;
/// 3. drain the own mailbox, schedule its messages locally;
/// 4. [`WindowBarrier::publish_and_sync`] — publish the shard's new
///    earliest pending time and learn the global minimum.
///
/// Because the phases are globally ordered by the barrier, every shard
/// computes the *same* global minimum from the same published snapshot,
/// so the next window's bounds can be derived independently on each
/// shard with no coordinator thread.
#[derive(Debug)]
pub struct WindowBarrier {
    barrier: Barrier,
    peeks: Mutex<Vec<Option<Time>>>,
}

impl WindowBarrier {
    /// Creates a barrier synchronising `shards` participants.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        WindowBarrier {
            barrier: Barrier::new(shards),
            peeks: Mutex::new(vec![None; shards]),
        }
    }

    /// Phase barrier after in-window execution and outbox flush: returns
    /// once every shard has sent all its in-window cross-shard messages.
    pub fn flush_done(&self) {
        self.barrier.wait();
    }

    /// Publishes this shard's earliest pending event time (after
    /// draining its inbox) and waits for all shards; returns the global
    /// minimum pending time, or `None` when every shard is idle.
    pub fn publish_and_sync(&self, shard: usize, peek: Option<Time>) -> Option<Time> {
        {
            let mut peeks = self.peeks.lock().expect("peek table poisoned");
            peeks[shard] = peek;
        }
        self.barrier.wait();
        let peeks = self.peeks.lock().expect("peek table poisoned");
        peeks.iter().copied().flatten().min()
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

    #[test]
    fn window_barrier_agrees_on_the_global_minimum() {
        let shards = 4;
        let barrier = WindowBarrier::new(shards);
        let minima = std::thread::scope(|scope| {
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
        });
        assert!(minima.iter().all(|m| *m == Some(Time::from_ps(100))));
    }

    #[test]
    fn window_barrier_reports_global_idle() {
        let barrier = WindowBarrier::new(2);
        let minima = std::thread::scope(|scope| {
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
        });
        assert_eq!(minima, [None, None]);
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
