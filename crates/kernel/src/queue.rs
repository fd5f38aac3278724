//! Deterministic event queue.
//!
//! The simulator's correctness argument (and every regression test) relies on
//! bit-identical replay: the same seed must produce the same flit trace. A
//! plain `BinaryHeap<(Time, E)>` breaks ties by comparing `E`, which both
//! constrains the event type and makes ordering depend on payload contents.
//! [`EventQueue`] instead tags every insertion with a monotonically
//! increasing sequence number, so simultaneous events pop in exactly the
//! order they were scheduled (FIFO), independent of payload.
//!
//! Every entry also carries a caller-supplied *key*
//! ([`EventQueue::schedule_keyed`]): the queue's total order is
//! `(time, key, seq)`. Plain [`EventQueue::schedule`] uses the
//! insertion sequence as the key, which degenerates to the classic
//! `(time, seq)` FIFO order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use asynoc_probe::QueueStats;

use crate::time::Time;

/// A time-ordered event queue with FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use asynoc_kernel::{EventQueue, Time};
///
/// let mut queue = EventQueue::new();
/// queue.schedule(Time::from_ps(5), "b");
/// queue.schedule(Time::from_ps(5), "c");
/// queue.schedule(Time::from_ps(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| queue.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    stats: QueueStats,
}

#[derive(Clone, Debug)]
struct Entry<E> {
    time: Time,
    key: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest
        // (time, key, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// Creates an empty queue with space for `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// The queue's behavior counters so far: inserts, pops, and the
    /// depth high-water mark (fallback scans stay 0).
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events scheduled for the same instant fire in the order they were
    /// scheduled.
    pub fn schedule(&mut self, time: Time, event: E) {
        // Using the insertion sequence as the key reproduces the classic
        // (time, seq) FIFO order exactly.
        let key = self.next_seq;
        self.schedule_keyed(time, key, event);
    }

    /// Schedules `event` to fire at `time` under an explicit ordering
    /// `key`: simultaneous events pop in ascending `key` order, and
    /// same-key ties fall back to insertion order.
    ///
    /// Keys give the pop order a meaning that is independent of *when*
    /// the events were inserted.
    pub fn schedule_keyed(&mut self, time: Time, key: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            key,
            seq,
            event,
        });
        self.stats.inserts += 1;
        self.stats.depth_high_water = self.stats.depth_high_water.max(self.heap.len() as u64);
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_keyed().map(|(time, _, event)| (time, event))
    }

    /// Removes and returns the earliest event with the key it was
    /// scheduled under, or `None` if the queue is empty.
    pub(crate) fn pop_keyed(&mut self) -> Option<(Time, u64, E)> {
        let popped = self
            .heap
            .pop()
            .map(|entry| (entry.time, entry.key, entry.event));
        self.stats.pops += popped.is_some() as u64;
        popped
    }

    /// Returns the firing time of the earliest event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|entry| entry.time)
    }

    /// Returns the number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events while keeping the sequence counter, so
    /// determinism is preserved across a clear.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(queue: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| queue.pop())
            .map(|(t, e)| (t.as_ps(), e))
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut queue = EventQueue::new();
        queue.schedule(Time::from_ps(30), 3);
        queue.schedule(Time::from_ps(10), 1);
        queue.schedule(Time::from_ps(20), 2);
        assert_eq!(drain(&mut queue), [(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut queue = EventQueue::new();
        for value in 0..100 {
            queue.schedule(Time::from_ps(7), value);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| queue.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_does_not_remove() {
        let mut queue = EventQueue::new();
        queue.schedule(Time::from_ps(4), 'x');
        assert_eq!(queue.peek_time(), Some(Time::from_ps(4)));
        assert_eq!(queue.len(), 1);
        assert_eq!(queue.pop(), Some((Time::from_ps(4), 'x')));
        assert_eq!(queue.peek_time(), None);
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut queue = EventQueue::new();
        assert!(queue.is_empty());
        queue.schedule(Time::ZERO, ());
        queue.schedule(Time::ZERO, ());
        assert_eq!(queue.len(), 2);
        queue.clear();
        assert!(queue.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut queue = EventQueue::new();
        queue.schedule(Time::from_ps(10), 1);
        queue.schedule(Time::from_ps(5), 0);
        assert_eq!(queue.pop(), Some((Time::from_ps(5), 0)));
        queue.schedule(Time::from_ps(7), 2);
        queue.schedule(Time::from_ps(10), 3);
        assert_eq!(drain(&mut queue), [(7, 2), (10, 1), (10, 3)]);
    }

    #[test]
    fn keys_order_simultaneous_events_insertion_breaks_key_ties() {
        let mut queue = EventQueue::new();
        queue.schedule_keyed(Time::from_ps(5), 9, "z");
        queue.schedule_keyed(Time::from_ps(5), 2, "b2");
        queue.schedule_keyed(Time::from_ps(5), 2, "b1");
        queue.schedule_keyed(Time::from_ps(5), 1, "a");
        queue.schedule_keyed(Time::from_ps(1), 100, "first");
        let order: Vec<_> = std::iter::from_fn(|| queue.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["first", "a", "b2", "b1", "z"]);
    }

    #[test]
    fn fifo_survives_clear() {
        let mut queue = EventQueue::new();
        queue.schedule(Time::from_ps(1), 0);
        queue.clear();
        queue.schedule(Time::from_ps(1), 1);
        queue.schedule(Time::from_ps(1), 2);
        assert_eq!(drain(&mut queue), [(1, 1), (1, 2)]);
    }
}
