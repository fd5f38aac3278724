//! The event queue every run schedules on: a picosecond timing wheel
//! (Varghese & Lauck, SOSP 1987).
//!
//! Every node forward, acknowledge and wire flight of a simulated fabric
//! (the paper's fixed per-stage delays, §5.1) lands a few hundred
//! picoseconds ahead; a source's next injection, nanoseconds ahead. So
//! 4 096 one-picosecond slots cover the window `[base, base + 4 096)`,
//! where `base` is the last popped time: an event inside it is filed by
//! its time alone (`time & MASK`), and the earliest is found with
//! `trailing_zeros` on an occupancy bitmap. Events past the window wait
//! in an overflow heap and migrate in as `base` advances. Nothing is
//! calibrated and nothing resizes.
//!
//! # Determinism
//!
//! Events pop in the heap's exact `(time, key, seq)` order (see
//! [`EventQueue`]). A slot's entries share their time; each slot is a list
//! in ascending key order where a new entry goes behind every equal key,
//! so insertion order stands in for `seq`. The slot also knows its last
//! entry, so a key at or above it — the common case when hundreds of
//! events share an instant — appends without walking the list. The
//! overflow heap is an [`EventQueue`] and hands its entries over in order
//! as soon as the window reaches them, before anything can be filed at
//! their time directly. `tests/queue_differential.rs` drives both queues
//! from seeded workloads and asserts identical pop streams.

use asynoc_probe::QueueStats;

use crate::queue::EventQueue;
use crate::time::Time;

/// One-picosecond slots on the wheel: the window ahead of `base` that is
/// filed without the heap. Above every per-stage delay, below a
/// source's injection gap.
const SLOTS: u64 = 4_096;
/// `slot = time & MASK`.
const MASK: usize = SLOTS as usize - 1;
/// Ends a slot's list and the free list.
const NIL: u32 = u32::MAX;

/// One slot's list: its first entry (the next to pop) and its last, as
/// indices into the node arena, or [`NIL`] when the slot is empty. The
/// two ends share a cache line.
#[derive(Clone, Copy, Debug)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY: Slot = Slot {
    head: NIL,
    tail: NIL,
};

#[derive(Clone, Debug)]
struct Node<E> {
    key: u64,
    /// The next entry of the same slot (or of the free list), or [`NIL`].
    next: u32,
    /// `None` while the node sits on the free list.
    event: Option<E>,
}

/// A picosecond timing wheel with `O(1)` operations inside its window and
/// the same deterministic `(time, key, seq)` order as [`EventQueue`].
///
/// # Examples
///
/// ```
/// use asynoc_kernel::{CalendarQueue, Time};
///
/// let mut queue = CalendarQueue::new();
/// queue.schedule(Time::from_ps(5), "b");
/// queue.schedule(Time::from_ps(5), "c");
/// queue.schedule(Time::from_ps(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| queue.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Clone, Debug)]
pub struct CalendarQueue<E> {
    /// The window's first picosecond; no pending event is earlier.
    base: u64,
    /// Each slot's list ends.
    slots: Box<[Slot; SLOTS as usize]>,
    /// Bit `s % 64` of `words[s / 64]` is set iff slot `s` holds an entry.
    words: [u64; SLOTS as usize / 64],
    /// Bit `w` is set iff `words[w]` is non-zero.
    summary: u64,
    /// Every slot's entries, linked through `next`, plus the free list:
    /// one arena, which allocates only when the wheel's population
    /// reaches a new high.
    nodes: Vec<Node<E>>,
    /// Head of the free list through `nodes`.
    free: u32,
    /// Every event at or past `base + SLOTS`.
    overflow: EventQueue<E>,
    /// Pending events, wheel and overflow together.
    len: usize,
    /// Next insertion sequence number (monotonic, survives `clear`): the
    /// key of an unkeyed event.
    next_seq: u64,
    /// Behavior counters ([`CalendarQueue::stats`]); plain adds, always on.
    stats: QueueStats,
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        CalendarQueue::with_capacity(0)
    }

    /// Creates an empty queue with room for about `capacity` pending
    /// events in the wheel and as many in the overflow heap.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        CalendarQueue {
            base: 0,
            slots: Box::new([EMPTY; SLOTS as usize]),
            words: [0; SLOTS as usize / 64],
            summary: 0,
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            overflow: EventQueue::with_capacity(capacity),
            len: 0,
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// The queue's behavior counters so far: inserts, pops, pops served
    /// from the overflow heap, and the depth high-water mark.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events while keeping the sequence counter, so
    /// determinism is preserved across a clear.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.words = [0; SLOTS as usize / 64];
        self.summary = 0;
        self.nodes.clear();
        self.free = NIL;
        self.overflow.clear();
        self.len = 0;
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events scheduled for the same instant fire in the order they were
    /// scheduled, exactly as on [`EventQueue`].
    pub fn schedule(&mut self, time: Time, event: E) {
        // Using the insertion sequence as the key reproduces the classic
        // (time, seq) FIFO order exactly.
        let key = self.next_seq;
        self.schedule_keyed(time, key, event);
    }

    /// Schedules `event` to fire at `time` under an explicit ordering
    /// `key`: simultaneous events pop in ascending `key` order, and
    /// same-key ties fall back to insertion order. See
    /// [`EventQueue::schedule_keyed`].
    pub fn schedule_keyed(&mut self, time: Time, key: u64, event: E) {
        let t = time.as_ps();
        if t < self.base || self.len == 0 {
            // Open the window at the event: the first arrival, or one
            // behind the window (the simulator never schedules into the
            // past, but the queue must not rely on that).
            self.rebase(t);
        }
        self.next_seq += 1;
        self.len += 1;
        self.stats.inserts += 1;
        self.stats.depth_high_water = self.stats.depth_high_water.max(self.len as u64);
        if self.covers(t) {
            self.file(t, key, event);
        } else {
            self.overflow.schedule_keyed(time, key, event);
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_keyed().map(|(time, _, event)| (time, event))
    }

    /// Removes and returns the earliest event with the key it was
    /// scheduled under, or `None` if the queue is empty.
    pub fn pop_keyed(&mut self) -> Option<(Time, u64, E)> {
        if self.summary == 0 {
            // The wheel is empty: jump the window to the overflow's head.
            let next = self.overflow.peek_time()?;
            self.stats.fallback_scans += 1;
            self.advance(next.as_ps());
        }
        let (t, key, event) = self.take_first();
        self.len -= 1;
        self.stats.pops += 1;
        if t != self.base {
            self.advance(t);
        }
        Some((Time::from_ps(t), key, event))
    }

    /// Returns the firing time of the earliest event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<Time> {
        if self.summary == 0 {
            return self.overflow.peek_time();
        }
        Some(Time::from_ps(self.slot_time(self.first_slot())))
    }

    /// Whether `t` falls inside the window (written so that a window
    /// reaching past `u64::MAX` cannot overflow).
    fn covers(&self, t: u64) -> bool {
        t >= self.base && t - self.base < SLOTS
    }

    /// The time of an occupied `slot`: its distance ahead of `base`'s slot.
    fn slot_time(&self, slot: usize) -> u64 {
        self.base + (slot.wrapping_sub(self.base as usize) & MASK) as u64
    }

    /// The first occupied slot at or after `base`'s, wrapping around the
    /// wheel. The wheel must hold an entry.
    fn first_slot(&self) -> usize {
        let from = self.base as usize & MASK;
        let word = from >> 6;
        let here = self.words[word] & (u64::MAX << (from & 63));
        if here != 0 {
            return word << 6 | here.trailing_zeros() as usize;
        }
        let later = self.summary & (u64::MAX << word << 1);
        // No later word: the earliest entry wrapped around below `from`.
        let word = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
        word << 6 | self.words[word].trailing_zeros() as usize
    }

    /// Files an event inside the window into its slot, behind every entry
    /// whose key is not greater.
    fn file(&mut self, t: u64, key: u64, event: E) {
        let node = Node {
            key,
            next: NIL,
            event: Some(event),
        };
        let new = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 events in the wheel")
        } else {
            let new = self.free;
            self.free = std::mem::replace(&mut self.nodes[new as usize], node).next;
            new
        };
        let slot = t as usize & MASK;
        let tail = self.slots[slot].tail;
        if tail == NIL {
            self.slots[slot] = Slot {
                head: new,
                tail: new,
            };
        } else if self.nodes[tail as usize].key <= key {
            self.nodes[tail as usize].next = new;
            self.slots[slot].tail = new;
        } else {
            // Below the last key: walk to the first greater key, which
            // exists, so the new entry is never last.
            let (mut prev, mut next) = (NIL, self.slots[slot].head);
            while next != NIL && self.nodes[next as usize].key <= key {
                prev = next;
                next = self.nodes[next as usize].next;
            }
            self.nodes[new as usize].next = next;
            if prev == NIL {
                self.slots[slot].head = new;
            } else {
                self.nodes[prev as usize].next = new;
            }
        }
        self.words[slot >> 6] |= 1 << (slot & 63);
        self.summary |= 1 << (slot >> 6);
    }

    /// Unlinks the wheel's earliest entry (the wheel must hold one) and
    /// returns its time, key and event.
    fn take_first(&mut self) -> (u64, u64, E) {
        let slot = self.first_slot();
        let index = self.slots[slot].head;
        let freed = Node {
            key: 0,
            next: self.free,
            event: None,
        };
        let node = std::mem::replace(&mut self.nodes[index as usize], freed);
        self.free = index;
        self.slots[slot].head = node.next;
        if node.next == NIL {
            self.slots[slot].tail = NIL;
            self.words[slot >> 6] &= !(1 << (slot & 63));
            if self.words[slot >> 6] == 0 {
                self.summary &= !(1 << (slot >> 6));
            }
        }
        let event = node.event.expect("a linked node holds its event");
        (self.slot_time(slot), node.key, event)
    }

    /// Moves the window to open at `base` — no later than any pending
    /// event — and files every overflow event it now covers.
    fn advance(&mut self, base: u64) {
        self.base = base;
        while let Some(time) = self.overflow.peek_time().filter(|t| self.covers(t.as_ps())) {
            let (_, key, event) = self.overflow.pop_keyed().expect("peeked an event");
            self.file(time.as_ps(), key, event);
        }
    }

    /// Reopens the window at `base`, behind every pending event: the
    /// wheel empties into the overflow heap in pop order (so equal
    /// `(time, key)` entries keep their FIFO) and [`advance`] files back
    /// what the new window covers.
    ///
    /// [`advance`]: CalendarQueue::advance
    #[cold]
    fn rebase(&mut self, base: u64) {
        while self.summary != 0 {
            let (t, key, event) = self.take_first();
            self.overflow.schedule_keyed(Time::from_ps(t), key, event);
        }
        self.advance(base);
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn drain(queue: &mut CalendarQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| queue.pop())
            .map(|(t, e)| (t.as_ps(), e))
            .collect()
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        // Events much farther apart than the window each wait in the
        // overflow heap until the wheel runs dry.
        let mut queue = CalendarQueue::new();
        queue.schedule(Time::from_ps(3), 0);
        queue.schedule(Time::from_ps(1_000_000_000), 1);
        queue.schedule(Time::from_ps(500_000_000_000), 2);
        assert_eq!(
            drain(&mut queue),
            [(3, 0), (1_000_000_000, 1), (500_000_000_000, 2)]
        );
        assert_eq!(queue.stats().fallback_scans, 2);
    }

    #[test]
    fn scheduling_behind_the_scan_is_not_skipped() {
        let mut queue = CalendarQueue::new();
        for i in 0..100u32 {
            queue.schedule(Time::from_ps(1_000 + u64::from(i)), i);
        }
        let _ = queue.pop();
        let _ = queue.pop();
        // Behind the window (the simulator never does this, but the queue
        // must stay correct if a caller does).
        queue.schedule(Time::from_ps(1), 999);
        assert_eq!(queue.pop(), Some((Time::from_ps(1), 999)));
        assert_eq!(queue.pop(), Some((Time::from_ps(1_002), 2)));
    }

    #[test]
    fn the_window_ends_4096_ps_ahead() {
        let mut queue = CalendarQueue::new();
        for (ahead, value) in [(4_096, 2), (0, 0), (4_095, 1), (4_097, 3)] {
            queue.schedule(Time::from_ps(10_000 + ahead), value);
        }
        // The window opened at the first arrival (10 000 + 4 096); the
        // earlier arrival reopened it at 10 000, which leaves exactly
        // 4 096 and 4 097 outside.
        assert_eq!(queue.overflow.len(), 2);
        assert_eq!(queue.peek_time(), Some(Time::from_ps(10_000)));
        assert_eq!(
            drain(&mut queue),
            [(10_000, 0), (14_095, 1), (14_096, 2), (14_097, 3)]
        );
        assert_eq!(queue.stats().fallback_scans, 0);
    }

    #[test]
    fn equal_keys_stay_fifo_across_migration_and_rebase() {
        let mut queue = CalendarQueue::new();
        let at = |t| Time::from_ps(t);
        queue.schedule_keyed(at(0), 0, 0);
        queue.schedule_keyed(at(6_000), 0, 1);
        // Both past the window: they migrate in together, in seq order.
        queue.schedule_keyed(at(10_000), 7, 3);
        queue.schedule_keyed(at(10_000), 7, 4);
        assert_eq!(queue.overflow.len(), 3);
        assert_eq!(queue.pop(), Some((at(0), 0)));
        assert_eq!(queue.pop(), Some((at(6_000), 1)));
        assert!(queue.overflow.is_empty());
        // Filed directly behind the migrated ones; a smaller key ahead.
        queue.schedule_keyed(at(10_000), 7, 5);
        queue.schedule_keyed(at(10_000), 3, 2);
        // Behind the window: the wheel empties into the heap and refills.
        queue.schedule_keyed(at(100), 9, 99);
        assert_eq!(queue.pop(), Some((at(100), 99)));
        let order: Vec<_> = std::iter::from_fn(|| queue.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [2, 3, 4, 5]);
    }

    #[test]
    fn near_max_timestamps_pop_in_order() {
        // Times at the top of the u64 range stress the window arithmetic:
        // `base + SLOTS` would overflow, so the window test subtracts.
        let mut queue = CalendarQueue::new();
        let top = u64::MAX;
        queue.schedule(Time::from_ps(top), 2);
        queue.schedule(Time::from_ps(top - 1), 1);
        queue.schedule(Time::from_ps(top), 3);
        queue.schedule(Time::from_ps(7), 0);
        assert_eq!(
            drain(&mut queue),
            [(7, 0), (top - 1, 1), (top, 2), (top, 3)]
        );
        assert!(queue.is_empty());
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn near_max_timestamps_cross_the_overflow() {
        // A population from the origin to near u64::MAX: the far end
        // waits in the overflow heap and migrates in at the very top.
        let mut queue = CalendarQueue::new();
        let mut expected = Vec::new();
        for i in 0..64u32 {
            let t = u64::MAX - u64::from(i) * 3;
            queue.schedule(Time::from_ps(t), i);
            expected.push((t, i));
        }
        queue.schedule(Time::from_ps(1), 999);
        expected.push((1, 999));
        expected.sort_by_key(|&(t, v)| (t, v));
        assert_eq!(drain(&mut queue), expected);
    }

    #[test]
    fn a_far_burst_mid_drain_keeps_remaining_order() {
        let mut queue = CalendarQueue::new();
        let mut rng = SimRng::seed_from(42);
        for i in 0..4_096u32 {
            queue.schedule(Time::from_ps(rng.index(1 << 20) as u64), i);
        }
        let mut last = 0u64;
        let mut popped = 0usize;
        while let Some((t, _)) = queue.pop() {
            assert!(t.as_ps() >= last, "order broke at event {popped}");
            last = t.as_ps();
            popped += 1;
            if popped == 2_048 {
                // All later than any pending event, so the order
                // assertion stays valid.
                for j in 0..16u32 {
                    queue.schedule(Time::from_ps((1 << 40) + u64::from(j)), 10_000 + j);
                }
            }
        }
        assert_eq!(popped, 4_096 + 16);
        assert!(queue.is_empty());
    }

    #[test]
    fn empty_pop_after_a_dense_instant() {
        // One slot holding 256 events drains to empty; popping again must
        // return None and the queue must stay usable.
        let mut queue = CalendarQueue::new();
        for i in 0..256u32 {
            queue.schedule(Time::from_ps(12_345), i);
        }
        let popped = drain(&mut queue);
        assert_eq!(popped.len(), 256);
        assert!(popped.iter().map(|&(_, e)| e).eq(0..256));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.peek_time(), None);
        queue.schedule(Time::from_ps(99), 1);
        assert_eq!(queue.pop(), Some((Time::from_ps(99), 1)));
    }
}
