//! Calendar-queue event scheduling.
//!
//! The binary-heap [`EventQueue`](crate::EventQueue) costs `O(log n)` per
//! operation and walks a pointer-hostile implicit tree; once every
//! experiment funnels through one global queue, that logarithm is the
//! simulator's ceiling. A *calendar queue* (Brown, CACM 1988) instead
//! hashes each event by its firing time into one of `n_buckets` time
//! buckets — exactly like writing appointments into a desk calendar with
//! one page per day — and dequeues by scanning forward from the current
//! "day". With the bucket count kept proportional to the population's
//! time span (lazy resize on power-of-two thresholds), both `schedule`
//! and `pop` are amortized `O(1)`.
//!
//! Bucket widths and counts are powers of two, so the entire hot path is
//! shifts, masks, and compares — no division and no wide arithmetic. An
//! event's *day* is `time >> width_shift`; its bucket is `day & mask`.
//!
//! # Determinism
//!
//! [`CalendarQueue`] reproduces the heap's contract exactly: events pop
//! in ascending `(time, key, seq)` order, where `key` is the caller's
//! ordering key ([`CalendarQueue::schedule_keyed`]; plain
//! [`CalendarQueue::schedule`] uses the insertion sequence so the order
//! degenerates to the classic `(time, seq)` FIFO) and `seq` is the
//! insertion sequence number. Two events with equal times always land in
//! the same bucket (the bucket index is a pure function of the time), and
//! each bucket is kept sorted by `(time, key, seq)`, so tie-breaking
//! survives the hashing. The differential tests in
//! `tests/queue_differential.rs` drive both queues from seeded workloads
//! and assert identical pop streams.

use asynoc_probe::QueueStats;

use crate::time::Time;

/// Minimum number of buckets; shrinking stops here.
const MIN_BUCKETS: usize = 16;
/// Grow when pending events exceed `rebuild_len * GROW_FACTOR`.
const GROW_FACTOR: usize = 2;
/// Shrink when pending events drop below `rebuild_len / SHRINK_DIVISOR`
/// (the wide hysteresis band keeps a steady-state simulation from
/// oscillating between sizes, which keeps the hot path allocation-free).
const SHRINK_DIVISOR: usize = 8;
/// Below this bucket count a fruitless full-year scan is answered by the
/// direct search alone — at this size the search costs no more than a
/// heap pop, and skipping the rebuild keeps small steady-state queues
/// (the engine's) from ever touching the allocator mid-run.
const RECALIBRATE_MIN_BUCKETS: usize = 64;
/// Earliest events sampled to calibrate the bucket width on a rebuild.
const WIDTH_SAMPLE: usize = 64;
/// A drained bucket holding more capacity than this (entries) is shrunk
/// back, releasing memory ratcheted up by a one-off burst. Well above
/// any steady-state bucket population (~2–4 entries), so a calibrated
/// queue never touches the allocator here.
const OVERSIZED_BUCKET: usize = 64;

#[derive(Clone, Debug)]
struct Entry<E> {
    time: Time,
    key: u64,
    seq: u64,
    event: E,
}

/// A time-bucketed event queue with `O(1)` amortized operations and the
/// same deterministic `(time, key, seq)` tie-breaking as
/// [`EventQueue`](crate::EventQueue).
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
    /// Each bucket is sorted *descending* by `(time, seq)` so the
    /// earliest entry pops from the end in `O(1)`.
    buckets: Vec<Vec<Entry<E>>>,
    /// `buckets.len() - 1`; the bucket count is a power of two so the
    /// year hash is a mask, not a modulo.
    mask: usize,
    /// Bucket width is `1 << width_shift` picoseconds, so the day of an
    /// event is a shift (`time >> width_shift`), never a division.
    width_shift: u32,
    /// Pending events.
    len: usize,
    /// Next insertion sequence number (monotonic, survives `clear`).
    next_seq: u64,
    /// The day (`time >> width_shift`) the dequeue scan stands on; the
    /// scan never needs to revisit anything earlier.
    cursor_day: u64,
    /// Operations since the last rebuild — the cooldown that keeps
    /// fallback-triggered recalibration amortized `O(1)` (see
    /// [`pop`](CalendarQueue::pop)).
    ops_since_rebuild: usize,
    /// Population at the last rebuild; grow/shrink thresholds anchor to
    /// it rather than to the bucket count, because the bucket count is
    /// capped by the population's time span and may sit far below `len`.
    rebuild_len: usize,
    /// Reused by [`resize`](CalendarQueue::resize) to drain the buckets,
    /// so steady-state rebuilds do not touch the allocator once it has
    /// grown to the population's high-water mark.
    scratch: Vec<Entry<E>>,
    /// Behavior counters ([`CalendarQueue::stats`]); plain adds, always on.
    stats: QueueStats,
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue with the minimum bucket count.
    #[must_use]
    pub fn new() -> Self {
        CalendarQueue::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for about `capacity` pending
    /// events, so the first resize happens past that population.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let n_buckets = capacity.next_power_of_two().max(MIN_BUCKETS);
        CalendarQueue {
            buckets: (0..n_buckets).map(|_| Vec::new()).collect(),
            mask: n_buckets - 1,
            width_shift: 0,
            len: 0,
            next_seq: 0,
            cursor_day: 0,
            ops_since_rebuild: 0,
            rebuild_len: n_buckets,
            scratch: Vec::new(),
            stats: QueueStats::default(),
        }
    }

    /// The queue's behavior counters so far: inserts, pops, resizes,
    /// fallback scans, and the depth high-water mark.
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
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.len = 0;
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events scheduled for the same instant fire in the order they were
    /// scheduled, exactly as on [`EventQueue`](crate::EventQueue).
    pub fn schedule(&mut self, time: Time, event: E) {
        // Using the insertion sequence as the key reproduces the classic
        // (time, seq) FIFO order exactly.
        let key = self.next_seq;
        self.schedule_keyed(time, key, event);
    }

    /// Schedules `event` to fire at `time` under an explicit ordering
    /// `key`: simultaneous events pop in ascending `key` order, and
    /// same-key ties fall back to insertion order. See
    /// [`EventQueue::schedule_keyed`](crate::EventQueue::schedule_keyed).
    pub fn schedule_keyed(&mut self, time: Time, key: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let day = time.as_ps() >> self.width_shift;
        if self.len == 0 || day < self.cursor_day {
            // Point the scan at the event (first arrival, or an event
            // landing behind the scan position — the simulator never
            // schedules into the past, but the queue must not rely on
            // that).
            self.cursor_day = day;
        }
        let bucket = (day as usize) & self.mask;
        let entry = Entry {
            time,
            key,
            seq,
            event,
        };
        // Descending order: find the first element that sorts *before*
        // the new entry and insert ahead of it. Buckets are short on
        // average (a few entries), so this is one or two cache lines.
        let position = self.buckets[bucket]
            .partition_point(|e| (e.time, e.key, e.seq) > (entry.time, entry.key, entry.seq));
        self.buckets[bucket].insert(position, entry);
        self.len += 1;
        self.stats.inserts += 1;
        self.stats.depth_high_water = self.stats.depth_high_water.max(self.len as u64);
        self.ops_since_rebuild += 1;
        if self.len > self.rebuild_len * GROW_FACTOR {
            self.resize();
        }
    }

    /// Locates the next entry without mutating: returns the bucket that
    /// holds it, the day to commit the scan to, and whether the
    /// direct-search fallback was needed.
    fn find_next(&self) -> Option<(usize, u64, bool)> {
        if self.len == 0 {
            return None;
        }
        let mut day = self.cursor_day;
        for _ in 0..self.buckets.len() {
            let bucket = (day as usize) & self.mask;
            if let Some(entry) = self.buckets[bucket].last() {
                // The bucket's minimum is a frontier hit iff it belongs
                // to the scan's current day (entries from future years
                // alias into the same bucket and must wait; past days
                // cannot occur — schedule() drags the cursor back).
                if entry.time.as_ps() >> self.width_shift <= day {
                    return Some((bucket, day, false));
                }
            }
            day = day.saturating_add(1);
        }
        // A whole year scanned with no hit: the queue is sparse relative
        // to its year span. Find the globally earliest entry directly
        // (each bucket's candidate is its last element) and jump the
        // scan to its day. Ties in time cannot span buckets, so
        // comparing (time, key, seq) across candidates stays exact.
        let (bucket, entry) = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(b, bucket)| bucket.last().map(|e| (b, e)))
            .min_by_key(|(_, e)| (e.time, e.key, e.seq))
            .expect("len > 0 means some bucket is non-empty");
        Some((bucket, entry.time.as_ps() >> self.width_shift, true))
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    ///
    /// A fruitless full-year scan means the bucket width no longer fits
    /// the event spacing (e.g. a pre-sized queue whose first population
    /// is far sparser than one event per picosecond-wide bucket). When
    /// the calendar is large enough for that scan to hurt (64+ buckets;
    /// below that a direct search costs no more than a heap pop and a
    /// rebuild would only churn), repeated fallbacks trigger a
    /// rebuild that recalibrates the width — rate-limited to once per
    /// `len` operations so the rebuild cost stays amortized `O(1)`.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let mut found = self.find_next()?;
        if found.2 {
            self.stats.fallback_scans += 1;
            if self.buckets.len() >= RECALIBRATE_MIN_BUCKETS && self.ops_since_rebuild >= self.len {
                self.resize();
                found = self.find_next().expect("resize keeps every event");
            }
        }
        let (bucket, day, _) = found;
        self.cursor_day = day;
        let entry = self.buckets[bucket].pop().expect("find_next found it");
        if self.buckets[bucket].is_empty() && self.buckets[bucket].capacity() > OVERSIZED_BUCKET {
            self.buckets[bucket].shrink_to(OVERSIZED_BUCKET);
        }
        self.len -= 1;
        self.stats.pops += 1;
        self.ops_since_rebuild += 1;
        if self.buckets.len() > MIN_BUCKETS && self.len < self.rebuild_len / SHRINK_DIVISOR {
            self.resize();
        }
        Some((entry.time, entry.event))
    }

    /// Returns the firing time of the earliest event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<Time> {
        self.find_next().map(|(bucket, _, _)| {
            self.buckets[bucket]
                .last()
                .expect("find_next found it")
                .time
        })
    }

    /// Rebuilds the calendar around the current population: the bucket
    /// width tracks the average spacing of pending events (~2–4 events
    /// per bucket, rounded to a power of two) and the bucket count tracks
    /// the population's *time span*, so a year covers the pending window
    /// once or twice over. Capping the count by the span matters when
    /// events are denser than one per picosecond (width clamps to 1):
    /// `len`-proportional sizing would leave most of the ring permanently
    /// empty, wasting memory the dequeue scan then has to walk past.
    fn resize(&mut self) {
        self.stats.resizes += 1;
        let mut entries = std::mem::take(&mut self.scratch);
        debug_assert!(entries.is_empty());
        for bucket in &mut self.buckets {
            entries.append(bucket);
        }
        let (min, max) = entries.iter().fold((u64::MAX, 0u64), |(lo, hi), e| {
            (lo.min(e.time.as_ps()), hi.max(e.time.as_ps()))
        });
        let span = max.saturating_sub(min);
        // Ideal width ≈ 3 × the average spacing *of the earliest events*
        // (the ones the dequeue scan meets next), rounded down to a
        // power of two so day extraction is a shift. Calibrating on the
        // global mean instead is an outlier trap: a handful of
        // far-future events (each source's next injection) stretch the
        // span so far that the dense near-term bulk collapses into a
        // single day — every insert then pays an O(bulk) sorted-Vec
        // shuffle and every bucket's capacity ratchets to the bulk's
        // high-water mark as the day cursor wraps the ring.
        let ideal = if self.len >= 2 {
            let k = self.len.min(WIDTH_SAMPLE);
            let (_, kth, _) = entries.select_nth_unstable_by_key(k - 1, |e| (e.time, e.key, e.seq));
            let near_span = kth.time.as_ps().saturating_sub(min);
            u64::try_from(u128::from(near_span) * 3 / k as u128)
                .unwrap_or(u64::MAX)
                .max(1)
        } else {
            1
        };
        self.width_shift = 63 - ideal.leading_zeros();
        let spanned = usize::try_from((span >> self.width_shift) + 1).unwrap_or(usize::MAX);
        let n_buckets = spanned
            .next_power_of_two()
            .clamp(MIN_BUCKETS, self.len.next_power_of_two().max(MIN_BUCKETS));
        self.mask = n_buckets - 1;
        self.ops_since_rebuild = 0;
        self.rebuild_len = self.len.max(MIN_BUCKETS);
        if self.buckets.len() != n_buckets {
            self.buckets.resize_with(n_buckets, Vec::new);
        }
        for entry in entries.drain(..) {
            let bucket = ((entry.time.as_ps() >> self.width_shift) as usize) & self.mask;
            self.buckets[bucket].push(entry);
        }
        self.scratch = entries;
        for bucket in &mut self.buckets {
            bucket.sort_unstable_by_key(|e| core::cmp::Reverse((e.time, e.key, e.seq)));
        }
        // Re-anchor the scan on the earliest event (or a neutral origin).
        if self.len == 0 {
            self.cursor_day = 0;
        } else {
            let earliest = self
                .buckets
                .iter()
                .filter_map(|b| b.last())
                .map(|e| e.time)
                .min()
                .expect("len > 0");
            self.cursor_day = earliest.as_ps() >> self.width_shift;
        }
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
        // Events much farther apart than a calendar year force the
        // direct-search fallback.
        let mut queue = CalendarQueue::new();
        queue.schedule(Time::from_ps(3), 0);
        queue.schedule(Time::from_ps(1_000_000_000), 1);
        queue.schedule(Time::from_ps(500_000_000_000), 2);
        assert_eq!(
            drain(&mut queue),
            [(3, 0), (1_000_000_000, 1), (500_000_000_000, 2)]
        );
    }

    #[test]
    fn scheduling_behind_the_scan_is_not_skipped() {
        let mut queue = CalendarQueue::new();
        for i in 0..100u32 {
            queue.schedule(Time::from_ps(1_000 + u64::from(i)), i);
        }
        let _ = queue.pop();
        let _ = queue.pop();
        // Behind the scan position (the simulator never does this, but
        // the queue must stay correct if a caller does).
        queue.schedule(Time::from_ps(1), 999);
        assert_eq!(queue.pop(), Some((Time::from_ps(1), 999)));
    }

    #[test]
    fn near_max_timestamps_pop_in_order() {
        // Times at the top of the u64 range stress the day arithmetic:
        // `day.saturating_add(1)` in the scan, the span subtraction in
        // resize, and the u128 width computation must all stay exact.
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
    fn near_max_timestamps_survive_a_resize() {
        // Enough population to cross the grow threshold while the span
        // stretches from the origin to near u64::MAX, forcing the widest
        // possible bucket width during recalibration.
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
    fn resize_mid_drain_keeps_remaining_order() {
        // Fill well past the grow threshold, then drain: the shrink
        // rebuild fires while events are still pending, and the
        // remaining stream must stay sorted across the rebuild.
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
                // Mid-drain, force a recalibration by scheduling a burst
                // far outside the current year span (all later than any
                // pending event, so the order assertion stays valid).
                for j in 0..16u32 {
                    queue.schedule(Time::from_ps((1 << 40) + u64::from(j)), 10_000 + j);
                }
            }
        }
        assert_eq!(popped, 4_096 + 16);
        assert!(queue.is_empty());
    }

    #[test]
    fn empty_pop_after_span_capped_resize() {
        // A dense population (span 0: all events at one instant) caps the
        // bucket count at MIN_BUCKETS during resize; draining to empty
        // and popping again must return None, not scan garbage.
        let mut queue = CalendarQueue::new();
        for i in 0..256u32 {
            queue.schedule(Time::from_ps(12_345), i);
        }
        let popped = drain(&mut queue);
        assert_eq!(popped.len(), 256);
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.peek_time(), None);
        // The queue stays usable after the empty pop.
        queue.schedule(Time::from_ps(99), 1);
        assert_eq!(queue.pop(), Some((Time::from_ps(99), 1)));
    }
}
