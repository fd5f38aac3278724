//! Differential test: the calendar queue must pop the exact same
//! `(time, key, seq)`-ordered stream as the binary heap under randomized
//! workloads, including interleaved pops, duplicate times and keys,
//! clears, gaps on both sides of the wheel's 4 096 ps window, and
//! schedules behind the last popped time.

use asynoc_kernel::{CalendarQueue, Duration, EventQueue, SimRng, Time};

/// Drives both queues through an identical schedule/pop script and
/// asserts every popped `(time, event)` pair matches. Each schedule lands
/// `gap` ahead of the latest popped time, or with probability `behind`
/// up to 2 000 ps before it. The event payload is the global operation
/// index, so a mismatch pinpoints the exact divergent insertion.
fn lockstep(seed: u64, ops: usize, pop_bias: u32, behind: f64, gap: impl Fn(&mut SimRng) -> u64) {
    let mut rng = SimRng::seed_from(seed);
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut calendar: CalendarQueue<u64> = CalendarQueue::new();
    let mut clock = Time::ZERO;
    for op in 0..ops {
        if !heap.is_empty() && rng.chance(f64::from(pop_bias) / 100.0) {
            let h = heap.pop();
            let c = calendar.pop();
            assert_eq!(h, c, "seed {seed} op {op}: pop diverged");
            if let Some((t, _)) = h {
                clock = clock.max(t);
            }
        } else {
            let at = if rng.chance(behind) {
                Time::from_ps(clock.as_ps().saturating_sub(rng.index(2_000) as u64))
            } else {
                clock + Duration::from_ps(gap(&mut rng))
            };
            if rng.chance(0.5) {
                // A caller's key, from few enough values to tie often.
                let key = rng.index(4) as u64;
                heap.schedule_keyed(at, key, op as u64);
                calendar.schedule_keyed(at, key, op as u64);
            } else {
                heap.schedule(at, op as u64);
                calendar.schedule(at, op as u64);
            }
        }
        assert_eq!(heap.len(), calendar.len(), "seed {seed} op {op}: len");
        assert_eq!(
            heap.peek_time(),
            calendar.peek_time(),
            "seed {seed} op {op}: peek_time"
        );
    }
    loop {
        let h = heap.pop();
        let c = calendar.pop();
        assert_eq!(h, c, "seed {seed}: drain diverged");
        if h.is_none() {
            break;
        }
    }
}

/// Uniform gaps below `horizon`, rounded to multiples of 4 ps so that
/// duplicate times are common enough to exercise FIFO ties.
fn uniform(horizon: usize) -> impl Fn(&mut SimRng) -> u64 {
    move |rng| rng.index(horizon) as u64 / 4 * 4
}

#[test]
fn ten_seeds_balanced_workload() {
    for seed in 0..10 {
        lockstep(seed, 20_000, 50, 0.0, uniform(5_000));
    }
}

#[test]
fn push_heavy_workload() {
    for seed in 100..105 {
        lockstep(seed, 30_000, 20, 0.0, uniform(2_000));
    }
}

#[test]
fn pop_heavy_sparse_workload() {
    for seed in 200..205 {
        lockstep(seed, 30_000, 75, 0.0, uniform(50_000));
    }
}

#[test]
fn dense_duplicate_times() {
    // Horizon 4 with /4*4 rounding collapses nearly all gaps to 0,
    // making FIFO tie-breaking carry the whole ordering.
    for seed in 300..305 {
        lockstep(seed, 10_000, 40, 0.0, uniform(4));
    }
}

#[test]
fn gaps_cross_the_window_and_schedules_land_behind_it() {
    // The engine's shape: stage delays of 50–500 ps inside the window,
    // one gap in ten an injection 5–50 ns out in the overflow heap, and
    // now and then a schedule behind the last pop.
    for seed in 400..405 {
        lockstep(seed, 30_000, 50, 0.01, |rng| {
            if rng.chance(0.1) {
                rng.range_inclusive(5_000, 50_000) as u64
            } else {
                rng.range_inclusive(50, 500) as u64 / 10 * 10
            }
        });
    }
}

#[test]
fn clear_preserves_sequence_parity() {
    let mut rng = SimRng::seed_from(42);
    let mut heap: EventQueue<u32> = EventQueue::new();
    let mut calendar: CalendarQueue<u32> = CalendarQueue::new();
    for round in 0..5u32 {
        for i in 0..500 {
            let at = Time::from_ps(rng.index(1_000) as u64);
            heap.schedule(at, round * 1_000 + i);
            calendar.schedule(at, round * 1_000 + i);
        }
        for _ in 0..250 {
            assert_eq!(heap.pop(), calendar.pop());
        }
        heap.clear();
        calendar.clear();
    }
}

#[test]
fn same_instant_bursts_append_walk_and_lead() {
    // Hundreds of events per picosecond, as a 64x64 fabric files them:
    // keys mostly ascending (the slot's tail append), one in ten equal to
    // the last (still an append, behind it), one in ten below it (a walk
    // into the list, or a new head).
    for seed in 500..505 {
        let mut rng = SimRng::seed_from(seed);
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut calendar: CalendarQueue<u64> = CalendarQueue::new();
        let (mut clock, mut key, mut op) = (0u64, 0u64, 0u64);
        for _ in 0..30 {
            for _ in 0..400 {
                let at = Time::from_ps(clock + rng.index(3) as u64);
                key = match rng.index(10) {
                    0 => key,
                    1 => key.saturating_sub(rng.index(600) as u64),
                    _ => key + 1 + rng.index(3) as u64,
                };
                heap.schedule_keyed(at, key, op);
                calendar.schedule_keyed(at, key, op);
                op += 1;
            }
            for _ in 0..300 {
                let popped = heap.pop();
                assert_eq!(popped, calendar.pop(), "seed {seed} op {op}: pop diverged");
                clock = popped.map_or(clock, |(t, _)| t.as_ps());
            }
        }
        while let Some(popped) = heap.pop() {
            assert_eq!(Some(popped), calendar.pop(), "seed {seed}: drain diverged");
        }
        assert!(calendar.is_empty());
    }
}

#[test]
fn clear_forgets_every_slot() {
    // A cleared queue files into the slots it used as if they were new:
    // nothing links behind an entry the clear dropped.
    let mut calendar: CalendarQueue<u32> = CalendarQueue::new();
    for i in 0..8 {
        calendar.schedule_keyed(Time::from_ps(40), u64::from(i), i);
    }
    calendar.clear();
    calendar.schedule_keyed(Time::from_ps(40), 5, 100);
    calendar.schedule_keyed(Time::from_ps(40), 5, 101);
    calendar.schedule_keyed(Time::from_ps(40), 1, 102);
    let order: Vec<_> = std::iter::from_fn(|| calendar.pop())
        .map(|(_, e)| e)
        .collect();
    assert_eq!(order, [102, 100, 101]);
}
