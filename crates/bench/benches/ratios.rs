//! The four speed claims that are quotients taken inside one process,
//! and therefore hold still on a host whose speed does not:
//!
//! - the calendar queue is ≥ 1.3× its binary-heap reference under the
//!   uniform hold model at depth 4096;
//! - it is ≥ 1.8× the heap under an engine-shaped hold: depth 64, every
//!   gap one of the fabric's stage delays or, one time in 20, a source's
//!   next injection;
//! - a profiled run (`RunConfig::with_profile`, the CLI's `--profile`)
//!   costs ≤ 1.05× the bare run;
//! - a run threading a disarmed fault table costs ≤ 1.05× a run with none.
//!
//! Each is judged on the median of [`ROUNDS`] paired-round quotients
//! (`asynoc_bench::ratio`). Every absolute time — ns per event, per hold,
//! per record — is `benchmark/run.sh`'s to report, with host-speed scaling
//! behind it. This is a bench target and not a test because a debug build
//! measures a different program (profile overhead 1.10×, calendar 4.2×).
//!
//! `cargo bench -p asynoc-bench --bench ratios` takes no arguments and
//! exits non-zero when a gate fails.

use std::hint::black_box;

use asynoc::{drive, Architecture, Benchmark, Duration, Network, NetworkConfig, Phases, RunConfig};
use asynoc_bench::ratio::{paired_rounds, quartiles, Bound};
use asynoc_engine::ArmedFaults;
use asynoc_kernel::{CalendarQueue, EventQueue, SimRng, Time};

/// Paired rounds per gate. In a noisy quarter-hour single quotients of the
/// two ≤ 1.05 gates spread ±0.05, so 40 rounds left the median ±0.02 —
/// within reach of the bound from the disarmed hooks' true 1.02; 100 halve
/// that.
const ROUNDS: usize = 100;

/// The deep operating point of engine runs (a 64×64 substrate keeps a few
/// thousand events pending), and still cache-resident: past ~10⁵ pending
/// events both queues wait on DRAM and the quotient measures the memory
/// system.
const HOLD_DEPTH: usize = 4_096;
const HOLD_OPS: u64 = 400_000;

/// An 8×8 run's queue depth (Multicast10 at 0.4 GF/s reads a
/// `depth_high_water` of 71).
const ENGINE_DEPTH: usize = 64;
const ENGINE_OPS: u64 = 2_000_000;
/// `TimingModel::calibrated`'s delays in ps: a throttle's acknowledge,
/// the source cycle, speculative forward + wire, a cycle floor, the sink
/// acknowledge, baseline and non-speculative forward + wire, and the
/// non-speculative forward + acknowledge.
const STAGE_DELAYS_PS: [u64; 8] = [80, 100, 112, 150, 251, 323, 359, 461];
/// A source's mean injection gap at 0.4 GF/s and five flits per packet.
const INJECTION_GAP: Duration = Duration::from_ps(12_500);

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

/// Uniform gaps up to the depth keep the pending-event density near one
/// per picosecond.
fn uniform_gap(rng: &mut SimRng) -> u64 {
    rng.range_inclusive(50, HOLD_DEPTH) as u64
}

/// A stage delay, or one time in 20 an exponential injection gap.
fn engine_gap(rng: &mut SimRng) -> u64 {
    if rng.index(20) == 0 {
        rng.exponential(INJECTION_GAP).as_ps()
    } else {
        STAGE_DELAYS_PS[rng.index(STAGE_DELAYS_PS.len())]
    }
}

/// One hold-model pass (Vaucher & Duval): pre-fill to `depth`, then `ops`
/// times pop the earliest event and schedule a replacement `gap` ahead,
/// then drain. Gap sampling is seeded, so both queue types see the
/// identical event sequence.
fn hold<Q: HoldQueue>(depth: usize, ops: u64, gap: fn(&mut SimRng) -> u64) -> u64 {
    let mut rng = SimRng::seed_from(depth as u64);
    let mut queue = Q::with_capacity(depth);
    for i in 0..depth {
        queue.schedule(Time::from_ps(gap(&mut rng)), i as u64);
    }
    let mut checksum = 0u64;
    for _ in 0..ops {
        let (time, payload) = queue.pop().expect("hold keeps the queue full");
        checksum = checksum.wrapping_add(time.as_ps()).wrapping_add(payload);
        queue.schedule(time + Duration::from_ps(gap(&mut rng)), payload);
    }
    while let Some((time, _)) = queue.pop() {
        checksum = checksum.wrapping_add(time.as_ps());
    }
    checksum
}

/// Paired heap / calendar rounds of one hold workload, after an untimed
/// pass in which the two queues must agree on the identical event
/// sequence.
fn hold_quotients(depth: usize, ops: u64, gap: fn(&mut SimRng) -> u64) -> Vec<f64> {
    assert_eq!(
        hold::<EventQueue<u64>>(depth, ops, gap),
        hold::<CalendarQueue<u64>>(depth, ops, gap),
        "the queues diverged on the same event sequence"
    );
    paired_rounds(
        ROUNDS,
        || {
            black_box(hold::<EventQueue<u64>>(depth, ops, gap));
        },
        || {
            black_box(hold::<CalendarQueue<u64>>(depth, ops, gap));
        },
    )
}

/// Prints one gate's quartiles and verdict.
fn judge(name: &str, bound: Bound, quotients: &[f64]) -> bool {
    let (q1, median, q3) = quartiles(quotients);
    let pass = bound.holds(median);
    println!(
        "{name:<44} median {median:.3}  quartiles {q1:.3}-{q3:.3}  {bound:?}  {}",
        if pass { "ok" } else { "FAIL" }
    );
    pass
}

fn main() {
    println!("ratios: median of {ROUNDS} paired-round quotients per gate");

    let uniform = hold_quotients(HOLD_DEPTH, HOLD_OPS, uniform_gap);
    let engine_shaped = hold_quotients(ENGINE_DEPTH, ENGINE_OPS, engine_gap);

    let network = Network::new(
        NetworkConfig::eight_by_eight(Architecture::BasicHybridSpeculative).with_seed(3),
    )
    .expect("valid config");
    let bare = RunConfig::new(Benchmark::Multicast10, 0.3)
        .expect("positive rate")
        .with_phases(Phases::new(Duration::from_ns(40), Duration::from_ns(3_200)));
    let profiled = bare.clone().with_profile(true);
    let events = network.run(&bare).expect("run succeeds").events_processed;
    let run_bare = || {
        black_box(network.run(&bare).expect("run succeeds"));
    };

    let profile = paired_rounds(
        ROUNDS,
        || {
            let report = network.run(&profiled).expect("run succeeds");
            assert!(report.profile.is_some(), "profile was collected");
            assert_eq!(report.events_processed, events);
            black_box(report);
        },
        run_bare,
    );
    let disarmed = paired_rounds(
        ROUNDS,
        || {
            let mut faults = ArmedFaults::new();
            let report = drive(&network, &bare, &mut [], Some(&mut faults)).expect("run succeeds");
            assert_eq!(report.events_processed, events);
            black_box(report);
        },
        run_bare,
    );

    let gates = [
        judge(
            &format!("heap / calendar, hold model at depth {HOLD_DEPTH}"),
            Bound::AtLeast(1.3),
            &uniform,
        ),
        judge(
            &format!("heap / calendar, engine-shaped at depth {ENGINE_DEPTH}"),
            Bound::AtLeast(1.8),
            &engine_shaped,
        ),
        judge("profiled run / bare run", Bound::AtMost(1.05), &profile),
        judge(
            "disarmed fault hooks / none",
            Bound::AtMost(1.05),
            &disarmed,
        ),
    ];
    if gates.contains(&false) {
        std::process::exit(1);
    }
}
