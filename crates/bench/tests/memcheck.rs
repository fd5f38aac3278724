//! Bounded-memory gate for streaming telemetry: a streamed 64x64 MoT
//! run's peak allocation must be independent of how long the run is.
//!
//! The live-export contract is O(window), not O(events): the stream
//! sink drains every buffer at each flush window, and the engine's own
//! latency statistic is a fixed-size histogram. This binary measures
//! peak heap (via the `CountingAlloc` global allocator) across a short
//! and an 8x-longer streamed run, and fails when the long run's peak
//! exceeds the short run's by more than a fixed headroom factor.
//! A quotient of two allocation counts, so it holds on any host and in
//! any build profile: it runs under `cargo test --workspace`, without the
//! test harness because it installs the counting allocator and wants no
//! other thread's allocations in the peak.
//!
//! The long run also proves the stream is live: its first `window`
//! record must be written in the first half of the run's wall time.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use asynoc::probe::{peak_bytes, reset_peak_bytes};
use asynoc::telemetry::{LatencyHistograms, Recorder, StreamConfig, StreamSink, TimeSeries};
use asynoc::{drive, Architecture, Benchmark, Duration, Network, NetworkConfig, Phases, RunConfig};
use asynoc_topology::MotSize;

#[global_allocator]
static GLOBAL: asynoc::probe::CountingAlloc = asynoc::probe::CountingAlloc;

/// The long run may use this much more peak heap than the short one —
/// headroom for event-queue high-water jitter, not for real growth (an
/// O(events) buffer shows up as ~8x).
const HEADROOM: f64 = 1.5;

/// Flush window and series bin: a twelfth of the long run, so that its
/// first `window` record is due well inside the first half.
const WINDOW_NS: u64 = 200;

/// Discards stream bytes but proves the stream was actually written,
/// and notes when the first `window` record went by.
struct CountingWriter {
    started: Instant,
}

static STREAM_BYTES: AtomicU64 = AtomicU64::new(0);
/// Nanoseconds from the writer's creation to its first `window` record
/// (0: none yet).
static FIRST_WINDOW_NS: AtomicU64 = AtomicU64::new(0);

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        STREAM_BYTES.fetch_add(buf.len() as u64, Ordering::Relaxed);
        if FIRST_WINDOW_NS.load(Ordering::Relaxed) == 0 && buf.starts_with(b"{\"type\":\"window\"")
        {
            let elapsed = self.started.elapsed().as_nanos().max(1);
            FIRST_WINDOW_NS.store(elapsed as u64, Ordering::Relaxed);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The pair a streamed run keeps, binned by the flush window.
fn collectors_for(net: &Network, phases: Phases) -> (LatencyHistograms, TimeSeries) {
    (
        LatencyHistograms::new(phases, net.config().size().n()),
        TimeSeries::new(Duration::from_ns(WINDOW_NS), net.levels()),
    )
}

fn sink_over<'a>(latency: &'a mut LatencyHistograms, series: &'a mut TimeSeries) -> StreamSink<'a> {
    StreamSink::new(
        Box::new(CountingWriter {
            started: Instant::now(),
        }),
        StreamConfig {
            substrate: "mot".to_string(),
            config: asynoc::telemetry::JsonValue::Object(vec![]),
            window: Duration::from_ns(WINDOW_NS),
            trace_limit: None,
        },
        latency,
        series,
    )
    .expect("stream head writes")
}

/// What one streamed run cost and did.
struct Streamed {
    peak_bytes: u64,
    events: u64,
    stream_bytes: u64,
    /// When the first `window` record was written, as a share of the
    /// run's wall time.
    first_window_share: f64,
}

fn streamed_run(net: &Network, measure_ns: u64) -> Streamed {
    let phases = Phases::new(Duration::from_ns(40), Duration::from_ns(measure_ns));
    let run = RunConfig::new(Benchmark::Multicast5, 0.05)
        .expect("valid run")
        .with_phases(phases);
    let stream_start = STREAM_BYTES.load(Ordering::Relaxed);
    FIRST_WINDOW_NS.store(0, Ordering::Relaxed);
    let started = Instant::now();
    let (mut latency, mut series) = collectors_for(net, phases);
    let mut sink = sink_over(&mut latency, &mut series);
    reset_peak_bytes();
    let report = {
        let mut recorder = Recorder::new(net.site_of(), vec![&mut sink]);
        drive(net, &run, &mut [&mut recorder], None).expect("run completes")
    };
    let peak_bytes = peak_bytes();
    let wall_ns = started.elapsed().as_nanos().max(1) as f64;
    sink.finish(
        asynoc::telemetry::JsonValue::Object(vec![]),
        report.packets_incomplete,
    )
    .expect("stream closes");
    Streamed {
        peak_bytes,
        events: report.events_processed,
        stream_bytes: STREAM_BYTES.load(Ordering::Relaxed) - stream_start,
        first_window_share: FIRST_WINDOW_NS.load(Ordering::Relaxed) as f64 / wall_ns,
    }
}

/// The gate; `false` when it fails.
fn peak_is_bounded() -> bool {
    let size = 64;
    let net = Network::new(NetworkConfig::new(
        MotSize::new(size).expect("64 is a power of two"),
        Architecture::OptHybridSpeculative,
    ))
    .expect("network builds");

    // Warm the allocator and the event queue so the measured short run is
    // not charged for one-time growth the long run gets for free.
    let _ = streamed_run(&net, 300);

    let short = streamed_run(&net, 300);
    let long = streamed_run(&net, 2400);
    let ratio = long.peak_bytes as f64 / short.peak_bytes.max(1) as f64;
    println!(
        "memcheck ({size}x{size} MoT, streamed):\n\
         \x20 short run : {:>9} events, peak {:>11} B, stream {} B\n\
         \x20 long run  : {:>9} events, peak {:>11} B, stream {} B\n\
         \x20 peak ratio: {ratio:.3} (events grew {:.1}x, gate {HEADROOM}); \
         first window record at {:.0} % of the long run",
        short.events,
        short.peak_bytes,
        short.stream_bytes,
        long.events,
        long.peak_bytes,
        long.stream_bytes,
        long.events as f64 / short.events.max(1) as f64,
        100.0 * long.first_window_share,
    );
    assert!(
        long.events > 4 * short.events,
        "long run must process several times more events for the gate to mean anything"
    );
    assert!(
        long.stream_bytes > short.stream_bytes,
        "the longer run must stream more windows"
    );
    if ratio > HEADROOM {
        eprintln!(
            "FAIL: peak allocation grew {ratio:.2}x on an 8x-longer streamed run \
             (> {HEADROOM}); an O(events) buffer is hiding in the live-export path"
        );
        return false;
    }
    if !(long.first_window_share > 0.0 && long.first_window_share < 0.5) {
        eprintln!(
            "FAIL: the first window record was written {:.0} % into the run; the \
             stream is not live",
            100.0 * long.first_window_share
        );
        return false;
    }
    true
}

fn main() {
    if !peak_is_bounded() {
        std::process::exit(1);
    }
    println!("OK: streamed peak memory is bounded independent of run length");
}
