//! Bounded-memory gate for streaming telemetry: a streamed 64x64 MoT
//! run's peak allocation must be independent of how long the run is.
//!
//! The live-export contract is O(window), not O(events): the stream
//! sink drains every buffer at each flush window, and the engine's
//! latency reservoir is capped (`RunConfig::with_latency_cap`, which
//! library users set for long-lived runs). This binary measures peak
//! heap (via the `CountingAlloc` global allocator) across a short and
//! an 8x-longer streamed run — serial shards, since sharded capture
//! legitimately buffers the event log — and fails when the long run's
//! peak exceeds the short run's by more than a fixed headroom factor.
//! A quotient of two allocation counts, so it holds on any host and in
//! any build profile: it runs under `cargo test --workspace`, without the
//! test harness because it installs the counting allocator and wants no
//! other thread's allocations in the peak.

use std::io::Write;

use asynoc::probe::{peak_bytes, reset_peak_bytes};
use asynoc::telemetry::{LevelSpec, StreamConfig, StreamSink, TimeSeries, WatchConfig};
use asynoc::{
    Architecture, Benchmark, Duration, MotNode, Network, NetworkConfig, Observer, Phases, RunConfig,
};
use asynoc_topology::{FaninNodeId, FanoutNodeId, MotSize};

#[global_allocator]
static GLOBAL: asynoc::probe::CountingAlloc = asynoc::probe::CountingAlloc;

/// The long run may use this much more peak heap than the short one —
/// headroom for event-pool high-water jitter, not for real growth (an
/// O(events) buffer shows up as ~8x).
const HEADROOM: f64 = 1.5;

/// Discards stream bytes but proves the stream was actually written.
struct CountingWriter {
    bytes: &'static std::sync::atomic::AtomicU64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes
            .fetch_add(buf.len() as u64, std::sync::atomic::Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

static STREAM_BYTES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn sink_for(net: &Network, phases: Phases) -> StreamSink<MotNode> {
    let size = net.config().size();
    let n = size.n();
    let levels = size.levels() as usize;
    let mut specs = Vec::with_capacity(2 * levels);
    for level in 0..levels {
        specs.push(LevelSpec {
            label: format!("fanout-L{level}"),
            nodes: n << level,
        });
    }
    for level in 0..levels {
        specs.push(LevelSpec {
            label: format!("fanin-L{level}"),
            nodes: n << level,
        });
    }
    let series = TimeSeries::new(
        asynoc::Duration::from_ns(1000),
        specs,
        Box::new(move |node: MotNode| match node {
            MotNode::Fanout(flat) => Some(FanoutNodeId::from_flat_index(size, flat).level as usize),
            MotNode::Fanin(flat) => {
                Some(levels + FaninNodeId::from_flat_index(size, flat).level as usize)
            }
        }),
    );
    StreamSink::new(
        Box::new(CountingWriter {
            bytes: &STREAM_BYTES,
        }),
        StreamConfig {
            substrate: "mot".to_string(),
            config: asynoc::telemetry::JsonValue::Object(vec![]),
            window: asynoc::Duration::from_ns(1000),
            trace_limit: None,
            watch: WatchConfig::default(),
        },
        phases,
        n,
        series,
        net.site_label(),
    )
    .expect("stream head writes")
}

/// One streamed serial run; returns (peak heap bytes, events, stream bytes).
fn streamed_run(net: &Network, measure_ns: u64) -> (u64, u64, u64) {
    let phases = Phases::new(Duration::from_ns(40), Duration::from_ns(measure_ns));
    let run = RunConfig::new(Benchmark::Multicast5, 0.05)
        .expect("valid run")
        .with_phases(phases)
        .with_shards(1)
        .with_latency_cap(Some(4096));
    let stream_start = STREAM_BYTES.load(std::sync::atomic::Ordering::Relaxed);
    let mut sink = sink_for(net, phases);
    reset_peak_bytes();
    let report = {
        let mut extra: Vec<&mut dyn Observer<MotNode>> = vec![&mut sink];
        net.run_with_observers(&run, &mut extra)
            .expect("run completes")
    };
    let peak = peak_bytes();
    sink.finish(asynoc::telemetry::JsonValue::Object(vec![]))
        .expect("stream closes");
    let written = STREAM_BYTES.load(std::sync::atomic::Ordering::Relaxed) - stream_start;
    (peak, report.events_processed, written)
}

fn main() {
    let size = 64;
    let net = Network::new(NetworkConfig::new(
        MotSize::new(size).expect("64 is a power of two"),
        Architecture::OptHybridSpeculative,
    ))
    .expect("network builds");

    // Warm the allocator and event pool so the measured short run is
    // not charged for one-time growth the long run gets for free.
    let _ = streamed_run(&net, 300);

    let (short_peak, short_events, short_bytes) = streamed_run(&net, 300);
    let (long_peak, long_events, long_bytes) = streamed_run(&net, 2400);
    let ratio = long_peak as f64 / short_peak.max(1) as f64;
    println!(
        "memcheck ({size}x{size} MoT, streamed, serial):\n\
         \x20 short run : {short_events:>9} events, peak {short_peak:>11} B, stream {short_bytes} B\n\
         \x20 long run  : {long_events:>9} events, peak {long_peak:>11} B, stream {long_bytes} B\n\
         \x20 peak ratio: {ratio:.3} (events grew {:.1}x, gate {HEADROOM})",
        long_events as f64 / short_events.max(1) as f64
    );
    assert!(
        long_events > 4 * short_events,
        "long run must process several times more events for the gate to mean anything"
    );
    assert!(
        long_bytes > short_bytes,
        "the longer run must stream more windows"
    );
    if ratio > HEADROOM {
        eprintln!(
            "FAIL: peak allocation grew {ratio:.2}x on an 8x-longer streamed run \
             (> {HEADROOM}); an O(events) buffer is hiding in the live-export path"
        );
        std::process::exit(1);
    }
    println!("OK: streamed peak memory is bounded independent of run length");
}
