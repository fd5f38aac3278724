//! Bounded-memory gates: a streamed 64x64 MoT run's peak allocation,
//! and an 8x8 VC-mesh DPM run's, must be independent of how long the
//! run is.
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
//!
//! The DPM gate holds the VC mesh's multicast planner to the same
//! quotient: its memo is a cache sized once per run, so a planner that
//! kept every plan it ever made shows up as growth with simulated time.
//!
//! The trace gates hold the per-flit trace to it, three ways: a run
//! writing every record to a file (`metrics --trace-out`) holds the
//! sink's drain buffer, not the trace; reading that file back line by
//! line (`read_trace`) holds one line of text beside the records it
//! returns, which are not counted; and analysing it (`asynoc analyze`,
//! in-process) holds the flits in flight, every byte counted — the fold
//! summarises and drops each flit's span tree when its tokens close.

use std::fs::File;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use asynoc::probe::{peak_bytes, reset_peak_bytes};
use asynoc::telemetry::{
    read_trace, LatencyHistograms, Recorder, StreamConfig, StreamSink, TimeSeries, TraceFile,
    TraceMeta, TraceRecord,
};
use asynoc::{drive, Architecture, Benchmark, Duration, Network, NetworkConfig, Phases, RunConfig};
use asynoc_topology::MotSize;
use asynoc_vcmesh::{McastScheme, MeshSize, VcMeshConfig, VcMeshNetwork};

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

/// Peak heap and events of one bare 8x8 DPM run measuring `measure_ns`.
fn dpm_run(net: &VcMeshNetwork, measure_ns: u64) -> (u64, u64) {
    let phases = Phases::new(Duration::from_ns(40), Duration::from_ns(measure_ns));
    reset_peak_bytes();
    let report = net
        .run(Benchmark::Multicast5, 0.1, phases)
        .expect("run completes");
    (peak_bytes(), report.events_processed)
}

/// The DPM gate; `false` when it fails.
fn dpm_peak_is_bounded() -> bool {
    let size = MeshSize::new(8, 8).expect("8x8 is a valid mesh size");
    let net = VcMeshNetwork::new(VcMeshConfig::new(size).with_mcast(McastScheme::Dpm))
        .expect("network builds");
    let _ = dpm_run(&net, 250);
    let (short_peak, short_events) = dpm_run(&net, 250);
    let (long_peak, long_events) = dpm_run(&net, 2000);
    let ratio = long_peak as f64 / short_peak.max(1) as f64;
    println!(
        "memcheck (8x8 VC mesh, dpm):\n\
         \x20 short run : {short_events:>9} events, peak {short_peak:>11} B\n\
         \x20 long run  : {long_events:>9} events, peak {long_peak:>11} B\n\
         \x20 peak ratio: {ratio:.3} (events grew {:.1}x, gate {HEADROOM})",
        long_events as f64 / short_events.max(1) as f64,
    );
    assert!(
        long_events > 4 * short_events,
        "long run must process several times more events for the gate to mean anything"
    );
    if ratio > HEADROOM {
        eprintln!(
            "FAIL: peak allocation grew {ratio:.2}x on an 8x-longer DPM run \
             (> {HEADROOM}); the multicast planner keeps state per plan"
        );
        return false;
    }
    true
}

/// Peak heap of one 8x8 MoT run writing every trace record to `path`,
/// measuring `measure_ns`, and the trace's size in bytes.
fn traced_run(net: &Network, measure_ns: u64, path: &Path) -> (u64, u64) {
    let phases = Phases::new(Duration::from_ns(40), Duration::from_ns(measure_ns));
    let run = RunConfig::new(Benchmark::Multicast10, 0.3)
        .expect("valid run")
        .with_phases(phases);
    let meta = TraceMeta {
        substrate: "mot".to_string(),
        arch: None,
        size: net.config().size().n() as u64,
        seed: 0,
        flits: 5,
        rate: 0.3,
        warmup_ps: phases.warmup().as_ps(),
        measure_ps: phases.measure().as_ps(),
        wire_fj: None,
        drop_fj: None,
        dropped_events: 0,
    };
    let file = File::create(path).expect("a temporary trace file");
    reset_peak_bytes();
    let mut trace = TraceFile::new(file, meta, usize::MAX).expect("the meta line is written");
    {
        let mut recorder = Recorder::new(net.site_of(), vec![&mut trace]);
        drive(net, &run, &mut [&mut recorder], None).expect("run completes");
    }
    trace.finish().expect("the trace closes");
    let peak = peak_bytes();
    (peak, std::fs::metadata(path).expect("the trace file").len())
}

/// Peak heap of reading the trace at `path` line by line, less the
/// records the read returns, and how many there were.
fn parse_excess(path: &Path) -> (u64, usize) {
    let input = BufReader::new(File::open(path).expect("the trace file"));
    reset_peak_bytes();
    let (meta, records, errors) = read_trace(input, false).expect("the trace reads");
    let kept = (records.capacity() * std::mem::size_of::<TraceRecord>()) as u64;
    let excess = peak_bytes().saturating_sub(kept);
    assert!(
        meta.is_some() && errors.is_empty(),
        "the trace parses whole"
    );
    (excess, records.len())
}

/// Peak heap of `asynoc analyze` over the trace at `path`, the whole
/// command in this process: read, fold and report.
fn analyze_peak(path: &Path) -> u64 {
    let line = format!("analyze --trace-in {}", path.display());
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    let command = asynoc_cli::parse(&args).expect("a valid invocation");
    let mut report = Vec::new();
    reset_peak_bytes();
    asynoc_cli::execute(&command, &mut report).expect("the trace analyses");
    let peak = peak_bytes();
    assert!(report.starts_with(b"{"), "the report is a JSON document");
    peak
}

/// The three trace gates; `false` when any fails.
fn trace_io_is_bounded() -> bool {
    let net = Network::new(NetworkConfig::new(
        MotSize::new(8).expect("8 is a power of two"),
        Architecture::OptHybridSpeculative,
    ))
    .expect("network builds");
    let path = |name: &str| -> PathBuf {
        let file = format!("asynoc-memcheck-{}-{name}.ndjson", std::process::id());
        std::env::temp_dir().join(file)
    };
    let (short_path, long_path) = (path("short"), path("long"));
    let _ = traced_run(&net, 500, &short_path);
    let (short_peak, short_bytes) = traced_run(&net, 500, &short_path);
    let (long_peak, long_bytes) = traced_run(&net, 4000, &long_path);
    let _ = parse_excess(&short_path);
    let (short_excess, short_records) = parse_excess(&short_path);
    let (long_excess, long_records) = parse_excess(&long_path);
    let _ = analyze_peak(&short_path);
    let short_analysis = analyze_peak(&short_path);
    let long_analysis = analyze_peak(&long_path);
    let _ = (
        std::fs::remove_file(short_path),
        std::fs::remove_file(long_path),
    );
    let write_ratio = long_peak as f64 / short_peak.max(1) as f64;
    let read_ratio = long_excess as f64 / short_excess.max(1) as f64;
    let analysis_ratio = long_analysis as f64 / short_analysis.max(1) as f64;
    println!(
        "memcheck (8x8 MoT, --trace-out, then read back line by line, then analyze):\n\
         \x20 short run : trace {short_bytes:>10} B, write peak {short_peak:>9} B, \
         {short_records:>7} records read, read peak beyond them {short_excess:>9} B, \
         analyze peak {short_analysis:>9} B\n\
         \x20 long run  : trace {long_bytes:>10} B, write peak {long_peak:>9} B, \
         {long_records:>7} records read, read peak beyond them {long_excess:>9} B, \
         analyze peak {long_analysis:>9} B\n\
         \x20 peak ratios: write {write_ratio:.3}, read {read_ratio:.3}, analyze \
         {analysis_ratio:.3} (trace grew {:.1}x, gate {HEADROOM})",
        long_bytes as f64 / short_bytes.max(1) as f64,
    );
    assert!(
        long_bytes > 4 * short_bytes && short_bytes > 16 * 64 * 1024,
        "both traces must be many drain buffers long, the long one several times the short"
    );
    let mut bounded = true;
    if write_ratio > HEADROOM {
        eprintln!(
            "FAIL: peak allocation grew {write_ratio:.2}x on an 8x-longer traced run \
             (> {HEADROOM}); the trace file sink keeps the trace"
        );
        bounded = false;
    }
    if read_ratio > HEADROOM {
        eprintln!(
            "FAIL: peak allocation beside the records grew {read_ratio:.2}x reading an \
             8x-longer trace (> {HEADROOM}); the trace reader keeps the text"
        );
        bounded = false;
    }
    if analysis_ratio > HEADROOM {
        eprintln!(
            "FAIL: analyze's peak allocation grew {analysis_ratio:.2}x over an 8x-longer \
             trace (> {HEADROOM}); the analysis keeps flit trees past their close"
        );
        bounded = false;
    }
    bounded
}

fn main() {
    let streamed = peak_is_bounded();
    let dpm = dpm_peak_is_bounded();
    let traced = trace_io_is_bounded();
    if !(streamed && dpm && traced) {
        std::process::exit(1);
    }
    println!(
        "OK: streamed, DPM, trace-file and analysis peak memory are bounded independent of \
         run length"
    );
}
