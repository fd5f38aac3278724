//! The zero-allocation guarantee of the trace write path.
//!
//! Like `crates/engine/tests/zero_alloc.rs`, this test runs with
//! `harness = false` and owns the whole process, so every count of the
//! probe crate's counting allocator is attributable to the code between
//! two snapshots.
//!
//! Two sinks write trace records, each registered with the [`Recorder`]
//! that builds an event's record. Each hands its records in batches to a
//! writer thread of its own, which renders a record's line into one text
//! buffer that it drains into the output whenever it passes 64 KiB,
//! capacity kept, and keeps no table of labels to warm up (a site is
//! rendered digit by digit per record). The batches come back emptied.
//! Once the batches and the buffer have their working size, further
//! traced events must not touch the allocator at all, on either thread
//! (the count is the process's):
//!
//! - `--stream --stream-trace`: a [`StreamSink`] is warm after its first
//!   drain, once its own ledgers have reached their in-flight high-water
//!   mark and a window flush has built its `window` record.
//! - `--trace-out`: a [`TraceFile`] is warm after its first drain.

use std::rc::Rc;

use asynoc_engine::probe::{allocations, CountingAlloc};
use asynoc_engine::{ForwardInfo, Observer, SimEvent};
use asynoc_kernel::{Duration, Time};
use asynoc_packet::{DestSet, Flit, PacketDescriptor, PacketId, RouteSymbol};
use asynoc_stats::Phases;
use asynoc_telemetry::{
    JsonValue, LatencyHistograms, LevelSpec, Recorder, Site, SiteOf, Stage, StreamConfig,
    StreamSink, TimeSeries, TraceFile, TraceMeta,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ENDPOINTS: usize = 8;
const NODES: usize = 24;
const PACKETS: u64 = 64;
/// One simulated-time window, ps: far wider than a window's events, so
/// each window's events share one time-series bin.
const WINDOW_PS: u64 = 1_000_000;
/// Where the run starts: late enough that every timestamp of the test
/// has the same number of digits, so equal windows render equal bytes.
const START_PS: u64 = 1_000_000_000;

fn site_of() -> SiteOf<usize> {
    Rc::new(|node| Site::Fanout {
        tree: node % ENDPOINTS,
        level: (node / ENDPOINTS) as u32,
        index: node % 2,
    })
}

/// One round: every packet is injected, forwarded by a routing and by an
/// arbitrating node, and delivered — four traced events each, leaving
/// nothing in flight. Returns the time after the last event.
fn round(observer: &mut dyn Observer<usize>, flits: &[Flit], mut at: u64) -> u64 {
    for (k, flit) in flits.iter().enumerate() {
        let events = [
            SimEvent::Inject {
                source: k % ENDPOINTS,
                flit,
            },
            SimEvent::Forward {
                node: k % NODES,
                flit,
                info: ForwardInfo::Routed(RouteSymbol::Both),
                copies: 1,
                busy: Duration::from_ps(52),
            },
            SimEvent::Forward {
                node: (k + 7) % NODES,
                flit,
                info: ForwardInfo::Arbitrated { input: k % 2 },
                copies: 1,
                busy: Duration::from_ps(160),
            },
            SimEvent::Deliver {
                dest: (k + 3) % ENDPOINTS,
                flit,
            },
        ];
        for event in &events {
            observer.on_event(Time::from_ps(at), true, event);
            at += 1;
        }
    }
    at
}

fn main() {
    let flits: Vec<Flit> = (0..PACKETS)
        .map(|id| {
            let descriptor = PacketDescriptor::new(
                PacketId::new(id),
                id as usize % ENDPOINTS,
                DestSet::unicast((id as usize + 3) % ENDPOINTS),
                1,
                Time::from_ps(START_PS),
            );
            Flit::new(descriptor, 0)
        })
        .collect();
    const ROUNDS: u64 = 40;
    let records_per_window = ROUNDS * PACKETS * 4;

    // `--stream --stream-trace`.
    let window = Duration::from_ps(WINDOW_PS);
    let phases = Phases::new(Duration::ZERO, Duration::from_ps(u64::MAX / 2));
    let mut latency = LatencyHistograms::new(phases, ENDPOINTS);
    let mut series = TimeSeries::new(
        window,
        (0..3)
            .map(|level| LevelSpec {
                stage: Stage::Fanout(level),
                nodes: ENDPOINTS,
            })
            .collect(),
    );
    let mut sink = StreamSink::new(
        Box::new(std::io::sink()),
        StreamConfig {
            substrate: "mot".to_string(),
            config: JsonValue::Null,
            window,
            trace_limit: Some(usize::MAX),
        },
        &mut latency,
        &mut series,
    )
    .expect("the head record is written");
    let mut recorder = Recorder::new(site_of(), vec![&mut sink]);
    // Four windows warm the sink up; the fifth is the one held to zero.
    let mut in_window = [u64::MAX; 5];
    for (window, count) in in_window.iter_mut().enumerate() {
        let mut at = START_PS + window as u64 * WINDOW_PS;
        // The window's first event flushes the one before (which builds
        // the `window` record's tree), and its first round refills what
        // the flush drained. Everything after that is steady state.
        at = round(&mut recorder, &flits, at);
        let before = allocations();
        for _ in 1..ROUNDS {
            at = round(&mut recorder, &flits, at);
        }
        *count = allocations() - before;
    }
    let summary = sink
        .finish(JsonValue::Object(Vec::new()), 0)
        .expect("the stream closes");
    // The empty windows before `START_PS`, then the five driven here.
    assert_eq!(summary.windows, START_PS / WINDOW_PS + 5);
    assert_eq!(summary.watchpoints, 0);
    assert_eq!(
        in_window[4],
        0,
        "heap allocations per window {in_window:?}: the last, over {} traced events of a \
         warmed-up stream, must make none",
        records_per_window - PACKETS * 4
    );

    // `--trace-out`, into a file: two rounds take the buffer past its
    // 64 KiB drain point, and every round after them is steady state.
    let path =
        std::env::temp_dir().join(format!("asynoc-zero-alloc-{}.ndjson", std::process::id()));
    let file = std::fs::File::create(&path).expect("a temporary trace file");
    let meta = TraceMeta {
        substrate: "mot".to_string(),
        arch: None,
        size: ENDPOINTS as u64,
        seed: 0,
        flits: 1,
        rate: 0.1,
        warmup_ps: 0,
        measure_ps: u64::MAX / 2,
        wire_fj: None,
        drop_fj: None,
        dropped_events: 0,
    };
    let mut trace = TraceFile::new(file, meta, usize::MAX).expect("the meta line is written");
    let mut recorder = Recorder::new(site_of(), vec![&mut trace]);
    let mut at = START_PS;
    for _ in 0..2 {
        at = round(&mut recorder, &flits, at);
    }
    let before = allocations();
    for _ in 2..5 * ROUNDS {
        at = round(&mut recorder, &flits, at);
    }
    let drained = allocations() - before;
    trace.finish().expect("the trace file closes");
    let written = std::fs::read_to_string(&path).expect("the trace file");
    let _ = std::fs::remove_file(&path);
    // The meta line and every record, each on its own line.
    assert_eq!(written.lines().count() as u64, 1 + 5 * records_per_window);
    assert!(
        written.len() > 4 * 64 * 1024,
        "{} bytes: the buffer never drained more than a few times",
        written.len()
    );
    assert_eq!(
        drained,
        0,
        "heap allocations over {} traced events of a warmed-up trace file: must be none",
        5 * records_per_window - 2 * PACKETS * 4
    );
    println!(
        "zero allocations per trace record, streamed or written to a file ({} of them), ok",
        5 * records_per_window
    );
}
