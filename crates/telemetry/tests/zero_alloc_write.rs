//! The zero-allocation guarantee of the trace write path.
//!
//! Like `crates/engine/tests/zero_alloc.rs`, this test runs with
//! `harness = false` and owns the whole process, so every count of the
//! probe crate's counting allocator is attributable to the code between
//! two snapshots.
//!
//! Two sinks write trace records, both through one [`TraceWriter`], each
//! registered with the [`Recorder`] that builds an event's record:
//!
//! - `--stream --stream-trace`: a [`StreamSink`] renders each event's
//!   `trace` line into a buffer it empties, capacity kept, at every
//!   window flush. Once the buffer has held a window and the sink's own
//!   ledgers have reached their in-flight high-water mark, further traced
//!   events must not touch the allocator at all.
//! - `--trace-out`: a bare [`TraceWriter`] keeps every line until the run
//!   ends, so its one buffer grows — geometrically, and that growth is
//!   all it may allocate, from its first event on: it keeps no table of
//!   labels to warm up (a site is rendered digit by digit per record).

use std::rc::Rc;
use std::sync::Arc;

use asynoc_engine::probe::{allocations, CountingAlloc};
use asynoc_engine::{ForwardInfo, Observer, SimEvent};
use asynoc_kernel::{Duration, Time};
use asynoc_packet::{DestSet, Flit, PacketDescriptor, PacketId, RouteHeader, RouteSymbol};
use asynoc_stats::Phases;
use asynoc_telemetry::{
    JsonValue, LatencyHistograms, LevelSpec, Recorder, Site, SiteOf, Stage, StreamConfig,
    StreamSink, TimeSeries, TraceWriter,
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
                RouteHeader::for_tree(ENDPOINTS),
                1,
                Time::from_ps(START_PS),
            );
            Flit::new(Arc::new(descriptor), 0)
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

    // `--trace-out`, counted from the first event.
    let mut writer = TraceWriter::new(usize::MAX);
    let mut recorder = Recorder::new(site_of(), vec![&mut writer]);
    let before = allocations();
    let mut at = START_PS;
    for _ in 0..5 * ROUNDS {
        at = round(&mut recorder, &flits, at);
    }
    let grown = allocations() - before;
    // An empty buffer doubling its way to this length: one growth a bit.
    let doublings = u64::from(writer.text().len().ilog2()) + 1;
    assert_eq!(writer.text().lines().count() as u64, 5 * records_per_window);
    assert!(
        (1..=doublings).contains(&grown),
        "{grown} allocation(s) while the buffer grew to {} bytes: more than its {doublings} \
         doublings",
        writer.text().len()
    );
    println!(
        "zero allocations per streamed trace record, {grown} buffer growths for {} kept ones, ok",
        5 * records_per_window
    );
}
