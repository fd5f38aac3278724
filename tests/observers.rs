//! Observer contract tests: registration order, measurement-window
//! gating, and the zero-observer fast path.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use asynoc::{
    Architecture, Benchmark, Duration, MotNode, Network, NetworkConfig, Observer, Phases,
    RunConfig, SimEvent, Time,
};
use asynoc_telemetry::{
    ChromeTraceObserver, FaultLedger, JsonValue, LatencyHistograms, RecordSink, Recorder, SiteOf,
    SpeculationWaste, StreamConfig, StreamSink, TimeSeries, TokenLedger, TraceCollector,
    TraceWriter,
};

fn network() -> Network {
    Network::new(NetworkConfig::eight_by_eight(Architecture::BasicHybridSpeculative).with_seed(7))
        .expect("valid config")
}

fn phases() -> Phases {
    Phases::new(Duration::from_ns(60), Duration::from_ns(400))
}

fn run_config() -> RunConfig {
    RunConfig::new(Benchmark::Multicast10, 0.3)
        .expect("positive rate")
        .with_phases(phases())
}

/// Pushes its tag into a shared log on every event.
struct Tagger {
    tag: &'static str,
    log: Rc<RefCell<Vec<&'static str>>>,
}

impl Observer<MotNode> for Tagger {
    fn on_event(&mut self, _at: Time, _in_window: bool, _event: &SimEvent<'_, MotNode>) {
        self.log.borrow_mut().push(self.tag);
    }
}

#[test]
fn observers_fire_in_registration_order() {
    let net = network();
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut first = Tagger {
        tag: "first",
        log: Rc::clone(&log),
    };
    let mut second = Tagger {
        tag: "second",
        log: Rc::clone(&log),
    };
    net.run_with_observers(&run_config(), &mut [&mut first, &mut second])
        .expect("run succeeds");

    let log = log.borrow();
    assert!(!log.is_empty(), "observers saw events");
    assert_eq!(log.len() % 2, 0, "both observers see every event");
    for pair in log.chunks(2) {
        assert_eq!(pair, ["first", "second"], "registration order per event");
    }
}

/// Records each event's instant and `in_window` flag.
struct WindowProbe {
    seen: Vec<(Time, bool)>,
}

impl Observer<MotNode> for WindowProbe {
    fn on_event(&mut self, at: Time, in_window: bool, _event: &SimEvent<'_, MotNode>) {
        self.seen.push((at, in_window));
    }
}

#[test]
fn in_window_flag_matches_the_measurement_phases() {
    let net = network();
    let phases = phases();
    let mut probe = WindowProbe { seen: Vec::new() };
    net.run_with_observers(&run_config(), &mut [&mut probe])
        .expect("run succeeds");

    assert!(!probe.seen.is_empty());
    let mut warmup = 0u64;
    let mut window = 0u64;
    let mut drain = 0u64;
    for &(at, in_window) in &probe.seen {
        assert_eq!(
            in_window,
            phases.in_measurement(at),
            "in_window flag must mirror Phases::in_measurement at {at}"
        );
        if at < phases.measurement_start() {
            warmup += 1;
            assert!(!in_window);
        } else if at < phases.measurement_end() {
            window += 1;
            assert!(in_window);
        } else {
            drain += 1;
            assert!(!in_window);
        }
    }
    // All three phases of the run are visible on the event stream.
    assert!(warmup > 0, "warmup events observed");
    assert!(window > 0, "measurement-window events observed");
    assert!(drain > 0, "drain events observed");
}

#[test]
fn observers_do_not_change_the_measurement() {
    let net = network();
    let bare = net.run(&run_config()).expect("run succeeds");
    let mut probe = WindowProbe { seen: Vec::new() };
    let observed = net
        .run_with_observers(&run_config(), &mut [&mut probe])
        .expect("run succeeds");

    assert_eq!(bare.packets_measured, observed.packets_measured);
    assert_eq!(bare.flits_delivered, observed.flits_delivered);
    assert_eq!(bare.flits_throttled, observed.flits_throttled);
    assert_eq!(bare.events_processed, observed.events_processed);
    assert_eq!(bare.latency.mean(), observed.latency.mean());
}

/// Counts the events a node fired (`Forward`, `Drop`) and the rest.
#[derive(Default)]
struct Located {
    fired: usize,
    elsewhere: usize,
}

impl Observer<MotNode> for Located {
    fn on_event(&mut self, _at: Time, _in_window: bool, event: &SimEvent<'_, MotNode>) {
        match event {
            SimEvent::Forward { .. } | SimEvent::Drop { .. } => self.fired += 1,
            _ => self.elsewhere += 1,
        }
    }
}

#[test]
fn a_located_event_is_placed_once_whatever_is_registered() {
    // Everything `metrics --stream --stream-trace --trace-out` registers,
    // both trace formats, and the fault oracle's two ledgers, on one
    // recorder: the run's `SiteOf` is asked where a node sits once per
    // event a node fired, and never for an injection or a delivery.
    let net = network();
    let placed = Rc::new(Cell::new(0usize));
    let site_of: SiteOf<MotNode> = {
        let (placed, site_of) = (Rc::clone(&placed), net.site_of());
        Rc::new(move |node| {
            placed.set(placed.get() + 1);
            site_of(node)
        })
    };
    let timing = net.config().timing();
    let bin = Duration::from_ns(50);
    let mut latency = LatencyHistograms::new(phases(), net.config().size().n());
    let mut series = TimeSeries::new(bin, net.levels());
    let mut sink = StreamSink::new(
        Box::new(std::io::sink()),
        StreamConfig {
            substrate: "mot".to_string(),
            config: JsonValue::Null,
            window: bin,
            trace_limit: Some(usize::MAX),
        },
        &mut latency,
        &mut series,
    )
    .expect("the head record is written");
    let mut waste = SpeculationWaste::new(timing.wire_fj, timing.drop_fj);
    let (mut tokens, mut faults) = (TokenLedger::default(), FaultLedger::new());
    let (mut collector, mut writer) = (TraceCollector::new(1 << 20), TraceWriter::new(1 << 20));
    let mut chrome = ChromeTraceObserver::new(1 << 20);
    let sinks: Vec<&mut dyn RecordSink> = vec![
        &mut sink,
        &mut waste,
        &mut tokens,
        &mut faults,
        &mut collector,
        &mut writer,
        &mut chrome,
    ];
    let mut located = Located::default();
    let mut recorder = Recorder::new(site_of, sinks);
    net.run_with_observers(&run_config(), &mut [&mut located, &mut recorder])
        .expect("run succeeds");
    sink.finish(JsonValue::Object(Vec::new()), 0)
        .expect("the stream closes");

    assert!(located.fired > 1_000 && located.elsewhere > 1_000);
    assert_eq!(placed.get(), located.fired);
    // And every sink saw every event.
    assert_eq!(collector.records().len(), located.fired + located.elsewhere);
    assert_eq!(writer.text().lines().count(), collector.records().len());
    assert_eq!(chrome.trace().len(), collector.records().len());
}
