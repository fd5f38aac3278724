//! Round-trip properties of the offline analysis pipeline: trace a live
//! run, rebuild the span forest, and check that causality, token
//! conservation, and the online ledgers all reconcile.
//!
//! The closure property is token conservation per flit tree: every copy
//! a fork created is consumed by a forward, a throttle, or a delivery.
//! The engine drains only *measured* packets, so unmeasured packets
//! still in flight at the end of the run are cut mid-tree — those trees
//! legitimately stay open (`created > consumed`), but a *broken* tree
//! (`consumed > created`, or events with no injection) is impossible in
//! a well-formed trace and must never appear.

use asynoc::{Architecture, Benchmark, Duration, Network, NetworkConfig, Phases, RunConfig};
use asynoc_analysis::{critical_paths, Analysis, Scorecard, SpanForest};
use asynoc_mesh::{MeshConfig, MeshNetwork, MeshSize};
use asynoc_telemetry::{
    parse_trace, JsonValue, LatencyHistograms, LevelSpec, RecordSink, Recorder, Site,
    SpeculationWaste, Stage, TimeSeries, TraceCollector, TraceMeta, TraceRecord,
};

fn phases() -> Phases {
    Phases::new(Duration::from_ns(40), Duration::from_ns(300))
}

/// One traced MoT run: the record stream, its meta line, and the online
/// observers the analysis must reconcile with.
fn mot_trace(
    arch: Architecture,
    benchmark: Benchmark,
    rate: f64,
    seed: u64,
) -> (
    TraceMeta,
    Vec<TraceRecord>,
    LatencyHistograms,
    SpeculationWaste,
) {
    let net =
        Network::new(NetworkConfig::eight_by_eight(arch).with_seed(seed)).expect("valid config");
    let timing = net.config().timing();
    let run = RunConfig::new(benchmark, rate)
        .expect("positive rate")
        .with_phases(phases());
    let mut latency = LatencyHistograms::new(phases(), net.config().size().n());
    let mut waste = SpeculationWaste::new(timing.wire_fj, timing.drop_fj);
    let mut collector = TraceCollector::new(1_000_000);
    let sinks: Vec<&mut dyn RecordSink> = vec![&mut latency, &mut waste, &mut collector];
    let mut recorder = Recorder::new(net.site_of(), sinks);
    asynoc::drive(&net, &run, &mut [&mut recorder], None).expect("run succeeds");
    let meta = TraceMeta {
        substrate: "mot".to_string(),
        arch: Some(arch.to_string()),
        size: 8,
        seed,
        flits: 1,
        rate,
        warmup_ps: phases().warmup().as_ps(),
        measure_ps: phases().measure().as_ps(),
        wire_fj: Some(timing.wire_fj),
        drop_fj: Some(timing.drop_fj),
        dropped_events: collector.dropped(),
    };
    (meta, collector.records().to_vec(), latency, waste)
}

fn mesh_trace(benchmark: Benchmark, rate: f64, seed: u64) -> Vec<TraceRecord> {
    let size = MeshSize::new(4, 4).expect("valid size");
    let net = MeshNetwork::new(MeshConfig::new(size).with_seed(seed)).expect("valid config");
    let mut collector = TraceCollector::new(1_000_000);
    let run = RunConfig::new(benchmark, rate)
        .expect("positive rate")
        .with_phases(phases());
    let mut recorder = Recorder::new(std::rc::Rc::new(Site::Router), vec![&mut collector]);
    asynoc::drive(&net, &run, &mut [&mut recorder], None).expect("run succeeds");
    collector.records().to_vec()
}

/// Every critical path of `records` telescopes exactly: source queue plus
/// per-hop service plus per-hop queueing is the end-to-end latency, and so
/// is the sum of its hop segments.
fn assert_paths_telescope(forest: &SpanForest, records: &[TraceRecord], context: &str) {
    let paths = critical_paths(forest, records);
    assert!(!paths.is_empty(), "{context}: no critical paths");
    for path in &paths {
        assert_eq!(
            path.source_queue_ps + path.service_ps + path.queue_ps,
            path.latency_ps,
            "{context}: logical packet {} does not telescope",
            path.logical
        );
        let hop_sum: u64 = path.hops.iter().map(|h| h.segment_ps).sum();
        assert_eq!(hop_sum, path.latency_ps, "{context}: hop segments");
    }
}

/// Asserts the closure property on one record stream: no broken trees,
/// open trees only ever tail-truncated, and the overwhelming majority
/// of trees fully closed.
fn assert_forest_closes(records: &[TraceRecord], context: &str) -> SpanForest {
    let forest = SpanForest::build(records);
    assert!(!forest.trees.is_empty(), "{context}: trace has flit trees");
    assert_eq!(forest.broken_trees, 0, "{context}: broken trees exist");
    let mut closed = 0usize;
    for tree in &forest.trees {
        assert!(
            !tree.broken(),
            "{context}: packet {} is broken",
            tree.packet
        );
        if tree.closed {
            closed += 1;
        } else {
            // Truncation only loses consumers.
            assert!(
                tree.created > tree.consumed,
                "{context}: packet {} open with created {} <= consumed {}",
                tree.packet,
                tree.created,
                tree.consumed
            );
        }
    }
    assert_eq!(forest.trees.len() - closed, forest.open_trees, "{context}");
    assert!(
        closed * 10 >= forest.trees.len() * 9,
        "{context}: only {closed} of {} trees closed",
        forest.trees.len()
    );
    forest
}

#[test]
fn mot_span_trees_close_under_random_traffic() {
    for seed in [1, 5, 11] {
        for benchmark in [Benchmark::Multicast10, Benchmark::UniformRandom] {
            for arch in [Architecture::Baseline, Architecture::BasicHybridSpeculative] {
                let (_, records, _, _) = mot_trace(arch, benchmark, 0.25, seed);
                let context = format!("{arch} {benchmark} seed {seed}");
                let forest = assert_forest_closes(&records, &context);
                assert_paths_telescope(&forest, &records, &context);
            }
        }
    }
}

#[test]
fn mesh_span_trees_close_under_random_traffic() {
    for seed in [2, 9] {
        for benchmark in [Benchmark::UniformRandom, Benchmark::Shuffle] {
            let records = mesh_trace(benchmark, 0.1, seed);
            let context = format!("mesh {benchmark} seed {seed}");
            let forest = assert_forest_closes(&records, &context);
            assert_paths_telescope(&forest, &records, &context);
        }
    }
}

#[test]
fn analysis_latency_reconciles_with_online_histograms() {
    let (meta, records, latency, _) = mot_trace(
        Architecture::BasicHybridSpeculative,
        Benchmark::Multicast10,
        0.3,
        3,
    );
    let analysis = Analysis::build(Some(meta), records, 10);
    let summary = analysis.latency();
    let overall = latency.overall();

    assert_eq!(summary.count, overall.count(), "population size");
    let ps = |d: Option<asynoc::Duration>| d.map(|d| d.as_ps());
    assert_eq!(Some(summary.min_ps), ps(overall.min()), "fastest packet");
    assert_eq!(Some(summary.max_ps), ps(overall.max()), "slowest packet");
    // The histogram's mean is exact but rounded down to a picosecond; the
    // trace-derived mean must sit within that picosecond of it.
    let online_mean = overall.mean().expect("non-empty histogram");
    assert!(
        (summary.mean_ps - online_mean.as_ps() as f64).abs() <= 1.0,
        "mean {} vs online {online_mean}",
        summary.mean_ps
    );
}

#[test]
fn scorecard_reconciles_with_the_waste_ledger() {
    let (meta, records, _, waste) = mot_trace(
        Architecture::BasicHybridSpeculative,
        Benchmark::Multicast10,
        0.3,
        7,
    );
    let forest = SpanForest::build(&records);
    let card = Scorecard::build(&meta, &forest, &records).expect("meta has energy constants");

    assert!(card.total_throttles > 0, "hybrid run must throttle");
    assert_eq!(card.total_throttles, waste.total_throttles());
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    assert!(
        close(card.total_drop_fj, waste.total_drop_fj()),
        "drop energy {} vs ledger {}",
        card.total_drop_fj,
        waste.total_drop_fj()
    );
    assert!(
        close(card.total_wasted_wire_fj, waste.total_wasted_wire_fj()),
        "wasted wire energy {} vs ledger {}",
        card.total_wasted_wire_fj,
        waste.total_wasted_wire_fj()
    );
    // Region totals sum to the ledger totals.
    let region_throttles: u64 = card.regions.iter().map(|r| r.throttles).sum();
    assert_eq!(region_throttles, card.total_throttles);
}

/// Offline == online: a record is lossless for every collector. One
/// `metrics` run per substrate writes its document and its uncapped
/// trace; fresh collectors fed the parsed file, gated as the meta line
/// says, must render the document's own sections byte for byte.
#[test]
fn collectors_give_the_same_answer_from_a_recording() {
    let path = |name: &str| {
        let file = format!("asynoc-replay-{}-{name}", std::process::id());
        std::env::temp_dir()
            .join(file)
            .to_string_lossy()
            .into_owned()
    };
    let routers = |nodes| {
        let stage = Stage::Router;
        vec![LevelSpec { stage, nodes }]
    };
    let mot = Network::new(NetworkConfig::eight_by_eight(
        Architecture::BasicHybridSpeculative,
    ))
    .expect("valid config");
    for (fabric, endpoints, levels) in [
        (
            "--arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3",
            8,
            mot.levels(),
        ),
        (
            "--substrate mesh --benchmark Uniform-random --rate 0.1 --size 4",
            16,
            routers(16),
        ),
        (
            "--substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1 --size 4",
            16,
            routers(16),
        ),
    ] {
        let (doc_path, trace_path) = (path("doc.json"), path("trace.ndjson"));
        let line = format!(
            "metrics {fabric} --warmup-ns 40 --measure-ns 300 --bin-ns 50 \
             --metrics-out {doc_path} --trace-out {trace_path} --trace-limit 100000000"
        );
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let command = asynoc_cli::parse(&argv).expect("a valid invocation");
        asynoc_cli::execute(&command, &mut Vec::new()).expect("the run succeeds");
        let read = |path: &str| {
            let text = std::fs::read_to_string(path).expect(path);
            let _ = std::fs::remove_file(path);
            text
        };
        let online = JsonValue::parse(&read(&doc_path)).expect("a metrics document");
        let (meta, records) = parse_trace(&read(&trace_path)).expect("a well-formed trace");
        let meta = meta.expect("the trace leads with its meta line");
        assert_eq!(meta.dropped_events, 0, "{fabric}: the recording is whole");
        assert!(records.len() > 1_000, "{fabric}: {} records", records.len());

        let phases = Phases::new(
            Duration::from_ps(meta.warmup_ps),
            Duration::from_ps(meta.measure_ps),
        );
        let mut latency = LatencyHistograms::new(phases, endpoints);
        let mut series = TimeSeries::new(Duration::from_ns(50), levels);
        let mut waste = meta
            .wire_fj
            .zip(meta.drop_fj)
            .map(|(wire_fj, drop_fj)| SpeculationWaste::new(wire_fj, drop_fj));
        for record in &records {
            let in_window = meta.in_measurement(record.t_ps);
            latency.on_record(record, in_window);
            series.on_record(record, in_window);
            if let Some(waste) = waste.as_mut() {
                waste.on_record(record, in_window);
            }
        }

        let section = |key: &str| online.get(key).expect(key).render();
        assert_eq!(latency.to_json().render(), section("latency"), "{fabric}");
        assert_eq!(series.to_json().render(), section("timeseries"), "{fabric}");
        let offline_waste = waste.map_or(JsonValue::Null, |waste| {
            // As `metrics` prices it: mW x ps is fJ.
            let power = |key: &str| {
                let power = online.get("power").and_then(|power| power.get(key));
                power.and_then(JsonValue::as_f64).expect(key)
            };
            waste.to_json(power("dynamic_mw") * power("window_ps"))
        });
        assert_eq!(offline_waste.render(), section("waste"), "{fabric}");
        assert_eq!(offline_waste == JsonValue::Null, endpoints == 16);
    }
}
