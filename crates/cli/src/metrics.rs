//! `asynoc metrics`: one instrumented run emitting the JSON metrics
//! report (and optionally a flit trace).
//!
//! The report is the CLI surface of the `asynoc-telemetry` collector
//! stack: latency percentiles (overall / per destination / per hop
//! count), a windowed time-series with per-level busy fractions, the
//! speculation-waste ledger, and the run's power/throughput/counter
//! summaries, all under the [`METRICS_SCHEMA`] version tag.

use std::fs::File;
use std::io::Write;

use asynoc::{drive, Architecture, Benchmark, Duration, EngineReport, RunReport};
use asynoc_mesh::Wormhole;
use asynoc_power::EnergyCategory;
use asynoc_telemetry::{
    ChromeTraceObserver, JsonValue, RecordSink, Recorder, TraceMeta, TraceWriter, METRICS_SCHEMA,
};
use asynoc_vcmesh::{McastScheme, VcRouter};

use crate::args::{CommonOptions, Substrate, TraceFormat};
use crate::commands::{
    create_optional, network_for, phases_for, placement_id, resolve_spec_map, run_config, CliError,
};
use crate::fabric::{self, Fabric};

/// A fully-resolved `metrics` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsRequest {
    /// Network architecture preset (MoT substrate; exclusive with `spec_map`).
    pub arch: Option<Architecture>,
    /// Speculation-placement map (MoT substrate; exclusive with `arch`).
    pub spec_map: Option<String>,
    /// Traffic benchmark.
    pub benchmark: Benchmark,
    /// Offered load, flits/ns per source.
    pub rate: f64,
    /// Which fabric to instrument.
    pub substrate: Substrate,
    /// Multicast scheme on the vcmesh substrate (unused elsewhere).
    pub mcast: McastScheme,
    /// Time-series bin width, ns.
    pub bin_ns: u64,
    /// JSON report destination (`None` = the command's output stream).
    pub metrics_out: Option<String>,
    /// Trace export format, if tracing.
    pub trace_format: Option<TraceFormat>,
    /// Trace destination path.
    pub trace_out: Option<String>,
    /// Maximum trace events recorded.
    pub trace_limit: usize,
    /// Shared options.
    pub common: CommonOptions,
}

/// The optional trace sink pair: exactly one is live when tracing.
struct Tracers {
    ndjson: Option<TraceWriter>,
    chrome: Option<ChromeTraceObserver>,
}

impl Tracers {
    fn new(format: Option<TraceFormat>, limit: usize) -> Self {
        let (ndjson, chrome) = match format {
            Some(TraceFormat::Ndjson) => (Some(TraceWriter::new(limit)), None),
            Some(TraceFormat::Chrome) => (None, Some(ChromeTraceObserver::new(limit))),
            None => (None, None),
        };
        Tracers { ndjson, chrome }
    }

    fn push_into<'a>(&'a mut self, sinks: &mut Vec<&'a mut dyn RecordSink>) {
        if let Some(writer) = self.ndjson.as_mut() {
            sinks.push(writer);
        }
        if let Some(observer) = self.chrome.as_mut() {
            sinks.push(observer);
        }
    }

    /// Writes the collected trace. NDJSON traces lead with the run's
    /// meta line (stamped with how many events the cap dropped) so
    /// `asynoc analyze` can gate and price its results, then the lines
    /// the writer rendered as the events went by; Chrome traces have no
    /// meta notion.
    fn write_to(self, mut meta: TraceMeta, out: &mut File) -> std::io::Result<()> {
        if let Some(writer) = self.ndjson {
            meta.dropped_events = writer.dropped();
            writeln!(out, "{}", meta.to_ndjson())?;
            out.write_all(writer.text().as_bytes())?;
        }
        if let Some(observer) = self.chrome {
            out.write_all(observer.into_trace().render().as_bytes())?;
        }
        Ok(())
    }
}

/// The identity keys a run is reproducible from — shared by the metrics
/// report's `config` section and the profile document's per-run `config`.
///
/// `arch` is the placement identity string: a preset name, or the
/// canonical `levels:` map form for custom `--spec-map` placements
/// (either is a valid `--spec-map` value, so any report reproduces its
/// own run).
pub(crate) fn config_json(
    arch: Option<&str>,
    benchmark: Benchmark,
    rate: f64,
    size: usize,
    common: &CommonOptions,
) -> JsonValue {
    JsonValue::Object(vec![
        (
            "arch".to_string(),
            arch.map_or(JsonValue::Null, JsonValue::str),
        ),
        (
            "benchmark".to_string(),
            JsonValue::str(benchmark.to_string()),
        ),
        ("rate_gfs".to_string(), JsonValue::Number(rate)),
        ("size".to_string(), JsonValue::uint(size as u64)),
        ("seed".to_string(), JsonValue::uint(common.seed)),
        (
            "flits".to_string(),
            JsonValue::uint(u64::from(common.flits)),
        ),
    ])
}

pub(crate) fn throughput_json(
    throughput: &asynoc_stats::throughput::ThroughputReport,
) -> JsonValue {
    JsonValue::Object(vec![
        (
            "offered_gfs".to_string(),
            JsonValue::Number(throughput.offered),
        ),
        (
            "injected_gfs".to_string(),
            JsonValue::Number(throughput.injected),
        ),
        (
            "delivered_gfs".to_string(),
            JsonValue::Number(throughput.delivered),
        ),
        (
            "acceptance".to_string(),
            JsonValue::Number(throughput.acceptance()),
        ),
    ])
}

pub(crate) fn power_json(report: &RunReport, window: Duration) -> JsonValue {
    let category = |c: EnergyCategory| JsonValue::Number(report.power.category_mw(c));
    JsonValue::Object(vec![
        ("fanout_mw".to_string(), category(EnergyCategory::Fanout)),
        ("fanin_mw".to_string(), category(EnergyCategory::Fanin)),
        ("wire_mw".to_string(), category(EnergyCategory::Wire)),
        ("dropped_mw".to_string(), category(EnergyCategory::Dropped)),
        (
            "dynamic_mw".to_string(),
            JsonValue::Number(report.power.dynamic_mw()),
        ),
        (
            "leakage_mw".to_string(),
            JsonValue::Number(report.power.leakage_mw()),
        ),
        (
            "total_mw".to_string(),
            JsonValue::Number(report.power.total_mw()),
        ),
        ("window_ps".to_string(), JsonValue::uint(window.as_ps())),
    ])
}

pub(crate) fn counters_json(report: &EngineReport) -> JsonValue {
    JsonValue::Object(vec![
        (
            "packets_measured".to_string(),
            JsonValue::uint(report.packets_measured as u64),
        ),
        (
            "packets_incomplete".to_string(),
            JsonValue::uint(report.packets_incomplete as u64),
        ),
        (
            "flits_throttled".to_string(),
            JsonValue::uint(report.flits_throttled),
        ),
        (
            "flits_delivered".to_string(),
            JsonValue::uint(report.flits_delivered),
        ),
        (
            "events_processed".to_string(),
            JsonValue::uint(report.events_processed),
        ),
        ("shards".to_string(), JsonValue::uint(report.shards as u64)),
        (
            "shard_events".to_string(),
            JsonValue::Array(
                report
                    .shard_events
                    .iter()
                    .map(|&e| JsonValue::uint(e))
                    .collect(),
            ),
        ),
    ])
}

/// One run's outputs: the report document, the run's identity `config`
/// with the engine's self-profile (if requested), and the number of
/// watchpoint records the stream fired (0 without `--stream`).
type MetricsRun = (
    JsonValue,
    Option<(JsonValue, Box<asynoc::probe::EngineProfile>)>,
    u64,
);

/// Runs `net` with the telemetry stack, writes the trace to `trace_out`
/// (if requested) and assembles the report document. `waste` and `power`
/// are null on a fabric without an energy model; fabric-specific sections
/// (the VC mesh's `vcs`) follow `counters`.
fn run<F: Fabric>(
    net: &F,
    identity: Option<String>,
    request: &MetricsRequest,
    trace_out: Option<&mut File>,
) -> Result<MetricsRun, CliError> {
    let common = &request.common;
    let phases = phases_for(request.benchmark, common);
    let run = run_config(request.benchmark, request.rate, common)?;
    let config = config_json(
        identity.as_deref(),
        request.benchmark,
        request.rate,
        common.size,
        common,
    );

    let (mut latency, mut timeseries) = net.collectors(phases, Duration::from_ns(request.bin_ns));
    let mut waste = net.waste();
    let mut tracers = Tracers::new(request.trace_format, request.trace_limit);
    // Under `--stream` the sink stands in front of the latency /
    // time-series pair and feeds it; otherwise the pair is fed directly.
    let mut sink = None;
    let mut sinks: Vec<&mut dyn RecordSink> = match &common.stream {
        Some(path) => vec![sink.insert(crate::stream::sink::<F>(
            path,
            common,
            config.clone(),
            crate::stream::window(common, Some(request.bin_ns)),
            request.trace_limit,
            &mut latency,
            &mut timeseries,
        )?)],
        None => vec![&mut latency, &mut timeseries],
    };
    if let Some(waste) = waste.as_mut() {
        sinks.push(waste);
    }
    tracers.push_into(&mut sinks);
    let mut recorder = Recorder::new(net.site_of(), sinks);
    let mut report =
        drive(net, &run, &mut [&mut recorder], None).map_err(asynoc::SimError::from)?;
    let engine_profile = report.profile.take();

    let (waste_value, power_value) = F::energy_sections(&report, waste.as_ref(), phases.measure());
    let mut sections = vec![
        ("waste".to_string(), waste_value),
        (
            "throughput".to_string(),
            throughput_json(&report.throughput),
        ),
        ("power".to_string(), power_value),
        ("counters".to_string(), counters_json(&report)),
    ];
    sections.extend(net.extra_sections(&report));
    // The stream's end record carries the scalar sections verbatim, in
    // batch order, so `fold_stream` reproduces the document below
    // byte-for-byte.
    let watchpoints = match sink {
        Some(sink) => {
            sink.finish(
                JsonValue::Object(sections.clone()),
                report.packets_incomplete,
            )?
            .watchpoints
        }
        None => 0,
    };
    let mut doc = vec![
        ("schema".to_string(), JsonValue::str(METRICS_SCHEMA)),
        ("substrate".to_string(), JsonValue::str(F::TAG)),
        ("config".to_string(), config.clone()),
        ("latency".to_string(), latency.to_json()),
        ("timeseries".to_string(), timeseries.to_json()),
    ];
    doc.extend(sections);
    let energy = net.energy_fj();
    let meta = TraceMeta {
        substrate: F::TAG.to_string(),
        arch: identity,
        size: common.size as u64,
        seed: common.seed,
        flits: common.flits,
        rate: request.rate,
        warmup_ps: phases.warmup().as_ps(),
        measure_ps: phases.measure().as_ps(),
        wire_fj: energy.map(|(wire, _)| wire),
        drop_fj: energy.map(|(_, drop)| drop),
        dropped_events: 0,
    };
    if let Some(file) = trace_out {
        tracers.write_to(meta, file)?;
    }
    Ok((
        JsonValue::Object(doc),
        engine_profile.map(|profile| (config, profile)),
        watchpoints,
    ))
}

/// Executes a `metrics` command: runs the instrumented simulation, then
/// writes the JSON report (to `--metrics-out` or `out`), the trace
/// (to `--trace-out`, when requested), and the self-profile (to
/// `--profile`, when requested). Both files are created before the run,
/// so a path that cannot be written costs no simulation.
///
/// # Errors
///
/// Returns a [`CliError`] on simulation, configuration, or I/O failure.
pub fn execute_metrics(request: &MetricsRequest, out: &mut dyn Write) -> Result<(), CliError> {
    let common = &request.common;
    let profiler = crate::profile::ProfileWriter::when(common.profile.as_ref(), "metrics")?;
    let mut metrics_file = create_optional("--metrics-out", request.metrics_out.as_ref())?;
    let mut trace_file = create_optional("--trace-out", request.trace_out.as_ref())?;
    let trace_out = trace_file.as_mut();
    let (doc, engine_profile, watchpoints) = match request.substrate {
        Substrate::Mot => {
            let map = resolve_spec_map(request.arch, request.spec_map.as_ref(), common)?;
            let net = network_for(&map, common)?;
            let placement = placement_id(request.arch, &map);
            run(&net, Some(placement), request, trace_out)?
        }
        Substrate::Mesh => {
            let net = fabric::mesh::<Wormhole>(common.size, common.size, (), common)?;
            run(&net, None, request, trace_out)?
        }
        Substrate::Vcmesh => run(
            &fabric::mesh::<VcRouter>(common.size, common.size, request.mcast, common)?,
            None,
            request,
            trace_out,
        )?,
    };
    let rendered = doc.render_pretty();
    match request.metrics_out.as_ref().zip(metrics_file.as_mut()) {
        Some((path, file)) => {
            file.write_all(rendered.as_bytes())?;
            writeln!(out, "metrics report written to {path}")?;
            if let Some(path) = &request.trace_out {
                writeln!(out, "trace written to {path}")?;
            }
        }
        // Bare stdout stays pure JSON so pipelines can parse it.
        None => out.write_all(rendered.as_bytes())?,
    }
    if let Some(mut profiler) = profiler {
        if let Some((config, engine_profile)) = &engine_profile {
            profiler.add_run(config.clone(), engine_profile);
        }
        profiler.finish()?;
    }
    crate::stream::fatal_check(watchpoints, common)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{parse, Command};
    use crate::commands::execute;
    use asynoc_telemetry::{parse_trace, validate_chrome, Action};

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn run_cli(line: &str) -> String {
        let command = parse(&argv(line)).expect("valid invocation");
        let mut out = Vec::new();
        execute(&command, &mut out).expect("command succeeds");
        String::from_utf8(out).expect("utf8 output")
    }

    fn metrics_doc(line: &str) -> JsonValue {
        JsonValue::parse(&run_cli(line)).expect("metrics output is valid JSON")
    }

    fn temp_path(name: &str) -> String {
        let mut path = std::env::temp_dir();
        path.push(format!("asynoc-metrics-test-{}-{name}", std::process::id()));
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn mot_report_has_percentiles_busy_fractions_and_waste() {
        let doc = metrics_doc(
            "metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 \
             --warmup-ns 40 --measure-ns 400 --bin-ns 50",
        );
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(METRICS_SCHEMA)
        );
        assert_eq!(
            doc.get("substrate").and_then(JsonValue::as_str),
            Some("mot")
        );
        let latency = doc.get("latency").expect("latency section");
        assert!(latency.get("p50_ps").and_then(JsonValue::as_f64).unwrap() > 0.0);
        assert!(
            latency.get("p99_ps").and_then(JsonValue::as_f64).unwrap()
                >= latency.get("p50_ps").and_then(JsonValue::as_f64).unwrap()
        );
        assert!(
            !latency
                .get("per_dest")
                .and_then(JsonValue::as_array)
                .unwrap()
                .is_empty(),
            "per-destination breakdown populated"
        );
        assert!(!latency
            .get("per_hops")
            .and_then(JsonValue::as_array)
            .unwrap()
            .is_empty());
        let timeseries = doc.get("timeseries").expect("timeseries section");
        let levels = timeseries
            .get("levels")
            .and_then(JsonValue::as_array)
            .unwrap();
        // 8x8 MoT: three fanout levels + three fanin levels.
        assert_eq!(levels.len(), 6);
        let bins = timeseries
            .get("bins")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(!bins.is_empty());
        let busiest = bins
            .iter()
            .flat_map(|bin| {
                bin.get("busy_fraction")
                    .and_then(JsonValue::as_array)
                    .unwrap()
                    .iter()
                    .map(|v| v.as_f64().unwrap())
                    .collect::<Vec<_>>()
            })
            .fold(0.0f64, f64::max);
        assert!(busiest > 0.0, "some level saw traffic");
        assert!(busiest <= 1.0, "busy fraction is a fraction: {busiest}");
        // The hybrid network speculates, so the ledger must have entries.
        let waste = doc.get("waste").expect("waste section");
        assert!(
            waste
                .get("total_throttles")
                .and_then(JsonValue::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(!waste
            .get("per_node")
            .and_then(JsonValue::as_array)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn waste_ledger_reconciles_with_the_energy_ledger() {
        let doc = metrics_doc(
            "metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 \
             --warmup-ns 40 --measure-ns 400",
        );
        let waste_drop_fj = doc
            .get("waste")
            .and_then(|w| w.get("total_drop_fj"))
            .and_then(JsonValue::as_f64)
            .unwrap();
        let power = doc.get("power").expect("power section");
        let dropped_mw = power.get("dropped_mw").and_then(JsonValue::as_f64).unwrap();
        let window_ps = power.get("window_ps").and_then(JsonValue::as_f64).unwrap();
        // Both observers price the same in-window drops at the same fJ,
        // so the ledgers must agree (up to f64 summation order).
        let energy_drop_fj = dropped_mw * window_ps;
        assert!(waste_drop_fj > 0.0, "hybrid network must drop copies");
        assert!(
            (waste_drop_fj - energy_drop_fj).abs() <= 1e-6 * energy_drop_fj.max(1.0),
            "waste ledger {waste_drop_fj} fJ vs energy ledger {energy_drop_fj} fJ"
        );
    }

    #[test]
    fn mesh_report_has_latency_but_null_power() {
        let doc = metrics_doc(
            "metrics --substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 \
             --warmup-ns 40 --measure-ns 400",
        );
        assert_eq!(
            doc.get("substrate").and_then(JsonValue::as_str),
            Some("mesh")
        );
        assert_eq!(doc.get("power"), Some(&JsonValue::Null));
        assert_eq!(doc.get("waste"), Some(&JsonValue::Null));
        assert!(
            doc.get("latency")
                .and_then(|l| l.get("count"))
                .and_then(JsonValue::as_f64)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn mesh_counters_report_the_engines_delivered_flits() {
        use asynoc::{Observer, SimEvent, Time};
        use asynoc_faults::DeliveryLog;

        // The mesh document used to hard-code `flits_delivered` to 0 next
        // to a non-zero `packets_measured`. With single-flit packets every
        // delivered flit is a header, so the counter must equal what a
        // delivery log sees inside the measurement window.
        struct InWindow(DeliveryLog);
        impl Observer<usize> for InWindow {
            fn on_event(&mut self, at: Time, in_window: bool, event: &SimEvent<'_, usize>) {
                if in_window {
                    self.0.on_event(at, in_window, event);
                }
            }
        }
        let line = "metrics --substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 \
                    --flits 1 --warmup-ns 40 --measure-ns 400";
        let Command::Metrics(MetricsRequest { common, .. }) =
            parse(&argv(line)).expect("valid invocation")
        else {
            panic!("expected metrics");
        };
        let run = run_config(Benchmark::UniformRandom, 0.1, &common).unwrap();
        let mut log = InWindow(DeliveryLog::new());
        drive(
            &fabric::mesh::<Wormhole>(4, 4, (), &common).unwrap(),
            &run,
            &mut [&mut log],
            None,
        )
        .unwrap();
        let logged: u64 = log.0.deliveries().values().sum();

        let counters = metrics_doc(line);
        let counters = counters.get("counters").expect("counters section");
        assert_eq!(
            counters.get("shards").and_then(JsonValue::as_f64),
            Some(1.0),
            "no --shards: one shard"
        );
        let delivered = counters.get("flits_delivered").and_then(JsonValue::as_f64);
        assert!(logged > 0, "the run delivered traffic");
        assert_eq!(delivered, Some(logged as f64));
        assert_eq!(
            counters.get("flits_throttled").and_then(JsonValue::as_f64),
            Some(0.0),
            "a wormhole mesh never throttles"
        );
    }

    #[test]
    fn vcmesh_report_carries_the_vc_section_and_is_shard_invariant() {
        asynoc_kernel::with_deadline(120, || {
            let base = "metrics --substrate vcmesh --benchmark Multicast10 --rate 0.1 --size 4 \
                    --warmup-ns 40 --measure-ns 400";
            let doc = metrics_doc(&format!("{base} --shards 1"));
            assert_eq!(
                doc.get("substrate").and_then(JsonValue::as_str),
                Some("vcmesh")
            );
            assert_eq!(doc.get("power"), Some(&JsonValue::Null));
            assert_eq!(doc.get("waste"), Some(&JsonValue::Null));
            assert!(
                doc.get("latency")
                    .and_then(|l| l.get("count"))
                    .and_then(JsonValue::as_f64)
                    .unwrap()
                    > 0.0
            );
            let vcs = doc.get("vcs").expect("vcs section");
            assert_eq!(
                vcs.get("mcast").and_then(JsonValue::as_str),
                Some("xy-tree")
            );
            let pushes = vcs.get("vc_pushes").and_then(JsonValue::as_array).unwrap();
            assert_eq!(pushes.len(), asynoc_vcmesh::VC_COUNT);
            assert!(
                pushes.iter().map(|p| p.as_f64().unwrap()).sum::<f64>() > 0.0,
                "VC planes carried traffic"
            );
            assert!(
                vcs.get("link_traversals")
                    .and_then(JsonValue::as_f64)
                    .unwrap()
                    > 0.0
            );
            // The acceptance gate: the whole document — including every vcs
            // counter — must be byte-identical across shard counts (only the
            // counters section's shard layout legitimately differs, and it
            // does so identically in batch and stream).
            let serial = run_cli(&format!("{base} --shards 1"));
            let sharded = run_cli(&format!("{base} --shards 2"));
            let strip_layout = |text: &str| {
                let JsonValue::Object(mut members) = JsonValue::parse(text).unwrap() else {
                    panic!("report is an object");
                };
                for (key, value) in &mut members {
                    if key == "counters" {
                        let JsonValue::Object(counters) = value else {
                            panic!("counters is an object");
                        };
                        counters.retain(|(k, _)| k != "shards" && k != "shard_events");
                    }
                }
                JsonValue::Object(members).render_pretty()
            };
            assert_eq!(
                strip_layout(&serial),
                strip_layout(&sharded),
                "vcmesh metrics must be shard-invariant"
            );
        });
    }

    #[test]
    fn dpm_report_uses_no_more_links_than_xy_tree() {
        let base = "metrics --substrate vcmesh --benchmark Multicast10 --rate 0.1 --size 4 \
                    --warmup-ns 40 --measure-ns 400";
        let links = |doc: &JsonValue| {
            doc.get("vcs")
                .and_then(|v| v.get("link_traversals"))
                .and_then(JsonValue::as_f64)
                .unwrap()
        };
        let tree = metrics_doc(&format!("{base} --mcast xy-tree"));
        let dpm = metrics_doc(&format!("{base} --mcast dpm"));
        assert_eq!(
            dpm.get("vcs")
                .and_then(|v| v.get("mcast"))
                .and_then(JsonValue::as_str),
            Some("dpm"),
            "dpm doc is tagged with its scheme"
        );
        assert!(
            links(&dpm) <= links(&tree),
            "DPM must not use more links than the XY tree: {} vs {}",
            links(&dpm),
            links(&tree)
        );
        // Identical injection schedule: both schemes measure the same
        // packet population.
        assert_eq!(
            dpm.get("counters").and_then(|c| c.get("packets_measured")),
            tree.get("counters").and_then(|c| c.get("packets_measured")),
        );
    }

    #[test]
    fn streamed_windows_fold_back_into_the_batch_document() {
        asynoc_kernel::with_deadline(120, || {
            use asynoc_telemetry::fold_stream;
            // Both substrates, serial and sharded: the incremental stream
            // must fold into the exact batch report, and the event-record
            // prefix of the stream must be shard-invariant.
            for (tag, substrate_args) in [
                (
                    "mot",
                    "--arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 --bin-ns 50",
                ),
                (
                    "mesh",
                    "--substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 --bin-ns 50",
                ),
                (
                    "vcmesh",
                    "--substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1 --size 4 \
                 --bin-ns 50",
                ),
            ] {
                let mut streams = Vec::new();
                for shards in [1usize, 2] {
                    let batch_path = temp_path(&format!("fold-batch-{tag}-{shards}.json"));
                    let stream_path = temp_path(&format!("fold-stream-{tag}-{shards}.ndjson"));
                    run_cli(&format!(
                        "metrics {substrate_args} --warmup-ns 40 --measure-ns 400 \
                     --shards {shards} --metrics-out {batch_path} --stream {stream_path}"
                    ));
                    let batch = std::fs::read_to_string(&batch_path).expect("batch report");
                    let stream = std::fs::read_to_string(&stream_path).expect("stream file");
                    let folded = fold_stream(&stream).expect("stream folds").render_pretty();
                    assert_eq!(
                        folded, batch,
                        "fold != batch for {substrate_args} shards {shards}"
                    );
                    streams.push(stream);
                    let _ = std::fs::remove_file(&batch_path);
                    let _ = std::fs::remove_file(&stream_path);
                }
                // Everything up to the end record is byte-identical across
                // shard counts; the end record's counters section records
                // the shard layout itself, so it legitimately differs.
                let prefix = |text: &str| {
                    let mut lines: Vec<&str> = text.lines().collect();
                    assert!(lines.pop().is_some_and(|l| l.contains("\"type\":\"end\"")));
                    lines.join("\n")
                };
                assert_eq!(
                    prefix(&streams[0]),
                    prefix(&streams[1]),
                    "{tag} stream records must be shard-invariant"
                );
            }
        });
    }

    #[test]
    fn watch_fold_reproduces_the_batch_report_via_the_cli() {
        let batch_path = temp_path("watch-batch.json");
        let stream_path = temp_path("watch-stream.ndjson");
        let folded_path = temp_path("watch-folded.json");
        run_cli(&format!(
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 \
             --warmup-ns 40 --measure-ns 300 --metrics-out {batch_path} \
             --stream {stream_path} --stream-window-ns 100"
        ));
        let text = run_cli(&format!(
            "watch --stream-in {stream_path} --once --fold {folded_path}"
        ));
        assert!(text.contains("stream ended"), "{text}");
        let batch = std::fs::read_to_string(&batch_path).expect("batch report");
        let folded = std::fs::read_to_string(&folded_path).expect("folded report");
        assert_eq!(folded, batch, "watch --fold must reproduce the batch bytes");
        let _ = std::fs::remove_file(&batch_path);
        let _ = std::fs::remove_file(&stream_path);
        let _ = std::fs::remove_file(&folded_path);
    }

    #[test]
    fn clean_runs_pass_watch_fatal_on_every_substrate() {
        // The engine stops draining at the last measured header, so every
        // run closes with copies in flight; that alone is no watchpoint.
        let stream_path = temp_path("clean.ndjson");
        let doc_path = temp_path("clean.json");
        for seed in [1, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
            for fabric in [
                "--arch OptHybridSpeculative --benchmark Multicast10 --rate 0.4",
                "--substrate mesh --benchmark Multicast10 --rate 0.1 --size 4",
                "--substrate vcmesh --mcast dpm --benchmark Multicast10 --rate 0.1 --size 4",
            ] {
                run_cli(&format!(
                    "metrics {fabric} --seed {seed} --warmup-ns 40 --measure-ns 400 \
                     --metrics-out {doc_path} --stream {stream_path} --watch-fatal"
                ));
                let stream = std::fs::read_to_string(&stream_path).expect("stream file");
                let end = stream.lines().last().expect("end record");
                assert!(
                    end.contains("\"watchpoints\":0"),
                    "{fabric} seed {seed}: {end}"
                );
            }
        }
        let _ = std::fs::remove_file(&stream_path);
        let _ = std::fs::remove_file(&doc_path);
    }

    #[test]
    fn streaming_leaves_the_batch_outputs_unchanged() {
        // --stream is an additive observer: stdout (the batch report)
        // must stay byte-identical with and without it.
        let stream_path = temp_path("invariance.ndjson");
        let base = "metrics --arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2 \
                    --warmup-ns 40 --measure-ns 200";
        let plain = run_cli(base);
        let streamed = run_cli(&format!("{base} --stream {stream_path} --stream-trace"));
        assert_eq!(plain, streamed);
        let stream = std::fs::read_to_string(&stream_path).expect("stream file");
        let _ = std::fs::remove_file(&stream_path);
        assert!(stream.contains("\"type\":\"head\""));
        assert!(stream.contains("\"type\":\"window\""));
        assert!(
            stream.contains("\"type\":\"trace\""),
            "--stream-trace embeds trace records"
        );
        assert!(stream.contains("\"type\":\"end\""));
    }

    #[test]
    fn chrome_trace_export_validates() {
        let trace_path = temp_path("chrome.json");
        let metrics_path = temp_path("report.json");
        let text = run_cli(&format!(
            "metrics --arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2 \
             --warmup-ns 40 --measure-ns 200 --metrics-out {metrics_path} \
             --trace-format chrome --trace-out {trace_path}"
        ));
        assert!(text.contains("metrics report written"));
        assert!(text.contains("trace written"));
        let trace = std::fs::read_to_string(&trace_path).expect("trace file");
        let events = validate_chrome(&trace).expect("well-formed Chrome trace");
        assert!(events > 0, "trace has events");
        let report = std::fs::read_to_string(&metrics_path).expect("report file");
        assert!(JsonValue::parse(&report).is_ok());
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn ndjson_trace_export_round_trips() {
        let trace_path = temp_path("trace.ndjson");
        let metrics_path = temp_path("ndjson-report.json");
        run_cli(&format!(
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 \
             --warmup-ns 40 --measure-ns 200 --metrics-out {metrics_path} \
             --trace-out {trace_path} --trace-limit 200000"
        ));
        let text = std::fs::read_to_string(&trace_path).expect("trace file");
        let (meta, records) = parse_trace(&text).expect("well-formed NDJSON");
        let meta = meta.expect("trace leads with a meta line");
        assert_eq!(meta.substrate, "mot");
        assert_eq!(meta.arch.as_deref(), Some("Baseline"));
        assert_eq!(meta.dropped_events, 0, "limit 2000 drops nothing here");
        assert!(!records.is_empty());
        assert!(records.iter().any(|r| r.action == Action::Inject));
        assert!(records.iter().any(|r| r.action == Action::Deliver));
        assert!(
            records
                .iter()
                .any(|r| r.action == Action::Deliver && r.created_ps < r.t_ps),
            "records carry causal fields"
        );
        // One meta line + one line per record.
        assert_eq!(records.len() + 1, text.lines().count());
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
    }
}
