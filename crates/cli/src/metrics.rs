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
    ])
}

/// One run's outputs: the report document, the run's identity `config`
/// with the engine's self-profile, and the number of watchpoint records
/// the stream fired (0 without `--stream`).
type MetricsRun = (JsonValue, (JsonValue, asynoc::probe::EngineProfile), u64);

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
    let report = drive(net, &run, &mut [&mut recorder], None).map_err(asynoc::SimError::from)?;

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
        (config, report.profile),
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
        let (config, engine_profile) = engine_profile;
        profiler.add_run(config, &engine_profile);
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
    use asynoc_telemetry::validate_chrome;

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

    /// The member at the dotted `path` of `doc`.
    fn at<'a>(doc: &'a JsonValue, path: &str) -> &'a JsonValue {
        let member = |value: &'a JsonValue, key| value.get(key).expect(path);
        path.split('.').fold(doc, member)
    }

    fn num(doc: &JsonValue, path: &str) -> f64 {
        at(doc, path).as_f64().expect(path)
    }

    #[test]
    fn mot_report_has_percentiles_busy_fractions_and_waste() {
        let doc = metrics_doc(
            "metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 \
             --warmup-ns 40 --measure-ns 400 --bin-ns 50",
        );
        assert_eq!(at(&doc, "schema").as_str(), Some(METRICS_SCHEMA));
        assert_eq!(at(&doc, "substrate").as_str(), Some("mot"));
        let (p50, p99) = (num(&doc, "latency.p50_ps"), num(&doc, "latency.p99_ps"));
        assert!(p50 > 0.0 && p99 >= p50, "{p50} / {p99}");
        for list in ["latency.per_dest", "latency.per_hops", "waste.per_node"] {
            assert!(!at(&doc, list).as_array().expect(list).is_empty(), "{list}");
        }
        // 8x8 MoT: three fanout levels + three fanin levels.
        assert_eq!(
            at(&doc, "timeseries.levels").as_array().map(<[_]>::len),
            Some(6)
        );
        let bins = at(&doc, "timeseries.bins").as_array().expect("bins");
        let busy = bins
            .iter()
            .flat_map(|bin| at(bin, "busy_fraction").as_array().unwrap());
        let busiest = busy.map(|v| v.as_f64().unwrap()).fold(0.0, f64::max);
        assert!(busiest > 0.0 && busiest <= 1.0, "busy fraction {busiest}");
        // The hybrid network speculates, and the waste ledger prices its
        // drops exactly as the energy ledger does (mW x ps is fJ).
        let drop_fj = num(&doc, "waste.total_drop_fj");
        let energy_fj = num(&doc, "power.dropped_mw") * num(&doc, "power.window_ps");
        assert!(drop_fj > 0.0, "hybrid network must drop copies");
        assert!(
            (drop_fj - energy_fj).abs() <= 1e-6 * energy_fj,
            "waste ledger {drop_fj} fJ vs energy ledger {energy_fj} fJ"
        );
    }

    #[test]
    fn mesh_counters_report_the_engines_delivered_flits() {
        // The mesh document used to hard-code `flits_delivered` to 0 next
        // to a non-zero `packets_measured`: its counters are the engine's.
        let line = "metrics --substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 \
                    --flits 1 --warmup-ns 40 --measure-ns 400";
        let Command::Metrics(MetricsRequest { common, .. }) =
            parse(&argv(line)).expect("valid invocation")
        else {
            panic!("expected metrics");
        };
        let run = run_config(Benchmark::UniformRandom, 0.1, &common).unwrap();
        let mesh = fabric::mesh::<Wormhole>(4, 4, (), &common).unwrap();
        let engine = drive(&mesh, &run, &mut [], None).unwrap();
        let doc = metrics_doc(line);
        assert_eq!(
            at(&doc, "power"),
            &JsonValue::Null,
            "no energy model on a mesh"
        );
        assert_eq!(at(&doc, "waste"), &JsonValue::Null);
        assert!(engine.flits_delivered > 0, "the run delivered traffic");
        for (counter, value) in [
            ("flits_delivered", engine.flits_delivered),
            ("packets_measured", engine.packets_measured as u64),
            // A wormhole mesh never throttles.
            ("flits_throttled", 0),
        ] {
            assert_eq!(
                num(&doc, &format!("counters.{counter}")),
                value as f64,
                "{counter}"
            );
        }
    }

    #[test]
    fn vcmesh_report_carries_the_vc_section() {
        let doc = metrics_doc(
            "metrics --substrate vcmesh --benchmark Multicast10 --rate 0.1 --size 4 \
             --warmup-ns 40 --measure-ns 400",
        );
        assert_eq!(
            doc.get("substrate").and_then(JsonValue::as_str),
            Some("vcmesh")
        );
        assert_eq!(doc.get("power"), Some(&JsonValue::Null));
        assert_eq!(doc.get("waste"), Some(&JsonValue::Null));
        assert!(num(&doc, "latency.count") > 0.0);
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
        assert!(num(&doc, "vcs.link_traversals") > 0.0);
    }

    #[test]
    fn streamed_windows_fold_back_into_the_batch_document() {
        use asynoc_telemetry::fold_stream;
        // Every substrate: the incremental stream must fold into the
        // exact batch report.
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
            let batch_path = temp_path(&format!("fold-batch-{tag}.json"));
            let stream_path = temp_path(&format!("fold-stream-{tag}.ndjson"));
            run_cli(&format!(
                "metrics {substrate_args} --warmup-ns 40 --measure-ns 400 \
                 --metrics-out {batch_path} --stream {stream_path}"
            ));
            let batch = std::fs::read_to_string(&batch_path).expect("batch report");
            let stream = std::fs::read_to_string(&stream_path).expect("stream file");
            let folded = fold_stream(&stream).expect("stream folds").render_pretty();
            assert_eq!(folded, batch, "fold != batch for {substrate_args}");
            let _ = std::fs::remove_file(&batch_path);
            let _ = std::fs::remove_file(&stream_path);
        }
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
}
