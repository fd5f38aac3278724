//! `asynoc analyze`: offline causal analysis over an exported trace.
//!
//! Reads the NDJSON flit trace a `metrics --trace-out` run produced
//! (meta line optional — a bare v1 record stream still analyzes, just
//! without window gating or energy pricing), folds each record into the
//! `asynoc-analysis` fold as it is read, and emits the pinned
//! `asynoc-analysis-v1` JSON report. With `--report-out` the report
//! goes to the file and the stream carries status (plus the heatmaps
//! under `--heatmap`); without it, stdout is the pure JSON document —
//! unless `--heatmap` asks for the human-readable maps instead.

use std::io::{BufReader, Write};

use asynoc_analysis::Analysis;
use asynoc_telemetry::{visit_trace, TraceLine};

use crate::commands::{create_optional, named, open_input, CliError};

/// A fully-resolved `analyze` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyzeRequest {
    /// The NDJSON trace to ingest.
    pub trace_in: String,
    /// JSON report destination (`None` = the command's output stream).
    pub report_out: Option<String>,
    /// Bound on the ranked lists in the report.
    pub top: usize,
    /// Print the textual congestion heatmaps.
    pub heatmap: bool,
    /// Skip malformed lines (counted in the report) instead of failing.
    pub lenient: bool,
    /// Self-profile destination. Analysis runs no simulation, so the
    /// document has an empty `runs` array — only the pass's wall clock
    /// and allocation count.
    pub profile: Option<String>,
}

/// Executes an `analyze` command.
///
/// # Errors
///
/// Returns a [`CliError`] on I/O failure or (without `--lenient`) on the
/// first malformed trace line.
pub fn execute_analyze(request: &AnalyzeRequest, out: &mut dyn Write) -> Result<(), CliError> {
    let profiler = crate::profile::ProfileWriter::when(request.profile.as_ref(), "analyze")?;
    let input = BufReader::new(open_input("--trace-in", &request.trace_in)?);
    let mut report_file = create_optional("--report-out", request.report_out.as_ref())?;
    // One line of text at a time, each record folded as it is read: the
    // fold holds the flits in flight, not the trace.
    let mut analysis = Analysis::new(None, request.top);
    let errors = visit_trace(input, request.lenient, |line| match line {
        TraceLine::Blank => {}
        TraceLine::Meta(meta) => analysis.set_meta(meta),
        TraceLine::Record(record) => analysis.push(&record),
    })
    .map_err(named("--trace-in", &request.trace_in))?;
    if let (false, Some(first)) = (request.lenient, errors.first()) {
        return Err(CliError::Invalid(format!("{}: {first}", request.trace_in)));
    }
    let skipped = errors.len() as u64;
    if analysis.ingest().records == 0 {
        return Err(CliError::Invalid(format!(
            "{}: no trace records to analyze",
            request.trace_in
        )));
    }

    let analysis = analysis.finish();
    let rendered = analysis.to_json(skipped).render_pretty();
    match request.report_out.as_ref().zip(report_file.as_mut()) {
        Some((path, file)) => {
            file.write_all(rendered.as_bytes())?;
            writeln!(out, "analysis report written to {path}")?;
            if skipped > 0 {
                writeln!(out, "skipped {skipped} malformed trace lines")?;
            }
            if request.heatmap {
                write!(out, "{}", analysis.heatmap_text())?;
            }
        }
        // Bare stdout stays a single parseable document: JSON by
        // default, the heatmap block when that's what was asked for.
        None if request.heatmap => write!(out, "{}", analysis.heatmap_text())?,
        None => out.write_all(rendered.as_bytes())?,
    }
    if let Some(profiler) = profiler {
        profiler.finish()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::args::parse;
    use crate::commands::execute;
    use asynoc_analysis::ANALYSIS_SCHEMA;
    use asynoc_telemetry::JsonValue;

    fn run_cli(line: &str) -> String {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let command = parse(&args).expect("valid invocation");
        let mut out = Vec::new();
        execute(&command, &mut out).expect("command succeeds");
        String::from_utf8(out).expect("utf8 output")
    }

    fn temp_path(name: &str) -> String {
        let mut path = std::env::temp_dir();
        path.push(format!("asynoc-analyze-test-{}-{name}", std::process::id()));
        path.to_string_lossy().into_owned()
    }

    /// Runs metrics with a trace export, then analyzes the trace.
    fn round_trip(trace_name: &str, metrics_line: &str) -> (String, String) {
        let trace_path = temp_path(trace_name);
        let metrics_path = temp_path(&format!("{trace_name}-metrics.json"));
        run_cli(&format!(
            "{metrics_line} --metrics-out {metrics_path} --trace-out {trace_path}"
        ));
        (trace_path, metrics_path)
    }

    /// The analysis of a trace `metrics` wrote, on either substrate: its
    /// flit trees stay open only where the run stopped mid-flight, never
    /// broken, and a scorecard needs the MoT's energy constants.
    #[test]
    fn analyze_reads_back_the_trace_metrics_wrote() {
        for (fabric, substrate) in [
            (
                "--arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3",
                "mot",
            ),
            (
                "--substrate mesh --benchmark Uniform-random --rate 0.1 --size 4",
                "mesh",
            ),
        ] {
            let (trace_path, metrics_path) = round_trip(
                &format!("{substrate}.ndjson"),
                &format!("metrics {fabric} --warmup-ns 40 --measure-ns 400 --trace-limit 200000"),
            );
            let report = JsonValue::parse(&run_cli(&format!("analyze --trace-in {trace_path}")))
                .expect("analyze emits valid JSON");
            let _ = (
                std::fs::remove_file(trace_path),
                std::fs::remove_file(metrics_path),
            );
            let text = |key: &str| report.get(key).and_then(JsonValue::as_str);
            assert_eq!(text("schema"), Some(ANALYSIS_SCHEMA));
            assert_eq!(text("substrate"), Some(substrate));
            let ingest = |key: &str| report.get("ingest").and_then(|i| i.get(key));
            let count = |key: &str| ingest(key).and_then(JsonValue::as_f64).expect(key);
            assert_eq!(count("broken_trees"), 0.0, "{substrate}");
            let (open, total) = (count("open_trees"), count("flit_trees"));
            assert!(
                open * 10.0 < total,
                "{substrate}: {open} of {total} trees open"
            );
            let scorecard = report.get("scorecard").expect("scorecard member");
            assert_eq!(*scorecard == JsonValue::Null, substrate == "mesh");
        }
    }

    #[test]
    fn heatmap_mode_prints_maps_and_report_out_writes_json() {
        let (trace_path, metrics_path) = round_trip(
            "heat.ndjson",
            "metrics --arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2 \
             --warmup-ns 40 --measure-ns 200",
        );
        let report_path = temp_path("heat-report.json");
        let text = run_cli(&format!(
            "analyze --trace-in {trace_path} --report-out {report_path} --heatmap --top 3"
        ));
        assert!(text.contains("analysis report written"));
        assert!(text.contains("channel busy") && text.contains("wait (queueing time)"));
        assert!(text.contains("fo-L0"));
        let report = JsonValue::parse(&std::fs::read_to_string(&report_path).expect("report file"))
            .expect("valid JSON");
        let slowest = report
            .get("critical_path")
            .and_then(|c| c.get("slowest"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(slowest.len() <= 3, "--top bounds the ranked lists");

        // Bare --heatmap prints only the maps.
        let maps = run_cli(&format!("analyze --trace-in {trace_path} --heatmap"));
        assert!(maps.starts_with("channel busy"));
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
        let _ = std::fs::remove_file(&report_path);
    }
}
