//! The one instrumented-run set-up: every command that runs a fabric
//! ([`observe`]) chooses the `--stream` flush window, builds the
//! latency / time-series pair, opens the optional `--stream` sink over
//! it, hands the sinks to the command's run, and closes the sink with the
//! end sections the command supplies; [`fatal_check`] is the
//! `--watch-fatal` epilogue.
//!
//! The sink has no collectors of its own: it stands in front of the pair
//! the command keeps, which is what lets `asynoc watch --fold` reproduce
//! the batch `asynoc-metrics-v1` document byte-for-byte.

use std::io::Write;

use asynoc::{drive, Duration, RunConfig, SimError};
use asynoc_telemetry::{
    JsonValue, LatencyHistograms, RecordSink, Recorder, StreamConfig, StreamSink, TimeSeries,
};

use crate::args::CommonOptions;
use crate::commands::{create_output, named, CliError};
use crate::fabric::Fabric;
use crate::metrics::MetricsRequest;

/// Default flush-window width when `--stream-window-ns` is absent, ns.
const DEFAULT_WINDOW_NS: u64 = 1000;

/// Per-window trace bound for `--stream-trace` on commands without a
/// `--trace-limit` of their own, and `--trace-limit`'s default.
pub(crate) const DEFAULT_TRACE_LIMIT: usize = 100_000;

/// An observed run: the command's result, the latency / time-series pair
/// it fed, and the number of watchpoint records the stream fired (0
/// without `--stream`).
pub(crate) struct Observed<R> {
    pub(crate) result: R,
    pub(crate) latency: LatencyHistograms,
    pub(crate) series: TimeSeries,
    pub(crate) watchpoints: u64,
}

/// One instrumented run of `run` on `net`, which `body` drives. Under
/// `--stream` the sink (its head carrying `head`) is the one sink `body`
/// is handed, and it feeds the pair; without it `body` is handed the pair
/// when the command is `metrics`, which keeps a time-series grid of its
/// `--bin-ns` (and bounds `--stream-trace` by its `--trace-limit`), and
/// nothing otherwise. `body` returns its result, the scalar sections the
/// stream's `end` record carries, and the count of measured packets left
/// incomplete.
///
/// The flush window is `--stream-window-ns`, or the default snapped up
/// onto the `--bin-ns` grid; a command without one bins by the window.
///
/// # Errors
///
/// Returns the first of: the sink's open failure, `body`'s own error, and
/// the stream's I/O failure. The sink's two name `--stream` and its path.
pub(crate) fn observe<F: Fabric, R>(
    net: &F,
    run: &RunConfig,
    head: &JsonValue,
    metrics: Option<&MetricsRequest>,
    common: &CommonOptions,
    body: impl FnOnce(Vec<&mut dyn RecordSink>) -> Result<(R, JsonValue, usize), CliError>,
) -> Result<Observed<R>, CliError> {
    let bin_ns = metrics.map(|request| request.bin_ns);
    let trace_limit = metrics.map_or(DEFAULT_TRACE_LIMIT, |request| request.trace_limit);
    let grid = bin_ns.unwrap_or(DEFAULT_WINDOW_NS);
    let snapped = grid * DEFAULT_WINDOW_NS.div_ceil(grid);
    let window = Duration::from_ns(common.stream_window_ns.unwrap_or(snapped));
    let bin = bin_ns.map_or(window, Duration::from_ns);
    let mut latency = LatencyHistograms::new(run.phases(), net.endpoints());
    let mut series = TimeSeries::new(bin, net.levels());
    let (result, watchpoints) = match &common.stream {
        Some(path) => {
            let out: Box<dyn Write + Send> = if path == "-" {
                Box::new(std::io::stdout())
            } else {
                Box::new(create_output("--stream", path)?)
            };
            let cfg = StreamConfig {
                substrate: F::TAG.to_string(),
                config: head.clone(),
                window,
                trace_limit: common.stream_trace.then_some(trace_limit),
            };
            let failed = named("--stream", path);
            let mut sink = StreamSink::new(out, cfg, &mut latency, &mut series).map_err(&failed)?;
            let (result, sections, incomplete) = body(vec![&mut sink])?;
            let summary = sink.finish(sections, incomplete).map_err(failed)?;
            (result, summary.watchpoints)
        }
        None => {
            let pair: Vec<&mut dyn RecordSink> = match bin_ns {
                Some(_) => vec![&mut latency, &mut series],
                None => Vec::new(),
            };
            (body(pair)?.0, 0)
        }
    };
    Ok(Observed {
        result,
        latency,
        series,
        watchpoints,
    })
}

/// Drives `run` on `net` with `sinks` behind one [`Recorder`] — or, with
/// none, on the engine's zero-observer path.
pub(crate) fn record<F: Fabric>(
    net: &F,
    run: &RunConfig,
    sinks: Vec<&mut dyn RecordSink>,
) -> Result<F::Report, CliError> {
    let report = if sinks.is_empty() {
        drive(net, run, &mut [], None)
    } else {
        drive(
            net,
            run,
            &mut [&mut Recorder::new(net.site_of(), sinks)],
            None,
        )
    };
    Ok(report.map_err(SimError::from)?)
}

/// The `--watch-fatal` epilogue: called after every report is written,
/// so a tripped watchpoint aborts with a non-zero exit without eating
/// the run's own output.
pub(crate) fn fatal_check(watchpoints: u64, common: &CommonOptions) -> Result<(), CliError> {
    if common.watch_fatal && watchpoints > 0 {
        return Err(CliError::Invalid(format!(
            "--watch-fatal: {watchpoints} watchpoint record(s) fired during the run \
             (see the stream for causal context)"
        )));
    }
    Ok(())
}
