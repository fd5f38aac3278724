//! Shared plumbing for `--stream`: sink construction for every
//! substrate and the `--watch-fatal` epilogue.
//!
//! Every streamed command opens its sink here, over the latency /
//! time-series pair the command itself keeps ([`Fabric::collectors`]):
//! the sink has no collectors of its own, which is what lets `asynoc
//! watch --fold` reproduce the batch `asynoc-metrics-v1` document
//! byte-for-byte.

use std::io::Write;

use asynoc::Duration;
use asynoc_telemetry::{JsonValue, LatencyHistograms, StreamConfig, StreamSink, TimeSeries};

use crate::args::CommonOptions;
use crate::commands::CliError;
use crate::fabric::Fabric;

/// Default flush-window width when `--stream-window-ns` is absent, ns.
const DEFAULT_WINDOW_NS: u64 = 1000;

/// Per-window trace bound for `--stream-trace` on commands without a
/// `--trace-limit` of their own.
pub(crate) const DEFAULT_TRACE_LIMIT: usize = 100_000;

/// The flush window: `--stream-window-ns`, or the default snapped up onto
/// the time-series grid of a command that has one (`metrics --bin-ns`).
/// A command without one bins by this window.
pub(crate) fn window(common: &CommonOptions, bin_ns: Option<u64>) -> Duration {
    let bin = bin_ns.unwrap_or(DEFAULT_WINDOW_NS);
    let snapped = bin * DEFAULT_WINDOW_NS.div_ceil(bin);
    Duration::from_ns(common.stream_window_ns.unwrap_or(snapped))
}

/// Opens the `--stream <path|->` sink of a run on a fabric of type `F`
/// over the run's own `latency` and `series`.
pub(crate) fn sink<'a, F: Fabric>(
    path: &str,
    common: &CommonOptions,
    config: JsonValue,
    window: Duration,
    trace_limit: usize,
    latency: &'a mut LatencyHistograms,
    series: &'a mut TimeSeries,
) -> Result<StreamSink<'a>, CliError> {
    let out: Box<dyn Write> = if path == "-" {
        Box::new(std::io::stdout())
    } else {
        Box::new(crate::commands::create_output("--stream", path)?)
    };
    let cfg = StreamConfig {
        substrate: F::TAG.to_string(),
        config,
        window,
        trace_limit: common.stream_trace.then_some(trace_limit),
    };
    Ok(StreamSink::new(out, cfg, latency, series)?)
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
