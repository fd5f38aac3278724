//! Shared plumbing for `--stream`: sink construction for every
//! substrate and the `--watch-fatal` epilogue.
//!
//! Every streamed command builds its sink here so the stream's `head`
//! config, level grouping, and sites match the batch metrics
//! path exactly — that identity is what lets `asynoc watch --fold`
//! reproduce the batch `asynoc-metrics-v1` document byte-for-byte.

use std::io::Write;

use asynoc::{Duration, Phases};
use asynoc_telemetry::{JsonValue, StreamConfig, StreamSink};

use crate::args::CommonOptions;
use crate::commands::CliError;
use crate::fabric::Fabric;

/// Default flush-window width when `--stream-window-ns` is absent, ns.
pub(crate) const DEFAULT_WINDOW_NS: u64 = 1000;

/// Per-window trace bound for `--stream-trace` on commands without a
/// `--trace-limit` of their own.
pub(crate) const DEFAULT_TRACE_LIMIT: usize = 100_000;

/// Resolves `(window, bin)`. Commands with a time-series grid pass
/// their bin width and get the default window snapped onto it; the
/// rest use one bin per window.
fn resolve_widths(common: &CommonOptions, bin_ns: Option<u64>) -> (Duration, Duration) {
    match bin_ns {
        Some(bin) => {
            let window = common
                .stream_window_ns
                .unwrap_or_else(|| bin * DEFAULT_WINDOW_NS.div_ceil(bin));
            (Duration::from_ns(window), Duration::from_ns(bin))
        }
        None => {
            let window = Duration::from_ns(common.stream_window_ns.unwrap_or(DEFAULT_WINDOW_NS));
            (window, window)
        }
    }
}

/// Opens the destination of `--stream <path|->`.
fn open_out(path: &str) -> Result<Box<dyn Write>, CliError> {
    Ok(if path == "-" {
        Box::new(std::io::stdout())
    } else {
        Box::new(crate::commands::create_output("--stream", path)?)
    })
}

/// Builds the streaming sink for a run on `net`, mirroring the batch
/// metrics collectors (same level grouping, same sites).
///
/// `bin_ns` is the time-series bin width when the command has one
/// (`metrics --bin-ns`); `None` uses one bin per flush window.
pub(crate) fn sink<F: Fabric>(
    net: &F,
    path: &str,
    common: &CommonOptions,
    config: JsonValue,
    phases: Phases,
    bin_ns: Option<u64>,
    trace_limit: usize,
) -> Result<StreamSink<F::Node>, CliError> {
    let (window, bin) = resolve_widths(common, bin_ns);
    Ok(StreamSink::new(
        open_out(path)?,
        StreamConfig {
            substrate: F::TAG.to_string(),
            config,
            window,
            trace_limit: common.stream_trace.then_some(trace_limit),
        },
        phases,
        net.endpoints(),
        net.timeseries(bin),
        net.site_of(),
    )?)
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
