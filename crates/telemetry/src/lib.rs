//! `asynoc-telemetry` — composable, substrate-agnostic collectors over
//! one typed record of what happened.
//!
//! The simulators (the `asynoc` MoT, the 2D meshes) expose one
//! instrumentation point: the engine's `Observer<N>` trait, called
//! synchronously for every inject/forward/drop/deliver. This crate
//! implements it once — a [`Recorder`] owns the run's [`SiteOf`], builds
//! each event's [`TraceRecord`] and hands it to every registered
//! [`RecordSink`] — and everything else here is a record sink (or an
//! export format for what one collected), so it runs the same from a
//! live run and from a recording of one:
//!
//! - [`LatencyHistograms`] — log-bucketed latency distributions
//!   (p50/p90/p99/p999), overall, per destination, and per hop count.
//! - [`TimeSeries`] — fixed-width time bins of throughput, in-flight
//!   flits, and per-level channel busy-fraction.
//! - [`SpeculationWaste`] — the per-node waste ledger: throttles absorbed,
//!   redundant copies created, wasted wire/drop energy priced with the
//!   substrate's own constants (reconciles with its power report).
//! - [`FaultLedger`] — per-class/per-site counters of injected fault
//!   events, including the logical ids of packets lost at a source
//!   (reconciles with the fault oracle and span-tree analysis).
//! - [`Site`] — where an event happened: the one identity of a node
//!   above the engine, the only writer and reader of the site-label
//!   grammar. A substrate hands the run's recorder one [`SiteOf`] function.
//! - [`TraceCollector`] / [`TraceRecord::write_ndjson`] — flat, typed,
//!   `Copy` trace records with NDJSON import/export shared by every
//!   substrate; [`TraceFile`] has its own thread write their lines into a
//!   file as the run goes;
//!   [`read_trace`] reads a trace back one line at a time, and
//!   [`visit_trace`] hands each line on as it is read.
//! - [`TokenLedger`] — token conservation per flit, online: what the
//!   stream's watchpoints, the fault oracle and the analysis fold judge
//!   from, holding only what is in flight.
//! - [`ChromeTraceObserver`] — Chrome trace-event (Perfetto-loadable)
//!   export, written straight to its file, with a [`validate_chrome`]
//!   checker.
//! - [`StreamSink`] — live export: a window over the run's
//!   [`LatencyHistograms`] and [`TimeSeries`] writing `asynoc-stream-v1`
//!   NDJSON windows/traces/watchpoints per simulated-time window, with
//!   [`fold_stream`] (incrementally: [`StreamFolder`]) reconstructing the
//!   batch `asynoc-metrics-v1` document byte for byte from a finished
//!   stream.
//!
//! Registering none of these costs nothing: no recorder is built and the
//! engine's observer slice is simply empty. Serialization is hand-rolled
//! JSON ([`JsonValue`]) because the workspace is dependency-free.

#![deny(missing_docs)]

pub mod chrome;
pub mod fault_ledger;
pub mod histogram;
pub mod json;
pub mod latency;
pub mod recorder;
#[cfg(test)]
mod reference;
pub mod site;
pub mod stream;
pub mod timeseries;
pub mod tokens;
pub mod trace;
pub mod waste;
mod writer;

pub use chrome::{validate_chrome, ChromeTraceObserver};
pub use fault_ledger::FaultLedger;
pub use histogram::LogHistogram;
pub use json::{JsonError, JsonValue};
pub use latency::{LatencyHistograms, LatencyWindow};
pub use recorder::{RecordSink, Recorder};
pub use site::{Site, SiteOf, Stage};
pub use stream::{
    fold_stream, StreamConfig, StreamFoldError, StreamFolder, StreamLine, StreamSink,
    StreamSummary, STREAM_SCHEMA,
};
pub use timeseries::{Bin, LevelSpec, TimeSeries};
pub use tokens::{FlitTokens, TokenLedger, TokenTally, Tree};
pub use trace::{
    parse_trace, read_trace, visit_trace, Action, Detail, TraceCollector, TraceFile, TraceLine,
    TraceMeta, TraceParseError, TraceRecord, TRACE_SCHEMA,
};
pub use waste::{NodeWaste, SpeculationWaste};

/// The maps every record sink keys by packet or site, on the kernel's one
/// hasher — here for the analysis crate, which reads the workspace
/// through this one.
pub use asynoc_kernel::hash::{HashMap, HashSet};

/// The metrics report's schema identifier (`schema` field of the JSON
/// document `asynoc metrics` emits). Bump when the report shape changes.
pub const METRICS_SCHEMA: &str = "asynoc-metrics-v1";
