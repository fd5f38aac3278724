//! `asynoc-analysis` — offline causal analysis over flit traces.
//!
//! The telemetry stack answers *what happened*: latency percentiles,
//! busy fractions, a waste ledger. This crate answers *why*: it ingests
//! the [`TraceRecord`](asynoc_telemetry::TraceRecord) stream a run
//! produced (live, via the [`TraceCollector`](asynoc_telemetry::TraceCollector)
//! observer; or offline, from an NDJSON file) and reconstructs a **causal
//! span tree per packet** — source injection, each fanout replication
//! (including speculative copies later throttled), fanin arbitration
//! waits, ejection. On top of the tree it computes:
//!
//! - the **critical path** per packet, with each hop's delay split into
//!   service (the node's handshake occupancy) and queueing (everything
//!   else: wire flight plus waiting for the channel);
//! - **aggregate attribution** — blocked time and arbitration loss
//!   ranked per node, per level, and per fanin tree;
//! - a textual **congestion heatmap** of channel-busy and wait time
//!   across the topology grid;
//! - a **speculation scorecard** joining the waste ledger's quantities
//!   (throttles, energy burned) to span data (latency saved on the
//!   winning copy), per speculative region.
//!
//! Every quantity reconciles with the online observers by construction:
//! latency samples are re-derived with the same creation-time gate the
//! histograms apply, critical-path components telescope to exactly the
//! measured latency, and scorecard totals match the `SpeculationWaste`
//! ledger priced with the constants from the trace's meta line.
//!
//! The CLI surface is `asynoc analyze`, which emits the whole thing as a
//! pinned [`ANALYSIS_SCHEMA`] JSON report.

#![deny(missing_docs)]

pub mod attribution;
pub mod heatmap;
pub mod report;
pub mod scorecard;
pub mod span;

pub use attribution::{Attribution, NodeStat};
pub use report::{Analysis, LatencySummary};
pub use scorecard::{RegionScore, Scorecard};
pub use span::{critical_paths, CriticalPath, FlitTree, Hop, SpanForest, SpanNode};

// The typed vocabulary of a trace record lives beside it.
pub use asynoc_telemetry::{Action, Site};

/// The analysis report's schema identifier (`schema` field of the JSON
/// document `asynoc analyze` emits). Bump when the report shape changes.
pub const ANALYSIS_SCHEMA: &str = "asynoc-analysis-v1";
