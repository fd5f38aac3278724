//! `asynoc-faults` — deterministic fault injection with a differential
//! conformance oracle.
//!
//! The speculation protocol's whole claim is *local recovery*: a
//! mis-speculated copy dies at the next non-speculative stage without
//! anyone upstream noticing. This crate stress-tests that claim by
//! injecting seed-reproducible faults into the shared engine's run loop
//! — on every substrate — and holding every faulted run against a clean
//! twin under the same seed:
//!
//! - [`FaultPlan`] — the replayable campaign: transient link stalls,
//!   corrupted/stuck routing symbols, dropped-and-retried headers, and
//!   unrecoverable packet losses, encodable as compact text
//!   (`stall:3:2:500;lose:0:1`) and drawable at random from a
//!   substrate's certified [`FaultDomain`].
//! - [`run_outcome`] — an instrumented run on any substrate, distilled
//!   to a [`RunOutcome`]: the delivered-destination multiset
//!   ([`DeliveryLog`]), the fault ledger, and the flit-tree fault
//!   counters of an online token ledger — no trace is kept, so the
//!   oracle's memory does not grow with the run.
//! - [`judge`] — the oracle: recoverable plans must leave the delivery
//!   multiset identical with a latency delta bounded by the injected
//!   budget; unrecoverable plans must degrade gracefully (every loss in
//!   the ledger, every broken tree explained); `asynoc faults` prints
//!   the line that replays a violated pair.

#![deny(missing_docs)]

pub mod oracle;
pub mod outcome;
pub mod plan;

pub use oracle::{judge, OracleCheck, OracleVerdict};
pub use outcome::{run_outcome, DeliveryLog, DeliveryMultiset, RunOutcome};
pub use plan::{FaultEntry, FaultPlan, PlanError};

// Re-exported so plan targets and verdicts can be produced without a
// direct engine dependency.
pub use asynoc_engine::{FaultDomain, FaultSummary};

/// The fault report's schema identifier (`schema` field of the JSON
/// document `asynoc faults` emits). Bump when the report shape changes.
pub const FAULTS_SCHEMA: &str = "asynoc-faults-v1";
