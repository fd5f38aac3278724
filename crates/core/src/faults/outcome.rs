//! Instrumented fault runs and their distilled outcomes.
//!
//! The oracle never compares raw reports: both sides of a differential
//! pair are reduced to a [`RunOutcome`] — the delivered-destination
//! multiset, the mean latency, the fault ledger, and the flit-tree
//! fault counters — by running the substrate with the same observer
//! stack — one [`run_outcome`] for every [`Substrate`]. Every observer
//! of the stack judges from the event stream as it goes by: none keeps
//! a copy of it, so an outcome costs the memory of what is in flight
//! however long the run is. Clean runs use
//! the plain observer path (no fault state is even constructed, keeping
//! the zero-cost guarantee honest); faulted runs thread the armed plan
//! through the engine's fault hooks.

use std::collections::BTreeMap;

use crate::{drive, Observer, RunConfig, SimError, SimEvent, Substrate, Time};
use asynoc_engine::FaultSummary;
use asynoc_telemetry::{FaultLedger, RecordSink, Recorder, SiteOf, TokenLedger};

use super::plan::FaultPlan;

/// The delivered-destination multiset: how many header flits each
/// `(logical packet, destination)` pair received. Recoverable faults
/// must leave this identical to the clean twin's.
pub type DeliveryMultiset = BTreeMap<(u64, usize), u64>;

/// Observer recording every header delivery, ungated by the
/// measurement window (the differential oracle compares whole runs).
#[derive(Clone, Debug, Default)]
pub struct DeliveryLog {
    deliveries: DeliveryMultiset,
}

impl DeliveryLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        DeliveryLog::default()
    }

    /// The recorded multiset.
    #[must_use]
    pub fn deliveries(&self) -> &DeliveryMultiset {
        &self.deliveries
    }

    /// Consumes the log.
    #[must_use]
    pub fn into_deliveries(self) -> DeliveryMultiset {
        self.deliveries
    }
}

impl<N> Observer<N> for DeliveryLog {
    fn on_event(&mut self, _at: Time, _in_window: bool, event: &SimEvent<'_, N>) {
        let SimEvent::Deliver { dest, flit } = event else {
            return;
        };
        if flit.kind().is_header() {
            let key = (flit.descriptor().logical_id().as_u64(), *dest);
            *self.deliveries.entry(key).or_default() += 1;
        }
    }
}

/// Everything the oracle needs to know about one run.
#[derive(Clone, Debug, Default)]
pub struct RunOutcome {
    /// Header deliveries per `(logical packet, destination)`.
    pub deliveries: DeliveryMultiset,
    /// Mean measured latency, ps (`None` when nothing was measured).
    pub mean_latency_ps: Option<u64>,
    /// Measured packets still undelivered at the end of the run.
    pub packets_incomplete: usize,
    /// The observers' fault ledger (empty on clean runs).
    pub ledger: FaultLedger,
    /// The armed table's own fire counters (default on clean runs).
    pub summary: FaultSummary,
    /// Flit trees touched by at least one fault record.
    pub fault_affected_trees: usize,
    /// Flit trees that are impossible: more copies consumed than created,
    /// or events without an injection.
    pub broken_trees: usize,
    /// Broken trees explained by fault records (never silent loss).
    pub broken_with_cause: usize,
    /// The engine's self-profile. Host-side metadata only — the oracle
    /// never compares it.
    pub profile: asynoc_engine::probe::EngineProfile,
}

/// Runs `net`, faulted iff `plan` is non-empty, with the oracle's
/// stack — the delivery log on the event stream, the fault and token
/// ledgers on the records a [`Recorder`] over `site_of` makes of it —
/// ahead of the caller's `sinks` (e.g. a streaming sink), and distills
/// the outcome. Extra sinks see the identical, ungated record stream and
/// cannot perturb the outcome — streamed fault runs stay oracle-clean.
///
/// # Errors
///
/// Returns an error on an invalid run specification.
pub fn run_outcome<S: Substrate>(
    net: &S,
    run: &RunConfig,
    plan: Option<&FaultPlan>,
    site_of: SiteOf<S::Node>,
    sinks: &mut [&mut dyn RecordSink],
) -> Result<RunOutcome, SimError> {
    let mut log = DeliveryLog::new();
    let mut ledger = FaultLedger::new();
    let mut tokens = TokenLedger::default();
    let mut stack: Vec<&mut dyn RecordSink> = vec![&mut ledger, &mut tokens];
    // Reborrowing each caller sink shortens its trait-object lifetime
    // to the local stack's.
    stack.extend(sinks.iter_mut().map(|s| &mut **s as &mut dyn RecordSink));
    let mut recorder = Recorder::new(site_of, stack);
    let mut armed = plan
        .filter(|plan| !plan.entries.is_empty())
        .map(FaultPlan::arm);
    let report = drive(net, run, &mut [&mut log, &mut recorder], armed.as_mut())?;
    let trees = tokens.tally();
    Ok(RunOutcome {
        deliveries: log.into_deliveries(),
        mean_latency_ps: report.latency.mean().map(|d| d.as_ps()),
        packets_incomplete: report.packets_incomplete,
        ledger,
        summary: armed.map(|armed| armed.summary()).unwrap_or_default(),
        fault_affected_trees: trees.fault_affected,
        broken_trees: trees.broken,
        broken_with_cause: trees.broken_with_cause,
        profile: report.profile,
    })
}
