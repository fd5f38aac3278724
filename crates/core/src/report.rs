//! Results of one simulation run.

use std::fmt;

use asynoc_engine::EngineReport;
use asynoc_power::PowerReport;

/// Everything measured during one run's measurement window: the engine's
/// substrate-independent measurements (`latency`, `throughput`,
/// `packets_measured`, `flits_throttled`, `events_processed`, `profile`,
/// … — reachable directly through `Deref`) beside the MoT's own section.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// What the engine measured. Latency is per logical packet, creation
    /// → arrival of the *last* header at its destinations (the paper's
    /// metric); `flits_throttled` counts the redundant copies throttled
    /// at non-speculative nodes, the footprint of speculation. `wall` and
    /// `profile` are host-side metadata, excluded from determinism
    /// comparisons.
    pub engine: EngineReport,
    /// Total network power over the measurement window.
    pub power: PowerReport,
}

impl std::ops::Deref for RunReport {
    type Target = EngineReport;

    fn deref(&self) -> &EngineReport {
        &self.engine
    }
}

impl std::ops::DerefMut for RunReport {
    fn deref_mut(&mut self) -> &mut EngineReport {
        &mut self.engine
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "packets={} latency[{}] throughput[{}] power[{}] throttled={} events={} wall={:?}",
            self.packets_measured,
            self.latency,
            self.throughput,
            self.power,
            self.flits_throttled,
            self.events_processed,
            self.wall
        )
    }
}
