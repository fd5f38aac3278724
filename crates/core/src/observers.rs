//! The MoT network's standard observer: power accounting.
//!
//! Every run carries it as its [`MotProbes`]; [`drive`](crate::drive)'s
//! `extra` observers let callers append their own (a
//! [`Recorder`](asynoc_telemetry::Recorder) feeding telemetry's
//! collectors, a live event dump) without touching the engine.

use asynoc_engine::{Observer, SimEvent};
use asynoc_kernel::Time;
use asynoc_nodes::{FlitClass, TimingModel};
use asynoc_power::{EnergyCategory, EnergyLedger};

use crate::fabric::Fabric;
use crate::sim::MotNode;

/// The observer every MoT run carries: it accumulates the energy ledger
/// the paper's power numbers come from, which becomes the power section
/// of the [`RunReport`](crate::RunReport).
///
/// Deposits only inside the measurement window: one wire launch per
/// injected flit, one wire launch per forwarded copy, the traversed
/// node's class-dependent switching energy, and the drop energy of every
/// throttled flit.
pub struct MotProbes<'a> {
    timing: &'a TimingModel,
    fabric: &'a Fabric,
    ledger: EnergyLedger,
}

impl<'a> MotProbes<'a> {
    pub(crate) fn new(timing: &'a TimingModel, fabric: &'a Fabric) -> Self {
        MotProbes {
            timing,
            fabric,
            ledger: EnergyLedger::new(),
        }
    }

    pub(crate) fn into_ledger(self) -> EnergyLedger {
        self.ledger
    }
}

impl Observer<MotNode> for MotProbes<'_> {
    fn on_event(&mut self, _at: Time, in_window: bool, event: &SimEvent<'_, MotNode>) {
        if !in_window {
            return;
        }
        match event {
            SimEvent::Inject { .. } => {
                self.ledger.add(EnergyCategory::Wire, self.timing.wire_fj);
            }
            SimEvent::Forward {
                node, flit, copies, ..
            } => {
                let class = FlitClass::of(flit.kind());
                for _ in 0..*copies {
                    self.ledger.add(EnergyCategory::Wire, self.timing.wire_fj);
                }
                match *node {
                    MotNode::Fanout(flat) => self.ledger.add(
                        EnergyCategory::Fanout,
                        self.timing
                            .fanout_energy(self.fabric.fanout_kind[flat])
                            .for_class(class),
                    ),
                    MotNode::Fanin(_) => self.ledger.add(
                        EnergyCategory::Fanin,
                        self.timing.fanin_energy.for_class(class),
                    ),
                }
            }
            SimEvent::Drop { .. } => {
                self.ledger
                    .add(EnergyCategory::Dropped, self.timing.drop_fj);
            }
            // Injected faults deposit no energy of their own: a stalled
            // flit still pays its wire launch, and the spurious copies of
            // a corrupted symbol are priced by their Forward/Drop events.
            SimEvent::Deliver { .. } | SimEvent::Fault { .. } => {}
        }
    }
}
