//! The MoT network's standard observers.
//!
//! Power accounting and per-node activity are composable [`Observer`]s.
//! Every run carries both as its [`MotProbes`]; [`drive`](crate::drive)'s
//! `extra` observers let callers append their own (a
//! [`Recorder`](asynoc_telemetry::Recorder) feeding telemetry's
//! collectors, a live event dump) without touching the engine.

use asynoc_engine::{Observer, RunConfig, SimEvent};
use asynoc_kernel::Time;
use asynoc_nodes::{FlitClass, TimingModel};
use asynoc_power::{EnergyCategory, EnergyLedger};

use crate::fabric::Fabric;
use crate::report::NodeActivity;
use crate::sim::MotNode;

/// The observers every MoT run carries, in the order they see each event:
/// power, activity. Their state becomes the MoT section of the
/// [`RunReport`](crate::RunReport).
pub struct MotProbes<'a> {
    power: PowerObserver<'a>,
    activity: ActivityObserver,
}

impl<'a> MotProbes<'a> {
    pub(crate) fn new(timing: &'a TimingModel, fabric: &'a Fabric, run: &RunConfig) -> Self {
        MotProbes {
            power: PowerObserver::new(timing, fabric),
            activity: ActivityObserver::new(NodeActivity::new(fabric.size, run.phases().measure())),
        }
    }

    pub(crate) fn finish(self) -> (EnergyLedger, NodeActivity) {
        (self.power.into_ledger(), self.activity.into_activity())
    }
}

impl Observer<MotNode> for MotProbes<'_> {
    fn on_event(&mut self, at: Time, in_window: bool, event: &SimEvent<'_, MotNode>) {
        self.power.on_event(at, in_window, event);
        self.activity.on_event(at, in_window, event);
    }
}

/// Accumulates the energy ledger the paper's power numbers come from.
///
/// Deposits only inside the measurement window: one wire launch per
/// injected flit, one wire launch per forwarded copy, the traversed
/// node's class-dependent switching energy, and the drop energy of every
/// throttled flit.
pub(crate) struct PowerObserver<'a> {
    timing: &'a TimingModel,
    fabric: &'a Fabric,
    ledger: EnergyLedger,
}

impl<'a> PowerObserver<'a> {
    pub(crate) fn new(timing: &'a TimingModel, fabric: &'a Fabric) -> Self {
        PowerObserver {
            timing,
            fabric,
            ledger: EnergyLedger::new(),
        }
    }

    pub(crate) fn into_ledger(self) -> EnergyLedger {
        self.ledger
    }
}

impl Observer<MotNode> for PowerObserver<'_> {
    fn on_event(
        &mut self,
        _at: asynoc_kernel::Time,
        in_window: bool,
        event: &SimEvent<'_, MotNode>,
    ) {
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

/// Accumulates per-node fire/throttle/busy counters over the window.
pub(crate) struct ActivityObserver {
    activity: NodeActivity,
}

impl ActivityObserver {
    pub(crate) fn new(activity: NodeActivity) -> Self {
        ActivityObserver { activity }
    }

    pub(crate) fn into_activity(self) -> NodeActivity {
        self.activity
    }
}

impl Observer<MotNode> for ActivityObserver {
    fn on_event(
        &mut self,
        _at: asynoc_kernel::Time,
        in_window: bool,
        event: &SimEvent<'_, MotNode>,
    ) {
        if !in_window {
            return;
        }
        match event {
            SimEvent::Forward { node, busy, .. } => match *node {
                MotNode::Fanout(flat) => self.activity.record_fanout(flat, *busy, false),
                MotNode::Fanin(flat) => self.activity.record_fanin(flat, *busy),
            },
            SimEvent::Drop { node, busy, .. } => {
                let MotNode::Fanout(flat) = *node else {
                    unreachable!("only fanout nodes throttle");
                };
                self.activity.record_fanout(flat, *busy, true);
            }
            SimEvent::Inject { .. } | SimEvent::Deliver { .. } | SimEvent::Fault { .. } => {}
        }
    }
}
