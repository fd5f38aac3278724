//! The MoT network's standard observers.
//!
//! Power accounting, per-node activity, and flit tracing used to be
//! hard-wired into the simulation loop; they are now composable
//! [`Observer`]s. Every run carries all three as its [`MotProbes`];
//! [`crate::Network::run_with_observers`] lets callers append their own
//! (e.g. a custom histogram or a live event dump) without touching the
//! engine.

use asynoc_engine::{ForwardInfo, Observer, RunConfig, SimEvent};
use asynoc_kernel::Time;
use asynoc_nodes::{FlitClass, TimingModel};
use asynoc_power::{EnergyCategory, EnergyLedger};
use asynoc_topology::FaninNodeId;

use crate::fabric::Fabric;
use crate::report::NodeActivity;
use crate::sim::MotNode;
use crate::trace::{TraceAction, TraceEvent, TraceLocation, TraceRecorder};

/// The observers every MoT run carries, in the order they see each event:
/// power, activity, trace. Their state becomes the MoT section of the
/// [`RunReport`](crate::RunReport).
pub struct MotProbes<'a> {
    power: PowerObserver<'a>,
    activity: ActivityObserver,
    trace: TraceObserver<'a>,
}

impl<'a> MotProbes<'a> {
    pub(crate) fn new(timing: &'a TimingModel, fabric: &'a Fabric, run: &RunConfig) -> Self {
        MotProbes {
            power: PowerObserver::new(timing, fabric),
            activity: ActivityObserver::new(NodeActivity::new(fabric.size, run.phases().measure())),
            trace: TraceObserver::new(fabric, run.trace_limit()),
        }
    }

    pub(crate) fn finish(self) -> (EnergyLedger, NodeActivity, Vec<TraceEvent>) {
        (
            self.power.into_ledger(),
            self.activity.into_activity(),
            self.trace.into_events(),
        )
    }
}

impl Observer<MotNode> for MotProbes<'_> {
    fn on_event(&mut self, at: Time, in_window: bool, event: &SimEvent<'_, MotNode>) {
        self.power.on_event(at, in_window, event);
        self.activity.on_event(at, in_window, event);
        self.trace.on_event(at, in_window, event);
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

/// Records the bounded flit-level trace (all phases, not just the
/// measurement window).
pub(crate) struct TraceObserver<'a> {
    fabric: &'a Fabric,
    recorder: TraceRecorder,
}

impl<'a> TraceObserver<'a> {
    pub(crate) fn new(fabric: &'a Fabric, limit: usize) -> Self {
        TraceObserver {
            fabric,
            recorder: TraceRecorder::new(limit),
        }
    }

    pub(crate) fn into_events(self) -> Vec<TraceEvent> {
        self.recorder.into_events()
    }

    fn location(&self, node: MotNode) -> TraceLocation {
        match node {
            MotNode::Fanout(flat) => TraceLocation::Fanout(self.fabric.fanout_coords[flat]),
            MotNode::Fanin(flat) => {
                TraceLocation::Fanin(FaninNodeId::from_flat_index(self.fabric.size, flat))
            }
        }
    }
}

impl Observer<MotNode> for TraceObserver<'_> {
    fn on_event(
        &mut self,
        at: asynoc_kernel::Time,
        _in_window: bool,
        event: &SimEvent<'_, MotNode>,
    ) {
        if !self.recorder.enabled() {
            return;
        }
        let (flit, location, action) = match event {
            SimEvent::Inject { source, flit } => {
                (*flit, TraceLocation::Source(*source), TraceAction::Injected)
            }
            SimEvent::Forward {
                node, flit, info, ..
            } => {
                let action = match info {
                    ForwardInfo::Routed(symbol) => TraceAction::Forwarded(*symbol),
                    ForwardInfo::Arbitrated { input } => TraceAction::Arbitrated { input: *input },
                };
                (*flit, self.location(*node), action)
            }
            SimEvent::Drop { node, flit, .. } => {
                (*flit, self.location(*node), TraceAction::Throttled)
            }
            SimEvent::Deliver { dest, flit } => {
                (*flit, TraceLocation::Sink(*dest), TraceAction::Delivered)
            }
            // The MoT-native trace format has no fault action; the
            // substrate-neutral `TraceCollector` is the faulted-run
            // tracer.
            SimEvent::Fault { .. } => return,
        };
        self.recorder.push(TraceEvent {
            time: at,
            packet: flit.descriptor().id(),
            flit: flit.index(),
            location,
            action,
        });
    }
}
