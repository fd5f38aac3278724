//! The one door between the engine's event stream and this crate.
//!
//! The engine speaks `SimEvent<'_, N>`: a borrowed flit and the
//! substrate's own node type. Everything above it speaks [`TraceRecord`]:
//! typed, `Copy`, the same value whether it was built from a live event or
//! read back from a file. A [`Recorder`] is the only implementation of the
//! engine's `Observer<N>` here and the only holder of the run's
//! [`SiteOf`]: it builds each event's record once and hands it to every
//! registered [`RecordSink`], so a collector cannot tell a run from a
//! recording of one.

use asynoc_engine::{ForwardInfo, Observer, SimEvent};
use asynoc_kernel::Time;

use crate::site::{Site, SiteOf};
use crate::trace::{Action, Detail, TraceRecord};

/// A consumer of trace records: every collector and writer of this crate.
pub trait RecordSink {
    /// Receives one record. `in_window` tells whether its instant falls
    /// inside the measurement window (ledgers comparable with a power
    /// report ignore warmup and drain; a tracer records everything); a
    /// replay computes it with [`TraceMeta::in_measurement`].
    ///
    /// [`TraceMeta::in_measurement`]: crate::TraceMeta::in_measurement
    fn on_record(&mut self, record: &TraceRecord, in_window: bool);
}

/// The engine observer that turns events into records for `sinks`, in
/// registration order; `site_of` places the substrate's nodes.
pub struct Recorder<'a, N> {
    site_of: SiteOf<N>,
    sinks: Vec<&'a mut dyn RecordSink>,
}

impl<'a, N> Recorder<'a, N> {
    /// A recorder feeding `sinks`.
    #[must_use]
    pub fn new(site_of: SiteOf<N>, sinks: Vec<&'a mut dyn RecordSink>) -> Self {
        Recorder { site_of, sinks }
    }
}

impl<N: Copy> Observer<N> for Recorder<'_, N> {
    fn on_event(&mut self, at: Time, in_window: bool, event: &SimEvent<'_, N>) {
        let (flit, site, action, detail, copies, busy_ps) = match *event {
            SimEvent::Inject { source, flit } => (
                flit,
                Site::Source(source),
                Action::Inject,
                Detail::None,
                1,
                0,
            ),
            SimEvent::Forward {
                node,
                flit,
                info,
                copies,
                busy,
            } => {
                let detail = match info {
                    ForwardInfo::Routed(symbol) => Detail::Routed(symbol),
                    ForwardInfo::Arbitrated { input } => Detail::Input(input),
                };
                let site = (self.site_of)(node);
                (flit, site, Action::Forward, detail, copies, busy.as_ps())
            }
            SimEvent::Drop { node, flit, busy } => {
                let site = (self.site_of)(node);
                (flit, site, Action::Throttle, Detail::None, 0, busy.as_ps())
            }
            SimEvent::Deliver { dest, flit } => {
                (flit, Site::Sink(dest), Action::Deliver, Detail::None, 0, 0)
            }
            SimEvent::Fault { class, site, flit } => {
                let site = Site::of_fault(class, site);
                (flit, site, Action::Fault, Detail::Fault(class), 0, 0)
            }
        };
        let descriptor = flit.descriptor();
        let record = TraceRecord {
            t_ps: at.as_ps(),
            packet: descriptor.id().as_u64(),
            logical: descriptor.logical_id().as_u64(),
            flit: flit.index(),
            src: descriptor.source() as u64,
            dests: descriptor.dests().len() as u64,
            created_ps: descriptor.created_at().as_ps(),
            site,
            action,
            detail,
            copies,
            busy_ps,
        };
        for sink in &mut self.sinks {
            sink.on_record(&record, in_window);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    use asynoc_kernel::{Duration, FaultClass};
    use asynoc_packet::{DestSet, Flit, PacketDescriptor, PacketId, RouteSymbol};

    use crate::trace::TraceCollector;

    #[test]
    fn every_event_kind_becomes_the_record_that_names_it() {
        let descriptor = PacketDescriptor::new(
            PacketId::new(7),
            5,
            DestSet::unicast(1),
            1,
            Time::from_ps(5),
        );
        let flit = Flit::new(descriptor, 0);
        let busy = Duration::from_ps(52);
        let mut events = vec![
            SimEvent::Inject {
                source: 4,
                flit: &flit,
            },
            SimEvent::Drop {
                node: 2usize,
                flit: &flit,
                busy,
            },
            SimEvent::Deliver {
                dest: 63,
                flit: &flit,
            },
            SimEvent::Forward {
                node: 3,
                flit: &flit,
                info: ForwardInfo::Routed(RouteSymbol::Both),
                copies: 2,
                busy,
            },
            SimEvent::Forward {
                node: 4,
                flit: &flit,
                info: ForwardInfo::Arbitrated { input: 1 },
                copies: 1,
                busy,
            },
        ];
        for (site, class) in FaultClass::ALL.into_iter().enumerate() {
            events.push(SimEvent::Fault {
                class,
                site,
                flit: &flit,
            });
        }
        let mut collector = TraceCollector::new(events.len());
        let mut recorder = Recorder::new(Rc::new(Site::Router), vec![&mut collector]);
        for (at, event) in events.iter().enumerate() {
            recorder.on_event(Time::from_ps(at as u64 * 100), at % 2 == 0, event);
        }
        let told: Vec<String> = collector
            .records()
            .iter()
            .map(|r| {
                format!(
                    "{} {} {} [{}] x{} {}ps",
                    r.t_ps, r.site, r.action, r.detail, r.copies, r.busy_ps
                )
            })
            .collect();
        assert_eq!(
            told,
            [
                "0 src4 inject [] x1 0ps",
                "100 r2 throttle [] x0 52ps",
                "200 D63 deliver [] x0 0ps",
                "300 r3 forward [both] x2 52ps",
                "400 r4 forward [input1] x1 52ps",
                "500 ch0 fault [link-stall] x0 0ps",
                "600 node1 fault [symbol-corrupt] x0 0ps",
                "700 node2 fault [stuck-broadcast] x0 0ps",
                "800 src3 fault [flit-drop] x0 0ps",
                "900 src4 fault [packet-lost] x0 0ps",
            ]
        );
        // The descriptor's fields ride every record.
        for record in collector.records() {
            let identity = (record.packet, record.logical, record.flit, record.src);
            assert_eq!(identity, (7, 7, 0, 5));
            assert_eq!((record.dests, record.created_ps), (1, 5));
        }
    }
}
