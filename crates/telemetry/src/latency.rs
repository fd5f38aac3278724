//! Per-destination and per-hop-count latency distributions.

use std::collections::{BTreeMap, HashMap};

use asynoc_engine::{Observer, SimEvent};
use asynoc_kernel::Time;
use asynoc_stats::Phases;

use crate::histogram::{from_delta_json, summary_members, to_delta_json, LogHistogram};
use crate::json::JsonValue;

/// Streams header-delivery latencies into log-bucketed histograms:
/// one overall, one per destination, one per hop count.
///
/// The sample is *per delivered header copy* (creation → this copy's
/// arrival), gated on the packet being created inside the measurement
/// window — the same population, and the same [`LogHistogram`], as the
/// engine's per-logical-packet report (on unicast traffic the two are
/// equal), but broken out by where the copy landed and how many node
/// traversals its packet's header needed. Hop count is the number of
/// `Forward` events the physical packet's header generated: the exact
/// path length for unicast traffic, the replication-tree edge count for
/// in-network multicast.
pub struct LatencyHistograms {
    phases: Phases,
    overall: LogHistogram,
    per_dest: Vec<LogHistogram>,
    per_hops: BTreeMap<u32, LogHistogram>,
    header_forwards: HashMap<u64, u32>,
}

impl LatencyHistograms {
    /// An empty collector for a network with `endpoints` destinations,
    /// sampling packets created inside `phases`' measurement window.
    #[must_use]
    pub fn new(phases: Phases, endpoints: usize) -> Self {
        LatencyHistograms {
            phases,
            overall: LogHistogram::new(),
            per_dest: vec![LogHistogram::new(); endpoints],
            per_hops: BTreeMap::new(),
            header_forwards: HashMap::new(),
        }
    }

    /// A collector used purely as a fold accumulator: it never observes
    /// events (so the phase gate is irrelevant), only
    /// [`LatencyHistograms::absorb`]s drained windows and renders
    /// [`LatencyHistograms::to_json`].
    #[must_use]
    pub fn accumulator(endpoints: usize) -> Self {
        LatencyHistograms::new(
            Phases::new(
                asynoc_kernel::Duration::ZERO,
                asynoc_kernel::Duration::from_ps(1),
            ),
            endpoints,
        )
    }

    /// The all-destinations histogram.
    #[must_use]
    pub fn overall(&self) -> &LogHistogram {
        &self.overall
    }

    /// Per-destination histograms, indexed by endpoint.
    #[must_use]
    pub fn per_dest(&self) -> &[LogHistogram] {
        &self.per_dest
    }

    /// Per-hop-count histograms.
    #[must_use]
    pub fn per_hops(&self) -> &BTreeMap<u32, LogHistogram> {
        &self.per_hops
    }

    /// Number of destination slots the collector was built with.
    #[must_use]
    pub fn endpoints(&self) -> usize {
        self.per_dest.len()
    }

    /// Drains the histograms accumulated since the last drain into a
    /// [`LatencyWindow`] delta, leaving the collector empty but keeping
    /// its persistent hop-count bookkeeping. Streaming sinks call this
    /// at every window boundary; the drained deltas [`absorb`]ed back
    /// in order reproduce the batch collector exactly (histogram merge
    /// is associative and lossless).
    ///
    /// [`absorb`]: LatencyHistograms::absorb
    #[must_use]
    pub fn drain_window(&mut self) -> LatencyWindow {
        let overall = std::mem::take(&mut self.overall);
        let per_dest: Vec<(u64, LogHistogram)> = self
            .per_dest
            .iter_mut()
            .enumerate()
            .filter(|(_, h)| h.count() > 0)
            .map(|(dest, h)| (dest as u64, std::mem::take(h)))
            .collect();
        let per_hops: Vec<(u32, LogHistogram)> =
            std::mem::take(&mut self.per_hops).into_iter().collect();
        LatencyWindow {
            overall,
            per_dest,
            per_hops,
        }
    }

    /// Folds a drained window delta back into the collector (the
    /// inverse of [`LatencyHistograms::drain_window`], used by the
    /// stream fold). Destinations outside the collector's range are
    /// ignored.
    pub fn absorb(&mut self, window: &LatencyWindow) {
        self.overall.merge(&window.overall);
        for (dest, h) in &window.per_dest {
            if let Some(mine) = self.per_dest.get_mut(*dest as usize) {
                mine.merge(h);
            }
        }
        for (hops, h) in &window.per_hops {
            self.per_hops.entry(*hops).or_default().merge(h);
        }
    }

    /// Releases the hop-count bookkeeping of a completed packet. The
    /// batch path never needs this (the map is dropped with the
    /// collector); streaming sinks call it when a packet's last copy
    /// leaves the network so that live memory stays proportional to
    /// in-flight traffic, not run length. Behavior-neutral: a finished
    /// packet generates no further events.
    pub fn forget_packet(&mut self, packet: u64) {
        self.header_forwards.remove(&packet);
    }

    /// The full latency section of the metrics report: the overall
    /// percentile summary plus `per_dest` / `per_hops` breakdowns
    /// (destinations and hop counts without samples are omitted).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let keyed = |key: &str, id: u64, h: &LogHistogram| {
            let mut fields = vec![(key.to_string(), JsonValue::uint(id))];
            fields.extend(summary_members(h));
            JsonValue::Object(fields)
        };
        let occupied = self
            .per_dest
            .iter()
            .enumerate()
            .filter(|(_, h)| h.count() > 0);
        let per_dest = occupied.map(|(dest, h)| keyed("dest", dest as u64, h));
        let per_hops = self
            .per_hops
            .iter()
            .map(|(hops, h)| keyed("hops", u64::from(*hops), h));
        let mut members = summary_members(&self.overall);
        members.push(("per_dest".to_string(), JsonValue::Array(per_dest.collect())));
        members.push(("per_hops".to_string(), JsonValue::Array(per_hops.collect())));
        JsonValue::Object(members)
    }
}

/// One window's worth of drained latency histograms: the overall delta
/// plus only the destinations and hop counts that saw samples.
///
/// Serialized into `window` records of the `asynoc-stream-v1` NDJSON
/// stream; parsing and [`LatencyHistograms::absorb`]ing every window of
/// a run rebuilds the batch latency section byte-for-byte.
#[derive(Debug, Default)]
pub struct LatencyWindow {
    /// Delta of the all-destinations histogram.
    pub overall: LogHistogram,
    /// Sparse per-destination deltas (`(dest, histogram)`).
    pub per_dest: Vec<(u64, LogHistogram)>,
    /// Sparse per-hop-count deltas (`(hops, histogram)`).
    pub per_hops: Vec<(u32, LogHistogram)>,
}

impl LatencyWindow {
    /// Returns `true` if the window recorded no samples at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.overall.count() == 0
    }

    /// The window's JSON form (sparse histograms keyed by destination
    /// and hop count).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let keyed = |key: &str, id: u64, h: &LogHistogram| {
            JsonValue::Object(vec![
                (key.to_string(), JsonValue::uint(id)),
                ("h".to_string(), to_delta_json(h)),
            ])
        };
        JsonValue::Object(vec![
            ("overall".to_string(), to_delta_json(&self.overall)),
            (
                "per_dest".to_string(),
                JsonValue::Array(
                    self.per_dest
                        .iter()
                        .map(|(dest, h)| keyed("dest", *dest, h))
                        .collect(),
                ),
            ),
            (
                "per_hops".to_string(),
                JsonValue::Array(
                    self.per_hops
                        .iter()
                        .map(|(hops, h)| keyed("hops", u64::from(*hops), h))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the JSON form back; `None` for a malformed document.
    #[must_use]
    pub fn from_json(json: &JsonValue) -> Option<LatencyWindow> {
        let overall = from_delta_json(json.get("overall")?)?;
        let mut per_dest = Vec::new();
        for entry in json.get("per_dest").and_then(JsonValue::as_array)? {
            let dest = entry.get("dest").and_then(JsonValue::as_u64)?;
            per_dest.push((dest, from_delta_json(entry.get("h")?)?));
        }
        let mut per_hops = Vec::new();
        for entry in json.get("per_hops").and_then(JsonValue::as_array)? {
            let hops = u32::try_from(entry.get("hops").and_then(JsonValue::as_u64)?).ok()?;
            per_hops.push((hops, from_delta_json(entry.get("h")?)?));
        }
        Some(LatencyWindow {
            overall,
            per_dest,
            per_hops,
        })
    }
}

impl<N> Observer<N> for LatencyHistograms {
    fn on_event(&mut self, at: Time, _in_window: bool, event: &SimEvent<'_, N>) {
        match event {
            SimEvent::Forward { flit, .. } if flit.kind().is_header() => {
                *self
                    .header_forwards
                    .entry(flit.descriptor().id().as_u64())
                    .or_insert(0) += 1;
            }
            SimEvent::Deliver { dest, flit } if flit.kind().is_header() => {
                let created = flit.descriptor().created_at();
                if !self.phases.in_measurement(created) {
                    return;
                }
                let latency = at.saturating_since(created);
                self.overall.record(latency);
                if let Some(h) = self.per_dest.get_mut(*dest) {
                    h.record(latency);
                }
                let hops = self
                    .header_forwards
                    .get(&flit.descriptor().id().as_u64())
                    .copied()
                    .unwrap_or(0);
                self.per_hops.entry(hops).or_default().record(latency);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use asynoc_kernel::Duration;
    use asynoc_packet::{DestSet, Flit, PacketDescriptor, PacketId, RouteHeader};

    fn header(id: u64, dest: usize, created: Time) -> Flit {
        Flit::new(
            Arc::new(PacketDescriptor::new(
                PacketId::new(id),
                0,
                DestSet::unicast(dest),
                RouteHeader::for_tree(8),
                2,
                created,
            )),
            0,
        )
    }

    fn phases() -> Phases {
        Phases::new(Duration::from_ns(100), Duration::from_ns(900))
    }

    #[test]
    fn samples_only_window_created_packets() {
        let mut collector = LatencyHistograms::new(phases(), 8);
        let early = header(1, 3, Time::from_ps(50_000)); // warmup
        let inside = header(2, 3, Time::from_ps(200_000)); // window
        for (flit, at) in [(&early, 60_000u64), (&inside, 200_700)] {
            let event: SimEvent<'_, usize> = SimEvent::Deliver { dest: 3, flit };
            collector.on_event(Time::from_ps(at), true, &event);
        }
        assert_eq!(collector.overall().count(), 1);
        assert_eq!(collector.overall().max(), Some(Duration::from_ps(700)));
        assert_eq!(collector.per_dest()[3].count(), 1);
        assert_eq!(collector.per_dest()[0].count(), 0);
    }

    #[test]
    fn hop_counts_key_the_breakdown() {
        let mut collector = LatencyHistograms::new(phases(), 8);
        let flit = header(7, 1, Time::from_ps(150_000));
        for k in 0..3u64 {
            let event: SimEvent<'_, usize> = SimEvent::Forward {
                node: 0,
                flit: &flit,
                info: asynoc_engine::ForwardInfo::Arbitrated { input: 0 },
                copies: 1,
                busy: Duration::from_ps(10),
            };
            collector.on_event(Time::from_ps(150_100 + k), true, &event);
        }
        let deliver: SimEvent<'_, usize> = SimEvent::Deliver {
            dest: 1,
            flit: &flit,
        };
        collector.on_event(Time::from_ps(151_000), true, &deliver);
        assert_eq!(collector.per_hops().len(), 1);
        assert_eq!(collector.per_hops()[&3].count(), 1);
    }

    #[test]
    fn drained_windows_absorb_back_to_the_batch_document() {
        // Run the same event stream through a batch collector and a
        // windowed one (drained every few events); absorbing the drained
        // windows into an accumulator must reproduce the batch JSON
        // byte-for-byte.
        let mut batch = LatencyHistograms::new(phases(), 8);
        let mut windowed = LatencyHistograms::new(phases(), 8);
        let mut accumulator = LatencyHistograms::accumulator(8);
        let mut drained = Vec::new();
        for k in 0..40u64 {
            let flit = header(k, (k % 8) as usize, Time::from_ps(150_000 + k * 17));
            let deliver: SimEvent<'_, usize> = SimEvent::Deliver {
                dest: (k % 8) as usize,
                flit: &flit,
            };
            let at = Time::from_ps(150_000 + k * 17 + 311 + (k % 5) * 37);
            batch.on_event(at, true, &deliver);
            windowed.on_event(at, true, &deliver);
            if k % 7 == 6 {
                drained.push(windowed.drain_window());
            }
        }
        drained.push(windowed.drain_window());
        for window in &drained {
            // Serde round-trip on the way, as the stream would.
            let parsed = JsonValue::parse(&window.to_json().render()).expect("valid JSON");
            let back = LatencyWindow::from_json(&parsed).expect("well-formed window");
            accumulator.absorb(&back);
        }
        assert_eq!(accumulator.to_json().render(), batch.to_json().render());
    }

    #[test]
    fn forget_packet_releases_hop_bookkeeping() {
        let mut collector = LatencyHistograms::new(phases(), 8);
        let flit = header(9, 1, Time::from_ps(150_000));
        let forward: SimEvent<'_, usize> = SimEvent::Forward {
            node: 0,
            flit: &flit,
            info: asynoc_engine::ForwardInfo::Arbitrated { input: 0 },
            copies: 1,
            busy: Duration::from_ps(10),
        };
        collector.on_event(Time::from_ps(150_100), true, &forward);
        assert_eq!(collector.header_forwards.len(), 1);
        collector.forget_packet(9);
        assert!(collector.header_forwards.is_empty());
    }

    #[test]
    fn json_skips_empty_destinations() {
        let mut collector = LatencyHistograms::new(phases(), 4);
        let flit = header(1, 2, Time::from_ps(150_000));
        let deliver: SimEvent<'_, usize> = SimEvent::Deliver {
            dest: 2,
            flit: &flit,
        };
        collector.on_event(Time::from_ps(150_052), true, &deliver);
        let json = collector.to_json();
        let per_dest = json.get("per_dest").and_then(JsonValue::as_array).unwrap();
        assert_eq!(per_dest.len(), 1);
        assert_eq!(
            per_dest[0].get("dest").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        assert_eq!(json.get("p50_ps").and_then(JsonValue::as_f64), Some(52.0));
    }
}
