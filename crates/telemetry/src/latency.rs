//! Per-destination and per-hop-count latency distributions.

use std::collections::HashMap;

use asynoc_kernel::{Duration, Time};
use asynoc_stats::Phases;

use crate::histogram::{from_delta_json, summary_members, to_delta_json, LogHistogram};
use crate::json::JsonValue;
use crate::recorder::RecordSink;
use crate::site::Site;
use crate::trace::{Action, TraceRecord};

/// Streams header-delivery latencies into log-bucketed histograms:
/// one overall, one per destination, one per hop count.
///
/// The sample is *per delivered header copy* (creation → this copy's
/// arrival), gated on the packet being created inside the measurement
/// window — the same population, and the same [`LogHistogram`], as the
/// engine's per-logical-packet report (on unicast traffic the two are
/// equal), but broken out by where the copy landed and how many node
/// traversals its packet's header needed. Hop count is the number of
/// `forward` records the physical packet's header generated: the exact
/// path length for unicast traffic, the replication-tree edge count for
/// in-network multicast.
///
/// The report is rendered from the run's totals. Once a stream sink
/// windows the collector ([`drain_window`]), every sample also lands in
/// the delta the next drain takes.
///
/// [`drain_window`]: LatencyHistograms::drain_window
pub struct LatencyHistograms {
    phases: Phases,
    endpoints: usize,
    total: LatencyWindow,
    window: Option<LatencyWindow>,
    header_forwards: HashMap<u64, u32>,
}

impl LatencyHistograms {
    /// An empty collector for a network with `endpoints` destinations,
    /// sampling packets created inside `phases`' measurement window.
    #[must_use]
    pub fn new(phases: Phases, endpoints: usize) -> Self {
        LatencyHistograms {
            phases,
            endpoints,
            total: LatencyWindow::default(),
            window: None,
            header_forwards: HashMap::new(),
        }
    }

    /// A collector used purely as a fold accumulator: it never sees a
    /// record (so the phase gate is irrelevant), only
    /// [`LatencyHistograms::absorb`]s drained windows and renders
    /// [`LatencyHistograms::to_json`].
    #[must_use]
    pub fn accumulator(endpoints: usize) -> Self {
        LatencyHistograms::new(Phases::new(Duration::ZERO, Duration::from_ps(1)), endpoints)
    }

    /// The all-destinations histogram.
    #[must_use]
    pub fn overall(&self) -> &LogHistogram {
        &self.total.overall
    }

    /// Number of destinations the collector was built for.
    #[must_use]
    pub fn endpoints(&self) -> usize {
        self.endpoints
    }

    /// Takes the samples recorded since the last drain as a
    /// [`LatencyWindow`] delta — none before the first drain, which is
    /// what starts the delta being kept; the totals and the hop-count
    /// bookkeeping stay. A stream sink drains once as it opens and then
    /// at every window boundary; the deltas [`absorb`]ed in order into
    /// an accumulator reproduce the totals exactly (histogram merge is
    /// associative and lossless).
    ///
    /// [`absorb`]: LatencyHistograms::absorb
    #[must_use]
    pub fn drain_window(&mut self) -> LatencyWindow {
        self.window
            .replace(LatencyWindow::default())
            .unwrap_or_default()
    }

    /// Folds a drained window delta into the totals (the inverse of
    /// [`LatencyHistograms::drain_window`], used by the stream fold).
    ///
    /// # Errors
    ///
    /// A delta read from a file may name a destination outside the
    /// collector's range, which is refused before anything is folded, or
    /// carry more samples than the totals can count, which is refused
    /// with the totals part-folded.
    pub fn absorb(&mut self, window: &LatencyWindow) -> Result<(), String> {
        let endpoints = self.endpoints as u64;
        if let Some((dest, _)) = window.per_dest.iter().find(|(dest, _)| *dest >= endpoints) {
            return Err(format!("destination {dest} is outside 0..{endpoints}"));
        }
        let overflow = || "more samples than a 64-bit count holds".to_string();
        let total = &mut self.total;
        total.overall.merge(&window.overall).ok_or_else(overflow)?;
        for (dest, h) in &window.per_dest {
            slot(&mut total.per_dest, *dest)
                .merge(h)
                .ok_or_else(overflow)?;
        }
        for (hops, h) in &window.per_hops {
            slot(&mut total.per_hops, *hops)
                .merge(h)
                .ok_or_else(overflow)?;
        }
        Ok(())
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
        let occupied = self.total.per_dest.iter().filter(|(_, h)| h.count() > 0);
        let per_dest = occupied.map(|(dest, h)| keyed("dest", *dest, h));
        let per_hops = self.total.per_hops.iter();
        let per_hops = per_hops.map(|(hops, h)| keyed("hops", u64::from(*hops), h));
        let mut members = summary_members(&self.total.overall);
        members.push(("per_dest".to_string(), JsonValue::Array(per_dest.collect())));
        members.push(("per_hops".to_string(), JsonValue::Array(per_hops.collect())));
        JsonValue::Object(members)
    }
}

/// The histogram of `key` in a key-ordered sparse list, empty on first
/// sight.
fn slot<K: Ord + Copy>(entries: &mut Vec<(K, LogHistogram)>, key: K) -> &mut LogHistogram {
    let found = entries.binary_search_by_key(&key, |entry| entry.0);
    let at = found.unwrap_or_else(|at| {
        entries.insert(at, (key, LogHistogram::new()));
        at
    });
    &mut entries[at].1
}

/// One window's worth of latency histograms: the overall one plus only
/// the destinations and hop counts that saw samples, in key order — a
/// drained delta, and the shape the collector's totals are kept in.
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
    fn record(&mut self, dest: Option<u64>, hops: u32, latency: Duration) {
        self.overall.record(latency);
        if let Some(dest) = dest {
            slot(&mut self.per_dest, dest).record(latency);
        }
        slot(&mut self.per_hops, hops).record(latency);
    }

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

impl RecordSink for LatencyHistograms {
    fn on_record(&mut self, record: &TraceRecord, _in_window: bool) {
        if record.flit != 0 {
            return;
        }
        match record.action {
            Action::Forward => *self.header_forwards.entry(record.packet).or_insert(0) += 1,
            Action::Deliver => {
                let created = Time::from_ps(record.created_ps);
                if !self.phases.in_measurement(created) {
                    return;
                }
                let latency = Time::from_ps(record.t_ps).saturating_since(created);
                let dest = match record.site {
                    Site::Sink(dest) if dest < self.endpoints => Some(dest as u64),
                    _ => None,
                };
                let hops = self.header_forwards.get(&record.packet).copied();
                let hops = hops.unwrap_or(0);
                self.total.record(dest, hops, latency);
                if let Some(window) = &mut self.window {
                    window.record(dest, hops, latency);
                }
            }
            Action::Inject | Action::Throttle | Action::Fault => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A header's delivery at `dest`, or one of its forwards.
    fn header(action: Action, packet: u64, dest: usize, created_ps: u64, t_ps: u64) -> TraceRecord {
        TraceRecord {
            t_ps,
            packet,
            created_ps,
            action,
            site: Site::Sink(dest),
            ..TraceRecord::INJECT
        }
    }

    fn phases() -> Phases {
        Phases::new(Duration::from_ns(100), Duration::from_ns(900))
    }

    #[test]
    fn samples_only_window_created_packets() {
        let mut collector = LatencyHistograms::new(phases(), 8);
        // Created in warmup, then inside the window.
        collector.on_record(&header(Action::Deliver, 1, 3, 50_000, 60_000), true);
        collector.on_record(&header(Action::Deliver, 2, 3, 200_000, 200_700), true);
        // A body flit's delivery is no sample.
        let body = TraceRecord {
            flit: 1,
            ..header(Action::Deliver, 2, 3, 200_000, 200_900)
        };
        collector.on_record(&body, true);
        assert_eq!(collector.overall().count(), 1);
        assert_eq!(collector.overall().max(), Some(Duration::from_ps(700)));
        let per_dest = &collector.total.per_dest;
        assert_eq!(
            (per_dest.len(), per_dest[0].0, per_dest[0].1.count()),
            (1, 3, 1)
        );
    }

    #[test]
    fn hop_counts_key_the_breakdown() {
        let mut collector = LatencyHistograms::new(phases(), 8);
        for k in 0..3u64 {
            collector.on_record(&header(Action::Forward, 7, 1, 150_000, 150_100 + k), true);
        }
        collector.on_record(&header(Action::Deliver, 7, 1, 150_000, 151_000), true);
        let per_hops = &collector.total.per_hops;
        assert_eq!(
            (per_hops.len(), per_hops[0].0, per_hops[0].1.count()),
            (1, 3, 1)
        );
    }

    #[test]
    fn drained_windows_absorb_back_to_the_totals() {
        // One collector, drained every few records as a stream sink
        // would: absorbing the drained windows into an accumulator must
        // reproduce its own totals' JSON byte for byte, and draining must
        // leave those totals alone.
        let mut collector = LatencyHistograms::new(phases(), 8);
        let mut accumulator = LatencyHistograms::accumulator(8);
        // The first drain opens the window: nothing is kept before it.
        let mut drained = vec![collector.drain_window()];
        for k in 0..40u64 {
            let created = 150_000 + k * 17;
            let at = created + 311 + (k % 5) * 37;
            collector.on_record(
                &header(Action::Deliver, k, (k % 8) as usize, created, at),
                true,
            );
            if k % 7 == 6 {
                drained.push(collector.drain_window());
            }
        }
        drained.push(collector.drain_window());
        assert!(collector.drain_window().is_empty(), "a drain takes it all");
        assert_eq!(collector.overall().count(), 40);
        for window in &drained {
            // Serde round-trip on the way, as the stream would.
            let parsed = JsonValue::parse(&window.to_json().render()).expect("valid JSON");
            let back = LatencyWindow::from_json(&parsed).expect("well-formed window");
            accumulator.absorb(&back).expect("a drained window absorbs");
        }
        assert_eq!(accumulator.to_json().render(), collector.to_json().render());
    }

    #[test]
    fn forget_packet_releases_hop_bookkeeping() {
        let mut collector = LatencyHistograms::new(phases(), 8);
        collector.on_record(&header(Action::Forward, 9, 1, 150_000, 150_100), true);
        assert_eq!(collector.header_forwards.len(), 1);
        collector.forget_packet(9);
        assert!(collector.header_forwards.is_empty());
    }

    #[test]
    fn json_skips_empty_destinations() {
        let mut collector = LatencyHistograms::new(phases(), 4);
        collector.on_record(&header(Action::Deliver, 1, 2, 150_000, 150_052), true);
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
