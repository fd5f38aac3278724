//! Speculation scorecard: joining the waste ledger to span data.
//!
//! The online [`SpeculationWaste`](asynoc_telemetry) ledger counts what
//! speculation *costs* — throttled copies and the energy they burned.
//! The span trees show what it *bought*: each throttle's parent is the
//! speculative fork itself, so we can see how quickly the speculating
//! node moved compared with its non-speculating peers. The scorecard
//! joins the two per **speculative region** — the fanout node that
//! created the redundant copy ([`Site::creator`]: the throttling node's
//! fanout parent, or the node itself at the tree root), the one
//! attribution rule the online ledger applies too — so its totals
//! reconcile exactly with the ledger priced with the constants from the
//! trace's meta line.
//!
//! `est_latency_saved_ps` is a **modeled estimate**, not a measurement:
//! per fork it credits `max(0, median level busy - fork busy)`, i.e. how
//! much faster the speculative forward was than the median forward at
//! the same fanout level. A counterfactual run is the only exact answer.

use asynoc_telemetry::{Action, HashMap, Site, TraceMeta};

use crate::span::SpanNode;

/// Waste and benefit attributed to one speculative region.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionScore {
    /// The fanout node that created the redundant copies.
    pub region: String,
    /// Redundant copies throttled downstream of this region.
    pub throttles: u64,
    /// Energy burned dropping them, fJ.
    pub drop_fj: f64,
    /// Wire energy the redundant hops wasted, fJ.
    pub wasted_wire_fj: f64,
    /// Modeled latency the speculative forks saved, ps (see module doc).
    pub est_latency_saved_ps: u64,
}

/// The whole-run speculation scorecard.
#[derive(Clone, Debug)]
pub struct Scorecard {
    /// Per-region scores, worst waster first.
    pub regions: Vec<RegionScore>,
    /// Ledger-reconcilable total of throttled copies in the window.
    pub total_throttles: u64,
    /// Ledger-reconcilable drop energy, fJ.
    pub total_drop_fj: f64,
    /// Ledger-reconcilable wasted wire energy, fJ.
    pub total_wasted_wire_fj: f64,
    /// Total modeled latency saved, ps.
    pub est_latency_saved_ps: u64,
}

/// The scorecard's sums, taken event by event. Node timings make a
/// level's fanout occupancies a handful of distinct values, so each is
/// a count per `(level, busy_ps)`: the median is read off the counts
/// when the trace ends, exactly, in memory bounded by the fabric.
#[derive(Clone, Debug, Default)]
pub(crate) struct ScoreFold {
    /// Fanout forwards, per `(level, busy_ps)`.
    busy: HashMap<(u32, u64), u64>,
    /// Throttles inside the measurement window, per region.
    throttles: HashMap<Site, u64>,
    /// Those throttles whose parent is a speculative fork, per `(region,
    /// fork level, fork busy_ps)`.
    forks: HashMap<(Site, u32, u64), u64>,
}

impl ScoreFold {
    /// Counts one span node; `parent` is its parent's node and `meta` the
    /// trace's meta line, whose window gates throttles as the online
    /// ledger does.
    pub(crate) fn add(&mut self, node: &SpanNode, parent: Option<&SpanNode>, meta: &TraceMeta) {
        match (node.kind, node.site) {
            (Action::Forward, Site::Fanout { level, .. }) => {
                *self.busy.entry((level, node.busy_ps)).or_default() += 1;
            }
            (Action::Throttle, site) if meta.in_measurement(node.t_ps) => {
                let region = site.creator();
                *self.throttles.entry(region).or_default() += 1;
                // The throttle's span parent is the speculative fork.
                if let Some(&SpanNode {
                    kind: Action::Forward,
                    copies: 2..,
                    site: Site::Fanout { level, .. },
                    busy_ps,
                    ..
                }) = parent
                {
                    *self.forks.entry((region, level, busy_ps)).or_default() += 1;
                }
            }
            _ => {}
        }
    }

    /// The scorecard, or `None` when the trace's meta carries no energy
    /// constants (substrates without a speculation ledger).
    pub(crate) fn finish(&self, meta: &TraceMeta) -> Option<Scorecard> {
        let wire_fj = meta.wire_fj?;
        let drop_fj = meta.drop_fj?;

        // Median handshake occupancy of fanout forwards per level: the
        // baseline a speculative fork is compared against.
        let mut busy: Vec<((u32, u64), u64)> = self.busy.iter().map(|(&k, &n)| (k, n)).collect();
        busy.sort_unstable();
        let mut median_by_level: HashMap<u32, u64> = HashMap::default();
        for level in busy.chunk_by(|a, b| a.0 .0 == b.0 .0) {
            // The value at rank `count / 2` of the level's sorted busies.
            let mut rank = level.iter().map(|&(_, n)| n).sum::<u64>() / 2;
            for &((key, value), n) in level {
                if rank < n {
                    median_by_level.insert(key, value);
                    break;
                }
                rank -= n;
            }
        }

        let mut saved: HashMap<Site, u64> = HashMap::default();
        for (&(region, level, fork_busy), &n) in &self.forks {
            let median = median_by_level.get(&level).copied().unwrap_or(0);
            *saved.entry(region).or_default() += n * median.saturating_sub(fork_busy);
        }
        let mut regions: Vec<RegionScore> = (self.throttles.iter())
            .map(|(region, &throttles)| RegionScore {
                region: region.to_string(),
                throttles,
                drop_fj: throttles as f64 * drop_fj,
                wasted_wire_fj: throttles as f64 * wire_fj,
                est_latency_saved_ps: saved.get(region).copied().unwrap_or(0),
            })
            .collect();
        regions.sort_by(|a, b| b.throttles.cmp(&a.throttles).then(a.region.cmp(&b.region)));
        let total_throttles: u64 = regions.iter().map(|r| r.throttles).sum();
        Some(Scorecard {
            total_throttles,
            total_drop_fj: total_throttles as f64 * drop_fj,
            total_wasted_wire_fj: total_throttles as f64 * wire_fj,
            est_latency_saved_ps: regions.iter().map(|r| r.est_latency_saved_ps).sum(),
            regions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_telemetry::TraceRecord;

    fn scorecard(meta: TraceMeta, records: Vec<TraceRecord>) -> Option<Scorecard> {
        crate::Analysis::build(Some(meta), records, 10).scorecard()
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            substrate: "mot".to_string(),
            arch: Some("BasicHybridSpeculative".to_string()),
            size: 8,
            seed: 1,
            flits: 1,
            rate: 0.3,
            warmup_ps: 100,
            measure_ps: 10_000,
            wire_fj: Some(2.0),
            drop_fj: Some(0.5),
            dropped_events: 0,
        }
    }

    fn record(t_ps: u64, site: &str, action: &str, copies: u8, busy_ps: u64) -> TraceRecord {
        TraceRecord {
            t_ps,
            packet: 1,
            logical: 1,
            flit: 0,
            src: 0,
            dests: 2,
            created_ps: 90,
            site: site.parse().expect(site),
            action: action.parse().expect(action),
            detail: asynoc_telemetry::Detail::None,
            copies,
            busy_ps,
        }
    }

    fn speculative_trace() -> Vec<TraceRecord> {
        vec![
            record(150, "src0", "inject", 1, 0),
            // Speculative root forks fast (busy 20 vs the level median).
            record(200, "fo[s0:0.0]", "forward", 2, 20),
            record(260, "fo[s0:1.0]", "forward", 2, 80),
            record(265, "fo[s0:1.1]", "throttle", 0, 40),
            record(320, "fi[d0:1.0]", "forward", 1, 90),
            record(330, "fi[d1:1.0]", "forward", 1, 90),
            record(380, "fi[d0:0.0]", "forward", 1, 90),
            record(395, "fi[d1:0.0]", "forward", 1, 90),
            record(430, "D0", "deliver", 0, 0),
            record(460, "D1", "deliver", 0, 0),
        ]
    }

    #[test]
    fn a_throttle_is_priced_and_charged_to_its_creators_region() {
        let card = scorecard(meta(), speculative_trace()).unwrap();
        assert_eq!(card.total_throttles, 1);
        assert!((card.total_drop_fj - 0.5).abs() < 1e-12);
        assert!((card.total_wasted_wire_fj - 2.0).abs() < 1e-12);
        // Throttle at fo[s0:1.1] -> creator fo[s0:0.0], the fanout-L0
        // fork; its busy 20 is that level's median, so no latency credit.
        assert_eq!(card.regions.len(), 1);
        assert_eq!(card.regions[0].region, "fo[s0:0.0]");
        assert_eq!(card.regions[0].throttles, 1);
        assert_eq!(card.regions[0].est_latency_saved_ps, 0);
    }

    #[test]
    fn a_fork_is_credited_against_the_whole_traces_median() {
        // Later forwards at the fork's level are slower: the level's median
        // over the whole trace is 60, not the 20 of the fork alone.
        let mut records = speculative_trace();
        for (t_ps, site) in [
            (500, "fo[s1:0.0]"),
            (560, "fo[s1:1.0]"),
            (620, "fo[s1:0.0]"),
        ] {
            records.push(TraceRecord {
                packet: 2,
                logical: 2,
                src: 1,
                ..record(t_ps, site, "forward", 1, 60)
            });
        }
        let card = scorecard(meta(), records).unwrap();
        assert_eq!(card.regions[0].est_latency_saved_ps, 40);
        assert_eq!(card.est_latency_saved_ps, 40);
    }

    #[test]
    fn throttles_outside_the_window_are_ignored() {
        let mut records = speculative_trace();
        records[3].t_ps = 50; // before warmup ends
        let card = scorecard(meta(), records).unwrap();
        assert_eq!(card.total_throttles, 0);
        assert!(card.regions.is_empty());
    }

    #[test]
    fn missing_energy_constants_yield_no_scorecard() {
        let mut m = meta();
        m.wire_fj = None;
        assert!(scorecard(m, speculative_trace()).is_none());
    }
}
