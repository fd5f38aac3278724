//! The assembled analysis report.
//!
//! [`Analysis::build`] runs the whole pipeline — span forest, critical
//! paths, attribution, heatmap, scorecard — over one parsed trace and
//! holds every intermediate result for inspection;
//! [`Analysis::to_json`] serializes the pinned
//! [`ANALYSIS_SCHEMA`](crate::ANALYSIS_SCHEMA) document the
//! `asynoc analyze` subcommand emits. The latency block re-derives the
//! same population the online histograms sample (delivered header
//! copies whose packet was *created* inside the measurement window), so
//! its count/mean/min/max reconcile with a `metrics` run of the same
//! simulation.

use asynoc_telemetry::{Action, JsonValue, TraceMeta, TraceRecord};

use crate::attribution::{Attribution, NodeStat};
use crate::heatmap::Heatmap;
use crate::scorecard::Scorecard;
use crate::span::{critical_paths, CriticalPath, SpanForest};

/// Summary of the re-derived latency population.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Delivered header copies in the measurement window.
    pub count: u64,
    /// Mean creation-to-delivery latency, ps.
    pub mean_ps: f64,
    /// Minimum, ps.
    pub min_ps: u64,
    /// Maximum, ps.
    pub max_ps: u64,
}

/// A fully analyzed trace.
#[derive(Clone, Debug)]
pub struct Analysis {
    meta: Option<TraceMeta>,
    records: Vec<TraceRecord>,
    forest: SpanForest,
    paths: Vec<CriticalPath>,
    attribution: Attribution,
    heatmap: Heatmap,
    scorecard: Option<Scorecard>,
    latency: LatencySummary,
    top: usize,
}

impl Analysis {
    /// Runs the full pipeline over a parsed trace. `top` bounds the
    /// ranked lists the JSON report emits (internal results are
    /// unbounded).
    #[must_use]
    pub fn build(meta: Option<TraceMeta>, records: Vec<TraceRecord>, top: usize) -> Analysis {
        let forest = SpanForest::build(&records);
        let paths = critical_paths(&forest, &records);
        let attribution = Attribution::build(&forest, &records);
        let heatmap = Heatmap::build(&forest, &records);
        let scorecard = meta
            .as_ref()
            .and_then(|m| Scorecard::build(m, &forest, &records));
        let latency = latency_summary(meta.as_ref(), &forest);
        Analysis {
            meta,
            records,
            forest,
            paths,
            attribution,
            heatmap,
            scorecard,
            latency,
            top,
        }
    }

    /// The reconstructed span forest.
    #[must_use]
    pub fn forest(&self) -> &SpanForest {
        &self.forest
    }

    /// Every completed logical packet's critical path, slowest first.
    #[must_use]
    pub fn paths(&self) -> &[CriticalPath] {
        &self.paths
    }

    /// The re-derived latency population summary.
    #[must_use]
    pub fn latency(&self) -> LatencySummary {
        self.latency
    }

    /// Aggregate blocked-time attribution.
    #[must_use]
    pub fn attribution(&self) -> &Attribution {
        &self.attribution
    }

    /// The rendered congestion maps.
    #[must_use]
    pub fn heatmap(&self) -> &Heatmap {
        &self.heatmap
    }

    /// The speculation scorecard, when the trace priced one.
    #[must_use]
    pub fn scorecard(&self) -> Option<&Scorecard> {
        self.scorecard.as_ref()
    }

    /// Serializes the `asynoc-analysis-v1` report document.
    /// `skipped_lines` reports how many malformed trace lines a lenient
    /// parse dropped before analysis.
    #[must_use]
    pub fn to_json(&self, skipped_lines: u64) -> JsonValue {
        let substrate = self
            .meta
            .as_ref()
            .map_or("unknown", |m| m.substrate.as_str());
        let meta_json = self.meta.as_ref().map_or(JsonValue::Null, |m| {
            JsonValue::parse(&m.to_ndjson()).expect("meta renders valid JSON")
        });

        let packets = distinct(self.forest.trees.iter().map(|t| t.packet));
        let logical_packets = distinct(self.forest.trees.iter().map(|t| t.logical));

        let slowest: Vec<JsonValue> = self.paths.iter().take(self.top).map(path_json).collect();
        let mean = |f: fn(&CriticalPath) -> u64| -> f64 {
            if self.paths.is_empty() {
                0.0
            } else {
                self.paths.iter().map(f).sum::<u64>() as f64 / self.paths.len() as f64
            }
        };

        JsonValue::Object(vec![
            ("schema".to_string(), JsonValue::str(crate::ANALYSIS_SCHEMA)),
            ("substrate".to_string(), JsonValue::str(substrate)),
            ("meta".to_string(), meta_json),
            (
                "ingest".to_string(),
                JsonValue::Object(vec![
                    (
                        "records".to_string(),
                        JsonValue::uint(self.records.len() as u64),
                    ),
                    ("skipped_lines".to_string(), JsonValue::uint(skipped_lines)),
                    (
                        "flit_trees".to_string(),
                        JsonValue::uint(self.forest.trees.len() as u64),
                    ),
                    ("packets".to_string(), JsonValue::uint(packets)),
                    (
                        "logical_packets".to_string(),
                        JsonValue::uint(logical_packets),
                    ),
                    (
                        "open_trees".to_string(),
                        JsonValue::uint(self.forest.open_trees as u64),
                    ),
                    (
                        "broken_trees".to_string(),
                        JsonValue::uint(self.forest.broken_trees as u64),
                    ),
                    (
                        "fault_affected_trees".to_string(),
                        JsonValue::uint(self.forest.fault_affected as u64),
                    ),
                    (
                        "broken_with_cause".to_string(),
                        JsonValue::uint(self.forest.broken_with_cause as u64),
                    ),
                    (
                        "dropped_events".to_string(),
                        JsonValue::uint(self.meta.as_ref().map_or(0, |m| m.dropped_events)),
                    ),
                ]),
            ),
            (
                "latency".to_string(),
                JsonValue::Object(vec![
                    ("count".to_string(), JsonValue::uint(self.latency.count)),
                    (
                        "mean_ps".to_string(),
                        JsonValue::Number(self.latency.mean_ps),
                    ),
                    ("min_ps".to_string(), JsonValue::uint(self.latency.min_ps)),
                    ("max_ps".to_string(), JsonValue::uint(self.latency.max_ps)),
                ]),
            ),
            (
                "critical_path".to_string(),
                JsonValue::Object(vec![
                    (
                        "packets_analyzed".to_string(),
                        JsonValue::uint(self.paths.len() as u64),
                    ),
                    (
                        "mean_latency_ps".to_string(),
                        JsonValue::Number(mean(|p| p.latency_ps)),
                    ),
                    (
                        "mean_source_queue_ps".to_string(),
                        JsonValue::Number(mean(|p| p.source_queue_ps)),
                    ),
                    (
                        "mean_service_ps".to_string(),
                        JsonValue::Number(mean(|p| p.service_ps)),
                    ),
                    (
                        "mean_queue_ps".to_string(),
                        JsonValue::Number(mean(|p| p.queue_ps)),
                    ),
                    ("slowest".to_string(), JsonValue::Array(slowest)),
                ]),
            ),
            (
                "attribution".to_string(),
                JsonValue::Object(vec![
                    (
                        "per_node".to_string(),
                        stats_json(&self.attribution.per_node, self.top),
                    ),
                    (
                        "per_level".to_string(),
                        stats_json(&self.attribution.per_level, usize::MAX),
                    ),
                    (
                        "per_fanin_tree".to_string(),
                        stats_json(&self.attribution.per_fanin_tree, self.top),
                    ),
                ]),
            ),
            (
                "heatmap".to_string(),
                JsonValue::Object(vec![
                    ("busy".to_string(), JsonValue::str(&self.heatmap.busy)),
                    ("wait".to_string(), JsonValue::str(&self.heatmap.wait)),
                ]),
            ),
            (
                "scorecard".to_string(),
                self.scorecard
                    .as_ref()
                    .map_or(JsonValue::Null, |c| scorecard_json(c, self.top)),
            ),
        ])
    }

    /// The two heatmaps as one printable block.
    #[must_use]
    pub fn heatmap_text(&self) -> String {
        format!(
            "channel busy (service time)\n{}\nwait (queueing time)\n{}",
            self.heatmap.busy, self.heatmap.wait
        )
    }
}

fn distinct(ids: impl Iterator<Item = u64>) -> u64 {
    let mut ids: Vec<u64> = ids.collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len() as u64
}

/// Re-derives the histogram population: every delivered header copy of a
/// packet created inside the measurement window (all copies when the
/// trace carries no meta line).
fn latency_summary(meta: Option<&TraceMeta>, forest: &SpanForest) -> LatencySummary {
    let mut count = 0u64;
    let mut sum = 0u128;
    let mut min = u64::MAX;
    let mut max = 0u64;
    for tree in forest.headers() {
        if let Some(m) = meta {
            if !m.in_measurement(tree.created_ps) {
                continue;
            }
        }
        for node in &tree.nodes {
            if node.kind != Action::Deliver {
                continue;
            }
            let sample = node.t_ps.saturating_sub(tree.created_ps);
            count += 1;
            sum += u128::from(sample);
            min = min.min(sample);
            max = max.max(sample);
        }
    }
    if count == 0 {
        return LatencySummary::default();
    }
    LatencySummary {
        count,
        mean_ps: sum as f64 / count as f64,
        min_ps: min,
        max_ps: max,
    }
}

fn path_json(path: &CriticalPath) -> JsonValue {
    JsonValue::Object(vec![
        ("logical".to_string(), JsonValue::uint(path.logical)),
        ("packet".to_string(), JsonValue::uint(path.packet)),
        ("src".to_string(), JsonValue::uint(path.src)),
        ("latency_ps".to_string(), JsonValue::uint(path.latency_ps)),
        (
            "source_queue_ps".to_string(),
            JsonValue::uint(path.source_queue_ps),
        ),
        ("service_ps".to_string(), JsonValue::uint(path.service_ps)),
        ("queue_ps".to_string(), JsonValue::uint(path.queue_ps)),
        (
            "hops".to_string(),
            JsonValue::Array(
                path.hops
                    .iter()
                    .map(|hop| {
                        JsonValue::Object(vec![
                            ("site".to_string(), JsonValue::str(hop.site.to_string())),
                            ("action".to_string(), JsonValue::str(hop.action.label())),
                            ("t_ps".to_string(), JsonValue::uint(hop.t_ps)),
                            ("segment_ps".to_string(), JsonValue::uint(hop.segment_ps)),
                            ("service_ps".to_string(), JsonValue::uint(hop.service_ps)),
                            ("queue_ps".to_string(), JsonValue::uint(hop.queue_ps)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn stats_json(stats: &[NodeStat], top: usize) -> JsonValue {
    JsonValue::Array(
        stats
            .iter()
            .take(top)
            .map(|s| {
                JsonValue::Object(vec![
                    ("site".to_string(), JsonValue::str(&s.site)),
                    ("events".to_string(), JsonValue::uint(s.events)),
                    ("service_ps".to_string(), JsonValue::uint(s.service_ps)),
                    ("blocked_ps".to_string(), JsonValue::uint(s.blocked_ps)),
                    (
                        "arbitration_blocked_ps".to_string(),
                        JsonValue::uint(s.arbitration_blocked_ps),
                    ),
                    ("throttles".to_string(), JsonValue::uint(s.throttles)),
                ])
            })
            .collect(),
    )
}

fn scorecard_json(card: &Scorecard, top: usize) -> JsonValue {
    JsonValue::Object(vec![
        (
            "total_throttles".to_string(),
            JsonValue::uint(card.total_throttles),
        ),
        (
            "total_drop_fj".to_string(),
            JsonValue::Number(card.total_drop_fj),
        ),
        (
            "total_wasted_wire_fj".to_string(),
            JsonValue::Number(card.total_wasted_wire_fj),
        ),
        (
            "est_latency_saved_ps".to_string(),
            JsonValue::uint(card.est_latency_saved_ps),
        ),
        (
            "regions".to_string(),
            JsonValue::Array(
                card.regions
                    .iter()
                    .take(top)
                    .map(|r| {
                        JsonValue::Object(vec![
                            ("region".to_string(), JsonValue::str(&r.region)),
                            ("throttles".to_string(), JsonValue::uint(r.throttles)),
                            ("drop_fj".to_string(), JsonValue::Number(r.drop_fj)),
                            (
                                "wasted_wire_fj".to_string(),
                                JsonValue::Number(r.wasted_wire_fj),
                            ),
                            (
                                "est_latency_saved_ps".to_string(),
                                JsonValue::uint(r.est_latency_saved_ps),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        t_ps: u64,
        packet: u64,
        site: &str,
        action: &str,
        copies: u8,
        busy_ps: u64,
    ) -> TraceRecord {
        TraceRecord {
            t_ps,
            packet,
            logical: packet,
            flit: 0,
            src: 0,
            dests: 2,
            created_ps: 100,
            site: site.parse().expect(site),
            action: action.parse().expect(action),
            detail: asynoc_telemetry::Detail::None,
            copies,
            busy_ps,
        }
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            substrate: "mot".to_string(),
            arch: Some("BasicHybridSpeculative".to_string()),
            size: 4,
            seed: 1,
            flits: 1,
            rate: 0.3,
            warmup_ps: 50,
            measure_ps: 10_000,
            wire_fj: Some(2.0),
            drop_fj: Some(0.5),
            dropped_events: 0,
        }
    }

    fn trace() -> Vec<TraceRecord> {
        vec![
            record(150, 7, "src0", "inject", 1, 0),
            record(200, 7, "fo[s0:0.0]", "forward", 2, 52),
            record(260, 7, "fo[s0:1.0]", "forward", 2, 299),
            record(265, 7, "fo[s0:1.1]", "throttle", 0, 80),
            record(320, 7, "fi[d0:1.0]", "forward", 1, 90),
            record(330, 7, "fi[d1:1.0]", "forward", 1, 90),
            record(380, 7, "fi[d0:0.0]", "forward", 1, 90),
            record(395, 7, "fi[d1:0.0]", "forward", 1, 90),
            record(430, 7, "D0", "deliver", 0, 0),
            record(460, 7, "D1", "deliver", 0, 0),
        ]
    }

    #[test]
    fn report_pins_the_schema_and_reconciles_counts() {
        let analysis = Analysis::build(Some(meta()), trace(), 5);
        let json = analysis.to_json(0);
        assert_eq!(
            json.get("schema").and_then(JsonValue::as_str),
            Some("asynoc-analysis-v1")
        );
        assert_eq!(
            json.get("ingest").and_then(|i| i.get("records")),
            Some(&JsonValue::uint(10))
        );
        assert_eq!(
            json.get("ingest").and_then(|i| i.get("open_trees")),
            Some(&JsonValue::uint(0))
        );
        // Two delivered header copies, both measured.
        let latency = json.get("latency").unwrap();
        assert_eq!(latency.get("count"), Some(&JsonValue::uint(2)));
        assert_eq!(latency.get("min_ps"), Some(&JsonValue::uint(330)));
        assert_eq!(latency.get("max_ps"), Some(&JsonValue::uint(360)));
        // Scorecard present (meta carries energy constants).
        assert!(json
            .get("scorecard")
            .unwrap()
            .get("total_throttles")
            .is_some());
        // The document parses back from its own rendering.
        assert_eq!(JsonValue::parse(&json.render()), Ok(json));
    }

    #[test]
    fn faulted_trace_counts_affected_and_explained_trees() {
        let mut records = trace();
        records.insert(2, record(205, 7, "ch3", "fault", 0, 0));
        // A lost packet: fault records only, no injection.
        records.push(record(600, 9, "src0", "fault", 0, 0));
        records.push(record(600, 9, "src0", "fault", 0, 0));
        let analysis = Analysis::build(Some(meta()), records, 5);
        let ingest = analysis.to_json(0).get("ingest").cloned().unwrap();
        assert_eq!(
            ingest.get("fault_affected_trees"),
            Some(&JsonValue::uint(2))
        );
        assert_eq!(ingest.get("broken_trees"), Some(&JsonValue::uint(1)));
        assert_eq!(ingest.get("broken_with_cause"), Some(&JsonValue::uint(1)));
    }

    #[test]
    fn latency_population_respects_the_creation_gate() {
        let mut m = meta();
        m.warmup_ps = 200; // creation at 100 now falls before the window
        let analysis = Analysis::build(Some(m), trace(), 5);
        assert_eq!(analysis.latency().count, 0);
    }

    #[test]
    fn critical_path_components_telescope_in_the_report() {
        let analysis = Analysis::build(Some(meta()), trace(), 5);
        for path in analysis.paths() {
            assert_eq!(
                path.source_queue_ps + path.service_ps + path.queue_ps,
                path.latency_ps
            );
        }
    }

    #[test]
    fn metaless_trace_reports_unknown_substrate_and_no_scorecard() {
        let analysis = Analysis::build(None, trace(), 5);
        let json = analysis.to_json(3);
        assert_eq!(
            json.get("substrate").and_then(JsonValue::as_str),
            Some("unknown")
        );
        assert_eq!(json.get("meta"), Some(&JsonValue::Null));
        assert_eq!(json.get("scorecard"), Some(&JsonValue::Null));
        assert_eq!(
            json.get("ingest").and_then(|i| i.get("skipped_lines")),
            Some(&JsonValue::uint(3))
        );
    }

    #[test]
    fn heatmap_text_carries_both_maps() {
        let analysis = Analysis::build(Some(meta()), trace(), 5);
        let text = analysis.heatmap_text();
        assert!(text.contains("channel busy"));
        assert!(text.contains("wait (queueing time)"));
        assert!(text.contains("fo-L0"));
    }
}
