//! The analysis: a fold over a trace's records, and its report.
//!
//! [`Analysis`] takes records one at a time, in time order. Each grows
//! its flit's span tree, held by the [`TokenLedger`]; every report
//! section is a sum or a top-k over span nodes and trees, so a node is
//! counted as it arrives and a tree is summarised and dropped the moment
//! the ledger closes it. [`Analysis::finish`] summarises the trees still
//! open. The fold holds the flits in flight, one candidate path per
//! logical packet not yet complete, the `top` slowest paths, and sums
//! bounded by the fabric — not the trace. The latency block re-derives
//! the population the online histograms sample (delivered header copies
//! of packets *created* in the measurement window), so it reconciles
//! with a `metrics` run of the same simulation.

use std::collections::hash_map::Entry;

use asynoc_telemetry::{
    Action, HashMap, JsonValue, RecordSink, TokenLedger, TokenTally, TraceMeta, TraceRecord, Tree,
};

use crate::attribution::{Attribution, NodeStat, PerSite};
use crate::heatmap::Heatmap;
use crate::scorecard::{RegionScore, ScoreFold, Scorecard};
use crate::span::{CriticalPath, FlitTree, SpanNode};

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

/// What the fold took in: the report's `ingest` counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ingest {
    /// Records folded.
    pub records: u64,
    /// Flit trees: one per `(packet, flit)` seen.
    pub flit_trees: u64,
    /// Physical packets seen.
    pub packets: u64,
    /// Logical packets seen (serial-multicast clones share one).
    pub logical_packets: u64,
    /// Trees with copies unconsumed when the input ended (or broken).
    pub open_trees: u64,
    /// Trees a fault touched, broken trees, and broken trees a fault
    /// explains (a packet lost at its source).
    pub trees: TokenTally,
}

/// The slowest critical paths, and sums over all of them for the means.
#[derive(Clone, Debug, Default)]
struct Paths {
    /// The slowest, ordered by `(latency desc, logical)` when trimmed.
    slowest: Vec<CriticalPath>,
    count: u64,
    latency_ps: u64,
    source_queue_ps: u64,
    service_ps: u64,
    queue_ps: u64,
}

impl Paths {
    fn add(&mut self, path: CriticalPath, top: usize) {
        self.count += 1;
        self.latency_ps += path.latency_ps;
        self.source_queue_ps += path.source_queue_ps;
        self.service_ps += path.service_ps;
        self.queue_ps += path.queue_ps;
        self.slowest.push(path);
        if self.slowest.len() > top.saturating_mul(2).max(64) {
            self.trim(top);
        }
    }

    /// Keeps the `top` slowest, slowest first; ties go to the lower
    /// logical id.
    fn trim(&mut self, top: usize) {
        (self.slowest)
            .sort_by(|a, b| (b.latency_ps.cmp(&a.latency_ps)).then(a.logical.cmp(&b.logical)));
        self.slowest.truncate(top);
    }
}

/// A logical packet whose critical path is not final yet: a header tree
/// of it is open, or its source may still inject a clone of it.
#[derive(Default)]
struct Pending {
    /// Header trees of it the ledger holds.
    open_headers: u32,
    /// Its source has begun another logical packet: no clone follows.
    sealed: bool,
    /// The latest header delivery so far, `(t_ps, packet)`, with its path
    /// (`None` when that delivery's chain misses the injection).
    best: Option<(u64, u64, Option<CriticalPath>)>,
}

/// The analysis of a trace: a fold while records are pushed, the report
/// once [`finish`](Analysis::finish)ed.
pub struct Analysis {
    meta: Option<TraceMeta>,
    top: usize,
    ingest: Ingest,
    trees: TokenLedger<FlitTree>,
    /// Per source: the last packet and logical packet it began. A source
    /// begins its packets in id order (the engine numbers them as it
    /// creates them and injects them first come, first served), so a
    /// larger id is a new one and the count needs no set of ids.
    sources: HashMap<u64, (u64, u64)>,
    pending: HashMap<u64, Pending>,
    paths: Paths,
    per_site: PerSite,
    score: ScoreFold,
    /// Latency samples: count, sum, min, max.
    latency: (u64, u128, u64, u64),
    /// Every summarised tree, when asked for.
    kept: Option<Vec<FlitTree>>,
}

impl Analysis {
    /// An empty fold. `top` bounds the ranked lists it keeps and reports.
    #[must_use]
    pub fn new(meta: Option<TraceMeta>, top: usize) -> Analysis {
        Analysis {
            meta,
            top,
            ingest: Ingest::default(),
            trees: TokenLedger::default(),
            sources: HashMap::default(),
            pending: HashMap::default(),
            paths: Paths::default(),
            per_site: PerSite::default(),
            score: ScoreFold::default(),
            latency: (0, 0, u64::MAX, 0),
            kept: None,
        }
    }

    /// Folds a parsed trace.
    #[must_use]
    pub fn build(meta: Option<TraceMeta>, records: Vec<TraceRecord>, top: usize) -> Analysis {
        let mut analysis = Analysis::new(meta, top);
        for record in &records {
            analysis.push(record);
        }
        analysis.finish()
    }

    /// The same fold, keeping every tree it summarises, in that order,
    /// for [`trees`](Analysis::trees): memory grows with the trace, so
    /// only tests ask.
    #[must_use]
    pub fn keeping_trees(mut self) -> Analysis {
        self.kept = Some(Vec::new());
        self
    }

    /// Sets the meta line: its window gates what follows, and its energy
    /// constants price the scorecard.
    pub fn set_meta(&mut self, meta: TraceMeta) {
        self.meta = Some(meta);
    }

    /// Folds one record, the next in time order.
    pub fn push(&mut self, record: &TraceRecord) {
        self.ingest.records += 1;
        self.count_ids(record);
        let mut began = false;
        let (_, tokens, tree) = self.trees.take(record, |begins| {
            began = true;
            FlitTree::new(record, !begins)
        });
        if began && record.flit == 0 {
            self.pending.entry(record.logical).or_default().open_headers += 1;
        }
        let mut closed = None;
        let tree = match tree {
            Tree::Held(tree) => tree,
            Tree::Closed(tree) => closed.insert(tree),
        };
        tree.tokens = tokens;
        tree.push(record);
        let node = &tree.nodes[tree.nodes.len() - 1];
        self.per_site.add(node, record.detail);
        if let Some(meta) = &self.meta {
            let parent = node.parent.map(|p| &tree.nodes[p]);
            self.score.add(node, parent, meta);
        }
        if let Some(tree) = closed {
            self.summarise(tree);
        }
    }

    /// Summarises the trees the input left open, as open or broken, and
    /// completes every pending critical path.
    #[must_use]
    pub fn finish(mut self) -> Analysis {
        let mut held: Vec<FlitTree> = std::mem::take(&mut self.trees).into_held().collect();
        held.sort_unstable_by_key(|tree| (tree.packet, tree.flit));
        for tree in held {
            self.summarise(tree);
        }
        let mut logicals: Vec<u64> = self.pending.keys().copied().collect();
        logicals.sort_unstable();
        for logical in logicals {
            self.finalize(logical);
        }
        self.paths.trim(self.top);
        self
    }

    /// Counts a tree the ledger let go: its tokens, its share of the
    /// latency population, and — a header — its logical packet's
    /// critical-path candidate.
    fn summarise(&mut self, tree: FlitTree) {
        self.ingest.flit_trees += u64::from(!tree.resumed);
        self.ingest.open_trees += u64::from(!tree.tokens.closed());
        self.ingest.trees.add(tree.tokens);
        if tree.flit == 0 {
            // The histogram population: every delivered header copy of a
            // packet created inside the measurement window (all copies
            // when the trace carries no meta line).
            let measured = (self.meta.as_ref()).is_none_or(|m| m.in_measurement(tree.created_ps));
            let delivered = tree.nodes.iter().filter(|n| n.kind == Action::Deliver);
            for node in delivered.filter(|_| measured) {
                let sample = node.t_ps.saturating_sub(tree.created_ps);
                let (count, sum, min, max) = &mut self.latency;
                (*count, *sum) = (*count + 1, *sum + u128::from(sample));
                (*min, *max) = ((*min).min(sample), (*max).max(sample));
            }
            // The completing delivery of a logical packet is its last
            // header delivery across all clone trees; ties go to the
            // later packet.
            let pending = self.pending.entry(tree.logical).or_default();
            pending.open_headers = pending.open_headers.saturating_sub(1);
            if let Some((t_ps, path)) = tree.last_delivery() {
                let later = |&(at, packet, _): &(u64, u64, _)| (t_ps, tree.packet) >= (at, packet);
                if pending.best.as_ref().is_none_or(later) {
                    pending.best = Some((t_ps, tree.packet, path));
                }
            }
            if pending.sealed && pending.open_headers == 0 {
                self.finalize(tree.logical);
            }
        }
        if let Some(kept) = self.kept.as_mut() {
            kept.push(tree);
        }
    }

    /// Counts a packet and a logical packet the first time its source
    /// names it, and seals the logical packet the source leaves.
    fn count_ids(&mut self, record: &TraceRecord) {
        let (packet, logical) = match self.sources.entry(record.src) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(first) => {
                self.ingest.packets += 1;
                self.ingest.logical_packets += 1;
                first.insert((record.packet, record.logical))
            }
        };
        if record.packet > *packet {
            *packet = record.packet;
            self.ingest.packets += 1;
        }
        if record.logical > *logical {
            let left = std::mem::replace(logical, record.logical);
            self.ingest.logical_packets += 1;
            if let Some(pending) = self.pending.get_mut(&left) {
                pending.sealed = true;
                if pending.open_headers == 0 {
                    self.finalize(left);
                }
            }
        }
    }

    /// Adds `logical`'s critical path, now final, to the ranked paths.
    fn finalize(&mut self, logical: u64) {
        if let Some(Pending {
            best: Some((_, _, Some(path))),
            ..
        }) = self.pending.remove(&logical)
        {
            self.paths.add(path, self.top);
        }
    }

    /// What the fold took in.
    #[must_use]
    pub fn ingest(&self) -> Ingest {
        self.ingest
    }

    /// The `top` slowest critical paths, slowest first.
    #[must_use]
    pub fn paths(&self) -> &[CriticalPath] {
        &self.paths.slowest
    }

    /// Every tree the fold summarised, if it was
    /// [`keeping_trees`](Analysis::keeping_trees).
    #[must_use]
    pub fn trees(&self) -> &[FlitTree] {
        self.kept.as_deref().unwrap_or_default()
    }

    /// The re-derived latency population summary.
    #[must_use]
    pub fn latency(&self) -> LatencySummary {
        match self.latency {
            (0, ..) => LatencySummary::default(),
            (count, sum, min_ps, max_ps) => LatencySummary {
                count,
                mean_ps: sum as f64 / count as f64,
                min_ps,
                max_ps,
            },
        }
    }

    /// Aggregate blocked-time attribution.
    #[must_use]
    pub fn attribution(&self) -> Attribution {
        self.per_site.attribution()
    }

    /// The rendered congestion maps.
    #[must_use]
    pub fn heatmap(&self) -> Heatmap {
        Heatmap::render(&self.per_site)
    }

    /// The speculation scorecard, when the trace priced one.
    #[must_use]
    pub fn scorecard(&self) -> Option<Scorecard> {
        self.score.finish(self.meta.as_ref()?)
    }

    /// Serializes the `asynoc-analysis-v1` report document.
    /// `skipped_lines` reports how many malformed trace lines a lenient
    /// parse dropped before analysis.
    #[must_use]
    pub fn to_json(&self, skipped_lines: u64) -> JsonValue {
        let (meta, top) = (self.meta.as_ref(), self.top);
        let meta_json = meta.map_or(JsonValue::Null, |m| {
            JsonValue::parse(&m.to_ndjson()).expect("meta renders valid JSON")
        });
        let (ingest, tally, latency) = (&self.ingest, &self.ingest.trees, self.latency());
        let ingest_json = object([
            ("records", uint(ingest.records)),
            ("skipped_lines", uint(skipped_lines)),
            ("flit_trees", uint(ingest.flit_trees)),
            ("packets", uint(ingest.packets)),
            ("logical_packets", uint(ingest.logical_packets)),
            ("open_trees", uint(ingest.open_trees)),
            ("broken_trees", uint(tally.broken as u64)),
            ("fault_affected_trees", uint(tally.fault_affected as u64)),
            ("broken_with_cause", uint(tally.broken_with_cause as u64)),
            ("dropped_events", uint(meta.map_or(0, |m| m.dropped_events))),
        ]);
        let latency_json = object([
            ("count", uint(latency.count)),
            ("mean_ps", JsonValue::Number(latency.mean_ps)),
            ("min_ps", uint(latency.min_ps)),
            ("max_ps", uint(latency.max_ps)),
        ]);
        let paths = &self.paths;
        let mean = |sum| match paths.count {
            0 => JsonValue::Number(0.0),
            count => JsonValue::Number(sum as f64 / count as f64),
        };
        let critical_path_json = object([
            ("packets_analyzed", uint(paths.count)),
            ("mean_latency_ps", mean(paths.latency_ps)),
            ("mean_source_queue_ps", mean(paths.source_queue_ps)),
            ("mean_service_ps", mean(paths.service_ps)),
            ("mean_queue_ps", mean(paths.queue_ps)),
            (
                "slowest",
                JsonValue::Array(paths.slowest.iter().map(path_json).collect()),
            ),
        ]);
        let attribution = self.attribution();
        let attribution_json = object([
            ("per_node", stats_json(&attribution.per_node, top)),
            ("per_level", stats_json(&attribution.per_level, usize::MAX)),
            (
                "per_fanin_tree",
                stats_json(&attribution.per_fanin_tree, top),
            ),
        ]);
        let heatmap = self.heatmap();
        let heatmap_json = object([
            ("busy", JsonValue::str(heatmap.busy)),
            ("wait", JsonValue::str(heatmap.wait)),
        ]);
        object([
            ("schema", JsonValue::str(crate::ANALYSIS_SCHEMA)),
            (
                "substrate",
                JsonValue::str(meta.map_or("unknown", |m| &m.substrate)),
            ),
            ("meta", meta_json),
            ("ingest", ingest_json),
            ("latency", latency_json),
            ("critical_path", critical_path_json),
            ("attribution", attribution_json),
            ("heatmap", heatmap_json),
            (
                "scorecard",
                (self.scorecard()).map_or(JsonValue::Null, |c| scorecard_json(&c, top)),
            ),
        ])
    }

    /// The two heatmaps as one printable block.
    #[must_use]
    pub fn heatmap_text(&self) -> String {
        let Heatmap { busy, wait } = self.heatmap();
        format!("channel busy (service time)\n{busy}\nwait (queueing time)\n{wait}")
    }
}

impl RecordSink for Analysis {
    fn on_record(&mut self, record: &TraceRecord, _in_window: bool) {
        self.push(record);
    }
}

/// An object of `members`, in order.
fn object<const N: usize>(members: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(Vec::from(
        members.map(|(key, value)| (key.to_string(), value)),
    ))
}

fn uint(value: u64) -> JsonValue {
    JsonValue::uint(value)
}

fn path_json(path: &CriticalPath) -> JsonValue {
    let hop_json = |hop: &SpanNode| {
        object([
            ("site", JsonValue::str(hop.site.to_string())),
            ("action", JsonValue::str(hop.kind.label())),
            ("t_ps", uint(hop.t_ps)),
            ("segment_ps", uint(hop.segment_ps)),
            ("service_ps", uint(hop.service_ps)),
            ("queue_ps", uint(hop.queue_ps)),
        ])
    };
    object([
        ("logical", uint(path.logical)),
        ("packet", uint(path.packet)),
        ("src", uint(path.src)),
        ("latency_ps", uint(path.latency_ps)),
        ("source_queue_ps", uint(path.source_queue_ps)),
        ("service_ps", uint(path.service_ps)),
        ("queue_ps", uint(path.queue_ps)),
        (
            "hops",
            JsonValue::Array(path.hops.iter().map(hop_json).collect()),
        ),
    ])
}

fn stats_json(stats: &[NodeStat], top: usize) -> JsonValue {
    let stat_json = |s: &NodeStat| {
        object([
            ("site", JsonValue::str(&s.site)),
            ("events", uint(s.events)),
            ("service_ps", uint(s.service_ps)),
            ("blocked_ps", uint(s.blocked_ps)),
            ("arbitration_blocked_ps", uint(s.arbitration_blocked_ps)),
            ("throttles", uint(s.throttles)),
        ])
    };
    JsonValue::Array(stats.iter().take(top).map(stat_json).collect())
}

fn scorecard_json(card: &Scorecard, top: usize) -> JsonValue {
    let region_json = |r: &RegionScore| {
        object([
            ("region", JsonValue::str(&r.region)),
            ("throttles", uint(r.throttles)),
            ("drop_fj", JsonValue::Number(r.drop_fj)),
            ("wasted_wire_fj", JsonValue::Number(r.wasted_wire_fj)),
            ("est_latency_saved_ps", uint(r.est_latency_saved_ps)),
        ])
    };
    object([
        ("total_throttles", uint(card.total_throttles)),
        ("total_drop_fj", JsonValue::Number(card.total_drop_fj)),
        (
            "total_wasted_wire_fj",
            JsonValue::Number(card.total_wasted_wire_fj),
        ),
        ("est_latency_saved_ps", uint(card.est_latency_saved_ps)),
        (
            "regions",
            JsonValue::Array(card.regions.iter().take(top).map(region_json).collect()),
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
    fn equally_slow_paths_rank_by_logical_id() {
        // Nine unicast packets of one source, each 300 ps from creation
        // to delivery: the three kept are the lowest logical ids, in order.
        let records: Vec<TraceRecord> = (1..=9u64)
            .rev()
            .flat_map(|packet| {
                let created_ps = 1_000 * packet;
                [
                    (created_ps + 50, "src0", "inject", 1),
                    (created_ps + 300, "D0", "deliver", 0),
                ]
                .map(|(t_ps, site, action, copies)| TraceRecord {
                    created_ps,
                    ..record(t_ps, packet, site, action, copies, 0)
                })
            })
            .collect();
        let analysis = Analysis::build(None, records, 3);
        let ranked: Vec<(u64, u64)> = (analysis.paths().iter())
            .map(|path| (path.latency_ps, path.logical))
            .collect();
        assert_eq!(ranked, [(300, 1), (300, 2), (300, 3)]);
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
}
