//! Aggregate blocked-time attribution over every span node of a trace.
//!
//! Where the critical path explains one packet, attribution explains the
//! run: for every site, how much flit time was spent being *served*
//! there versus *blocked in front of it*, how much of that blocking was
//! arbitration loss (losing grants at a fanin mux, visible as queueing
//! on arbitrated hops), and how many speculative copies the site killed.
//! Rollups by topology level and by fanin tree turn the per-node list
//! into the contention story the paper tells around its Figure 6:
//! which stage of the MoT eats the latency as load rises.

use asynoc_telemetry::{Action, Detail, HashMap, Site, Stage};

use crate::span::SpanNode;

/// Accumulated delay attribution for one site (or one aggregation key).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeStat {
    /// The site label (or level/tree key for rollups).
    pub site: String,
    /// Events attributed here.
    pub events: u64,
    /// Total service time spent at this site, ps.
    pub service_ps: u64,
    /// Total time flits waited to get through this site, ps.
    pub blocked_ps: u64,
    /// The share of `blocked_ps` on arbitrated hops (fanin grant loss), ps.
    pub arbitration_blocked_ps: u64,
    /// Speculative copies this site throttled.
    pub throttles: u64,
}

impl NodeStat {
    fn absorb(&mut self, other: &NodeStat) {
        self.events += other.events;
        self.service_ps += other.service_ps;
        self.blocked_ps += other.blocked_ps;
        self.arbitration_blocked_ps += other.arbitration_blocked_ps;
        self.throttles += other.throttles;
    }
}

/// Blocked-time attribution across a whole trace.
#[derive(Clone, Debug)]
pub struct Attribution {
    /// Per-site stats, ranked by descending blocked time.
    pub per_node: Vec<NodeStat>,
    /// Rollup by topology stage (`source`, `fanout-L1`, `fanin-L0`, ...),
    /// in pipeline order.
    pub per_level: Vec<NodeStat>,
    /// Rollup by destination fanin tree, ranked by descending blocked
    /// time. Empty on substrates without fanin labels (the mesh).
    pub per_fanin_tree: Vec<NodeStat>,
}

/// Per-site sums, taken span node by span node: bounded by the fabric's
/// sites, whatever the trace's length.
#[derive(Clone, Debug, Default)]
pub(crate) struct PerSite(HashMap<Site, NodeStat>);

impl PerSite {
    /// Counts one span node; `detail` is its record's.
    pub(crate) fn add(&mut self, node: &SpanNode, detail: Detail) {
        let stat = self.0.entry(node.site).or_insert_with(|| NodeStat {
            site: node.site.to_string(),
            ..NodeStat::default()
        });
        stat.events += 1;
        stat.service_ps += node.service_ps;
        stat.blocked_ps += node.queue_ps;
        if matches!(detail, Detail::Input(_)) {
            stat.arbitration_blocked_ps += node.queue_ps;
        }
        if node.kind == Action::Throttle {
            stat.throttles += 1;
        }
    }

    /// Each site's total of `part` of its stats.
    pub(crate) fn totals(&self, part: fn(&NodeStat) -> u64) -> Vec<(Site, u64)> {
        self.0
            .iter()
            .map(|(&site, stat)| (site, part(stat)))
            .collect()
    }

    /// Ranks the sites and rolls them up by level and fanin tree.
    pub(crate) fn attribution(&self) -> Attribution {
        let mut per_level: HashMap<Stage, NodeStat> = HashMap::default();
        let mut per_fanin: HashMap<usize, NodeStat> = HashMap::default();
        for (site, stat) in &self.0 {
            let stage = site.stage();
            let level = per_level.entry(stage).or_insert_with(|| NodeStat {
                site: stage.to_string(),
                ..NodeStat::default()
            });
            level.absorb(stat);
            if let Site::Fanin { tree, .. } = *site {
                let entry = per_fanin.entry(tree).or_insert_with(|| NodeStat {
                    site: format!("fanin-tree-d{tree}"),
                    ..NodeStat::default()
                });
                entry.absorb(stat);
            }
        }

        let mut per_node: Vec<NodeStat> = self.0.values().cloned().collect();
        per_node.sort_by(|a, b| b.blocked_ps.cmp(&a.blocked_ps).then(a.site.cmp(&b.site)));
        let mut per_level: Vec<(Stage, NodeStat)> = per_level.into_iter().collect();
        per_level.sort_by_key(|(stage, _)| stage.pipeline_rank());
        let per_level = per_level.into_iter().map(|(_, stat)| stat).collect();
        let mut per_fanin_tree: Vec<NodeStat> = per_fanin.into_values().collect();
        per_fanin_tree.sort_by(|a, b| b.blocked_ps.cmp(&a.blocked_ps).then(a.site.cmp(&b.site)));
        Attribution {
            per_node,
            per_level,
            per_fanin_tree,
        }
    }
}

#[cfg(test)]
mod tests {
    use asynoc_telemetry::TraceRecord;

    fn record(t_ps: u64, site: &str, action: &str, detail: &str, copies: u8) -> TraceRecord {
        TraceRecord {
            t_ps,
            packet: 1,
            logical: 1,
            flit: 0,
            src: 0,
            dests: 1,
            created_ps: 0,
            site: site.parse().expect(site),
            action: action.parse().expect(action),
            detail: detail.parse().expect(detail),
            copies,
            busy_ps: 20,
        }
    }

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            record(10, "src0", "inject", "", 1),
            record(40, "fo[s0:0.0]", "forward", "top", 1),
            record(140, "fi[d0:0.0]", "forward", "input0", 1),
            record(150, "D0", "deliver", "", 0),
        ]
    }

    #[test]
    fn blocked_time_ranks_nodes_levels_and_fanin_trees() {
        let analysis = crate::Analysis::build(None, sample_records(), 10);
        let attribution = analysis.attribution();
        // fi[d0:0.0]: segment 100, service 20 -> blocked 80; the worst.
        assert_eq!(attribution.per_node[0].site, "fi[d0:0.0]");
        assert_eq!(attribution.per_node[0].blocked_ps, 80);
        assert_eq!(
            attribution.per_node[0].arbitration_blocked_ps, 80,
            "arbitrated hop's queueing counts as arbitration loss"
        );
        let fanout = attribution
            .per_node
            .iter()
            .find(|s| s.site == "fo[s0:0.0]")
            .unwrap();
        assert_eq!(fanout.service_ps, 20);
        assert_eq!(fanout.blocked_ps, 10);
        assert_eq!(fanout.arbitration_blocked_ps, 0);
        // Levels in pipeline order; fanin trees by destination.
        let keys: Vec<&str> = attribution
            .per_level
            .iter()
            .map(|s| s.site.as_str())
            .collect();
        assert_eq!(keys, vec!["source", "fanout-L0", "fanin-L0", "sink"]);
        assert_eq!(attribution.per_fanin_tree.len(), 1);
        assert_eq!(attribution.per_fanin_tree[0].site, "fanin-tree-d0");
        assert_eq!(attribution.per_fanin_tree[0].blocked_ps, 80);
    }
}
