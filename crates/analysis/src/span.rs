//! Span-tree reconstruction: from a flat trace back to causality.
//!
//! Every flit's journey is a tree: one injection, forks wherever a
//! fanout node replicated it (demanded branches and speculative
//! broadcasts alike), and one consumption per copy — a delivery, or a
//! throttle where a non-speculative node killed a redundant copy. The
//! trace records each of those events with a site label; because the MoT
//! wiring is fully determined by coordinates, each event's causal parent
//! is *computable* from its parsed label ([`Site::parent_candidates`]), so the
//! tree is reconstructed exactly, not heuristically. Sites without
//! coordinate parents (mesh routers) fall back to the flit's previous
//! event, which is exact for linear paths.
//!
//! Each edge's duration is split into **service** — the time the child
//! site reports staying busy on the handshake (`busy_ps`) — and
//! **queueing**, the remainder (wire flight plus waiting for the
//! channel). The split telescopes: summing a path's segments yields
//! exactly the end-to-end latency, whatever the attribution.

use std::collections::HashMap;

use asynoc_telemetry::{Action, Site, TraceRecord};

/// One event in a flit's span tree, with its resolved causal parent and
/// the decomposed edge delay leading to it.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Index of the backing record in the analyzed slice.
    pub record: usize,
    /// Event time, ps.
    pub t_ps: u64,
    /// Event kind.
    pub kind: Action,
    /// Copies the event put in flight.
    pub copies: u8,
    /// The site's handshake occupancy for this event, ps.
    pub busy_ps: u64,
    /// Parent node index within the owning [`FlitTree`] (`None` for the
    /// injection, or for orphans in a truncated trace).
    pub parent: Option<usize>,
    /// Delay from the parent event (for the injection: from packet
    /// creation — the source-queue wait), ps.
    pub segment_ps: u64,
    /// Service share of the segment: `min(busy_ps, segment_ps)`.
    pub service_ps: u64,
    /// Queueing share: `segment_ps - service_ps`.
    pub queue_ps: u64,
}

/// The reconstructed span tree of one flit of one physical packet.
#[derive(Clone, Debug)]
pub struct FlitTree {
    /// Physical packet id.
    pub packet: u64,
    /// Logical packet id (serial-multicast clones share it).
    pub logical: u64,
    /// Flit index (0 = header).
    pub flit: u8,
    /// Injecting source.
    pub src: u64,
    /// Packet creation time, ps.
    pub created_ps: u64,
    /// Time-ordered events with resolved parents.
    pub nodes: Vec<SpanNode>,
    /// Copies the tree put in flight: one injection plus each forward's
    /// fan-out.
    pub created: u64,
    /// Copies consumed: every forward, throttle, and delivery takes one.
    pub consumed: u64,
    /// Fault-injection records in the tree (token-neutral annotations).
    pub fault_events: u64,
    /// Token conservation holds: `created == consumed` (and the tree has
    /// its injection). `false` means copies were still in flight when
    /// the trace ended — or, if [`FlitTree::broken`], something worse.
    pub closed: bool,
}

impl FlitTree {
    fn settle(&mut self) {
        let mut injected = false;
        for node in &self.nodes {
            match node.kind {
                Action::Inject => {
                    injected = true;
                    self.created += u64::from(node.copies.max(1));
                }
                Action::Forward => {
                    self.consumed += 1;
                    self.created += u64::from(node.copies);
                }
                Action::Throttle | Action::Deliver => self.consumed += 1,
                Action::Fault => self.fault_events += 1,
            }
        }
        self.closed = injected && self.created == self.consumed;
    }

    /// An *impossible* tree: more copies consumed than created, or
    /// events without an injection. A merely tail-truncated trace (the
    /// simulation or the trace cap stopped mid-flight) never produces
    /// this — truncation only loses consumers, so `created > consumed`.
    ///
    /// One legitimate producer exists: a packet discarded at its source
    /// leaves only fault records (no injection), so the tree is broken
    /// *with cause* — [`fault_events`](FlitTree::fault_events) is
    /// nonzero and the forest counts it under
    /// [`broken_with_cause`](SpanForest::broken_with_cause).
    #[must_use]
    pub fn broken(&self) -> bool {
        self.consumed > self.created || !self.nodes.iter().any(|n| n.kind == Action::Inject)
    }
}

/// Every flit tree of a trace, in deterministic `(logical, packet,
/// flit)` order.
#[derive(Clone, Debug)]
pub struct SpanForest {
    /// One tree per `(packet, flit)` pair seen in the trace.
    pub trees: Vec<FlitTree>,
    /// Trees whose token conservation check failed (copies still in
    /// flight at trace end, or broken).
    pub open_trees: usize,
    /// Trees that are [`FlitTree::broken`] — impossible in a well-formed
    /// trace, truncated or not.
    pub broken_trees: usize,
    /// Trees carrying at least one fault-injection record.
    pub fault_affected: usize,
    /// Broken trees that carry fault records — breakage *explained* by
    /// injection (a packet lost at its source). In a faulted run this
    /// must equal the fault ledger's lost-packet count; any excess of
    /// [`broken_trees`](SpanForest::broken_trees) over it is a real
    /// anomaly.
    pub broken_with_cause: usize,
}

impl SpanForest {
    /// Reconstructs every flit's span tree from a time-ordered record
    /// slice.
    #[must_use]
    pub fn build(records: &[TraceRecord]) -> SpanForest {
        let mut groups: HashMap<(u64, u8), Vec<usize>> = HashMap::new();
        let mut order: Vec<(u64, u8)> = Vec::new();
        for (index, record) in records.iter().enumerate() {
            let key = (record.packet, record.flit);
            let entry = groups.entry(key).or_default();
            if entry.is_empty() {
                order.push(key);
            }
            entry.push(index);
        }

        let mut by_site = SiteIndex::default();
        let mut trees: Vec<FlitTree> = order
            .into_iter()
            .map(|key| build_tree(records, &groups[&key], &mut by_site))
            .collect();
        trees.sort_by_key(|t| (t.logical, t.packet, t.flit));
        let open_trees = trees.iter().filter(|t| !t.closed).count();
        let broken_trees = trees.iter().filter(|t| t.broken()).count();
        let fault_affected = trees.iter().filter(|t| t.fault_events > 0).count();
        let broken_with_cause = trees
            .iter()
            .filter(|t| t.broken() && t.fault_events > 0)
            .count();
        SpanForest {
            trees,
            open_trees,
            broken_trees,
            fault_affected,
            broken_with_cause,
        }
    }

    /// The header (flit 0) trees, the population latency analysis uses.
    pub fn headers(&self) -> impl Iterator<Item = &FlitTree> {
        self.trees.iter().filter(|t| t.flit == 0)
    }
}

/// Where one tree's nodes sit, by parsed site, for coordinate parent
/// lookup. A flit copy traverses a site at most once, so the index keeps
/// the latest node per site; `earlier` chains back through any repeats
/// so that a malformed trace resolves as it always did. One index is
/// cleared and reused for every tree of a forest.
#[derive(Default)]
struct SiteIndex {
    latest: HashMap<Site, usize>,
    /// Per node of the tree: the previous node at the same site.
    earlier: Vec<Option<usize>>,
}

impl SiteIndex {
    fn clear(&mut self) {
        self.latest.clear();
        self.earlier.clear();
    }

    /// Records that the tree's next node sits at `site`.
    fn push(&mut self, site: Site) {
        let earlier = self.latest.insert(site, self.earlier.len());
        self.earlier.push(earlier);
    }

    /// The latest node at `site` no later than `t_ps`.
    fn latest_before(&self, site: Site, t_ps: u64, nodes: &[SpanNode]) -> Option<usize> {
        let mut cursor = self.latest.get(&site).copied();
        while let Some(position) = cursor {
            if nodes[position].t_ps <= t_ps {
                return cursor;
            }
            cursor = self.earlier[position];
        }
        None
    }
}

fn build_tree(records: &[TraceRecord], indices: &[usize], by_site: &mut SiteIndex) -> FlitTree {
    let first = &records[indices[0]];
    let mut nodes: Vec<SpanNode> = Vec::with_capacity(indices.len());
    by_site.clear();
    let src = first.src as usize;

    for &record_index in indices {
        let record = &records[record_index];
        let (kind, site) = (record.action, record.site);
        let parent = if kind == Action::Inject {
            None
        } else {
            resolve_parent(site, record.t_ps, src, &nodes, by_site)
        };
        let segment_ps = match (kind, parent) {
            // The injection's segment is the source-queue wait since
            // creation; latency telescopes from `created_ps`.
            (Action::Inject, _) => record.t_ps.saturating_sub(record.created_ps),
            (_, Some(p)) => record.t_ps.saturating_sub(nodes[p].t_ps),
            (_, None) => 0,
        };
        let service_ps = if kind == Action::Inject {
            0
        } else {
            record.busy_ps.min(segment_ps)
        };
        nodes.push(SpanNode {
            record: record_index,
            t_ps: record.t_ps,
            kind,
            copies: record.copies,
            busy_ps: record.busy_ps,
            parent,
            segment_ps,
            service_ps,
            queue_ps: segment_ps - service_ps,
        });
        by_site.push(site);
    }

    let mut tree = FlitTree {
        packet: first.packet,
        logical: first.logical,
        flit: first.flit,
        src: first.src,
        created_ps: first.created_ps,
        nodes,
        created: 0,
        consumed: 0,
        fault_events: 0,
        closed: false,
    };
    tree.settle();
    tree
}

/// Finds the causal parent of an event at `site` among the nodes built
/// so far: first by the site's coordinate candidates, then — when the
/// site has none, or none of them matched — the flit's previous event.
fn resolve_parent(
    site: Site,
    t_ps: u64,
    src: usize,
    nodes: &[SpanNode],
    by_site: &SiteIndex,
) -> Option<usize> {
    site.parent_candidates(src)
        .find_map(|candidate| by_site.latest_before(candidate, t_ps, nodes))
        // Linear fallback — exact for single-copy paths (the mesh, where
        // router sites have no coordinates and delivery sinks have no fanin
        // tree to match), best-effort when the trace cap dropped the true
        // coordinate parent: the flit's previous event is always a causal
        // predecessor, so segments stay non-negative.
        .or_else(|| nodes.len().checked_sub(1))
}

/// One hop of a critical path.
#[derive(Clone, Debug)]
pub struct Hop {
    /// Where the event fired.
    pub site: Site,
    /// What happened there.
    pub action: Action,
    /// Event time, ps.
    pub t_ps: u64,
    /// Delay since the previous hop, ps.
    pub segment_ps: u64,
    /// Service share, ps.
    pub service_ps: u64,
    /// Queueing share, ps.
    pub queue_ps: u64,
}

/// The end-to-end critical path of one logical packet: the chain from
/// creation through injection to the **last** header delivery (the
/// arrival that completes the packet, exactly the instant latency is
/// measured to).
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Logical packet id.
    pub logical: u64,
    /// Physical packet owning the completing delivery.
    pub packet: u64,
    /// Injecting source.
    pub src: u64,
    /// Packet creation time, ps.
    pub created_ps: u64,
    /// End-to-end latency (creation to completing delivery), ps.
    pub latency_ps: u64,
    /// Time spent in the source queue before injection, ps.
    pub source_queue_ps: u64,
    /// Total service along the path, ps.
    pub service_ps: u64,
    /// Total queueing along the path, ps.
    pub queue_ps: u64,
    /// The hops, injection first.
    pub hops: Vec<Hop>,
}

/// Extracts the critical path of every logical packet that completed in
/// the trace, sorted by descending latency.
#[must_use]
pub fn critical_paths(forest: &SpanForest, records: &[TraceRecord]) -> Vec<CriticalPath> {
    // The completing delivery of a logical packet is its last header
    // deliver across all clone trees.
    let mut last_deliver: HashMap<u64, (usize, usize)> = HashMap::new(); // logical -> (tree, node)
    for (tree_index, tree) in forest.trees.iter().enumerate() {
        if tree.flit != 0 {
            continue;
        }
        for (node_index, node) in tree.nodes.iter().enumerate() {
            if node.kind != Action::Deliver {
                continue;
            }
            let slot = last_deliver.entry(tree.logical).or_insert((0, 0));
            let current = forest.trees[slot.0].nodes.get(slot.1);
            if current.is_none_or(|c| c.kind != Action::Deliver || node.t_ps >= c.t_ps) {
                *slot = (tree_index, node_index);
            }
        }
    }

    let mut paths: Vec<CriticalPath> = last_deliver
        .into_iter()
        .filter_map(|(logical, (tree_index, node_index))| {
            let tree = &forest.trees[tree_index];
            let mut chain = Vec::new();
            let mut cursor = Some(node_index);
            while let Some(position) = cursor {
                chain.push(position);
                cursor = tree.nodes[position].parent;
            }
            chain.reverse();
            // A path must reach back to the injection for its components
            // to telescope to the measured latency.
            if tree.nodes[chain[0]].kind != Action::Inject {
                return None;
            }
            let hops: Vec<Hop> = chain
                .iter()
                .map(|&position| {
                    let node = &tree.nodes[position];
                    let record = &records[node.record];
                    Hop {
                        site: record.site,
                        action: record.action,
                        t_ps: node.t_ps,
                        segment_ps: node.segment_ps,
                        service_ps: node.service_ps,
                        queue_ps: node.queue_ps,
                    }
                })
                .collect();
            let deliver_t = tree.nodes[node_index].t_ps;
            Some(CriticalPath {
                logical,
                packet: tree.packet,
                src: tree.src,
                created_ps: tree.created_ps,
                latency_ps: deliver_t.saturating_sub(tree.created_ps),
                source_queue_ps: hops[0].segment_ps,
                service_ps: hops.iter().skip(1).map(|h| h.service_ps).sum(),
                queue_ps: hops.iter().skip(1).map(|h| h.queue_ps).sum(),
                hops,
            })
        })
        .collect();
    paths.sort_by(|a, b| {
        b.latency_ps
            .cmp(&a.latency_ps)
            .then(a.logical.cmp(&b.logical))
    });
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_telemetry::Detail;

    fn record(
        t_ps: u64,
        packet: u64,
        flit: u8,
        site: &str,
        action: &str,
        copies: u8,
        busy_ps: u64,
    ) -> TraceRecord {
        TraceRecord {
            t_ps,
            packet,
            logical: packet,
            flit,
            src: 0,
            dests: 2,
            created_ps: 100,
            site: site.parse().expect(site),
            action: action.parse().expect(action),
            detail: Detail::None,
            copies,
            busy_ps,
        }
    }

    /// A 4x4 MoT multicast from source 0 to dests {0, 1}: the root
    /// speculatively broadcasts (copies 2), the bottom branch is
    /// throttled, the top branch forks at the leaf to both dests.
    fn multicast_trace() -> Vec<TraceRecord> {
        vec![
            record(150, 7, 0, "src0", "inject", 1, 0),
            record(200, 7, 0, "fo[s0:0.0]", "forward", 2, 52),
            record(260, 7, 0, "fo[s0:1.0]", "forward", 2, 299),
            record(265, 7, 0, "fo[s0:1.1]", "throttle", 0, 80),
            record(320, 7, 0, "fi[d0:1.0]", "forward", 1, 90),
            record(330, 7, 0, "fi[d1:1.0]", "forward", 1, 90),
            record(380, 7, 0, "fi[d0:0.0]", "forward", 1, 90),
            record(395, 7, 0, "fi[d1:0.0]", "forward", 1, 90),
            record(430, 7, 0, "D0", "deliver", 0, 0),
            record(460, 7, 0, "D1", "deliver", 0, 0),
        ]
    }

    #[test]
    fn multicast_tree_closes_and_resolves_parents() {
        let records = multicast_trace();
        let forest = SpanForest::build(&records);
        assert_eq!(forest.trees.len(), 1);
        assert_eq!(forest.open_trees, 0);
        let tree = &forest.trees[0];
        assert!(tree.closed);
        // Root fanout's parent is the injection.
        assert_eq!(tree.nodes[1].parent, Some(0));
        // Throttle hangs off the speculative root like any other copy.
        assert_eq!(tree.nodes[3].parent, Some(1));
        // Fanin leaves chain back to the fanout leaf (level-1 node here,
        // since a 4x4 MoT has two levels).
        assert_eq!(tree.nodes[4].parent, Some(2));
        assert_eq!(tree.nodes[5].parent, Some(2));
        // Delivers hang off their fanin roots.
        assert_eq!(tree.nodes[8].parent, Some(6));
        assert_eq!(tree.nodes[9].parent, Some(7));
    }

    #[test]
    fn segments_decompose_into_service_and_queueing() {
        let records = multicast_trace();
        let forest = SpanForest::build(&records);
        let tree = &forest.trees[0];
        // Injection: source-queue wait since creation.
        assert_eq!(tree.nodes[0].segment_ps, 50);
        assert_eq!(tree.nodes[0].queue_ps, 50);
        // Root fanout: 50 ps segment, busy 52 clamps to the segment.
        assert_eq!(tree.nodes[1].segment_ps, 50);
        assert_eq!(tree.nodes[1].service_ps, 50);
        assert_eq!(tree.nodes[1].queue_ps, 0);
        // Fanin leaf d0: segment 60, busy 90 clamped.
        assert_eq!(tree.nodes[4].segment_ps, 60);
        assert_eq!(tree.nodes[4].service_ps, 60);
    }

    #[test]
    fn truncated_trace_is_open() {
        let mut records = multicast_trace();
        records.truncate(4); // lose the fanin story
        let forest = SpanForest::build(&records);
        assert_eq!(forest.open_trees, 1);
        assert!(!forest.trees[0].closed);
        // Tail truncation loses consumers only — never "broken".
        assert_eq!(forest.broken_trees, 0);
        assert!(forest.trees[0].created > forest.trees[0].consumed);
    }

    #[test]
    fn overconsumption_is_broken() {
        let mut records = multicast_trace();
        // A deliver the fanout story never created.
        records.push(record(500, 7, 0, "D2", "deliver", 0, 0));
        let forest = SpanForest::build(&records);
        assert_eq!(forest.broken_trees, 1);
        assert!(forest.trees[0].broken());
    }

    #[test]
    fn critical_path_components_sum_to_latency() {
        let records = multicast_trace();
        let forest = SpanForest::build(&records);
        let paths = critical_paths(&forest, &records);
        assert_eq!(paths.len(), 1);
        let path = &paths[0];
        // The completing delivery is D1 at 460; created at 100.
        assert_eq!(path.latency_ps, 360);
        assert_eq!(path.hops.last().unwrap().site, Site::Sink(1));
        assert_eq!(
            path.source_queue_ps + path.service_ps + path.queue_ps,
            path.latency_ps,
            "decomposition telescopes exactly"
        );
        // Path follows the d1 branch: src, root, leaf fanout, fanin
        // leaf, fanin root, sink.
        assert_eq!(path.hops.len(), 6);
    }

    #[test]
    fn fault_records_are_token_neutral() {
        let mut records = multicast_trace();
        // A link stall on the flit's journey: annotation only.
        records.insert(2, record(205, 7, 0, "ch3", "fault", 0, 0));
        let forest = SpanForest::build(&records);
        let tree = &forest.trees[0];
        assert!(tree.closed, "fault annotations must not open the tree");
        assert_eq!(tree.fault_events, 1);
        assert_eq!(forest.fault_affected, 1);
        assert_eq!(forest.broken_trees, 0);
        assert_eq!(forest.broken_with_cause, 0);
    }

    #[test]
    fn source_lost_packet_is_broken_with_cause() {
        let mut records = multicast_trace();
        // Packet 9 never injects: only its drop and loss records exist.
        records.push(record(600, 9, 0, "src0", "fault", 0, 0));
        records.push(record(600, 9, 0, "src0", "fault", 0, 0));
        let forest = SpanForest::build(&records);
        assert_eq!(forest.trees.len(), 2);
        assert_eq!(forest.broken_trees, 1);
        assert_eq!(forest.broken_with_cause, 1, "breakage is explained");
        let lost = forest.trees.iter().find(|t| t.packet == 9).unwrap();
        assert!(lost.broken());
        assert_eq!(lost.fault_events, 2);
    }

    /// Parent resolution as it was before sites were typed: candidate
    /// labels formatted per record, looked up in a map of every node's
    /// label.
    fn label_keyed_parents(records: &[TraceRecord]) -> Vec<Option<usize>> {
        let mut by_site: HashMap<String, Vec<usize>> = HashMap::new();
        let src = records[0].src as usize;
        let mut parents = Vec::new();
        for (position, record) in records.iter().enumerate() {
            let by_label = |label: String| {
                let positions = by_site.get(label.as_str())?;
                let earlier = |&&p: &&usize| records[p].t_ps <= record.t_ps;
                positions.iter().rev().find(earlier).copied()
            };
            parents.push(if record.action == Action::Inject {
                None
            } else {
                record
                    .site
                    .parent_candidates(src)
                    .find_map(|candidate| by_label(candidate.to_string()))
                    .or(position.checked_sub(1))
            });
            by_site
                .entry(record.site.to_string())
                .or_default()
                .push(position);
        }
        parents
    }

    #[test]
    fn typed_sites_resolve_the_parents_label_lookup_did() {
        // One flit's worth of everything a trace can throw at the index:
        // repeated sites, events out of time order, sites that are nobody's
        // parent, candidates that are absent.
        let sites = [
            "src2",
            "fo[s2:0.0]",
            "fo[s2:1.0]",
            "fo[s2:1.1]",
            "fo[s2:2.1]",
            "fo[s2:2.3]",
            "fi[d1:2.1]",
            "fi[d1:1.0]",
            "fi[d1:0.0]",
            "fi[d6:2.1]",
            "fi[d6:1.1]",
            "fi[d6:0.0]",
            "D1",
            "D6",
            "r4",
            "ch9",
            "node3",
        ];
        let actions = [
            "forward", "forward", "forward", "throttle", "deliver", "fault", "inject",
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        let mut records = vec![record(100, 5, 0, "src2", "inject", 1, 0)];
        for step in 0..600 {
            let t_ps = 100 + 10 * step + draw(40) as u64;
            let mut next = record(
                t_ps,
                5,
                0,
                sites[draw(sites.len())],
                actions[draw(7)],
                1,
                30,
            );
            next.src = 2;
            records.push(next);
        }
        records[0].src = 2;
        let forest = SpanForest::build(&records);
        assert_eq!(forest.trees.len(), 1);
        let resolved: Vec<Option<usize>> = forest.trees[0].nodes.iter().map(|n| n.parent).collect();
        let expected = label_keyed_parents(&records);
        assert_eq!(resolved, expected);
        // The soup must reach past the linear fallback, and past the
        // latest node of a site, for the comparison to mean anything.
        let coordinate = expected
            .iter()
            .enumerate()
            .filter(|(position, parent)| parent.is_some_and(|p| p + 1 < *position))
            .count();
        assert!(coordinate > 100, "{coordinate} coordinate parents");
    }

    #[test]
    fn mesh_linear_chains_fall_back_to_previous_event() {
        let records = vec![
            record(150, 3, 0, "src2", "inject", 1, 0),
            record(210, 3, 0, "r2", "forward", 1, 40),
            record(280, 3, 0, "r6", "forward", 1, 40),
            record(340, 3, 0, "D6", "deliver", 0, 0),
        ];
        let forest = SpanForest::build(&records);
        let tree = &forest.trees[0];
        assert!(tree.closed);
        assert_eq!(tree.nodes[1].parent, Some(0));
        assert_eq!(tree.nodes[2].parent, Some(1));
        // "D6" parses as a sink whose fanin candidate is absent on the
        // mesh; the deliver falls back to the flit's previous event —
        // the last router hop, its true causal parent on a linear path.
        assert_eq!(tree.nodes[3].parent, Some(2));
        let paths = critical_paths(&forest, &records);
        assert_eq!(paths.len(), 1, "the mesh chain yields a full path");
        let path = &paths[0];
        assert_eq!(
            path.source_queue_ps + path.service_ps + path.queue_ps,
            path.latency_ps
        );
        assert_eq!(path.hops.len(), 4);
    }
}
