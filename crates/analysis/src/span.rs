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
//! A [`FlitTree`] grows one record at a time, in trace order, and each
//! event's parent is resolved among the events before it — so the fold
//! that owns the trees can summarise and drop one the moment its tokens
//! close.
//!
//! Each edge's duration is split into **service** — the time the child
//! site reports staying busy on the handshake (`busy_ps`) — and
//! **queueing**, the remainder (wire flight plus waiting for the
//! channel). The split telescopes: summing a path's segments yields
//! exactly the end-to-end latency, whatever the attribution.

use asynoc_telemetry::{Action, FlitTokens, HashMap, Site, TraceRecord};

/// One event in a flit's span tree, with its resolved causal parent and
/// the decomposed edge delay leading to it.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Event time, ps.
    pub t_ps: u64,
    /// Where the event fired.
    pub site: Site,
    /// Event kind.
    pub kind: Action,
    /// Copies the event put in flight.
    pub copies: u8,
    /// The site's handshake occupancy for this event, ps.
    pub busy_ps: u64,
    /// Parent node index within the owning [`FlitTree`] (`None` for the
    /// injection, for orphans in a truncated trace, and for the first
    /// event of a tree taken up again).
    pub parent: Option<usize>,
    /// Delay from the parent event (for the injection: from packet
    /// creation — the source-queue wait), ps.
    pub segment_ps: u64,
    /// Service share of the segment: `min(busy_ps, segment_ps)`.
    pub service_ps: u64,
    /// Queueing share: `segment_ps - service_ps`.
    pub queue_ps: u64,
}

/// The span tree of one flit of one physical packet, as far as its
/// records have arrived.
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
    /// Whether the tree takes up a flit whose earlier tree closed clean
    /// and was summarised (a fault record naming the flit after its last
    /// copy was consumed): its events continue that tree, which the
    /// summary already counted.
    pub resumed: bool,
    /// Time-ordered events with resolved parents.
    pub nodes: Vec<SpanNode>,
    /// The tree's copies as the token ledger counted them: closed when
    /// every copy created was consumed, broken when more were consumed
    /// or there was no injection (truncation only loses consumers, so
    /// only a packet lost at its source breaks a well-formed tree — and
    /// with cause: its tokens are `faulted`).
    pub tokens: FlitTokens,
    by_site: SiteIndex,
}

impl FlitTree {
    /// An empty tree for the flit `first` names.
    pub(crate) fn new(first: &TraceRecord, resumed: bool) -> FlitTree {
        FlitTree {
            packet: first.packet,
            logical: first.logical,
            flit: first.flit,
            src: first.src,
            created_ps: first.created_ps,
            resumed,
            nodes: Vec::new(),
            tokens: FlitTokens::default(),
            by_site: SiteIndex::default(),
        }
    }

    /// Appends `record`'s event, its parent resolved among the events
    /// before it.
    pub(crate) fn push(&mut self, record: &TraceRecord) {
        let (kind, site, t_ps) = (record.action, record.site, record.t_ps);
        let parent = if kind == Action::Inject {
            None
        } else {
            self.resolve_parent(site, t_ps)
        };
        let segment_ps = match (kind, parent) {
            // The injection's segment is the source-queue wait since
            // creation; latency telescopes from `created_ps`.
            (Action::Inject, _) => t_ps.saturating_sub(record.created_ps),
            (_, Some(p)) => t_ps.saturating_sub(self.nodes[p].t_ps),
            (_, None) => 0,
        };
        let service_ps = if kind == Action::Inject {
            0
        } else {
            record.busy_ps.min(segment_ps)
        };
        self.by_site.push(site);
        self.nodes.push(SpanNode {
            t_ps,
            site,
            kind,
            copies: record.copies,
            busy_ps: record.busy_ps,
            parent,
            segment_ps,
            service_ps,
            queue_ps: segment_ps - service_ps,
        });
    }

    /// Finds the causal parent of an event at `site` among the nodes
    /// built so far: first by the site's coordinate candidates, then —
    /// when the site has none, or none of them matched — the flit's
    /// previous event.
    fn resolve_parent(&self, site: Site, t_ps: u64) -> Option<usize> {
        site.parent_candidates(self.src as usize)
            .find_map(|candidate| self.by_site.latest_before(candidate, t_ps, &self.nodes))
            // Linear fallback — exact for single-copy paths (the mesh, where
            // router sites have no coordinates and delivery sinks have no
            // fanin tree to match), best-effort when the trace cap dropped
            // the true coordinate parent: the flit's previous event is always
            // a causal predecessor, so segments stay non-negative.
            .or_else(|| self.nodes.len().checked_sub(1))
    }

    /// The tree's last delivery — the latest, ties to the later record —
    /// as its time and the critical path to it, `None` when the chain of
    /// parents does not reach the injection (the path would not
    /// telescope to the measured latency). `None` without a delivery.
    pub(crate) fn last_delivery(&self) -> Option<(u64, Option<CriticalPath>)> {
        let (last, deliver) = (self.nodes.iter().enumerate())
            .filter(|(_, node)| node.kind == Action::Deliver)
            .max_by_key(|(position, node)| (node.t_ps, *position))?;
        let mut hops = Vec::new();
        let mut cursor = Some(last);
        while let Some(position) = cursor {
            hops.push(self.nodes[position].clone());
            cursor = self.nodes[position].parent;
        }
        hops.reverse();
        if hops[0].kind != Action::Inject {
            return Some((deliver.t_ps, None));
        }
        let path = CriticalPath {
            logical: self.logical,
            packet: self.packet,
            src: self.src,
            created_ps: self.created_ps,
            latency_ps: deliver.t_ps.saturating_sub(self.created_ps),
            source_queue_ps: hops[0].segment_ps,
            service_ps: hops.iter().skip(1).map(|h| h.service_ps).sum(),
            queue_ps: hops.iter().skip(1).map(|h| h.queue_ps).sum(),
            hops,
        };
        Some((deliver.t_ps, Some(path)))
    }
}

/// Where one tree's nodes sit, by parsed site, for coordinate parent
/// lookup. A flit copy traverses a site at most once, so the index keeps
/// the latest node per site; `earlier` chains back through any repeats
/// so that a malformed trace resolves as it always did.
#[derive(Clone, Debug, Default)]
struct SiteIndex {
    latest: HashMap<Site, usize>,
    /// Per node of the tree: the previous node at the same site.
    earlier: Vec<Option<usize>>,
}

impl SiteIndex {
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
    /// The span nodes along the path, injection first (their `parent`
    /// indices are the tree's).
    pub hops: Vec<SpanNode>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Analysis;
    use asynoc_telemetry::Detail;

    /// Every tree of `records`, kept, and every critical path.
    fn folded(records: &[TraceRecord]) -> Analysis {
        let mut fold = Analysis::new(None, usize::MAX).keeping_trees();
        for record in records {
            fold.push(record);
        }
        fold.finish()
    }

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
        let analysis = folded(&multicast_trace());
        assert_eq!(analysis.trees().len(), 1);
        assert_eq!(analysis.ingest().open_trees, 0);
        let tree = &analysis.trees()[0];
        assert!(tree.tokens.closed());
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
        // Segments decompose into service and queueing: the injection
        // waited 50 ps in its source queue; the root's 52 ps busy and the
        // fanin leaf's 90 clamp to their 50 and 60 ps segments.
        assert_eq!((tree.nodes[0].segment_ps, tree.nodes[0].queue_ps), (50, 50));
        let root = &tree.nodes[1];
        assert_eq!(
            (root.segment_ps, root.service_ps, root.queue_ps),
            (50, 50, 0)
        );
        assert_eq!(
            (tree.nodes[4].segment_ps, tree.nodes[4].service_ps),
            (60, 60)
        );
    }

    #[test]
    fn truncated_trace_is_open() {
        let mut records = multicast_trace();
        records.truncate(4); // lose the fanin story
        let analysis = folded(&records);
        assert_eq!(analysis.ingest().open_trees, 1);
        let tree = &analysis.trees()[0];
        assert!(!tree.tokens.closed());
        // Tail truncation loses consumers only — never "broken".
        assert_eq!(analysis.ingest().trees.broken, 0);
        assert!(tree.tokens.in_flight > 0);
    }

    #[test]
    fn overconsumption_is_broken() {
        let mut records = multicast_trace();
        // A deliver the fanout story never created, after the tree closed:
        // the ledger takes the tree up again, one copy short.
        records.push(record(500, 7, 0, "D2", "deliver", 0, 0));
        let analysis = folded(&records);
        assert_eq!(analysis.ingest().trees.broken, 1);
        assert_eq!(analysis.ingest().flit_trees, 1, "one flit, one tree");
        let [whole, resumed] = analysis.trees() else {
            panic!("the closed tree and the one taken up again");
        };
        assert!(whole.tokens.closed() && !whole.resumed);
        assert!(resumed.resumed && resumed.tokens.broken());
        assert_eq!(resumed.nodes[0].parent, None);
    }

    #[test]
    fn critical_path_components_sum_to_latency() {
        let analysis = folded(&multicast_trace());
        let paths = analysis.paths();
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
        let analysis = folded(&records);
        let tree = &analysis.trees()[0];
        assert!(
            tree.tokens.closed(),
            "fault annotations must not open the tree"
        );
        assert!(tree.tokens.faulted);
        let tally = analysis.ingest().trees;
        assert_eq!(tally.fault_affected, 1);
        assert_eq!(tally.broken, 0);
        assert_eq!(tally.broken_with_cause, 0);
    }

    #[test]
    fn source_lost_packet_is_broken_with_cause() {
        let mut records = multicast_trace();
        // Packet 9 never injects: only its drop and loss records exist.
        records.push(record(600, 9, 0, "src0", "fault", 0, 0));
        records.push(record(600, 9, 0, "src0", "fault", 0, 0));
        let analysis = folded(&records);
        assert_eq!(analysis.trees().len(), 2);
        assert_eq!(analysis.ingest().trees.broken, 1);
        assert_eq!(
            analysis.ingest().trees.broken_with_cause,
            1,
            "breakage is explained"
        );
        let lost = analysis.trees().iter().find(|t| t.packet == 9).unwrap();
        assert!(lost.tokens.broken() && lost.tokens.faulted);
        assert_eq!(lost.nodes.len(), 2);
    }

    /// Parent resolution as it was before sites were typed: candidate
    /// labels formatted per record, looked up in a map of every node's
    /// label.
    fn label_keyed_parents(records: &[TraceRecord]) -> Vec<Option<usize>> {
        let mut by_site: HashMap<String, Vec<usize>> = HashMap::default();
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
        // One tree fed the whole soup: the ledger would close and take it
        // up again wherever its random tokens balance.
        let mut tree = FlitTree::new(&records[0], false);
        for record in &records {
            tree.push(record);
        }
        let resolved: Vec<Option<usize>> = tree.nodes.iter().map(|n| n.parent).collect();
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
        let analysis = folded(&records);
        let tree = &analysis.trees()[0];
        assert!(tree.tokens.closed());
        assert_eq!(tree.nodes[1].parent, Some(0));
        assert_eq!(tree.nodes[2].parent, Some(1));
        // "D6" parses as a sink whose fanin candidate is absent on the
        // mesh; the deliver falls back to the flit's previous event —
        // the last router hop, its true causal parent on a linear path.
        assert_eq!(tree.nodes[3].parent, Some(2));
        let paths = analysis.paths();
        assert_eq!(paths.len(), 1, "the mesh chain yields a full path");
        let path = &paths[0];
        assert_eq!(
            path.source_queue_ps + path.service_ps + path.queue_ps,
            path.latency_ps
        );
        assert_eq!(path.hops.len(), 4);
    }
}
