//! Where an event happened: the one identity of a node above the engine.
//!
//! The engine knows a node as its substrate's own index type; every
//! collector, record and report knows it as a [`Site`] — the coordinates
//! the wiring of both fabrics is fully determined by. A substrate hands
//! the run's recorder one [`SiteOf`] function and nothing else; the label
//! grammar (`src3`, `fo[s2:1.0]`, `fi[d4:2.3]`, `D5`, `r12`, `ch101`,
//! `node15`) has one writer, [`Site`]'s `Display`, and one reader, its
//! `FromStr`; and the tree arithmetic — a node's stage, its causal
//! parents, who created a copy it throttled — is spelled here only, so
//! no topology object is needed at analysis time.

use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

use asynoc_kernel::FaultClass;

use crate::json::write_digits;

/// A place an event can happen at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// A traffic source endpoint (`src{N}`).
    Source(usize),
    /// A fanout (routing) node of the MoT (`fo[s{tree}:{level}.{index}]`).
    Fanout {
        /// Source tree.
        tree: usize,
        /// Level (root = 0).
        level: u32,
        /// Index within the level.
        index: usize,
    },
    /// A fanin (arbitration) node of the MoT (`fi[d{tree}:{level}.{index}]`).
    Fanin {
        /// Destination tree.
        tree: usize,
        /// Level (root = 0, adjacent to the sink).
        level: u32,
        /// Index within the level.
        index: usize,
    },
    /// A destination sink endpoint (`D{N}`).
    Sink(usize),
    /// A mesh router (`r{N}`).
    Router(usize),
    /// A channel, by the engine's channel id: where a link stall was
    /// injected (`ch{N}`).
    Channel(usize),
    /// A routing-symbol site, by the substrate's own index: where a
    /// corrupted or stuck symbol was injected (`node{N}`).
    Node(usize),
}

/// How a substrate names its nodes: what a run's one
/// [`Recorder`](crate::Recorder) places every firing node with.
pub type SiteOf<N> = Rc<dyn Fn(N) -> Site>;

/// The pipeline stage a site belongs to: the key time-series levels,
/// per-level attribution and heatmap rows group by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Every source endpoint (`source`).
    Source,
    /// One fanout level, root = 0 (`fanout-L{level}`).
    Fanout(u32),
    /// Every mesh router (`router`).
    Router,
    /// One fanin level, root = 0 (`fanin-L{level}`).
    Fanin(u32),
    /// Every sink endpoint (`sink`).
    Sink,
    /// Fault-injection sites, which no flit passes through (`other`).
    Other,
}

impl Stage {
    /// Orders stages along a flit's way: source, fanout root to leaves,
    /// routers, fanin leaves to root, sink.
    #[must_use]
    pub fn pipeline_rank(self) -> (u8, i64) {
        match self {
            Stage::Source => (0, 0),
            Stage::Fanout(level) => (1, i64::from(level)),
            Stage::Router => (2, 0),
            // Fanin levels count down toward the sink.
            Stage::Fanin(level) => (3, -i64::from(level)),
            Stage::Sink => (4, 0),
            Stage::Other => (5, 0),
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Source => f.write_str("source"),
            Stage::Fanout(level) => write!(f, "fanout-L{level}"),
            Stage::Router => f.write_str("router"),
            Stage::Fanin(level) => write!(f, "fanin-L{level}"),
            Stage::Sink => f.write_str("sink"),
            Stage::Other => f.write_str("other"),
        }
    }
}

impl Site {
    /// Where a fault of `class` was injected: the engine's fault events
    /// carry a channel id for stalls, a symbol site for corruptions and a
    /// source index for drops and losses.
    #[must_use]
    pub fn of_fault(class: FaultClass, index: usize) -> Site {
        match class {
            FaultClass::LinkStall => Site::Channel(index),
            FaultClass::SymbolCorrupt | FaultClass::StuckBroadcast => Site::Node(index),
            FaultClass::FlitDrop | FaultClass::PacketLost => Site::Source(index),
        }
    }

    /// The stage this site belongs to.
    #[must_use]
    pub fn stage(self) -> Stage {
        match self {
            Site::Source(_) => Stage::Source,
            Site::Fanout { level, .. } => Stage::Fanout(level),
            Site::Fanin { level, .. } => Stage::Fanin(level),
            Site::Sink(_) => Stage::Sink,
            Site::Router(_) => Stage::Router,
            Site::Channel(_) | Site::Node(_) => Stage::Other,
        }
    }

    /// The fanout node feeding this one, one level up; `None` at a tree's
    /// root and off the fanout trees.
    fn fanout_parent(self) -> Option<Site> {
        match self {
            Site::Fanout { tree, level, index } if level > 0 => Some(Site::Fanout {
                tree,
                level: level - 1,
                index: index / 2,
            }),
            _ => None,
        }
    }

    /// The site that *created* a copy throttled here: the throttler's
    /// fanout parent — a redundant copy is by construction a speculative
    /// parent's broadcast — or the site itself at a tree's root and off
    /// the fanout trees. The speculation region waste is attributed to.
    #[must_use]
    pub fn creator(self) -> Site {
        self.fanout_parent().unwrap_or(self)
    }

    /// The sites this site's causal parent could be, most likely first.
    /// `src` is the event's packet source (needed to name the fanout leaf
    /// feeding a fanin tree). None means "no coordinate parent" — the
    /// analyzer then falls back to the flit's previous event, which is
    /// exact for linear paths (the mesh).
    pub fn parent_candidates(self, src: usize) -> impl Iterator<Item = Site> {
        let fanin = |tree, level: Option<u32>, index: Option<usize>| {
            Some(Site::Fanin {
                tree,
                level: level?,
                index: index?,
            })
        };
        let candidates = match self {
            Site::Fanout { tree, level: 0, .. } => [Some(Site::Source(tree)), None, None],
            Site::Fanout { .. } => [self.fanout_parent(), None, None],
            // A fanin node is fed by one of its two children one level
            // down — or, at the leaf level, by the source's fanout leaf
            // covering this destination pair. Candidate order encodes
            // that precedence; only the true parent has an event in the
            // same flit's group. Coordinates no fabric has (they would
            // overflow) name no child.
            Site::Fanin { tree, level, index } => {
                let (below, left) = (level.checked_add(1), index.checked_mul(2));
                let leaf = Site::Fanout {
                    tree: src,
                    level,
                    index: tree / 2,
                };
                [
                    fanin(tree, below, left),
                    fanin(tree, below, left.and_then(|i| i.checked_add(1))),
                    Some(leaf),
                ]
            }
            Site::Sink(dest) => [fanin(dest, Some(0), Some(0)), None, None],
            Site::Source(_) | Site::Router(_) | Site::Channel(_) | Site::Node(_) => [None; 3],
        };
        candidates.into_iter().flatten()
    }

    /// Writes the label: digits go through a stack buffer, so a record
    /// writer renders a site per event without allocating.
    pub(crate) fn write_to<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        let mut tree_node = |open: &str, tree: usize, level: u32, index: usize| {
            out.write_str(open)?;
            write_digits(out, tree as u64)?;
            out.write_str(":")?;
            write_digits(out, u64::from(level))?;
            out.write_str(".")?;
            write_digits(out, index as u64)?;
            out.write_str("]")
        };
        let (word, n) = match self {
            Site::Fanout { tree, level, index } => return tree_node("fo[s", tree, level, index),
            Site::Fanin { tree, level, index } => return tree_node("fi[d", tree, level, index),
            Site::Source(n) => ("src", n),
            Site::Sink(n) => ("D", n),
            Site::Router(n) => ("r", n),
            Site::Channel(n) => ("ch", n),
            Site::Node(n) => ("node", n),
        };
        out.write_str(word)?;
        write_digits(out, n as u64)
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// Reads one coordinate: canonical decimal only — no sign, no leading
/// zero — so a label has one spelling, and a number too wide for `T` is
/// no coordinate, never a wrapped one.
pub(crate) fn coordinate<T: FromStr>(digits: &str) -> Option<T> {
    let canonical = digits == "0"
        || (!digits.starts_with('0')
            && !digits.is_empty()
            && digits.bytes().all(|b| b.is_ascii_digit()));
    canonical.then(|| digits.parse().ok()).flatten()
}

impl FromStr for Site {
    type Err = String;

    /// Reads a label back: exactly what `Display` writes, nothing else.
    fn from_str(label: &str) -> Result<Site, String> {
        let tree_node = |open: &str| {
            let (tree, node) = label
                .strip_prefix(open)?
                .strip_suffix(']')?
                .split_once(':')?;
            let (level, index) = node.split_once('.')?;
            Some((coordinate(tree)?, coordinate(level)?, coordinate(index)?))
        };
        let numbered = |word: &str| label.strip_prefix(word).and_then(coordinate);
        let fanout = |(tree, level, index)| Site::Fanout { tree, level, index };
        let fanin = |(tree, level, index)| Site::Fanin { tree, level, index };
        tree_node("fo[s")
            .map(fanout)
            .or_else(|| tree_node("fi[d").map(fanin))
            .or_else(|| numbered("src").map(Site::Source))
            .or_else(|| numbered("D").map(Site::Sink))
            .or_else(|| numbered("r").map(Site::Router))
            .or_else(|| numbered("ch").map(Site::Channel))
            .or_else(|| numbered("node").map(Site::Node))
            .ok_or_else(|| {
                format!(
                    "{label:?} is not a site (src{{N}}, fo[s{{T}}:{{L}}.{{I}}], \
                     fi[d{{T}}:{{L}}.{{I}}], D{{N}}, r{{N}}, ch{{N}} or node{{N}}, each number \
                     in canonical decimal)"
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(label: &str) -> Site {
        label.parse().expect(label)
    }

    #[test]
    fn every_form_round_trips() {
        let forms = [
            ("src3", Site::Source(3)),
            (
                "fo[s2:1.0]",
                Site::Fanout {
                    tree: 2,
                    level: 1,
                    index: 0,
                },
            ),
            (
                "fi[d4:2.3]",
                Site::Fanin {
                    tree: 4,
                    level: 2,
                    index: 3,
                },
            ),
            ("D5", Site::Sink(5)),
            ("r12", Site::Router(12)),
            ("ch101", Site::Channel(101)),
            ("node15", Site::Node(15)),
            ("src0", Site::Source(0)),
            (
                "fi[d18446744073709551615:4294967295.18446744073709551615]",
                Site::Fanin {
                    tree: usize::MAX,
                    level: u32::MAX,
                    index: usize::MAX,
                },
            ),
        ];
        for (label, expected) in forms {
            assert_eq!(label.parse(), Ok(expected), "{label}");
            assert_eq!(expected.to_string(), label);
        }
    }

    #[test]
    fn labels_outside_the_grammar_are_errors() {
        for label in [
            "fo[s2:nope]",
            "fo[s2:1.]",
            // One past `usize::MAX`, one past `u32::MAX`: never wrapped.
            "fi[d18446744073709551616:0.0]",
            "fi[d1:4294967296.0]",
            "r-1",
            "D",
            "",
            "?",
            "MotNode::Fanout(3)",
            "SRC3",
            "src+3",
            "src03",
            "src3 ",
            "fo[s2:1.0",
            "fo[s2.1.0]",
            "fo[s2:1.0]]",
            "node",
        ] {
            let err = label.parse::<Site>().expect_err(label);
            assert!(
                err.starts_with(&format!("{label:?} is not a site (src{{N}}, ")),
                "{err}"
            );
        }
    }

    #[test]
    fn fault_sites_follow_the_class() {
        assert_eq!(Site::of_fault(FaultClass::LinkStall, 4), site("ch4"));
        assert_eq!(Site::of_fault(FaultClass::SymbolCorrupt, 9), site("node9"));
        assert_eq!(Site::of_fault(FaultClass::StuckBroadcast, 9), site("node9"));
        assert_eq!(Site::of_fault(FaultClass::FlitDrop, 2), site("src2"));
        assert_eq!(Site::of_fault(FaultClass::PacketLost, 2), site("src2"));
    }

    #[test]
    fn parent_candidates_follow_the_wiring() {
        let parents = |label: &str, src: usize| -> Vec<String> {
            site(label)
                .parent_candidates(src)
                .map(|site| site.to_string())
                .collect()
        };
        // Root fanout comes from its source.
        assert_eq!(parents("fo[s5:0.0]", 5), ["src5"]);
        // Interior fanout halves its index one level up.
        assert_eq!(parents("fo[s5:2.3]", 5), ["fo[s5:1.1]"]);
        // Interior fanin: two child slots, then the fanout leaf covering
        // this destination pair (8x8: fanin leaf (d=3, L2, s/2) is fed by
        // fanout leaf (s, L2, d/2)).
        assert_eq!(
            parents("fi[d3:2.3]", 6),
            ["fi[d3:3.6]", "fi[d3:3.7]", "fo[s6:2.1]"]
        );
        // Sink is fed by the fanin root.
        assert_eq!(parents("D3", 6), ["fi[d3:0.0]"]);
        // Mesh routers and fault sites have no coordinate parent.
        for label in ["r9", "src1", "ch9", "node3"] {
            assert!(parents(label, 0).is_empty(), "{label}");
        }
        // Coordinates past any fabric name no child instead of overflowing.
        let edge = format!("fi[d1:{}.{}]", u32::MAX, usize::MAX);
        assert_eq!(parents(&edge, 2), [format!("fo[s2:{}.0]", u32::MAX)]);
    }

    #[test]
    fn a_throttled_copy_was_created_one_level_up() {
        assert_eq!(site("fo[s0:1.1]").creator(), site("fo[s0:0.0]"));
        assert_eq!(site("fo[s5:2.3]").creator(), site("fo[s5:1.1]"));
        // A root throttle, and anything off the fanout trees, is its own.
        for label in ["fo[s5:0.0]", "fi[d3:1.0]", "r9", "D2"] {
            assert_eq!(site(label).creator(), site(label));
        }
    }

    #[test]
    fn stages_group_and_order_along_the_pipeline() {
        assert_eq!(site("fo[s5:2.3]").stage().to_string(), "fanout-L2");
        assert_eq!(site("fi[d3:0.0]").stage().to_string(), "fanin-L0");
        assert_eq!(site("r9").stage().to_string(), "router");
        assert_eq!(site("src1").stage().to_string(), "source");
        assert_eq!(site("D1").stage().to_string(), "sink");
        assert_eq!(site("ch7").stage().to_string(), "other");
        let mut stages = [
            Stage::Other,
            Stage::Sink,
            Stage::Fanin(0),
            Stage::Fanin(2),
            Stage::Router,
            Stage::Fanout(1),
            Stage::Fanout(0),
            Stage::Source,
        ];
        stages.sort_by_key(|stage| stage.pipeline_rank());
        let keys: Vec<String> = stages.iter().map(Stage::to_string).collect();
        assert_eq!(
            keys,
            [
                "source",
                "fanout-L0",
                "fanout-L1",
                "router",
                "fanin-L2",
                "fanin-L0",
                "sink",
                "other"
            ]
        );
    }
}
