//! Trace site labels, parsed back into topology coordinates.
//!
//! The MoT substrate labels sites with its canonical display forms
//! (`src3`, `fo[s2:1.0]`, `fi[d4:2.3]`, `D5`), the mesh with `r{N}`.
//! Because the wiring of both fabrics is fully determined by coordinates,
//! a parsed label is enough to name an event's causal parent — no
//! topology object needed at analysis time.

use std::fmt;

/// A parsed trace site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// A traffic source endpoint.
    Source(usize),
    /// A fanout (routing) node of the MoT.
    Fanout {
        /// Source tree.
        tree: usize,
        /// Level (root = 0).
        level: u32,
        /// Index within the level.
        index: usize,
    },
    /// A fanin (arbitration) node of the MoT.
    Fanin {
        /// Destination tree.
        tree: usize,
        /// Level (root = 0, adjacent to the sink).
        level: u32,
        /// Index within the level.
        index: usize,
    },
    /// A destination sink endpoint.
    Sink(usize),
    /// A mesh router.
    Router(usize),
    /// An unrecognized label (generic collectors use `Debug` forms).
    Other,
}

/// Parses `"{tree}:{level}.{index}]"`.
fn coords(s: &str) -> Option<(usize, u32, usize)> {
    let s = s.strip_suffix(']')?;
    let (tree, rest) = s.split_once(':')?;
    let (level, index) = rest.split_once('.')?;
    Some((tree.parse().ok()?, level.parse().ok()?, index.parse().ok()?))
}

impl Site {
    /// Parses a site label; unrecognized forms map to [`Site::Other`].
    #[must_use]
    pub fn parse(label: &str) -> Site {
        if let Some(rest) = label.strip_prefix("fo[s") {
            if let Some((tree, level, index)) = coords(rest) {
                return Site::Fanout { tree, level, index };
            }
        }
        if let Some(rest) = label.strip_prefix("fi[d") {
            if let Some((tree, level, index)) = coords(rest) {
                return Site::Fanin { tree, level, index };
            }
        }
        if let Some(rest) = label.strip_prefix("src") {
            if let Ok(n) = rest.parse() {
                return Site::Source(n);
            }
        }
        if let Some(rest) = label.strip_prefix('D') {
            if let Ok(n) = rest.parse() {
                return Site::Sink(n);
            }
        }
        if let Some(rest) = label.strip_prefix('r') {
            if let Ok(n) = rest.parse() {
                return Site::Router(n);
            }
        }
        Site::Other
    }

    /// The aggregation key for per-level attribution (e.g. `fanout-L1`).
    #[must_use]
    pub fn level_key(&self) -> String {
        match self {
            Site::Source(_) => "source".to_string(),
            Site::Fanout { level, .. } => format!("fanout-L{level}"),
            Site::Fanin { level, .. } => format!("fanin-L{level}"),
            Site::Sink(_) => "sink".to_string(),
            Site::Router(_) => "router".to_string(),
            Site::Other => "other".to_string(),
        }
    }

    /// The sites this site's causal parent could be, most likely first.
    /// `src` is the event's packet source (needed to name the fanout leaf
    /// feeding a fanin tree). None means "no coordinate parent" — the
    /// analyzer then falls back to the flit's previous event, which is
    /// exact for linear paths (the mesh).
    pub fn parent_candidates(&self, src: usize) -> impl Iterator<Item = Site> {
        let fanin = |tree, level: Option<u32>, index: Option<usize>| {
            Some(Site::Fanin {
                tree,
                level: level?,
                index: index?,
            })
        };
        let candidates = match *self {
            Site::Fanout { tree, level: 0, .. } => [Some(Site::Source(tree)), None, None],
            Site::Fanout { tree, level, index } => {
                let parent = Site::Fanout {
                    tree,
                    level: level - 1,
                    index: index / 2,
                };
                [Some(parent), None, None]
            }
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
            Site::Source(_) | Site::Router(_) | Site::Other => [None; 3],
        };
        candidates.into_iter().flatten()
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Source(n) => write!(f, "src{n}"),
            Site::Fanout { tree, level, index } => write!(f, "fo[s{tree}:{level}.{index}]"),
            Site::Fanin { tree, level, index } => write!(f, "fi[d{tree}:{level}.{index}]"),
            Site::Sink(n) => write!(f, "D{n}"),
            Site::Router(n) => write!(f, "r{n}"),
            Site::Other => f.write_str("?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_canonical_form() {
        assert_eq!(Site::parse("src3"), Site::Source(3));
        assert_eq!(
            Site::parse("fo[s2:1.0]"),
            Site::Fanout {
                tree: 2,
                level: 1,
                index: 0
            }
        );
        assert_eq!(
            Site::parse("fi[d4:2.3]"),
            Site::Fanin {
                tree: 4,
                level: 2,
                index: 3
            }
        );
        assert_eq!(Site::parse("D5"), Site::Sink(5));
        assert_eq!(Site::parse("r12"), Site::Router(12));
        assert_eq!(Site::parse("MotNode::Fanout(3)"), Site::Other);
        assert_eq!(Site::parse("fo[s2:nope]"), Site::Other);
    }

    #[test]
    fn display_round_trips() {
        for label in ["src3", "fo[s2:1.0]", "fi[d4:2.3]", "D5", "r12"] {
            assert_eq!(Site::parse(label).to_string(), label);
        }
    }

    #[test]
    fn parent_candidates_follow_the_wiring() {
        let parents = |label: &str, src: usize| -> Vec<String> {
            Site::parse(label)
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
        // Mesh routers have no coordinate parent — linear fallback.
        assert!(parents("r9", 0).is_empty());
        // Coordinates past any fabric name no child instead of overflowing.
        let edge = format!("fi[d1:{}.{}]", u32::MAX, usize::MAX);
        assert_eq!(parents(&edge, 2), [format!("fo[s2:{}.0]", u32::MAX)]);
    }

    #[test]
    fn level_keys_group_by_stage() {
        assert_eq!(Site::parse("fo[s5:2.3]").level_key(), "fanout-L2");
        assert_eq!(Site::parse("fi[d3:0.0]").level_key(), "fanin-L0");
        assert_eq!(Site::parse("r9").level_key(), "router");
        assert_eq!(Site::parse("src1").level_key(), "source");
    }
}
