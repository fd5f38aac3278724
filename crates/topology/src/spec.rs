//! First-class speculation placement: per-level kinds plus per-node
//! overrides.
//!
//! The paper evaluates six hand-picked placements (the [`Architecture`]
//! presets); a [`SpecMap`] describes *any* legal placement, making
//! speculation a run dimension instead of a preset choice. A map is a
//! per-level base [`FanoutKind`] assignment (root first) plus a sparse set
//! of per-node overrides, validated against the fabric when built:
//!
//! - the per-level vector must match the tree depth,
//! - every leaf-level node must obey its route symbols (the fanin network
//!   cannot throttle a misrouted packet, §4 of the paper),
//! - the serial baseline node kind cannot be mixed with parallel-multicast
//!   kinds (it has no replication datapath), and
//! - every overridden node must exist at the map's size.
//!
//! A `SpecMap` is the only placement type in the workspace: the six
//! presets, the `--spec-map` grammar, the explorer's candidates and the
//! simulator's fabric builder all hold one, so no placement reaches a
//! fabric without passing these rules.
//!
//! Because route headers are purely structural — one 2-bit symbol slot per
//! `(level, index)` regardless of node kind, with speculative nodes simply
//! ignoring theirs — per-node overrides never change header layout, only
//! throttling behavior and the number of *used* address bits.
//!
//! Maps have a canonical text form accepted by the CLI's `--spec-map`:
//!
//! ```text
//! OptHybridSpeculative              # bare preset name
//! preset:OptHybridSpeculative       # explicit preset form
//! levels:osp,ons,ons                # per-level kinds, root first
//! levels:ons,ons,ons;node:0.0.0=osp # with per-node overrides
//! ```
//!
//! Kind tokens are `base`, `ns`, `sp`, `ons`, `osp` (long display names are
//! accepted too). [`fmt::Display`] renders the `levels:` form, which parses
//! back to an equal map.
//!
//! # Examples
//!
//! ```
//! use asynoc_topology::{Architecture, FanoutKind, MotSize, SpecMap};
//!
//! let size = MotSize::new(8)?;
//! let preset = SpecMap::preset(Architecture::OptHybridSpeculative, size);
//! assert_eq!(preset.to_string(), "levels:osp,ons,ons");
//! assert_eq!(preset.label(), Some(Architecture::OptHybridSpeculative));
//!
//! let custom = SpecMap::parse(size, "levels:ons,ons,ons;node:0.0.0=osp")?;
//! assert_eq!(custom.label(), None);
//! assert_eq!(custom.address_bits(), 14); // widest tree still all-obeying
//! # Ok::<(), asynoc_topology::TopologyError>(())
//! ```

use std::fmt;

use asynoc_packet::coding;

use crate::arch::{Architecture, FanoutKind};
use crate::error::TopologyError;
use crate::ids::FanoutNodeId;
use crate::size::MotSize;

/// A validated speculation placement: per-level base kinds plus per-node
/// overrides. See the [module docs](self) for the text form and the
/// validation rules.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SpecMap {
    size: MotSize,
    levels: Vec<FanoutKind>,
    /// Sorted by flat node index; never contains an entry equal to the
    /// node's level base kind, so structural equality is canonical.
    overrides: Vec<(FanoutNodeId, FanoutKind)>,
}

impl SpecMap {
    /// The map of one of the paper's six canonical networks.
    #[must_use]
    pub fn preset(architecture: Architecture, size: MotSize) -> Self {
        SpecMap {
            size,
            levels: (0..size.levels())
                .map(|level| architecture.fanout_kind(size, level))
                .collect(),
            overrides: Vec::new(),
        }
    }

    /// A map from explicit per-level kinds, root first.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::LevelCountMismatch`] if the vector length
    /// does not equal the tree depth,
    /// [`TopologyError::SpeculativeLeafLevel`] if the leaf level is
    /// speculative, or [`TopologyError::MixedBaselineKind`] if baseline
    /// nodes are mixed with multicast kinds.
    pub fn from_levels(size: MotSize, levels: Vec<FanoutKind>) -> Result<Self, TopologyError> {
        let required = size.levels() as usize;
        if levels.len() != required {
            return Err(TopologyError::LevelCountMismatch {
                provided: levels.len(),
                required,
            });
        }
        if levels[required - 1].is_speculative() {
            return Err(TopologyError::SpeculativeLeafLevel);
        }
        let baselines = levels
            .iter()
            .filter(|k| **k == FanoutKind::Baseline)
            .count();
        if baselines != 0 && baselines != required {
            return Err(TopologyError::MixedBaselineKind);
        }
        Ok(SpecMap {
            size,
            levels,
            overrides: Vec::new(),
        })
    }

    /// The fanout node at `tree`.`level`.`index` of this map's fabric — the
    /// checked way to turn coordinates read from outside the program into
    /// a [`FanoutNodeId`]. Every coordinate is compared at full width, so a
    /// level beyond `u32` is refused rather than wrapped.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NodeOutOfRange`] naming the coordinates as
    /// given if no such node exists at this size.
    pub fn node_at(
        &self,
        tree: usize,
        level: usize,
        index: usize,
    ) -> Result<FanoutNodeId, TopologyError> {
        u32::try_from(level)
            .ok()
            .map(|level| FanoutNodeId { tree, level, index })
            .filter(|node| node.is_valid(self.size))
            .ok_or(TopologyError::NodeOutOfRange {
                tree,
                level,
                index,
                size: self.size.n(),
            })
    }

    /// Returns the map with `node`'s kind overridden, keeping the map
    /// canonical (an override equal to the level's base kind is dropped).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NodeOutOfRange`] if the node does not exist
    /// at this size, [`TopologyError::NonThrottlingLeaf`] if a leaf-level
    /// node would become speculative, or
    /// [`TopologyError::MixedBaselineKind`] if the override would mix
    /// baseline and multicast kinds.
    pub fn with_node(
        mut self,
        node: FanoutNodeId,
        kind: FanoutKind,
    ) -> Result<Self, TopologyError> {
        self.node_at(node.tree, node.level as usize, node.index)?;
        if node.is_leaf_level(self.size) && kind.is_speculative() {
            return Err(TopologyError::NonThrottlingLeaf {
                tree: node.tree,
                index: node.index,
            });
        }
        let serial = self.serializes_multicast();
        if (kind == FanoutKind::Baseline) != serial {
            return Err(TopologyError::MixedBaselineKind);
        }
        let flat = node.flat_index(self.size);
        let slot = self
            .overrides
            .binary_search_by_key(&flat, |(id, _)| id.flat_index(self.size));
        if kind == self.levels[node.level as usize] {
            if let Ok(found) = slot {
                self.overrides.remove(found);
            }
        } else {
            match slot {
                Ok(found) => self.overrides[found].1 = kind,
                Err(insert_at) => self.overrides.insert(insert_at, (node, kind)),
            }
        }
        Ok(self)
    }

    /// Parses the canonical text form (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::SpecMapSyntax`] for malformed input, or any
    /// validation error of [`from_levels`](Self::from_levels) /
    /// [`with_node`](Self::with_node).
    pub fn parse(size: MotSize, input: &str) -> Result<Self, TopologyError> {
        let trimmed = input.trim();
        if let Ok(arch) = trimmed.parse::<Architecture>() {
            return Ok(SpecMap::preset(arch, size));
        }
        if let Some(name) = trimmed.strip_prefix("preset:") {
            let arch =
                name.trim()
                    .parse::<Architecture>()
                    .map_err(|e| TopologyError::SpecMapSyntax {
                        detail: e.to_string(),
                    })?;
            return Ok(SpecMap::preset(arch, size));
        }
        let mut segments = trimmed.split(';');
        let head = segments.next().unwrap_or_default().trim();
        let Some(level_list) = head.strip_prefix("levels:") else {
            return Err(TopologyError::SpecMapSyntax {
                detail: format!(
                    "expected a preset name, \"preset:<name>\", or \"levels:<kinds>\", got {head:?}"
                ),
            });
        };
        let levels = level_list
            .split(',')
            .map(|token| parse_kind(token.trim()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut map = SpecMap::from_levels(size, levels)?;
        for segment in segments {
            let segment = segment.trim();
            let Some(assignment) = segment.strip_prefix("node:") else {
                return Err(TopologyError::SpecMapSyntax {
                    detail: format!(
                        "expected \"node:<tree>.<level>.<index>=<kind>\", got {segment:?}"
                    ),
                });
            };
            let (coords, kind_token) =
                assignment
                    .split_once('=')
                    .ok_or_else(|| TopologyError::SpecMapSyntax {
                        detail: format!("missing \"=<kind>\" in node override {segment:?}"),
                    })?;
            let parts: Vec<&str> = coords.split('.').collect();
            let [tree, level, index] = parts[..] else {
                return Err(TopologyError::SpecMapSyntax {
                    detail: format!(
                        "node coordinates must be <tree>.<level>.<index>, got {coords:?}"
                    ),
                });
            };
            let node = map.node_at(parse_coord(tree)?, parse_coord(level)?, parse_coord(index)?)?;
            map = map.with_node(node, parse_kind(kind_token.trim())?)?;
        }
        Ok(map)
    }

    /// The network size this map describes.
    #[must_use]
    pub fn size(&self) -> MotSize {
        self.size
    }

    /// The per-level base kinds, root first.
    #[must_use]
    pub fn level_kinds(&self) -> &[FanoutKind] {
        &self.levels
    }

    /// The per-node overrides, sorted by flat node index. Entries equal to
    /// the node's level base kind are never stored.
    #[must_use]
    pub fn overrides(&self) -> &[(FanoutNodeId, FanoutKind)] {
        &self.overrides
    }

    /// The effective kind of one fanout node.
    ///
    /// # Panics
    ///
    /// Panics if the node is invalid for the map's size.
    #[must_use]
    pub fn kind_of(&self, node: FanoutNodeId) -> FanoutKind {
        assert!(node.is_valid(self.size), "invalid fanout node {node}");
        let flat = node.flat_index(self.size);
        self.overrides
            .binary_search_by_key(&flat, |(id, _)| id.flat_index(self.size))
            .map_or(self.levels[node.level as usize], |found| {
                self.overrides[found].1
            })
    }

    /// Returns `true` if multicasts must be serialized into unicast clones
    /// at the source (the all-baseline map; validation guarantees baseline
    /// is all-or-nothing).
    #[must_use]
    pub fn serializes_multicast(&self) -> bool {
        self.levels[0] == FanoutKind::Baseline
    }

    /// The canonical [`Architecture`] this map is exactly equal to, if any.
    #[must_use]
    pub fn label(&self) -> Option<Architecture> {
        if !self.overrides.is_empty() {
            return None;
        }
        Architecture::ALL.into_iter().find(|arch| {
            (0..self.size.levels())
                .all(|level| arch.fanout_kind(self.size, level) == self.levels[level as usize])
        })
    }

    /// Symbol-obeying (non-speculative) fanout nodes per tree. With per-node
    /// overrides trees may differ; this is the count of the tree that has
    /// the most, which is the one that sizes the shared header.
    #[must_use]
    pub fn non_speculative_nodes(&self) -> usize {
        let obeys = |kind: FanoutKind| usize::from(!kind.is_speculative());
        let uniform: usize = (0..self.size.levels())
            .map(|level| self.size.nodes_at_level(level) * obeys(self.levels[level as usize]))
            .sum();
        let mut per_tree = vec![uniform; self.size.n()];
        for &(node, kind) in &self.overrides {
            let count = &mut per_tree[node.tree];
            *count = *count + obeys(kind) - obeys(self.levels[node.level as usize]);
        }
        per_tree.into_iter().max().unwrap_or(uniform)
    }

    /// Speculative fanout nodes in the tree
    /// [`non_speculative_nodes`](Self::non_speculative_nodes) counts.
    #[must_use]
    pub fn speculative_nodes(&self) -> usize {
        self.size.fanout_nodes_per_tree() - self.non_speculative_nodes()
    }

    /// Address bits per packet header under this map: `log2 n` for the
    /// serial baseline, otherwise 2 bits per symbol-obeying node of the
    /// widest tree (§5.2(d); the header format is shared by every source).
    #[must_use]
    pub fn address_bits(&self) -> usize {
        if self.serializes_multicast() {
            coding::baseline_address_bits(self.size.n())
        } else {
            2 * self.non_speculative_nodes()
        }
    }
}

impl fmt::Display for SpecMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("levels:")?;
        for (i, kind) in self.levels.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(kind.token())?;
        }
        for (node, kind) in &self.overrides {
            write!(
                f,
                ";node:{}.{}.{}={}",
                node.tree,
                node.level,
                node.index,
                kind.token()
            )?;
        }
        Ok(())
    }
}

fn parse_kind(token: &str) -> Result<FanoutKind, TopologyError> {
    FanoutKind::parse_token(token).ok_or_else(|| TopologyError::SpecMapSyntax {
        detail: format!("unknown node kind {token:?} (expected base, ns, sp, ons, or osp)"),
    })
}

fn parse_coord(text: &str) -> Result<usize, TopologyError> {
    text.trim()
        .parse::<usize>()
        .map_err(|_| TopologyError::SpecMapSyntax {
            detail: format!("node coordinate {text:?} is not a non-negative integer"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn size8() -> MotSize {
        MotSize::new(8).unwrap()
    }

    fn node(tree: usize, level: u32, index: usize) -> FanoutNodeId {
        FanoutNodeId { tree, level, index }
    }

    #[test]
    fn presets_carry_their_label_and_the_paper_address_bits() {
        // §5.2(d): 8×8 → 3/14/12/8; 16×16 → 4/30/20/16.
        for (n, [baseline, non_spec, hybrid, all_spec]) in
            [(8, [3, 14, 12, 8]), (16, [4, 30, 20, 16])]
        {
            let size = MotSize::new(n).unwrap();
            for (arch, bits) in [
                (Architecture::Baseline, baseline),
                (Architecture::BasicNonSpeculative, non_spec),
                (Architecture::BasicHybridSpeculative, hybrid),
                (Architecture::OptHybridSpeculative, hybrid),
                (Architecture::OptNonSpeculative, non_spec),
                (Architecture::OptAllSpeculative, all_spec),
            ] {
                let map = SpecMap::preset(arch, size);
                assert_eq!(map.label(), Some(arch), "{arch} at {n}");
                assert_eq!(map.address_bits(), bits, "{arch} at {n}");
                assert_eq!(map.serializes_multicast(), arch.serializes_multicast());
            }
        }
    }

    #[test]
    fn address_bits_match_the_closed_form_on_every_level_uniform_map() {
        const PARALLEL: [FanoutKind; 4] = [
            FanoutKind::NonSpeculative,
            FanoutKind::Speculative,
            FanoutKind::OptNonSpeculative,
            FanoutKind::OptSpeculative,
        ];
        for n in [2usize, 4, 8, 16, 32, 64] {
            let size = MotSize::new(n).unwrap();
            let levels = size.levels();
            let mut legal = 0;
            for code in 0..4usize.pow(levels) {
                let kinds: Vec<FanoutKind> = (0..levels)
                    .map(|level| PARALLEL[code / 4usize.pow(level) % 4])
                    .collect();
                let flags: Vec<bool> = kinds.iter().map(|k| k.is_speculative()).collect();
                let Ok(map) = SpecMap::from_levels(size, kinds) else {
                    assert!(
                        flags[levels as usize - 1],
                        "only a speculative leaf is refused"
                    );
                    continue;
                };
                legal += 1;
                let obeying = coding::non_speculative_node_count(n, &flags);
                assert_eq!(map.non_speculative_nodes(), obeying, "{map}");
                assert_eq!(map.speculative_nodes(), n - 1 - obeying, "{map}");
                assert_eq!(
                    map.address_bits(),
                    coding::network_address_bits(n, &flags),
                    "{map}"
                );
            }
            assert_eq!(legal, 2 * 4usize.pow(levels - 1), "n={n}");
            let serial = SpecMap::preset(Architecture::Baseline, size);
            assert_eq!(serial.address_bits(), coding::baseline_address_bits(n));
        }
    }

    #[test]
    fn display_parse_round_trips() {
        for arch in Architecture::ALL {
            let map = SpecMap::preset(arch, size8());
            assert_eq!(SpecMap::parse(size8(), &map.to_string()), Ok(map));
        }
        let custom = SpecMap::preset(Architecture::OptNonSpeculative, size8())
            .with_node(node(3, 1, 1), FanoutKind::OptSpeculative)
            .unwrap();
        assert_eq!(custom.to_string(), "levels:ons,ons,ons;node:3.1.1=osp");
        assert_eq!(SpecMap::parse(size8(), &custom.to_string()), Ok(custom));
    }

    #[test]
    fn parse_accepts_preset_forms() {
        let expect = SpecMap::preset(Architecture::OptHybridSpeculative, size8());
        assert_eq!(
            SpecMap::parse(size8(), "OptHybridSpeculative"),
            Ok(expect.clone())
        );
        assert_eq!(
            SpecMap::parse(size8(), "preset:opthybridspeculative"),
            Ok(expect.clone())
        );
        assert_eq!(SpecMap::parse(size8(), "levels:osp,ons,ons"), Ok(expect));
    }

    #[test]
    fn parse_syntax_errors() {
        for bad in [
            "nonsense",
            "preset:NoSuchNetwork",
            "levels:osp,ons",
            "levels:xyz,ons,ons",
            "levels:ons,ons,ons;node:0.0=osp",
            "levels:ons,ons,ons;node:a.b.c=osp",
            "levels:ons,ons,ons;node:0.0.0",
            "levels:ons,ons,ons;tree:0.0.0=osp",
        ] {
            assert!(SpecMap::parse(size8(), bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn validation_rejects_wrong_level_count() {
        assert_eq!(
            SpecMap::from_levels(size8(), vec![FanoutKind::OptNonSpeculative; 2]),
            Err(TopologyError::LevelCountMismatch {
                provided: 2,
                required: 3
            })
        );
    }

    #[test]
    fn validation_rejects_speculative_leaf_level() {
        assert_eq!(
            SpecMap::from_levels(size8(), vec![FanoutKind::OptSpeculative; 3]),
            Err(TopologyError::SpeculativeLeafLevel)
        );
    }

    #[test]
    fn validation_rejects_out_of_range_node() {
        let map = SpecMap::preset(Architecture::OptNonSpeculative, size8());
        assert_eq!(
            map.with_node(node(8, 0, 0), FanoutKind::OptSpeculative),
            Err(TopologyError::NodeOutOfRange {
                tree: 8,
                level: 0,
                index: 0,
                size: 8
            })
        );
    }

    #[test]
    fn validation_rejects_speculative_leaf_node() {
        let map = SpecMap::preset(Architecture::OptNonSpeculative, size8());
        assert_eq!(
            map.with_node(node(0, 2, 3), FanoutKind::OptSpeculative),
            Err(TopologyError::NonThrottlingLeaf { tree: 0, index: 3 })
        );
    }

    #[test]
    fn validation_rejects_baseline_mixing() {
        assert_eq!(
            SpecMap::from_levels(
                size8(),
                vec![
                    FanoutKind::Baseline,
                    FanoutKind::OptNonSpeculative,
                    FanoutKind::OptNonSpeculative
                ]
            ),
            Err(TopologyError::MixedBaselineKind)
        );
        let serial = SpecMap::preset(Architecture::Baseline, size8());
        assert_eq!(
            serial.with_node(node(0, 0, 0), FanoutKind::OptSpeculative),
            Err(TopologyError::MixedBaselineKind)
        );
        let parallel = SpecMap::preset(Architecture::OptNonSpeculative, size8());
        assert_eq!(
            parallel.with_node(node(0, 0, 0), FanoutKind::Baseline),
            Err(TopologyError::MixedBaselineKind)
        );
    }

    #[test]
    fn overrides_are_canonical() {
        let base = SpecMap::preset(Architecture::OptNonSpeculative, size8());
        // Overriding to the level's base kind is a no-op.
        let same = base
            .clone()
            .with_node(node(2, 1, 0), FanoutKind::OptNonSpeculative)
            .unwrap();
        assert_eq!(same, base);
        // Overriding then restoring removes the entry again.
        let restored = base
            .clone()
            .with_node(node(2, 1, 0), FanoutKind::OptSpeculative)
            .unwrap()
            .with_node(node(2, 1, 0), FanoutKind::OptNonSpeculative)
            .unwrap();
        assert_eq!(restored, base);
        assert!(restored.overrides().is_empty());
    }

    #[test]
    fn kind_of_and_node_counts_respect_overrides() {
        let map = SpecMap::preset(Architecture::OptNonSpeculative, size8())
            .with_node(node(5, 0, 0), FanoutKind::OptSpeculative)
            .unwrap();
        assert_eq!(map.kind_of(node(5, 0, 0)), FanoutKind::OptSpeculative);
        assert_eq!(map.kind_of(node(5, 1, 0)), FanoutKind::OptNonSpeculative);
        assert_eq!(map.kind_of(node(4, 0, 0)), FanoutKind::OptNonSpeculative);
        assert_eq!(map.label(), None);
        // Tree 5 drops to 6 obeying nodes (12 bits) but tree 0 still has 7
        // (14 bits); the shared header keeps the maximum.
        assert_eq!(map.non_speculative_nodes(), 7);
        assert_eq!(map.address_bits(), 14);
    }

    #[test]
    fn address_bits_shrink_when_every_tree_speculates() {
        let mut map = SpecMap::preset(Architecture::OptNonSpeculative, size8());
        for tree in 0..8 {
            map = map
                .with_node(node(tree, 0, 0), FanoutKind::OptSpeculative)
                .unwrap();
        }
        // Every tree now matches the hybrid placement.
        assert_eq!(map.speculative_nodes(), 1);
        assert_eq!(map.address_bits(), 12);
        // An override that restores obedience on a speculative level widens
        // only its own tree, which then sizes the header.
        let hybrid = SpecMap::preset(Architecture::OptHybridSpeculative, size8())
            .with_node(node(2, 0, 0), FanoutKind::OptNonSpeculative)
            .unwrap();
        assert_eq!(hybrid.address_bits(), 14);
    }

    #[test]
    fn coordinates_beyond_u32_are_refused_not_wrapped() {
        let map = SpecMap::preset(Architecture::OptNonSpeculative, size8());
        let wraps_to_zero = u32::MAX as usize + 1;
        let refused = TopologyError::NodeOutOfRange {
            tree: 0,
            level: wraps_to_zero,
            index: 0,
            size: 8,
        };
        assert_eq!(map.node_at(0, wraps_to_zero, 0), Err(refused.clone()));
        assert_eq!(map.node_at(7, 2, 3), Ok(node(7, 2, 3)));
        let text = format!("levels:ons,ons,ons;node:0.{wraps_to_zero}.0=osp");
        assert_eq!(SpecMap::parse(size8(), &text), Err(refused.clone()));
        assert!(refused.to_string().contains("s0:4294967296.0"), "{refused}");
    }
}
