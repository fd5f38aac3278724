//! Error types for topology construction and validation.

use std::error::Error;
use std::fmt;

/// Errors produced while describing or validating an MoT network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The requested network size is not a supported power of two.
    InvalidSize {
        /// The rejected size.
        requested: usize,
    },
    /// A speculation map marked the leaf fanout level speculative, which the
    /// fanin network cannot throttle.
    SpeculativeLeafLevel,
    /// A speculation map's length does not match the tree depth.
    LevelCountMismatch {
        /// Flags supplied by the caller.
        provided: usize,
        /// Levels required by the network size.
        required: usize,
    },
    /// A destination index is outside the network.
    DestinationOutOfRange {
        /// The rejected destination.
        dest: usize,
        /// The network size.
        size: usize,
    },
    /// A source index is outside the network.
    SourceOutOfRange {
        /// The rejected source.
        source: usize,
        /// The network size.
        size: usize,
    },
    /// A packet was given an empty destination set.
    EmptyDestinationSet,
    /// A per-node speculation override names a fanout node that does not
    /// exist in the network.
    NodeOutOfRange {
        /// Source tree of the rejected node.
        tree: usize,
        /// Fanout level of the rejected node, as given (it may not fit the
        /// `u32` a [`FanoutNodeId`](crate::FanoutNodeId) stores).
        level: usize,
        /// Index within the level of the rejected node.
        index: usize,
        /// The network size.
        size: usize,
    },
    /// A speculation map left a leaf-level fanout node speculative. Leaf
    /// nodes feed the fanin network directly, which cannot throttle
    /// misrouted packets, so every leaf node must obey its route symbol.
    NonThrottlingLeaf {
        /// Source tree of the offending leaf node.
        tree: usize,
        /// Index within the leaf level of the offending node.
        index: usize,
    },
    /// A speculation map mixed baseline (serial-multicast) nodes with
    /// parallel-multicast node kinds. The baseline node has no replication
    /// datapath, so it is only valid when every node in the network is
    /// baseline.
    MixedBaselineKind,
    /// A speculation-map text or JSON form could not be parsed.
    SpecMapSyntax {
        /// Human-readable description of the syntax problem.
        detail: String,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InvalidSize { requested } => write!(
                f,
                "network size {requested} is not a power of two in 2..=64"
            ),
            TopologyError::SpeculativeLeafLevel => {
                write!(f, "leaf fanout level cannot be speculative")
            }
            TopologyError::LevelCountMismatch { provided, required } => write!(
                f,
                "speculation map has {provided} levels but the tree has {required}"
            ),
            TopologyError::DestinationOutOfRange { dest, size } => {
                write!(
                    f,
                    "destination {dest} out of range for {size}x{size} network"
                )
            }
            TopologyError::SourceOutOfRange { source, size } => {
                write!(f, "source {source} out of range for {size}x{size} network")
            }
            TopologyError::EmptyDestinationSet => write!(f, "destination set is empty"),
            TopologyError::NodeOutOfRange {
                tree,
                level,
                index,
                size,
            } => write!(
                f,
                "fanout node s{tree}:{level}.{index} out of range for {size}x{size} network"
            ),
            TopologyError::NonThrottlingLeaf { tree, index } => write!(
                f,
                "leaf fanout node {index} of tree {tree} is speculative; leaf nodes must \
                 obey route symbols because the fanin network cannot throttle"
            ),
            TopologyError::MixedBaselineKind => write!(
                f,
                "baseline (serial) nodes cannot be mixed with parallel-multicast node kinds"
            ),
            TopologyError::SpecMapSyntax { detail } => {
                write!(f, "invalid speculation map: {detail}")
            }
        }
    }
}

impl Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let messages = [
            TopologyError::InvalidSize { requested: 12 }.to_string(),
            TopologyError::SpeculativeLeafLevel.to_string(),
            TopologyError::LevelCountMismatch {
                provided: 2,
                required: 3,
            }
            .to_string(),
            TopologyError::DestinationOutOfRange { dest: 9, size: 8 }.to_string(),
            TopologyError::SourceOutOfRange { source: 9, size: 8 }.to_string(),
            TopologyError::EmptyDestinationSet.to_string(),
            TopologyError::NodeOutOfRange {
                tree: 0,
                level: 9,
                index: 0,
                size: 8,
            }
            .to_string(),
            TopologyError::NonThrottlingLeaf { tree: 1, index: 2 }.to_string(),
            TopologyError::MixedBaselineKind.to_string(),
            TopologyError::SpecMapSyntax {
                detail: "bad token".into(),
            }
            .to_string(),
        ];
        for msg in messages {
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            TopologyError::SpeculativeLeafLevel,
            TopologyError::SpeculativeLeafLevel
        );
        assert_ne!(
            TopologyError::InvalidSize { requested: 3 },
            TopologyError::InvalidSize { requested: 5 }
        );
    }
}
