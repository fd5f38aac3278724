//! The paper's six network architectures and the five fanout-node kinds.
//!
//! §3 of the paper defines five parallel-multicast networks plus the serial
//! baseline. An [`Architecture`] names one of the six;
//! [`Architecture::fanout_kind`] is the one definition of which
//! [`FanoutKind`] each puts at each fanout level. Everything else about a
//! placement — node counts, header address bits, per-node overrides — is
//! read from the [`SpecMap`](crate::SpecMap) built from it.
//!
//! Hybrid placement follows the figures: Fig 3(b) makes the 8×8 root level
//! speculative; Fig 3(d)'s 16×16 hybrid alternates speculative and
//! non-speculative levels starting speculative at the root. We generalize to
//! any depth as "alternate starting speculative, but the leaf level is
//! always non-speculative" — which reproduces both figures and the §5.2(d)
//! address-bit table exactly.

use std::fmt;

use crate::size::MotSize;

/// The behavioral variety of a fanout node (paper §4 plus the baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FanoutKind {
    /// The unicast-only baseline node of Horak et al. (paper §2).
    Baseline,
    /// Unoptimized non-speculative multicast node (§4(b)): full route
    /// computation, replication, and throttling.
    NonSpeculative,
    /// Unoptimized speculative node (§4(a)): always broadcasts, C-element
    /// acknowledge across both outputs.
    Speculative,
    /// Performance-optimized non-speculative node (§4(d)): header
    /// pre-allocates the channel, body/tail flits fast-forward.
    OptNonSpeculative,
    /// Power-optimized speculative node (§4(c)): header and tail broadcast,
    /// body flits follow the header's actual route.
    OptSpeculative,
}

impl FanoutKind {
    /// Returns `true` for the two speculative (always-broadcast-header)
    /// kinds.
    #[must_use]
    pub const fn is_speculative(self) -> bool {
        matches!(self, FanoutKind::Speculative | FanoutKind::OptSpeculative)
    }

    /// Returns `true` for kinds carrying the header/tail protocol
    /// optimizations of §4(c)/(d).
    #[must_use]
    pub const fn is_optimized(self) -> bool {
        matches!(
            self,
            FanoutKind::OptNonSpeculative | FanoutKind::OptSpeculative
        )
    }

    /// All five kinds, in declaration order.
    pub const ALL: [FanoutKind; 5] = [
        FanoutKind::Baseline,
        FanoutKind::NonSpeculative,
        FanoutKind::Speculative,
        FanoutKind::OptNonSpeculative,
        FanoutKind::OptSpeculative,
    ];

    /// The canonical short token used by speculation-map text forms
    /// (`base`, `ns`, `sp`, `ons`, `osp`).
    #[must_use]
    pub const fn token(self) -> &'static str {
        match self {
            FanoutKind::Baseline => "base",
            FanoutKind::NonSpeculative => "ns",
            FanoutKind::Speculative => "sp",
            FanoutKind::OptNonSpeculative => "ons",
            FanoutKind::OptSpeculative => "osp",
        }
    }

    /// Parses a kind token: the canonical short form ([`token`](Self::token))
    /// or the long [`Display`](fmt::Display) name, case-insensitively.
    #[must_use]
    pub fn parse_token(s: &str) -> Option<FanoutKind> {
        let lowered = s.to_ascii_lowercase();
        FanoutKind::ALL
            .into_iter()
            .find(|kind| kind.token() == lowered || kind.to_string() == lowered)
    }
}

impl fmt::Display for FanoutKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FanoutKind::Baseline => "baseline",
            FanoutKind::NonSpeculative => "non-speculative",
            FanoutKind::Speculative => "speculative",
            FanoutKind::OptNonSpeculative => "opt-non-speculative",
            FanoutKind::OptSpeculative => "opt-speculative",
        })
    }
}

/// The six evaluated network configurations (paper §3, "target parallel
/// multicast networks", plus the serial baseline of §2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Serial multicast: the unmodified unicast network; multicasts are
    /// injected as trains of unicast clones.
    Baseline,
    /// Tree-based parallel multicast with unoptimized non-speculative nodes
    /// everywhere.
    BasicNonSpeculative,
    /// Local speculation in a hybrid network of unoptimized nodes.
    BasicHybridSpeculative,
    /// Hybrid network of protocol-optimized nodes.
    OptHybridSpeculative,
    /// Fully non-speculative network of optimized nodes.
    OptNonSpeculative,
    /// Almost fully speculative network of optimized nodes (leaf level
    /// non-speculative).
    OptAllSpeculative,
}

impl Architecture {
    /// All six configurations, in the paper's presentation order.
    pub const ALL: [Architecture; 6] = [
        Architecture::Baseline,
        Architecture::BasicNonSpeculative,
        Architecture::BasicHybridSpeculative,
        Architecture::OptHybridSpeculative,
        Architecture::OptNonSpeculative,
        Architecture::OptAllSpeculative,
    ];

    /// The contribution-trajectory case study of §5.2(b).
    pub const CONTRIBUTION_TRAJECTORY: [Architecture; 4] = [
        Architecture::Baseline,
        Architecture::BasicNonSpeculative,
        Architecture::BasicHybridSpeculative,
        Architecture::OptHybridSpeculative,
    ];

    /// The design-space-exploration case study of §5.2(c).
    pub const DESIGN_SPACE: [Architecture; 3] = [
        Architecture::OptNonSpeculative,
        Architecture::OptHybridSpeculative,
        Architecture::OptAllSpeculative,
    ];

    /// Returns `true` if multicasts must be serialized into unicast clones
    /// at the source (the baseline network cannot replicate).
    #[must_use]
    pub const fn serializes_multicast(self) -> bool {
        matches!(self, Architecture::Baseline)
    }

    /// Returns `true` if the architecture uses the §4(c)/(d) protocol
    /// optimizations.
    #[must_use]
    pub const fn is_optimized(self) -> bool {
        matches!(
            self,
            Architecture::OptHybridSpeculative
                | Architecture::OptNonSpeculative
                | Architecture::OptAllSpeculative
        )
    }

    /// The node kind used at fanout level `level` — the one definition of
    /// the six presets. Hybrid levels alternate starting speculative at the
    /// root; the leaf level never speculates.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range for `size`.
    #[must_use]
    pub fn fanout_kind(self, size: MotSize, level: u32) -> FanoutKind {
        assert!(level < size.levels(), "level {level} out of range");
        let leaf = level + 1 == size.levels();
        let speculative = match self {
            Architecture::Baseline
            | Architecture::BasicNonSpeculative
            | Architecture::OptNonSpeculative => false,
            Architecture::BasicHybridSpeculative | Architecture::OptHybridSpeculative => {
                level.is_multiple_of(2) && !leaf
            }
            Architecture::OptAllSpeculative => !leaf,
        };
        match (self, speculative) {
            (Architecture::Baseline, _) => FanoutKind::Baseline,
            (Architecture::BasicNonSpeculative | Architecture::BasicHybridSpeculative, false) => {
                FanoutKind::NonSpeculative
            }
            (Architecture::BasicNonSpeculative | Architecture::BasicHybridSpeculative, true) => {
                FanoutKind::Speculative
            }
            (_, false) => FanoutKind::OptNonSpeculative,
            (_, true) => FanoutKind::OptSpeculative,
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Architecture::Baseline => "Baseline",
            Architecture::BasicNonSpeculative => "BasicNonSpeculative",
            Architecture::BasicHybridSpeculative => "BasicHybridSpeculative",
            Architecture::OptHybridSpeculative => "OptHybridSpeculative",
            Architecture::OptNonSpeculative => "OptNonSpeculative",
            Architecture::OptAllSpeculative => "OptAllSpeculative",
        })
    }
}

/// Error parsing an [`Architecture`] name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseArchitectureError {
    /// The rejected input.
    pub input: String,
}

impl fmt::Display for ParseArchitectureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown architecture {:?} (expected one of: Baseline, BasicNonSpeculative, \
             BasicHybridSpeculative, OptHybridSpeculative, OptNonSpeculative, OptAllSpeculative)",
            self.input
        )
    }
}

impl std::error::Error for ParseArchitectureError {}

impl std::str::FromStr for Architecture {
    type Err = ParseArchitectureError;

    /// Parses the paper's architecture names, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lowered = s.to_ascii_lowercase();
        Architecture::ALL
            .into_iter()
            .find(|arch| arch.to_string().to_ascii_lowercase() == lowered)
            .ok_or_else(|| ParseArchitectureError {
                input: s.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn size(n: usize) -> MotSize {
        MotSize::new(n).unwrap()
    }

    fn speculative_levels(arch: Architecture, n: usize) -> Vec<bool> {
        let s = size(n);
        (0..s.levels())
            .map(|level| arch.fanout_kind(s, level).is_speculative())
            .collect()
    }

    #[test]
    fn hybrid_levels_match_fig3b_and_fig3d() {
        let hybrid = Architecture::OptHybridSpeculative;
        assert_eq!(speculative_levels(hybrid, 8), [true, false, false]);
        assert_eq!(speculative_levels(hybrid, 16), [true, false, true, false]);
    }

    #[test]
    fn all_speculative_keeps_leaf_level_non_speculative() {
        let all = Architecture::OptAllSpeculative;
        assert_eq!(speculative_levels(all, 8), [true, true, false]);
        assert_eq!(speculative_levels(all, 16), [true, true, true, false]);
    }

    #[test]
    fn fanout_kinds_per_architecture_8x8() {
        let s = size(8);
        let kinds = |arch: Architecture| -> Vec<FanoutKind> {
            (0..3).map(|l| arch.fanout_kind(s, l)).collect()
        };
        assert_eq!(kinds(Architecture::Baseline), vec![FanoutKind::Baseline; 3]);
        assert_eq!(
            kinds(Architecture::BasicNonSpeculative),
            vec![FanoutKind::NonSpeculative; 3]
        );
        assert_eq!(
            kinds(Architecture::BasicHybridSpeculative),
            vec![
                FanoutKind::Speculative,
                FanoutKind::NonSpeculative,
                FanoutKind::NonSpeculative
            ]
        );
        assert_eq!(
            kinds(Architecture::OptHybridSpeculative),
            vec![
                FanoutKind::OptSpeculative,
                FanoutKind::OptNonSpeculative,
                FanoutKind::OptNonSpeculative
            ]
        );
        assert_eq!(
            kinds(Architecture::OptNonSpeculative),
            vec![FanoutKind::OptNonSpeculative; 3]
        );
        assert_eq!(
            kinds(Architecture::OptAllSpeculative),
            vec![
                FanoutKind::OptSpeculative,
                FanoutKind::OptSpeculative,
                FanoutKind::OptNonSpeculative
            ]
        );
    }

    #[test]
    fn kind_predicates() {
        assert!(FanoutKind::Speculative.is_speculative());
        assert!(FanoutKind::OptSpeculative.is_speculative());
        assert!(!FanoutKind::NonSpeculative.is_speculative());
        assert!(FanoutKind::OptNonSpeculative.is_optimized());
        assert!(!FanoutKind::Baseline.is_optimized());
    }

    #[test]
    fn architecture_groups() {
        assert_eq!(Architecture::ALL.len(), 6);
        assert_eq!(Architecture::CONTRIBUTION_TRAJECTORY.len(), 4);
        assert_eq!(Architecture::DESIGN_SPACE.len(), 3);
        assert!(Architecture::Baseline.serializes_multicast());
        assert!(!Architecture::OptHybridSpeculative.serializes_multicast());
        assert!(Architecture::OptAllSpeculative.is_optimized());
        assert!(!Architecture::BasicHybridSpeculative.is_optimized());
    }

    #[test]
    fn architecture_from_str_round_trips() {
        for arch in Architecture::ALL {
            assert_eq!(arch.to_string().parse::<Architecture>(), Ok(arch));
            assert_eq!(
                arch.to_string().to_lowercase().parse::<Architecture>(),
                Ok(arch)
            );
        }
        let err = "NoSuchNetwork".parse::<Architecture>().unwrap_err();
        assert!(err.to_string().contains("NoSuchNetwork"));
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(
            Architecture::OptHybridSpeculative.to_string(),
            "OptHybridSpeculative"
        );
        assert_eq!(FanoutKind::OptSpeculative.to_string(), "opt-speculative");
    }
}
