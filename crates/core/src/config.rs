//! Network and run configuration.

use asynoc_nodes::TimingModel;
use asynoc_topology::{Architecture, MotSize, NodePlan, SpecMap, SpeculationMap, TopologyError};

use crate::error::SimError;

/// Default flits per packet (the paper fixes packets at 5 flits).
pub const DEFAULT_FLITS_PER_PACKET: u8 = 5;

/// Static description of one network to simulate.
///
/// # Examples
///
/// ```
/// use asynoc::{Architecture, MotSize, NetworkConfig};
///
/// let config = NetworkConfig::new(MotSize::new(16)?, Architecture::OptAllSpeculative)
///     .with_seed(7)
///     .with_flits_per_packet(5);
/// assert_eq!(config.size().n(), 16);
/// # Ok::<(), asynoc::SimError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkConfig {
    size: MotSize,
    architecture: Architecture,
    plan: NodePlan,
    timing: TimingModel,
    flits_per_packet: u8,
    seed: u64,
}

impl NetworkConfig {
    /// Creates a configuration with the calibrated timing model, 5-flit
    /// packets, and seed 0.
    #[must_use]
    pub fn new(size: MotSize, architecture: Architecture) -> Self {
        NetworkConfig {
            size,
            architecture,
            plan: NodePlan::for_architecture(architecture, size),
            timing: TimingModel::calibrated(),
            flits_per_packet: DEFAULT_FLITS_PER_PACKET,
            seed: 0,
        }
    }

    /// Replaces the per-level node-kind plan with a custom speculation
    /// placement — the wider design space the paper sketches in Fig 3(d).
    /// Speculative levels get optimized/basic speculative nodes per
    /// `optimized`; the reported [`architecture`](Self::architecture) label
    /// is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the map was built for a different network size.
    #[must_use]
    pub fn with_speculation_map(mut self, map: &SpeculationMap, optimized: bool) -> Self {
        assert_eq!(
            map.size(),
            self.size,
            "speculation map size {} does not match network size {}",
            map.size(),
            self.size
        );
        self.plan = NodePlan::from_speculation(map, optimized);
        self
    }

    /// Replaces the node plan with a validated speculation placement — the
    /// first-class form behind the CLI's `--spec-map`. A [`SpecMap`] can
    /// express every [`Architecture`] preset (and is then bit-identical to
    /// the preset run) as well as arbitrary per-level/per-node placements.
    /// When the map equals a preset the
    /// [`architecture`](Self::architecture) label is updated to match;
    /// otherwise the label of [`NetworkConfig::new`] is kept.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Topology`] if the map was built for a different
    /// network size.
    pub fn with_spec_map(mut self, map: &SpecMap) -> Result<Self, SimError> {
        if map.size() != self.size {
            return Err(SimError::Topology(TopologyError::LevelCountMismatch {
                provided: map.size().levels() as usize,
                required: self.size.levels() as usize,
            }));
        }
        if let Some(arch) = map.label() {
            self.architecture = arch;
        }
        self.plan = map.node_plan();
        Ok(self)
    }

    /// The paper's evaluated 8×8 configuration.
    ///
    /// # Panics
    ///
    /// Never panics (8 is always a valid size).
    #[must_use]
    pub fn eight_by_eight(architecture: Architecture) -> Self {
        NetworkConfig::new(MotSize::new(8).expect("8 is a valid size"), architecture)
    }

    /// Replaces the RNG seed (traffic streams are derived from it).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the timing/energy parameter model (ablation studies).
    #[must_use]
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Replaces the packet length in flits.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    #[must_use]
    pub fn with_flits_per_packet(mut self, flits: u8) -> Self {
        assert!(flits > 0, "packets must have at least one flit");
        self.flits_per_packet = flits;
        self
    }

    /// The network size.
    #[must_use]
    pub fn size(&self) -> MotSize {
        self.size
    }

    /// The architecture label this configuration started from (custom
    /// speculation maps keep the label of [`NetworkConfig::new`]).
    #[must_use]
    pub fn architecture(&self) -> Architecture {
        self.architecture
    }

    /// The per-level node-kind plan actually simulated.
    #[must_use]
    pub fn plan(&self) -> &NodePlan {
        &self.plan
    }

    /// The timing/energy model.
    #[must_use]
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Flits per packet.
    #[must_use]
    pub fn flits_per_packet(&self) -> u8 {
        self.flits_per_packet
    }

    /// The RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// One simulation run: benchmark, offered load, measurement schedule and
/// host execution options — the engine's run description, shared by every
/// substrate.
pub use asynoc_engine::RunConfig;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = NetworkConfig::eight_by_eight(Architecture::Baseline);
        assert_eq!(c.size().n(), 8);
        assert_eq!(c.flits_per_packet(), 5);
        assert_eq!(c.seed(), 0);
        assert_eq!(*c.timing(), TimingModel::calibrated());
    }

    #[test]
    fn builder_overrides() {
        let mut timing = TimingModel::calibrated();
        timing.wire_fj = 0.0;
        let c = NetworkConfig::eight_by_eight(Architecture::OptNonSpeculative)
            .with_seed(9)
            .with_flits_per_packet(3)
            .with_timing(timing.clone());
        assert_eq!(c.seed(), 9);
        assert_eq!(c.flits_per_packet(), 3);
        assert_eq!(c.timing().wire_fj, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flits_rejected() {
        let _ = NetworkConfig::eight_by_eight(Architecture::Baseline).with_flits_per_packet(0);
    }

    #[test]
    fn custom_speculation_map_replaces_plan() {
        use asynoc_topology::FanoutKind;
        let size = MotSize::new(8).unwrap();
        let map = SpeculationMap::custom(size, vec![false, true, false]).unwrap();
        let config = NetworkConfig::eight_by_eight(Architecture::OptNonSpeculative)
            .with_speculation_map(&map, true);
        assert_eq!(config.plan().kind(1), FanoutKind::OptSpeculative);
        assert_eq!(config.plan().address_bits(), 10);
        // The label is unchanged.
        assert_eq!(config.architecture(), Architecture::OptNonSpeculative);
    }

    #[test]
    #[should_panic(expected = "does not match network size")]
    fn speculation_map_size_mismatch_panics() {
        let map = SpeculationMap::hybrid(MotSize::new(16).unwrap());
        let _ = NetworkConfig::eight_by_eight(Architecture::OptNonSpeculative)
            .with_speculation_map(&map, true);
    }
}
