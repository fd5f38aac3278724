//! Network and run configuration.

use asynoc_nodes::TimingModel;
use asynoc_topology::{Architecture, MotSize, SpecMap};

/// Default flits per packet (the paper fixes packets at 5 flits).
pub const DEFAULT_FLITS_PER_PACKET: u8 = 5;

/// Static description of one network to simulate: a speculation placement
/// (which fixes the size), a timing model, the packet length and the
/// traffic seed.
///
/// # Examples
///
/// ```
/// use asynoc::{Architecture, MotSize, NetworkConfig, SpecMap};
///
/// let size = MotSize::new(16)?;
/// let config = NetworkConfig::new(size, Architecture::OptAllSpeculative)
///     .with_seed(7)
///     .with_flits_per_packet(5);
/// assert_eq!(config.size().n(), 16);
/// assert_eq!(config.architecture(), Some(Architecture::OptAllSpeculative));
///
/// // Any other legal placement goes through its validated map.
/// let custom = NetworkConfig::with_spec_map(SpecMap::parse(size, "levels:ons,osp,ons,ons")?);
/// assert_eq!(custom.architecture(), None);
/// # Ok::<(), asynoc::SimError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkConfig {
    map: SpecMap,
    timing: TimingModel,
    flits_per_packet: u8,
    seed: u64,
}

impl NetworkConfig {
    /// One of the paper's six networks at `size`, with the calibrated
    /// timing model, 5-flit packets, and seed 0.
    #[must_use]
    pub fn new(size: MotSize, architecture: Architecture) -> Self {
        NetworkConfig::with_spec_map(SpecMap::preset(architecture, size))
    }

    /// A network realizing any validated speculation placement — the form
    /// behind the CLI's `--spec-map`, and the only way a placement other
    /// than the six presets reaches the simulator. Same defaults as
    /// [`new`](Self::new); a preset's map is bit-identical to the preset.
    #[must_use]
    pub fn with_spec_map(map: SpecMap) -> Self {
        NetworkConfig {
            map,
            timing: TimingModel::calibrated(),
            flits_per_packet: DEFAULT_FLITS_PER_PACKET,
            seed: 0,
        }
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
        self.map.size()
    }

    /// The paper architecture this network is exactly, if any — `None` for
    /// a custom placement.
    #[must_use]
    pub fn architecture(&self) -> Option<Architecture> {
        self.map.label()
    }

    /// The speculation placement simulated.
    #[must_use]
    pub fn spec_map(&self) -> &SpecMap {
        &self.map
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
    fn a_custom_map_reports_no_preset() {
        let size = MotSize::new(8).unwrap();
        let map = SpecMap::parse(size, "levels:ons,osp,ons").unwrap();
        let config = NetworkConfig::with_spec_map(map.clone());
        assert_eq!(config.spec_map(), &map);
        assert_eq!(config.spec_map().address_bits(), 10);
        assert_eq!(config.architecture(), None);
        assert_eq!(
            NetworkConfig::with_spec_map(SpecMap::preset(Architecture::Baseline, size)),
            NetworkConfig::eight_by_eight(Architecture::Baseline)
        );
    }
}
