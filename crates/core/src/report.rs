//! Results of one simulation run.

use std::fmt;

use asynoc_engine::EngineReport;
use asynoc_kernel::Duration;
use asynoc_power::PowerReport;
use asynoc_topology::{FaninNodeId, FanoutNodeId, MotSize};

/// Per-node activity over the measurement window: where the traffic (and
/// the speculation waste) actually went.
///
/// Indices follow the flat node numbering of `asynoc-topology`
/// ([`FanoutNodeId::flat_index`] / [`FaninNodeId::flat_index`]).
///
/// # Examples
///
/// ```
/// use asynoc::{Architecture, Benchmark, Network, NetworkConfig, RunConfig};
///
/// let network = Network::new(NetworkConfig::eight_by_eight(
///     Architecture::BasicHybridSpeculative,
/// ))?;
/// let report = network.run(&RunConfig::quick(Benchmark::Hotspot, 0.1))?;
/// // Hotspot: every delivery funnels into destination 0's fanin tree.
/// let per_tree = report.activity.fanin_tree_fires();
/// assert!(per_tree[0] > 0);
/// assert!(per_tree[1..].iter().all(|&fires| fires == 0));
/// # Ok::<(), asynoc::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct NodeActivity {
    size: MotSize,
    window: Duration,
    fanout_fires: Vec<u64>,
    fanout_throttles: Vec<u64>,
    fanout_busy: Vec<Duration>,
    fanin_fires: Vec<u64>,
    fanin_busy: Vec<Duration>,
}

impl NodeActivity {
    pub(crate) fn new(size: MotSize, window: Duration) -> Self {
        NodeActivity {
            size,
            window,
            fanout_fires: vec![0; size.total_fanout_nodes()],
            fanout_throttles: vec![0; size.total_fanout_nodes()],
            fanout_busy: vec![Duration::ZERO; size.total_fanout_nodes()],
            fanin_fires: vec![0; size.total_fanin_nodes()],
            fanin_busy: vec![Duration::ZERO; size.total_fanin_nodes()],
        }
    }

    pub(crate) fn record_fanout(&mut self, flat: usize, busy: Duration, throttled: bool) {
        self.fanout_fires[flat] += 1;
        if throttled {
            self.fanout_throttles[flat] += 1;
        }
        self.fanout_busy[flat] += busy;
    }

    pub(crate) fn record_fanin(&mut self, flat: usize, busy: Duration) {
        self.fanin_fires[flat] += 1;
        self.fanin_busy[flat] += busy;
    }

    /// The network size the indices refer to.
    #[must_use]
    pub fn size(&self) -> MotSize {
        self.size
    }

    /// Flits consumed by one fanout node (including throttled ones).
    #[must_use]
    pub fn fanout_fires(&self, id: FanoutNodeId) -> u64 {
        self.fanout_fires[id.flat_index(self.size)]
    }

    /// Redundant flits throttled at one fanout node.
    #[must_use]
    pub fn fanout_throttles(&self, id: FanoutNodeId) -> u64 {
        self.fanout_throttles[id.flat_index(self.size)]
    }

    /// Flits forwarded by one fanin node.
    #[must_use]
    pub fn fanin_fires(&self, id: FaninNodeId) -> u64 {
        self.fanin_fires[id.flat_index(self.size)]
    }

    /// Fraction of the measurement window one fanout node spent busy.
    #[must_use]
    pub fn fanout_utilization(&self, id: FanoutNodeId) -> f64 {
        self.fanout_busy[id.flat_index(self.size)].as_ps() as f64 / self.window.as_ps() as f64
    }

    /// Fraction of the measurement window one fanin node spent busy.
    #[must_use]
    pub fn fanin_utilization(&self, id: FaninNodeId) -> f64 {
        self.fanin_busy[id.flat_index(self.size)].as_ps() as f64 / self.window.as_ps() as f64
    }

    /// Total fanout fires per tree level (root = index 0) — shows where
    /// speculative broadcasts inflate traffic.
    #[must_use]
    pub fn fanout_level_fires(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.size.levels() as usize];
        for id in FanoutNodeId::all(self.size) {
            totals[id.level as usize] += self.fanout_fires[id.flat_index(self.size)];
        }
        totals
    }

    /// Total fanout throttles per tree level.
    #[must_use]
    pub fn fanout_level_throttles(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.size.levels() as usize];
        for id in FanoutNodeId::all(self.size) {
            totals[id.level as usize] += self.fanout_throttles[id.flat_index(self.size)];
        }
        totals
    }

    /// Total fanin fires per destination tree — the traffic each
    /// destination's arbitration tree absorbed.
    #[must_use]
    pub fn fanin_tree_fires(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.size.n()];
        for id in FaninNodeId::all(self.size) {
            totals[id.tree] += self.fanin_fires[id.flat_index(self.size)];
        }
        totals
    }

    /// The busiest fanout node and its utilization.
    #[must_use]
    pub fn busiest_fanout(&self) -> Option<(FanoutNodeId, f64)> {
        FanoutNodeId::all(self.size)
            .max_by_key(|id| self.fanout_busy[id.flat_index(self.size)])
            .map(|id| (id, self.fanout_utilization(id)))
    }

    /// The busiest fanin node and its utilization.
    #[must_use]
    pub fn busiest_fanin(&self) -> Option<(FaninNodeId, f64)> {
        FaninNodeId::all(self.size)
            .max_by_key(|id| self.fanin_busy[id.flat_index(self.size)])
            .map(|id| (id, self.fanin_utilization(id)))
    }
}

/// Everything measured during one run's measurement window: the engine's
/// substrate-independent measurements (`latency`, `throughput`,
/// `packets_measured`, `flits_throttled`, `events_processed`, `profile`,
/// … — reachable directly through `Deref`) beside the MoT's own section.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// What the engine measured. Latency is per logical packet, creation
    /// → arrival of the *last* header at its destinations (the paper's
    /// metric); `flits_throttled` counts the redundant copies throttled
    /// at non-speculative nodes, the footprint of speculation. `wall` and
    /// `profile` are host-side metadata, excluded from determinism
    /// comparisons.
    pub engine: EngineReport,
    /// Total network power over the measurement window.
    pub power: PowerReport,
    /// Per-node activity over the measurement window.
    pub activity: NodeActivity,
}

impl std::ops::Deref for RunReport {
    type Target = EngineReport;

    fn deref(&self) -> &EngineReport {
        &self.engine
    }
}

impl std::ops::DerefMut for RunReport {
    fn deref_mut(&mut self) -> &mut EngineReport {
        &mut self.engine
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "packets={} latency[{}] throughput[{}] power[{}] throttled={} events={} shards={} shard_events={:?} wall={:?}",
            self.packets_measured,
            self.latency,
            self.throughput,
            self.power,
            self.flits_throttled,
            self.events_processed,
            self.shards,
            self.shard_events,
            self.wall
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn activity() -> NodeActivity {
        NodeActivity::new(MotSize::new(8).expect("valid"), Duration::from_ns(100))
    }

    #[test]
    fn fresh_activity_is_zero() {
        let a = activity();
        assert_eq!(a.fanout_level_fires(), vec![0, 0, 0]);
        assert_eq!(a.fanout_level_throttles(), vec![0, 0, 0]);
        assert_eq!(a.fanin_tree_fires(), vec![0; 8]);
        let root = FanoutNodeId::root(0);
        assert_eq!(a.fanout_fires(root), 0);
        assert_eq!(a.fanout_utilization(root), 0.0);
    }

    #[test]
    fn recording_updates_the_right_node_and_level() {
        let mut a = activity();
        let size = a.size();
        let node = FanoutNodeId {
            tree: 3,
            level: 1,
            index: 1,
        };
        a.record_fanout(node.flat_index(size), Duration::from_ns(10), false);
        a.record_fanout(node.flat_index(size), Duration::from_ns(10), true);
        assert_eq!(a.fanout_fires(node), 2);
        assert_eq!(a.fanout_throttles(node), 1);
        assert_eq!(a.fanout_level_fires(), vec![0, 2, 0]);
        assert_eq!(a.fanout_level_throttles(), vec![0, 1, 0]);
        assert!((a.fanout_utilization(node) - 0.2).abs() < 1e-12);
        let (busiest, utilization) = a.busiest_fanout().expect("nodes exist");
        assert_eq!(busiest, node);
        assert!((utilization - 0.2).abs() < 1e-12);
    }

    #[test]
    fn fanin_recording_aggregates_per_tree() {
        let mut a = activity();
        let size = a.size();
        let leaf = FaninNodeId {
            tree: 5,
            level: 2,
            index: 0,
        };
        let root = FaninNodeId::root(5);
        a.record_fanin(leaf.flat_index(size), Duration::from_ns(5));
        a.record_fanin(root.flat_index(size), Duration::from_ns(20));
        let per_tree = a.fanin_tree_fires();
        assert_eq!(per_tree[5], 2);
        assert_eq!(per_tree.iter().sum::<u64>(), 2);
        assert_eq!(a.fanin_fires(root), 1);
        let (busiest, utilization) = a.busiest_fanin().expect("nodes exist");
        assert_eq!(busiest, root);
        assert!((utilization - 0.2).abs() < 1e-12);
    }
}
