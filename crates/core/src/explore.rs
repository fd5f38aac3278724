//! Design-space exploration over speculation placements.
//!
//! The paper evaluates six hand-picked placements; this module searches the
//! whole placement space the [`SpecMap`] type opened up, scoring each point
//! with the models the simulator already collects — latency (p50/p99 of the
//! paper's last-header metric), total power, and silicon area — and
//! reporting the Pareto front over those objectives.
//!
//! Two search strategies:
//!
//! - **per-level** ([`Granularity::Level`]): the space is small (4 kinds per
//!   interior level × 2 obeying kinds at the leaf level, plus the serial
//!   baseline — 33 points on 8×8), so it is enumerated exhaustively;
//! - **per-node** ([`Granularity::Node`]): the space is astronomically
//!   large, so a deterministic beam search starts from the per-level front
//!   and mutates one node's kind at a time, keeping the
//!   [`beam_width`](ExploreSpec::beam_width) best placements per round
//!   until a round stops improving the front.
//!
//! Every evaluation is an ordinary deterministic [`Network::run`], fanned
//! out over [`parallel_map`]; results are bit-identical for every `jobs`
//! count. A [`max_points`](ExploreSpec::max_points) budget bounds the
//! number of simulations; when it is exhausted the report still carries the
//! front over everything evaluated so far, flagged
//! [`truncated`](ExploreReport::truncated).
//!
//! # Examples
//!
//! ```
//! use asynoc::explore::{ExploreSpec, Granularity};
//! use asynoc::{Architecture, Benchmark, MotSize};
//!
//! let spec = ExploreSpec::smoke(MotSize::new(4)?);
//! let report = asynoc::explore::explore(&spec)?;
//! assert!(!report.truncated);
//! assert!(report.points.iter().any(|p| p.on_front));
//! # Ok::<(), asynoc::SimError>(())
//! ```

use std::collections::BTreeSet;

use asynoc_engine::parallel_map;
use asynoc_kernel::Duration;
use asynoc_stats::Phases;
use asynoc_topology::{Architecture, FanoutKind, FanoutNodeId, MotSize, SpecMap};
use asynoc_traffic::Benchmark;

use crate::config::{NetworkConfig, RunConfig, DEFAULT_FLITS_PER_PACKET};
use crate::error::SimError;
use crate::sim::Network;

/// Interior levels may use any parallel-multicast kind.
const INTERIOR_KINDS: [FanoutKind; 4] = [
    FanoutKind::NonSpeculative,
    FanoutKind::Speculative,
    FanoutKind::OptNonSpeculative,
    FanoutKind::OptSpeculative,
];

/// Leaf-level nodes must obey route symbols (the non-throttling leaf
/// guarantee), so only the two non-speculative kinds are candidates.
const LEAF_KINDS: [FanoutKind; 2] = [FanoutKind::NonSpeculative, FanoutKind::OptNonSpeculative];

/// Placements whose run accepts less than this fraction of offered traffic
/// (or fails to drain) are scored but excluded from the front: their
/// latency percentiles describe a saturated network, not the offered load.
pub const MIN_ACCEPTANCE: f64 = 0.95;

/// Schema version tag of the exploration report document the CLI emits.
/// Bump only with a deliberate, documented format change.
pub const EXPLORE_SCHEMA: &str = "asynoc-explore-v1";

/// Beam search stops after this many rounds even if still improving.
const MAX_BEAM_ROUNDS: usize = 16;

/// Search granularity: the unit at which placements vary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// Every node of a level shares one kind; the space is enumerated
    /// exhaustively.
    Level,
    /// Individual nodes may differ; searched by deterministic beam search
    /// seeded with the per-level front.
    Node,
}

impl std::fmt::Display for Granularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Granularity::Level => "level",
            Granularity::Node => "node",
        })
    }
}

impl std::str::FromStr for Granularity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "level" => Ok(Granularity::Level),
            "node" => Ok(Granularity::Node),
            other => Err(format!(
                "unknown granularity {other:?} (expected level or node)"
            )),
        }
    }
}

/// Everything one exploration needs: the workload, the search strategy,
/// and the execution budget.
#[derive(Clone, Debug)]
pub struct ExploreSpec {
    /// Network size explored.
    pub size: MotSize,
    /// Traffic pattern every placement is scored under.
    pub benchmark: Benchmark,
    /// Offered load, flits/ns per source.
    pub rate_gfs: f64,
    /// RNG seed shared by every run (placements differ, traffic does not).
    pub seed: u64,
    /// Flits per packet.
    pub flits_per_packet: u8,
    /// Warmup/measurement schedule per run.
    pub phases: Phases,
    /// Search granularity.
    pub granularity: Granularity,
    /// Placements kept per beam round (node granularity only).
    pub beam_width: usize,
    /// Worker threads for fanning runs out; results are bit-identical for
    /// every value.
    pub jobs: usize,
    /// Conservative shards per individual run.
    pub shards: usize,
    /// Maximum number of placements to simulate; `None` is unbounded. An
    /// exhausted budget truncates the search but still reports the front
    /// over everything evaluated.
    pub max_points: Option<usize>,
}

impl ExploreSpec {
    /// The paper-centric default: Multicast10 at 0.3 GF/s, quick windows,
    /// exhaustive per-level search.
    #[must_use]
    pub fn new(size: MotSize) -> Self {
        ExploreSpec {
            size,
            benchmark: Benchmark::Multicast10,
            rate_gfs: 0.3,
            seed: 0,
            flits_per_packet: DEFAULT_FLITS_PER_PACKET,
            phases: Phases::new(Duration::from_ns(80), Duration::from_ns(800)),
            granularity: Granularity::Level,
            beam_width: 4,
            jobs: 1,
            shards: 1,
            max_points: None,
        }
    }

    /// A tiny deterministic configuration for CI smoke tests: short
    /// windows and a light multicast load.
    #[must_use]
    pub fn smoke(size: MotSize) -> Self {
        ExploreSpec {
            rate_gfs: 0.2,
            phases: Phases::new(Duration::from_ns(40), Duration::from_ns(300)),
            ..ExploreSpec::new(size)
        }
    }
}

/// One evaluated placement and its objective scores.
#[derive(Clone, Debug)]
pub struct PlacementScore {
    /// The placement itself (its `Display` form is the canonical identity).
    pub map: SpecMap,
    /// The canonical preset this placement equals, if any.
    pub preset: Option<Architecture>,
    /// Mean packet latency, picoseconds.
    pub mean_ps: u64,
    /// Median packet latency, picoseconds.
    pub p50_ps: u64,
    /// 99th-percentile packet latency, picoseconds.
    pub p99_ps: u64,
    /// Total network power over the measurement window, milliwatts.
    pub power_mw: f64,
    /// Total network silicon area, square micrometres.
    pub area_um2: f64,
    /// Packet-header address-field width, bits.
    pub address_bits: usize,
    /// Accepted/offered throughput ratio.
    pub acceptance: f64,
    /// Whether the placement sustained the offered load (see
    /// [`MIN_ACCEPTANCE`]); infeasible points never join the front.
    pub feasible: bool,
    /// Whether the placement is Pareto-optimal among feasible points.
    pub on_front: bool,
}

impl PlacementScore {
    /// The minimized objective vector: p50 latency, p99 latency, power,
    /// area.
    #[must_use]
    pub fn objectives(&self) -> [f64; 4] {
        [
            self.p50_ps as f64,
            self.p99_ps as f64,
            self.power_mw,
            self.area_um2,
        ]
    }
}

/// The regression-guard verdict for one preset against the front.
#[derive(Clone, Debug)]
pub struct GuardOutcome {
    /// The guarded preset.
    pub architecture: Architecture,
    /// Tolerance the guard was checked at (relative, per objective).
    pub tolerance: f64,
    /// Measured ε: the smallest tolerance at which the preset is
    /// ε-Pareto-optimal (0 when it is on the front).
    pub epsilon: f64,
    /// Whether the preset is exactly on the front.
    pub on_front: bool,
    /// Whether `epsilon <= tolerance`.
    pub within_tolerance: bool,
}

/// The outcome of one exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Every evaluated placement, sorted by canonical map string.
    pub points: Vec<PlacementScore>,
    /// Distinct placements enumerated as candidates (evaluated or queued
    /// when the budget ran out).
    pub space: usize,
    /// Placements actually simulated.
    pub evaluated: usize,
    /// `true` when the `max_points` budget stopped the search early; the
    /// front then covers only the evaluated prefix.
    pub truncated: bool,
}

impl ExploreReport {
    /// The Pareto-optimal placements, sorted by canonical map string.
    #[must_use]
    pub fn front(&self) -> Vec<&PlacementScore> {
        self.points.iter().filter(|p| p.on_front).collect()
    }

    /// Checks one preset against the front: is it Pareto-optimal, or
    /// within `tolerance` of a front point in every objective?
    ///
    /// A placement `x` is within tolerance `t` when no front point beats
    /// it by more than a fraction `t` in *every* objective simultaneously
    /// (ε-Pareto-optimality). Returns `None` if the preset was never
    /// evaluated (possible only under a truncating budget) or is
    /// infeasible at the explored load.
    #[must_use]
    pub fn guard(&self, architecture: Architecture, tolerance: f64) -> Option<GuardOutcome> {
        // By map, not by label: on a small fabric several presets share
        // one map, and its label names only the first of them.
        let preset = SpecMap::preset(architecture, self.points.first()?.map.size());
        let point = self.points.iter().find(|p| p.map == preset)?;
        if !point.feasible {
            return None;
        }
        let x = point.objectives();
        let mut epsilon = 0.0f64;
        for front in self.points.iter().filter(|p| p.on_front) {
            let p = front.objectives();
            let margin = (0..x.len())
                .map(|i| 1.0 - p[i] / x[i])
                .fold(f64::INFINITY, f64::min);
            epsilon = epsilon.max(margin);
        }
        Some(GuardOutcome {
            architecture,
            tolerance,
            epsilon,
            on_front: point.on_front,
            within_tolerance: epsilon <= tolerance,
        })
    }
}

/// Runs one exploration. See the [module docs](self) for strategy details.
///
/// # Errors
///
/// Returns any [`SimError`] a constituent run produces (invalid rate,
/// topology mismatch, ...).
pub fn explore(spec: &ExploreSpec) -> Result<ExploreReport, SimError> {
    let mut budget = spec.max_points.unwrap_or(usize::MAX);
    let mut truncated = false;
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut points: Vec<PlacementScore> = Vec::new();

    let seeds = level_space(spec.size);
    for map in &seeds {
        seen.insert(map.to_string());
    }
    evaluate_batch(spec, seeds, &mut budget, &mut truncated, &mut points)?;

    if spec.granularity == Granularity::Node && !truncated {
        let mut rounds = 0;
        loop {
            rounds += 1;
            if rounds > MAX_BEAM_ROUNDS {
                break;
            }
            mark_front(&mut points);
            let before = front_signature(&points);
            let mut fresh: Vec<SpecMap> = Vec::new();
            for map in select_beam(&points, spec.beam_width) {
                for neighbor in neighbors(&map) {
                    let key = neighbor.to_string();
                    if seen.insert(key) {
                        fresh.push(neighbor);
                    }
                }
            }
            if fresh.is_empty() {
                break;
            }
            evaluate_batch(spec, fresh, &mut budget, &mut truncated, &mut points)?;
            mark_front(&mut points);
            if truncated || front_signature(&points) == before {
                break;
            }
        }
    }

    points.sort_by_key(|p| p.map.to_string());
    mark_front(&mut points);
    Ok(ExploreReport {
        space: seen.len(),
        evaluated: points.len(),
        truncated,
        points,
    })
}

/// Scores one placement with a single deterministic run.
///
/// # Errors
///
/// Returns any [`SimError`] the run produces.
pub fn evaluate(spec: &ExploreSpec, map: &SpecMap) -> Result<PlacementScore, SimError> {
    let config = NetworkConfig::with_spec_map(map.clone())
        .with_seed(spec.seed)
        .with_flits_per_packet(spec.flits_per_packet);
    let network = Network::new(config)?;
    let run = RunConfig::new(spec.benchmark, spec.rate_gfs)?
        .with_phases(spec.phases)
        .with_shards(spec.shards);
    let report = network.run(&run)?;
    let acceptance = report.acceptance();
    let feasible = report.packets_measured > 0
        && report.packets_incomplete == 0
        && acceptance >= MIN_ACCEPTANCE;
    Ok(PlacementScore {
        preset: map.label(),
        mean_ps: report.latency.mean().map_or(u64::MAX, |d| d.as_ps()),
        p50_ps: report.latency.median().map_or(u64::MAX, |d| d.as_ps()),
        p99_ps: report.latency.p99().map_or(u64::MAX, |d| d.as_ps()),
        power_mw: report.power.total_mw(),
        area_um2: network.area_um2(),
        address_bits: map.address_bits(),
        acceptance,
        feasible,
        on_front: false,
        map: map.clone(),
    })
}

/// The exhaustive per-level candidate space: the serial baseline plus every
/// legal per-level kind assignment, in deterministic order.
#[must_use]
pub fn level_space(size: MotSize) -> Vec<SpecMap> {
    let levels = size.levels() as usize;
    let mut assignments: Vec<Vec<FanoutKind>> = vec![Vec::new()];
    for level in 0..levels {
        let candidates: &[FanoutKind] = if level + 1 == levels {
            &LEAF_KINDS
        } else {
            &INTERIOR_KINDS
        };
        assignments = assignments
            .into_iter()
            .flat_map(|prefix| {
                candidates.iter().map(move |kind| {
                    let mut next = prefix.clone();
                    next.push(*kind);
                    next
                })
            })
            .collect();
    }
    let mut maps = vec![SpecMap::preset(Architecture::Baseline, size)];
    maps.extend(assignments.into_iter().map(|kinds| {
        SpecMap::from_levels(size, kinds).expect("level-space candidates are valid by construction")
    }));
    maps
}

/// Single-node mutations of one placement, in flat-node order.
fn neighbors(map: &SpecMap) -> Vec<SpecMap> {
    let size = map.size();
    let mut out = Vec::new();
    for node in FanoutNodeId::all(size) {
        let current = map.kind_of(node);
        let candidates: &[FanoutKind] = if node.is_leaf_level(size) {
            &LEAF_KINDS
        } else {
            &INTERIOR_KINDS
        };
        for &kind in candidates {
            if kind == current {
                continue;
            }
            // The serial baseline has no legal single-node mutations; skip
            // rejected candidates rather than aborting the search.
            if let Ok(mutated) = map.clone().with_node(node, kind) {
                out.push(mutated);
            }
        }
    }
    out
}

/// Evaluates up to `budget` of `maps` in parallel, appending scores in
/// enumeration order. Sets `truncated` if the budget cut the batch short.
fn evaluate_batch(
    spec: &ExploreSpec,
    mut maps: Vec<SpecMap>,
    budget: &mut usize,
    truncated: &mut bool,
    points: &mut Vec<PlacementScore>,
) -> Result<(), SimError> {
    if maps.len() > *budget {
        maps.truncate(*budget);
        *truncated = true;
    }
    *budget -= maps.len();
    if maps.is_empty() {
        return Ok(());
    }
    let jobs = spec.jobs.max(1);
    let scored = parallel_map(jobs, maps, move |map| evaluate(spec, &map));
    for score in scored {
        points.push(score?);
    }
    Ok(())
}

/// Recomputes the `on_front` flag over all feasible points.
fn mark_front(points: &mut [PlacementScore]) {
    let objectives: Vec<Option<[f64; 4]>> = points
        .iter()
        .map(|p| p.feasible.then(|| p.objectives()))
        .collect();
    for i in 0..points.len() {
        points[i].on_front = match objectives[i] {
            None => false,
            Some(x) => !objectives
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other.is_some_and(|p| dominates(p, x))),
        };
    }
}

/// `true` when `a` is no worse than `b` everywhere and better somewhere.
fn dominates(a: [f64; 4], b: [f64; 4]) -> bool {
    let mut strictly = false;
    for i in 0..a.len() {
        if a[i] > b[i] {
            return false;
        }
        if a[i] < b[i] {
            strictly = true;
        }
    }
    strictly
}

/// The canonical identity of the current front (for convergence checks).
fn front_signature(points: &[PlacementScore]) -> BTreeSet<String> {
    points
        .iter()
        .filter(|p| p.on_front)
        .map(|p| p.map.to_string())
        .collect()
}

/// The placements the next beam round mutates: front members first, then
/// the best scalarized runners-up, deterministically tie-broken by map
/// string.
fn select_beam(points: &[PlacementScore], beam_width: usize) -> Vec<SpecMap> {
    let feasible: Vec<&PlacementScore> = points.iter().filter(|p| p.feasible).collect();
    if feasible.is_empty() {
        return Vec::new();
    }
    let mut best = [f64::INFINITY; 4];
    for p in &feasible {
        let obj = p.objectives();
        for i in 0..best.len() {
            best[i] = best[i].min(obj[i]);
        }
    }
    let scalar = |p: &PlacementScore| -> f64 {
        let obj = p.objectives();
        (0..obj.len())
            .map(|i| obj[i] / best[i].max(f64::MIN_POSITIVE))
            .sum()
    };
    let mut ranked: Vec<(&PlacementScore, f64)> =
        feasible.iter().map(|p| (*p, scalar(p))).collect();
    ranked.sort_by(|(a, sa), (b, sb)| {
        (!a.on_front)
            .cmp(&!b.on_front)
            .then(sa.partial_cmp(sb).unwrap_or(std::cmp::Ordering::Equal))
            .then_with(|| a.map.to_string().cmp(&b.map.to_string()))
    });
    ranked
        .into_iter()
        .take(beam_width.max(1))
        .map(|(p, _)| p.map.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn size4() -> MotSize {
        MotSize::new(4).unwrap()
    }

    #[test]
    fn level_space_counts() {
        // 4×4 has 2 levels: 4 interior × 2 leaf + baseline = 9.
        assert_eq!(level_space(size4()).len(), 9);
        // 8×8 has 3 levels: 4 × 4 × 2 + baseline = 33.
        assert_eq!(level_space(MotSize::new(8).unwrap()).len(), 33);
    }

    #[test]
    fn exhaustive_smoke_explore_has_a_front() {
        let report = explore(&ExploreSpec::smoke(size4())).unwrap();
        assert_eq!(report.evaluated, 9);
        assert_eq!(report.space, 9);
        assert!(!report.truncated);
        assert!(!report.front().is_empty());
        // Points are sorted by canonical map string.
        let keys: Vec<String> = report.points.iter().map(|p| p.map.to_string()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn budget_truncates_but_still_reports_a_front() {
        let mut spec = ExploreSpec::smoke(size4());
        spec.max_points = Some(3);
        let report = explore(&spec).unwrap();
        assert!(report.truncated);
        assert_eq!(report.evaluated, 3);
        assert!(report.space >= 3);
        assert!(!report.front().is_empty());
    }

    #[test]
    fn guard_finds_presets_on_or_near_the_front() {
        let report = explore(&ExploreSpec::smoke(size4())).unwrap();
        let guard = report
            .guard(Architecture::OptHybridSpeculative, 0.05)
            .expect("preset evaluated");
        assert!(guard.epsilon >= 0.0);
        assert!(guard.on_front == (guard.epsilon == 0.0));
        // A front member always guards at tolerance 0.
        let front_preset = report
            .points
            .iter()
            .find(|p| p.on_front && p.preset.is_some());
        if let Some(p) = front_preset {
            let g = report.guard(p.preset.unwrap(), 0.0).unwrap();
            assert!(g.on_front);
            assert!(g.within_tolerance);
        }
    }

    #[test]
    fn dominance_is_strict_somewhere() {
        assert!(dominates([1.0, 1.0, 1.0, 0.5], [1.0, 1.0, 1.0, 1.0]));
        assert!(!dominates([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]));
        assert!(!dominates([2.0, 0.5, 0.5, 0.5], [1.0, 1.0, 1.0, 1.0]));
    }

    #[test]
    fn node_granularity_beam_search_runs() {
        let mut spec = ExploreSpec::smoke(size4());
        spec.granularity = Granularity::Node;
        spec.beam_width = 2;
        spec.max_points = Some(40);
        let report = explore(&spec).unwrap();
        assert!(report.evaluated >= 9, "beam search must extend the seeds");
        assert!(!report.front().is_empty());
        // Node-level mutations appeared in the candidate space.
        assert!(report.space > 9);
    }
}
