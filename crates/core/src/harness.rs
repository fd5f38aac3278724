//! Experiment harness: one entry point per table/figure of the paper.
//!
//! | paper artifact | function |
//! |---|---|
//! | §5.2(a) node-level table | [`node_cost_rows`] |
//! | Fig 6(a) latency, contribution trajectory | [`fig6a`] |
//! | Fig 6(b) latency, design-space exploration | [`fig6b`] |
//! | Table 1, saturation throughput | [`table1_throughput`] |
//! | Table 1, total network power | [`table1_power`] |
//! | §5.2(d) addressing comparison | [`addressing_rows`] |
//!
//! Each function follows the paper's measurement protocol:
//!
//! - **Saturation** is found by bisection on offered load, judging
//!   stability by the accepted/offered ratio (≥ 0.95); the reported GF/s is
//!   the *delivered* flit rate at the saturation point (Table 1 counts
//!   flit deliveries, which is why in-network multicast replication raises
//!   it above the injected rate).
//! - **Latency** (Fig 6) is measured at 25 % of each network's own
//!   saturation load, "up to the arrival of all headers at destinations".
//! - **Power** (Table 1) is measured at 25 % of the *Baseline* network's
//!   saturation load for that benchmark, "for a normalized comparison of
//!   energy per packet".
//!
//! The [`Quality`] knob trades run length for precision: [`Quality::quick`]
//! for smoke tests and CI, [`Quality::paper`] for the numbers recorded in
//! `EXPERIMENTS.md`.
//!
//! # Multi-core execution
//!
//! Every grid-shaped entry point fans its independent cells (architecture ×
//! benchmark pairs, seeds, saturation probe points) across OS threads via
//! [`asynoc_engine::parallel_map`], controlled by [`Quality::jobs`].
//! Parallelism is an implementation detail of wall-clock time only: results
//! are placed by input index and every probe schedule is independent of the
//! worker count, so any `jobs` setting produces bit-identical reports
//! (excluding the `wall` diagnostics). [`Quality::probe_fan`] separately
//! widens the saturation search from bisection to k-section — that *does*
//! change which rates are probed (deterministically), so it is a distinct
//! knob rather than being derived from `jobs`.

use asynoc_engine::parallel_map;
use asynoc_kernel::Duration;
use asynoc_nodes::{NodeCostRow, TimingModel};
use asynoc_stats::{find_saturation_multi, Phases, StabilityProbe};
use asynoc_topology::{Architecture, MotSize, SpecMap};
use asynoc_traffic::Benchmark;

use crate::config::{NetworkConfig, RunConfig};
use crate::error::SimError;
use crate::report::RunReport;
use crate::sim::Network;

/// Precision/runtime trade-off for harness experiments.
#[derive(Clone, Debug, PartialEq)]
pub struct Quality {
    /// Phases used for saturation probes (no drain needed).
    pub probe_phases: Phases,
    /// Phases used for latency/power measurement runs.
    pub measure_phases: Option<Phases>,
    /// Bisection tolerance in GF/s.
    pub tolerance: f64,
    /// Upper bracket for the saturation search, flits/ns per source.
    pub rate_ceiling: f64,
    /// RNG seed for all runs.
    pub seed: u64,
    /// Interior rates probed per saturation-search round (k-section width).
    /// Affects which rates are probed — deterministically — so it is part
    /// of the experiment definition; `1` reproduces classic bisection.
    pub probe_fan: usize,
    /// Worker threads for independent cells/seeds/probes. Never affects
    /// results, only wall-clock time.
    pub jobs: usize,
    /// Conservative shards splitting each single run across threads.
    /// Never affects results, only wall-clock time.
    pub shards: usize,
}

impl Quality {
    /// Short windows, coarse tolerance — seconds per table, for tests.
    #[must_use]
    pub fn quick() -> Self {
        Quality {
            probe_phases: Phases::new(Duration::from_ns(100), Duration::from_ns(700)),
            measure_phases: Some(Phases::new(Duration::from_ns(150), Duration::from_ns(1200))),
            tolerance: 0.05,
            rate_ceiling: 2.6,
            seed: 42,
            probe_fan: 1,
            jobs: 1,
            shards: 1,
        }
    }

    /// The paper's protocol: standard warmup/measurement windows (doubled
    /// for `Multicast_static` automatically) and two-decimal-digit
    /// saturation precision.
    #[must_use]
    pub fn paper() -> Self {
        Quality {
            probe_phases: Phases::new(Duration::from_ns(320), Duration::from_ns(1600)),
            measure_phases: None, // per-benchmark paper standard
            tolerance: 0.015,
            rate_ceiling: 2.6,
            seed: 42,
            probe_fan: 1,
            jobs: 1,
            shards: 1,
        }
    }

    /// Sets the worker-thread count for independent runs.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the conservative shard count for each single run.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "a run needs at least one shard");
        self.shards = shards;
        self
    }

    /// Sets the saturation-search fan-out (interior probes per round).
    ///
    /// # Panics
    ///
    /// Panics if `probe_fan` is zero.
    #[must_use]
    pub fn with_probe_fan(mut self, probe_fan: usize) -> Self {
        assert!(probe_fan > 0, "probe_fan must be at least 1");
        self.probe_fan = probe_fan;
        self
    }

    fn measure_phases_for(&self, benchmark: Benchmark) -> Phases {
        self.measure_phases
            .unwrap_or_else(|| Phases::paper_standard(benchmark == Benchmark::MulticastStatic))
    }
}

impl Default for Quality {
    fn default() -> Self {
        Quality::quick()
    }
}

/// Saturation measurement for one (architecture, benchmark) cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SaturationPoint {
    /// Highest stable injected load, flits/ns per source.
    pub injected_gfs: f64,
    /// Delivered flit rate at that load — the Table 1 "Saturation
    /// Throughput (GF/s)" quantity.
    pub delivered_gfs: f64,
}

/// One cell of a latency figure.
#[derive(Clone, Debug)]
pub struct LatencyCell {
    /// The network architecture.
    pub architecture: Architecture,
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The network's own saturation point.
    pub saturation: SaturationPoint,
    /// The load the latency was measured at (25 % of saturation).
    pub load_gfs: f64,
    /// Mean packet latency in picoseconds.
    pub mean_latency_ps: u64,
    /// Median (p50) packet latency in picoseconds.
    pub p50_latency_ps: u64,
    /// Tail (p99) packet latency in picoseconds.
    pub p99_latency_ps: u64,
    /// Number of packets sampled.
    pub packets: usize,
}

/// One cell of the Table 1 power comparison.
#[derive(Clone, Debug)]
pub struct PowerCell {
    /// The network architecture.
    pub architecture: Architecture,
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The (Baseline-normalized) load used, flits/ns per source.
    pub load_gfs: f64,
    /// Total network power, milliwatts.
    pub total_mw: f64,
    /// Dynamic component, milliwatts.
    pub dynamic_mw: f64,
}

/// One row of the §5.2(d) addressing comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddressingRow {
    /// Network size.
    pub size: MotSize,
    /// Serial baseline bits (1 bit per fanout level).
    pub baseline_bits: usize,
    /// Fully non-speculative parallel network bits.
    pub non_speculative_bits: usize,
    /// Hybrid network bits.
    pub hybrid_bits: usize,
    /// Almost-fully-speculative network bits.
    pub all_speculative_bits: usize,
}

/// Finds the saturation point of `architecture` under `benchmark`.
///
/// # Errors
///
/// Propagates configuration errors from the underlying runs.
pub fn saturation(
    architecture: Architecture,
    benchmark: Benchmark,
    quality: &Quality,
) -> Result<SaturationPoint, SimError> {
    let network =
        Network::new(NetworkConfig::eight_by_eight(architecture).with_seed(quality.seed))?;
    saturation_of(&network, benchmark, quality)
}

/// Finds the saturation point of an already-built network.
///
/// Two quantities are produced, matching the two ways "saturation" is used
/// in the paper:
///
/// - `injected_gfs` — the highest offered load at which *every* source's
///   injections are still accepted (bisection on the accepted/offered
///   ratio). Fig 6 latency runs load the network at 25 % of this, which
///   guarantees the uncongested regime the paper measures in.
/// - `delivered_gfs` — the delivered-flit plateau when the network is
///   driven far past saturation. This is Table 1's "Saturation Throughput":
///   under deep overload every bottleneck is pinned, sources that still
///   have headroom (e.g. the unicast sources of `Multicast_static`, whose
///   three serializing multicast sources saturate first in the Baseline)
///   keep contributing, and in-network multicast replication counts once
///   per delivery.
///
/// # Errors
///
/// Propagates configuration errors from the underlying runs.
pub fn saturation_of(
    network: &Network,
    benchmark: Benchmark,
    quality: &Quality,
) -> Result<SaturationPoint, SimError> {
    Ok(saturation_of_inner(network, benchmark, quality, false)?.0)
}

/// The engine self-profiles of every run a saturation search performed,
/// keyed by the probed rate and sorted by it (deterministic at any
/// `jobs`/`probe_fan` setting). The overload plateau run appears under
/// [`Quality::rate_ceiling`].
pub type ProbeProfiles = Vec<(f64, Box<asynoc_engine::probe::EngineProfile>)>;

/// [`saturation_of`] with the engine's self-profile collected from every
/// probe run (`asynoc saturate --profile` surfaces these as one `runs[]`
/// entry per probe). Profiling is host-side metadata only: the returned
/// saturation point is bit-identical to the unprofiled search.
///
/// # Errors
///
/// Propagates configuration errors from the underlying runs.
pub fn saturation_of_profiled(
    network: &Network,
    benchmark: Benchmark,
    quality: &Quality,
) -> Result<(SaturationPoint, ProbeProfiles), SimError> {
    let (point, profiles) = saturation_of_inner(network, benchmark, quality, true)?;
    Ok((point, profiles.unwrap_or_default()))
}

fn saturation_of_inner(
    network: &Network,
    benchmark: Benchmark,
    quality: &Quality,
    collect_profiles: bool,
) -> Result<(SaturationPoint, Option<ProbeProfiles>), SimError> {
    let probe = StabilityProbe::new();
    let profiles: std::sync::Mutex<ProbeProfiles> = std::sync::Mutex::new(Vec::new());
    let judge = |rate: f64| {
        let run = RunConfig::new(benchmark, rate)
            .expect("bisection rates are positive")
            .with_phases(quality.probe_phases)
            .with_drain(false)
            .with_shards(quality.shards)
            .with_profile(collect_profiles);
        let mut report = network.run(&run).expect("probe run cannot fail");
        if let Some(profile) = report.profile.take() {
            profiles
                .lock()
                .expect("probe profile lock")
                .push((rate, profile));
        }
        probe.judge(report.throughput.offered, report.throughput.injected)
    };
    let injected_gfs = find_saturation_multi(
        0.05,
        quality.rate_ceiling,
        quality.tolerance,
        quality.probe_fan,
        quality.jobs,
        judge,
    );

    // Measure the delivered plateau under deep overload (use a longer
    // window than the probes: the plateau estimate, unlike the stability
    // verdict, goes straight into the reported table).
    let run = RunConfig::new(benchmark, quality.rate_ceiling)?
        .with_phases(quality.probe_phases.scaled(2))
        .with_drain(false)
        .with_shards(quality.shards)
        .with_profile(collect_profiles);
    let mut report = network.run(&run)?;
    let point = SaturationPoint {
        injected_gfs,
        delivered_gfs: report.throughput.delivered,
    };
    if !collect_profiles {
        return Ok((point, None));
    }
    let mut profiles = profiles.into_inner().expect("probe profile lock");
    if let Some(profile) = report.profile.take() {
        profiles.push((quality.rate_ceiling, profile));
    }
    // Probes land in worker-completion order; re-key by rate so the
    // profile document is independent of scheduling.
    profiles.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("probe rates are finite"));
    Ok((point, Some(profiles)))
}

/// Runs one latency measurement at `fraction` of the network's saturation.
///
/// # Errors
///
/// Propagates configuration errors from the underlying runs.
pub fn latency_at_fraction(
    architecture: Architecture,
    benchmark: Benchmark,
    fraction: f64,
    quality: &Quality,
) -> Result<LatencyCell, SimError> {
    let network =
        Network::new(NetworkConfig::eight_by_eight(architecture).with_seed(quality.seed))?;
    let saturation = saturation_of(&network, benchmark, quality)?;
    let load = (saturation.injected_gfs * fraction).max(0.02);
    let run = RunConfig::new(benchmark, load)?
        .with_phases(quality.measure_phases_for(benchmark))
        .with_shards(quality.shards);
    let report = network.run(&run)?;
    Ok(LatencyCell {
        architecture,
        benchmark,
        saturation,
        load_gfs: load,
        mean_latency_ps: report.latency.mean().map(|d| d.as_ps()).unwrap_or_default(),
        p50_latency_ps: report
            .latency
            .median()
            .map(|d| d.as_ps())
            .unwrap_or_default(),
        p99_latency_ps: report.latency.p99().map(|d| d.as_ps()).unwrap_or_default(),
        packets: report.packets_measured,
    })
}

/// Figure 6(a): average network latency at 25 % load for the contribution
/// trajectory (Baseline, BasicNonSpeculative, BasicHybridSpeculative,
/// OptHybridSpeculative) across all six benchmarks.
///
/// # Errors
///
/// Propagates configuration errors from the underlying runs.
pub fn fig6a(quality: &Quality) -> Result<Vec<LatencyCell>, SimError> {
    latency_grid(&Architecture::CONTRIBUTION_TRAJECTORY, quality)
}

/// Figure 6(b): average network latency at 25 % load for the design-space
/// exploration (OptNonSpeculative, OptHybridSpeculative,
/// OptAllSpeculative) across all six benchmarks.
///
/// # Errors
///
/// Propagates configuration errors from the underlying runs.
pub fn fig6b(quality: &Quality) -> Result<Vec<LatencyCell>, SimError> {
    latency_grid(&Architecture::DESIGN_SPACE, quality)
}

fn latency_grid(
    architectures: &[Architecture],
    quality: &Quality,
) -> Result<Vec<LatencyCell>, SimError> {
    let cells: Vec<(Architecture, Benchmark)> = architectures
        .iter()
        .flat_map(|&architecture| {
            Benchmark::ALL
                .into_iter()
                .map(move |benchmark| (architecture, benchmark))
        })
        .collect();
    parallel_map(quality.jobs, cells, |(architecture, benchmark)| {
        latency_at_fraction(architecture, benchmark, 0.25, quality)
    })
    .into_iter()
    .collect()
}

/// Table 1 (left half): saturation throughput for all six networks across
/// all six benchmarks.
///
/// # Errors
///
/// Propagates configuration errors from the underlying runs.
pub fn table1_throughput(
    quality: &Quality,
) -> Result<Vec<(Architecture, Benchmark, SaturationPoint)>, SimError> {
    let cells: Vec<(Architecture, Benchmark)> = Architecture::ALL
        .into_iter()
        .flat_map(|architecture| {
            Benchmark::ALL
                .into_iter()
                .map(move |benchmark| (architecture, benchmark))
        })
        .collect();
    parallel_map(quality.jobs, cells, |(architecture, benchmark)| {
        let network =
            Network::new(NetworkConfig::eight_by_eight(architecture).with_seed(quality.seed))?;
        Ok((
            architecture,
            benchmark,
            saturation_of(&network, benchmark, quality)?,
        ))
    })
    .into_iter()
    .collect()
}

/// Table 1 (right half): total network power for all six networks across
/// the four power benchmarks, at 25 % of the *Baseline* network's
/// saturation load (normalized energy-per-packet comparison, §5.2(b)).
///
/// # Errors
///
/// Propagates configuration errors from the underlying runs.
pub fn table1_power(quality: &Quality) -> Result<Vec<PowerCell>, SimError> {
    // The paper loads every network at "25% saturation load measured in
    // Baseline" — 25 % of the Baseline's Table 1 saturation throughput,
    // applied as the logical injection rate, so energy per packet is
    // compared at identical offered work. The Baseline saturations gate the
    // per-architecture runs, so they form their own parallel stage.
    let loads = parallel_map(quality.jobs, Benchmark::POWER_SET.to_vec(), |benchmark| {
        let baseline_sat = saturation(Architecture::Baseline, benchmark, quality)?;
        Ok::<_, SimError>((benchmark, (baseline_sat.delivered_gfs * 0.25).max(0.02)))
    });
    let mut cells = Vec::new();
    for result in loads {
        let (benchmark, load) = result?;
        for architecture in Architecture::ALL {
            cells.push((benchmark, load, architecture));
        }
    }
    parallel_map(quality.jobs, cells, |(benchmark, load, architecture)| {
        let network =
            Network::new(NetworkConfig::eight_by_eight(architecture).with_seed(quality.seed))?;
        let run = RunConfig::new(benchmark, load)?
            .with_phases(quality.measure_phases_for(benchmark))
            .with_shards(quality.shards);
        let report = network.run(&run)?;
        Ok(PowerCell {
            architecture,
            benchmark,
            load_gfs: load,
            total_mw: report.power.total_mw(),
            dynamic_mw: report.power.dynamic_mw(),
        })
    })
    .into_iter()
    .collect()
}

/// §5.2(d): address-field sizes for 8×8 and 16×16 networks (and any other
/// sizes requested).
///
/// # Errors
///
/// Returns an error for invalid sizes.
pub fn addressing_rows(sizes: &[usize]) -> Result<Vec<AddressingRow>, SimError> {
    sizes
        .iter()
        .map(|&raw| {
            let size = MotSize::new(raw)?;
            let bits = |arch| SpecMap::preset(arch, size).address_bits();
            Ok(AddressingRow {
                size,
                baseline_bits: bits(Architecture::Baseline),
                non_speculative_bits: bits(Architecture::OptNonSpeculative),
                hybrid_bits: bits(Architecture::OptHybridSpeculative),
                all_speculative_bits: bits(Architecture::OptAllSpeculative),
            })
        })
        .collect()
}

/// §5.2(a): the node-level area/latency table.
#[must_use]
pub fn node_cost_rows() -> Vec<NodeCostRow> {
    TimingModel::calibrated().node_cost_table()
}

/// Mean ± sample standard deviation over independent seeds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeedStats {
    /// Mean across seeds.
    pub mean: f64,
    /// Sample standard deviation across seeds (0 for a single seed).
    pub std_dev: f64,
    /// Number of seeds aggregated.
    pub seeds: usize,
}

impl SeedStats {
    /// Aggregates one sample per seed.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        assert!(n > 0, "need at least one sample");
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std_dev = if n > 1 {
            (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        SeedStats {
            mean,
            std_dev,
            seeds: n,
        }
    }
}

/// Runs one (architecture, benchmark, rate) measurement across several
/// seeds and aggregates mean latency (ps) and total power (mW).
///
/// The paper reports single numbers from one long run; seed-replication
/// quantifies how much of any observed difference is noise. Returns
/// `(latency, power)` statistics.
///
/// # Errors
///
/// Propagates configuration errors from the underlying runs.
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn measure_across_seeds(
    architecture: Architecture,
    benchmark: Benchmark,
    rate_gfs: f64,
    seeds: &[u64],
    quality: &Quality,
) -> Result<(SeedStats, SeedStats), SimError> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let samples = parallel_map(quality.jobs, seeds.to_vec(), |seed| {
        let network = Network::new(NetworkConfig::eight_by_eight(architecture).with_seed(seed))?;
        let run = RunConfig::new(benchmark, rate_gfs)?
            .with_phases(quality.measure_phases_for(benchmark))
            .with_shards(quality.shards);
        let report = network.run(&run)?;
        Ok::<_, SimError>((
            report
                .latency
                .mean()
                .map(|d| d.as_ps() as f64)
                .unwrap_or_default(),
            report.power.total_mw(),
        ))
    });
    let mut latencies = Vec::with_capacity(seeds.len());
    let mut powers = Vec::with_capacity(seeds.len());
    for sample in samples {
        let (latency, power) = sample?;
        latencies.push(latency);
        powers.push(power);
    }
    Ok((
        SeedStats::from_samples(&latencies),
        SeedStats::from_samples(&powers),
    ))
}

/// Convenience: one full measurement run (latency + throughput + power).
///
/// # Errors
///
/// Propagates configuration errors from the underlying run.
pub fn measure(
    architecture: Architecture,
    benchmark: Benchmark,
    rate_gfs: f64,
    quality: &Quality,
) -> Result<RunReport, SimError> {
    let network =
        Network::new(NetworkConfig::eight_by_eight(architecture).with_seed(quality.seed))?;
    let run = RunConfig::new(benchmark, rate_gfs)?
        .with_phases(quality.measure_phases_for(benchmark))
        .with_shards(quality.shards);
    network.run(&run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressing_rows_match_paper_exactly() {
        let rows = addressing_rows(&[8, 16]).unwrap();
        assert_eq!(rows[0].baseline_bits, 3);
        assert_eq!(rows[0].non_speculative_bits, 14);
        assert_eq!(rows[0].hybrid_bits, 12);
        assert_eq!(rows[0].all_speculative_bits, 8);
        assert_eq!(rows[1].baseline_bits, 4);
        assert_eq!(rows[1].non_speculative_bits, 30);
        assert_eq!(rows[1].hybrid_bits, 20);
        assert_eq!(rows[1].all_speculative_bits, 16);
    }

    #[test]
    fn addressing_rejects_bad_size() {
        assert!(addressing_rows(&[12]).is_err());
    }

    #[test]
    fn node_cost_rows_present() {
        let rows = node_cost_rows();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().any(|r| r.name.contains("Baseline")));
    }

    #[test]
    fn hotspot_saturation_matches_anchor() {
        let quality = Quality::quick();
        let point = saturation(Architecture::Baseline, Benchmark::Hotspot, &quality).unwrap();
        assert!(
            (0.24..=0.34).contains(&point.delivered_gfs),
            "hotspot saturation {point:?}"
        );
    }

    #[test]
    fn shuffle_saturation_ordering_baseline_vs_nonspec() {
        let quality = Quality::quick();
        let baseline = saturation(Architecture::Baseline, Benchmark::Shuffle, &quality).unwrap();
        let nonspec = saturation(
            Architecture::BasicNonSpeculative,
            Benchmark::Shuffle,
            &quality,
        )
        .unwrap();
        assert!(
            baseline.delivered_gfs > nonspec.delivered_gfs,
            "paper: baseline shuffle ({:.2}) beats BasicNonSpeculative ({:.2})",
            baseline.delivered_gfs,
            nonspec.delivered_gfs
        );
    }

    #[test]
    fn multicast_saturation_beats_serial_baseline() {
        let quality = Quality::quick();
        let serial = saturation(Architecture::Baseline, Benchmark::Multicast10, &quality).unwrap();
        let parallel = saturation(
            Architecture::BasicNonSpeculative,
            Benchmark::Multicast10,
            &quality,
        )
        .unwrap();
        assert!(
            parallel.delivered_gfs > serial.delivered_gfs,
            "parallel multicast {:.2} must beat serial {:.2}",
            parallel.delivered_gfs,
            serial.delivered_gfs
        );
    }

    #[test]
    fn seed_stats_mean_and_deviation() {
        let stats = SeedStats::from_samples(&[2.0, 4.0, 6.0]);
        assert!((stats.mean - 4.0).abs() < 1e-12);
        assert!((stats.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(stats.seeds, 3);
        let single = SeedStats::from_samples(&[5.0]);
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn measure_across_seeds_aggregates() {
        let (latency, power) = measure_across_seeds(
            Architecture::OptHybridSpeculative,
            Benchmark::UniformRandom,
            0.3,
            &[1, 2, 3],
            &Quality::quick(),
        )
        .expect("runs succeed");
        assert_eq!(latency.seeds, 3);
        assert!(latency.mean > 1_000.0, "latency mean {} ps", latency.mean);
        assert!(latency.std_dev < latency.mean, "noise dominates signal");
        assert!(power.mean > 1.0);
    }

    #[test]
    fn parallel_seeds_match_serial_bitwise() {
        let serial = measure_across_seeds(
            Architecture::OptHybridSpeculative,
            Benchmark::Multicast5,
            0.25,
            &[1, 2, 3, 4],
            &Quality::quick(),
        )
        .expect("serial runs succeed");
        let parallel = measure_across_seeds(
            Architecture::OptHybridSpeculative,
            Benchmark::Multicast5,
            0.25,
            &[1, 2, 3, 4],
            &Quality::quick().with_jobs(4),
        )
        .expect("parallel runs succeed");
        // Bit-identical, not approximately equal: the parallel runner must
        // be indistinguishable from the serial one (PartialEq on f64 fields
        // compares exact bit patterns for these finite values).
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_saturation_search_is_jobs_invariant() {
        let fanned = Quality::quick().with_probe_fan(3);
        let serial = saturation(Architecture::Baseline, Benchmark::Hotspot, &fanned).unwrap();
        let parallel = saturation(
            Architecture::Baseline,
            Benchmark::Hotspot,
            &fanned.clone().with_jobs(3),
        )
        .unwrap();
        assert_eq!(serial, parallel, "worker count changed the answer");
        // The k-section probes different rates than bisection but must land
        // on the same anchor within the search tolerance.
        let bisected = saturation(
            Architecture::Baseline,
            Benchmark::Hotspot,
            &Quality::quick(),
        )
        .unwrap();
        assert!(
            (serial.injected_gfs - bisected.injected_gfs).abs() <= 2.0 * fanned.tolerance,
            "k-section {serial:?} vs bisection {bisected:?}"
        );
    }

    #[test]
    fn profiled_saturation_matches_unprofiled_and_collects_probes() {
        let quality = Quality::quick();
        let network = Network::new(
            NetworkConfig::eight_by_eight(Architecture::Baseline).with_seed(quality.seed),
        )
        .unwrap();
        let plain = saturation_of(&network, Benchmark::Hotspot, &quality).unwrap();
        let (profiled, profiles) =
            saturation_of_profiled(&network, Benchmark::Hotspot, &quality).unwrap();
        assert_eq!(plain, profiled, "profiling must not perturb the search");
        assert!(profiles.len() >= 2, "probes plus the plateau run");
        assert!(
            profiles.windows(2).all(|w| w[0].0 <= w[1].0),
            "profiles sorted by probed rate"
        );
        assert!(profiles
            .iter()
            .all(|(_, p)| p.shards.iter().map(|s| s.events).sum::<u64>() > 0));
    }

    #[test]
    fn latency_cell_has_samples() {
        let cell = latency_at_fraction(
            Architecture::OptHybridSpeculative,
            Benchmark::Multicast5,
            0.25,
            &Quality::quick(),
        )
        .unwrap();
        assert!(cell.packets > 10);
        assert!(cell.mean_latency_ps > 500);
        assert!(cell.p50_latency_ps > 0);
        assert!(
            cell.p99_latency_ps >= cell.p50_latency_ps,
            "percentiles monotone"
        );
        assert!(cell.load_gfs > 0.0);
    }
}
