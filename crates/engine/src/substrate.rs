//! The substrate contract: one run description, one report core, and one
//! driver under every fabric.
//!
//! A [`SimModel`](crate::SimModel) says how a fabric's nodes fire; a
//! [`Substrate`] says how a *network* of them is run — how many endpoints
//! it has, what traffic parameters it was built with, how to make a fresh
//! model for one run, what its legal fault targets are, and what it adds
//! to the engine's measurements. [`drive`] is the only place that turns a
//! [`RunConfig`] into traffic generators and an engine run, so harnesses,
//! the fault oracle and the CLI are written once against this trait.

use std::ops::DerefMut;

use asynoc_kernel::{Duration, Time};
use asynoc_stats::Phases;
use asynoc_traffic::{Benchmark, SourceTraffic, TrafficError};

use crate::fault::{ArmedFaults, FaultDomain};
use crate::observer::{Observer, SimEvent};
use crate::session::{EngineReport, NodeKey, RunSpec};
use crate::shard::{run_sharded, run_sharded_with_faults, ShardModel};

/// One simulation run on any substrate: benchmark, offered load,
/// measurement schedule, and how the host executes it.
///
/// No option bounds a run's memory or picks its latency estimator: every
/// run reports [`EngineReport::latency`] as one fixed-size
/// [`LogHistogram`](asynoc_stats::LogHistogram) — exact count, mean,
/// minimum and maximum; percentiles never below the exact nearest-rank
/// sample and at most 1/32 above it — however long it is.
///
/// # Examples
///
/// ```
/// use asynoc_engine::RunConfig;
/// use asynoc_traffic::Benchmark;
///
/// let run = RunConfig::new(Benchmark::Shuffle, 0.5)?;
/// assert_eq!(run.rate_gfs(), 0.5);
/// assert_eq!(run.shards(), 1);
/// # Ok::<(), asynoc_traffic::TrafficError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    benchmark: Benchmark,
    rate_gfs: f64,
    shards: usize,
    spec: RunSpec,
}

impl RunConfig {
    /// Creates a run at `rate_gfs` flits/ns per source with the paper's
    /// standard measurement schedule (doubled for `Multicast_static`),
    /// draining enabled, one shard, and profiling off.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidRate`] unless the rate is positive
    /// and finite.
    pub fn new(benchmark: Benchmark, rate_gfs: f64) -> Result<Self, TrafficError> {
        if !(rate_gfs.is_finite() && rate_gfs > 0.0) {
            return Err(TrafficError::InvalidRate { rate: rate_gfs });
        }
        let phases = Phases::paper_standard(benchmark == Benchmark::MulticastStatic);
        Ok(RunConfig {
            benchmark,
            rate_gfs,
            shards: 1,
            spec: RunSpec::new(phases, true),
        })
    }

    /// A short-window run for tests and examples (80 ns warmup, 800 ns
    /// measurement).
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    #[must_use]
    pub fn quick(benchmark: Benchmark, rate_gfs: f64) -> Self {
        RunConfig::new(benchmark, rate_gfs)
            .expect("quick() requires a positive, finite rate")
            .with_phases(Phases::new(Duration::from_ns(80), Duration::from_ns(800)))
    }

    /// Replaces the measurement schedule.
    #[must_use]
    pub fn with_phases(mut self, phases: Phases) -> Self {
        self.spec.phases = phases;
        self
    }

    /// Enables or disables the drain phase (saturation probes disable it:
    /// they only need acceptance ratios, not complete packet latencies).
    #[must_use]
    pub fn with_drain(mut self, drain: bool) -> Self {
        self.spec.drain = drain;
        self
    }

    /// Splits the run across `shards` conservative shards (threads).
    ///
    /// Results are bit-identical for every shard count (the sharded
    /// engine merges observable streams back into exact serial order);
    /// this only affects run speed on multi-core hosts. The substrate
    /// clamps the count to what its topology can support.
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

    /// Enables runtime self-profiling: the engine fills
    /// [`EngineReport::profile`] with per-shard counters, histograms, and
    /// phase wall-clock splits. Simulation results are bit-identical with
    /// profiling on or off — only host-side metadata is collected.
    #[must_use]
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.spec.profile = profile;
        self
    }

    /// Enables the stderr progress heartbeat (a single line refreshed a
    /// few times per second; suppressed when stderr is not a terminal).
    /// Like profiling, it never perturbs simulation results.
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.spec.progress = progress;
        self
    }

    /// The benchmark to run.
    #[must_use]
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// Offered load, flits/ns per source.
    #[must_use]
    pub fn rate_gfs(&self) -> f64 {
        self.rate_gfs
    }

    /// The measurement schedule.
    #[must_use]
    pub fn phases(&self) -> Phases {
        self.spec.phases
    }

    /// Whether the run drains in-flight measured packets after the window.
    #[must_use]
    pub fn drain(&self) -> bool {
        self.spec.drain
    }

    /// How many shards execute the run (default 1: serial).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Whether the run collects an engine profile (default off).
    #[must_use]
    pub fn profile(&self) -> bool {
        self.spec.profile
    }

    /// Whether the run prints a progress heartbeat (default off).
    #[must_use]
    pub fn progress(&self) -> bool {
        self.spec.progress
    }
}

/// A network that runs on the engine.
///
/// Implementors are the ready-to-run network types (`asynoc::Network`,
/// `asynoc_mesh::MeshNetwork`, `asynoc_vcmesh::VcMeshNetwork`): static
/// descriptions that build a fresh [`ShardModel`] per run. A fourth
/// fabric implements this trait and inherits [`drive`], the fault oracle
/// and the CLI's instrumented commands.
pub trait Substrate {
    /// The fabric's node identifier, as observers see it.
    type Node: Copy + std::fmt::Debug + NodeKey + Send + 'static;
    /// The model one run executes (it may borrow the network).
    type Model<'a>: ShardModel<Node = Self::Node>
    where
        Self: 'a;
    /// Observers every run carries ahead of the caller's own and whose
    /// state feeds the report (the MoT's power and activity
    /// recorders); `()` for a fabric with none.
    type Probes<'a>: Observer<Self::Node>
    where
        Self: 'a;
    /// What one run reports: the engine's measurements, reachable
    /// through `Deref`, beside the fabric's own section.
    type Report: DerefMut<Target = EngineReport>;

    /// Number of traffic endpoints (sources == sinks).
    fn endpoints(&self) -> usize;
    /// Flits per packet the network was configured with.
    fn flits_per_packet(&self) -> u8;
    /// The RNG seed traffic streams are derived from.
    fn seed(&self) -> u64;
    /// The legal fault-injection targets; `channels` equals the model's
    /// channel count.
    fn fault_domain(&self) -> FaultDomain;
    /// A fresh model and probe set for `run`.
    fn prepare(&self, run: &RunConfig) -> (Self::Model<'_>, Self::Probes<'_>);
    /// Assembles the report from the engine's measurements and what the
    /// finished model and probes accumulated.
    fn report(
        &self,
        run: &RunConfig,
        engine: EngineReport,
        model: Self::Model<'_>,
        probes: Self::Probes<'_>,
    ) -> Self::Report;
}

impl<N> Observer<N> for () {
    fn on_event(&mut self, _at: Time, _in_window: bool, _event: &SimEvent<'_, N>) {}
}

/// The one observer the engine sees: the substrate's probes, then the
/// caller's observers in registration order. `&mut dyn` is invariant in
/// the trait object's lifetime, so the caller's observers cannot join a
/// slice of short-lived local ones directly; this adapter bridges the
/// two lifetimes.
struct Bridge<'x, 'y, P, N> {
    probes: P,
    extra: &'x mut [&'y mut dyn Observer<N>],
}

impl<P: Observer<N>, N> Observer<N> for Bridge<'_, '_, P, N> {
    fn on_event(&mut self, at: Time, in_window: bool, event: &SimEvent<'_, N>) {
        self.probes.on_event(at, in_window, event);
        for observer in self.extra.iter_mut() {
            observer.on_event(at, in_window, event);
        }
    }
}

/// Executes `run` on `substrate`: builds one traffic generator per
/// endpoint, a fresh model, and the observer stack (the substrate's
/// probes, then `extra`), and runs them on `run.shards()` shards — with
/// `faults` threaded into the engine's injection hooks when given (the
/// caller keeps the table and reads back its summary afterwards).
///
/// Extra observers see the identical event stream the probes do, in
/// registration order, without perturbing the simulation.
///
/// # Errors
///
/// Returns an error if the traffic specification is invalid for this
/// network (benchmark/endpoint mismatch, zero-length packets).
pub fn drive<S: Substrate>(
    substrate: &S,
    run: &RunConfig,
    extra: &mut [&mut dyn Observer<S::Node>],
    faults: Option<&mut ArmedFaults>,
) -> Result<S::Report, TrafficError> {
    let n = substrate.endpoints();
    let traffic = (0..n)
        .map(|source| {
            SourceTraffic::new(
                run.benchmark,
                n,
                source,
                run.rate_gfs,
                substrate.flits_per_packet(),
                substrate.seed(),
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (model, probes) = substrate.prepare(run);
    let mut bridge = Bridge { probes, extra };
    let observers: &mut [&mut dyn Observer<S::Node>] = &mut [&mut bridge];
    let (engine, model) = match faults {
        None => run_sharded(model, traffic, run.spec, run.shards, observers),
        Some(faults) => {
            run_sharded_with_faults(model, traffic, run.spec, run.shards, faults, observers)
        }
    };
    Ok(substrate.report(run, engine, model, bridge.probes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_config_validates_rate() {
        assert!(matches!(
            RunConfig::new(Benchmark::Shuffle, 0.0),
            Err(TrafficError::InvalidRate { .. })
        ));
        assert!(matches!(
            RunConfig::new(Benchmark::Shuffle, f64::INFINITY),
            Err(TrafficError::InvalidRate { .. })
        ));
        assert!(RunConfig::new(Benchmark::Shuffle, 0.1).is_ok());
    }

    #[test]
    fn multicast_static_gets_doubled_phases() {
        let run = RunConfig::new(Benchmark::MulticastStatic, 0.2).unwrap();
        assert_eq!(run.phases(), Phases::paper_standard(true));
        let run = RunConfig::new(Benchmark::UniformRandom, 0.2).unwrap();
        assert_eq!(run.phases(), Phases::paper_standard(false));
    }

    #[test]
    fn quick_run_is_short_and_drains() {
        let run = RunConfig::quick(Benchmark::Hotspot, 0.1);
        assert!(run.phases().measure() < Phases::paper_standard(false).measure());
        assert!(run.drain());
        assert!(!run.with_drain(false).drain());
    }
}
