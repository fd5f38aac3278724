//! Hand-rolled argument parsing (no external dependencies).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use asynoc::explore::Granularity;
use asynoc::{Architecture, Benchmark};
use asynoc_vcmesh::McastScheme;

/// The usage text printed by `asynoc help` and on parse errors.
pub const USAGE: &str = "\
asynoc — asynchronous Mesh-of-Trees NoC simulator (DAC'16 local-speculation multicast)

USAGE:
  asynoc run      (--arch <A> | --spec-map <M>) --benchmark <B> --rate <flits/ns>
                  [--seeds <K>] [common options]
  asynoc saturate --arch <A> --benchmark <B> [--quick] [--probe-fan <K>] [common options]
  asynoc sweep    --arch <A> --benchmark <B> --from <R0> --to <R1> --steps <K> [common options]
  asynoc mesh     --benchmark <B> --rate <flits/ns> [--cols <C>] [--rows <R>] [common options]
  asynoc metrics  --benchmark <B> --rate <flits/ns> [--arch <A> | --spec-map <M>]
                  [--substrate mot|mesh|vcmesh] [--mcast xy-tree|dpm]
                  [--metrics-out <path>] [--trace-format ndjson|chrome] [--trace-out <path>]
                  [--trace-limit <K>] [--bin-ns <W>] [common options]
  asynoc analyze  --trace-in <path> [--report-out <path>] [--top <N>] [--heatmap] [--lenient]
                  [--profile <path>]
  asynoc faults   --benchmark <B> --rate <flits/ns> [--arch <A> | --spec-map <M>]
                  [--substrate mot|mesh|vcmesh] [--mcast xy-tree|dpm]
                  [--plan <encoded>] [--fault-rate <D>] [--oracle] [--report-out <path>]
                  [common options]
  asynoc explore  [--benchmark <B>] [--rate <flits/ns>] [--granularity level|node]
                  [--beam <K>] [--max-points <N>] [--guard <A|none>] [--tolerance <T>]
                  [--report-out <path>] [--smoke] [common options]
  asynoc watch    --stream-in <path|-> [--fold <path|->] [--once] [--interval-ms <T>]
  asynoc info     [--arch <A>] [--size <N>]
  asynoc help

COMMON OPTIONS:
  --size <N>        network size (power of two, 2..=64; default 8)
  --seed <S>        RNG seed (default 42)
  --flits <F>       flits per packet (default 5)
  --warmup-ns <W>   warmup window in ns (default: paper standard)
  --measure-ns <M>  measurement window in ns (default: paper standard)
  --jobs <J>        worker threads for independent runs (default: all
                    hardware threads; results are bit-identical at any
                    setting — only wall time changes)
  --shards <S>      conservative shards splitting each single run across
                    threads (default: all hardware threads, clamped to what
                    the topology supports; results are bit-identical at any
                    setting — only wall time changes)
  --profile <path>  write an asynoc-profile-v1 JSON self-profile of the
                    simulator's own execution (scheduler counters, per-shard
                    balance, barrier waits, phase wall splits) to <path>.
                    Never changes simulation results. Multi-run commands
                    (run --seeds, saturate, sweep, faults --oracle) collect
                    one runs[] entry per simulation
  --progress        single-line stderr heartbeat (events done, events/s,
                    per-shard lag), refreshed a few times per second; only
                    written when stderr is a terminal (set
                    ASYNOC_PROGRESS_FORCE=1 to override). Never changes
                    simulation results

STREAMING OPTIONS (run, mesh, metrics, faults):
  --stream <path|->       append asynoc-stream-v1 NDJSON telemetry to
                          <path> (`-` = stdout) while the run executes:
                          a head record, one window record per flushed
                          simulated-time window (counter deltas, latency
                          delta, time-series bins), watchpoint records as
                          online invariants fire, and an end record with
                          the scalar summary sections. Memory stays
                          bounded by the window, not the run length.
                          Never changes simulation results
  --stream-window-ns <W>  flush window width in ns (default 1000; on
                          `metrics` it must be a multiple of --bin-ns)
  --stream-trace          also emit per-event trace records into the
                          stream (bounded per window by --trace-limit
                          where available, else 100000)
  --watch-fatal           exit non-zero after the run when any online
                          watchpoint (token-conservation violation, stall,
                          busy watermark, waste-rate ceiling) fired

SPECULATION MAPS (run, metrics, faults — mot substrate only):
  --spec-map <M>    an explicit speculation placement instead of a preset
                    --arch (the two are mutually exclusive; exactly one is
                    required on the mot substrate). Forms:
                      ArchitectureName            a preset by name
                      preset:ArchitectureName     same, explicit
                      levels:sp,ns,ns             one kind per fanout level,
                                                  root first (base, ns, sp,
                                                  ons, osp)
                      levels:...;node:T.L.I=kind  per-node overrides on top
                                                  of the level kinds (tree T,
                                                  level L, index I)
                      @path                       JSON file: {\"preset\": ...}
                                                  or {\"levels\": [...],
                                                  \"nodes\": [{\"tree\",
                                                  \"level\", \"index\",
                                                  \"kind\"}]}
                    Leaf-level nodes must be non-speculative (the fanin
                    network cannot throttle), and the serial baseline kind
                    cannot be mixed with parallel-multicast kinds.

  run:      --seeds <K> replicates the run over seeds S, S+1, … S+K−1
            (fanned across --jobs workers) and reports per-seed results
            plus mean ± sample std dev.
  saturate: --probe-fan <K> probes K rates per search round (k-section;
            deterministic, but K changes which rates are probed)
  metrics:  one instrumented run emitting a JSON report (latency
            percentiles, time-series, speculation-waste ledger, power).
            --arch is required on the mot substrate; the vcmesh substrate
            (credit-based VC mesh with in-network multicast) takes
            --mcast to pick its multicast scheme (xy-tree default, dpm =
            Dynamic Partition Merging); --trace-out exports
            the flit trace (ndjson default, chrome is Perfetto-loadable);
            --bin-ns sets the time-series bin width (default 100)
  analyze:  offline causal analysis over an NDJSON flit trace (from
            metrics --trace-out): per-packet critical paths, blocked-time
            attribution, congestion heatmaps, speculation scorecard.
            --top bounds the ranked lists (default 10); --heatmap prints
            the text maps; --lenient skips malformed lines (counted in
            the report) instead of failing
  faults:   one deterministic fault-injection run emitting a JSON fault
            report. --plan replays an encoded campaign
            (stall:3:2:500;lose:0:1;...); without it a recoverable plan
            is drawn from --seed and --fault-rate (density, default
            0.15). --oracle pairs the run with a clean twin under the
            same seed and judges the conformance contract. --stream
            exports the faulted run only (the clean twin stays untouched)
  explore:  search the speculation-placement design space and report the
            Pareto front (p50/p99 latency, power, area) as an
            asynoc-explore-v1 JSON document. --granularity level (default)
            enumerates every per-level placement exhaustively; node runs a
            deterministic beam search over per-node placements seeded with
            the per-level front (--beam placements per round, default 4).
            --max-points bounds the number of simulations; an exhausted
            budget still reports the front over what was evaluated, with
            \"truncated\": true. --guard (default OptHybridSpeculative;
            none disables) asserts the preset lands on or within
            --tolerance (default 0.05, relative per objective) of the
            front, exiting non-zero otherwise. --smoke shrinks windows and
            load for CI. Results are bit-identical at any --jobs value.
            Fault injection, streaming, and profiling are per-run tools
            and are rejected here; replay one placement with
            `asynoc faults --spec-map` / `asynoc metrics --spec-map`
  watch:    tail an asynoc-stream-v1 NDJSON file (from --stream) and
            render a live dashboard: events/s, in-flight flits, per-level
            busy fractions, watchpoint alerts. --once reads what is there
            and exits; --fold folds the finished stream back into the
            batch asynoc-metrics-v1 document (byte-identical for
            `metrics --stream` runs) and writes it to <path> (`-` =
            stdout); --interval-ms sets the tail poll period (default 200)

ARCHITECTURES:
  Baseline, BasicNonSpeculative, BasicHybridSpeculative,
  OptHybridSpeculative, OptNonSpeculative, OptAllSpeculative

BENCHMARKS:
  Uniform-random, Shuffle, Hotspot, Multicast5, Multicast10, Multicast-static,
  Bit-complement, Bit-reverse, Transpose, Tornado, Nearest-neighbor
";

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// One measurement run.
    Run {
        /// Network architecture preset (exactly one of `arch`/`spec_map`).
        arch: Option<Architecture>,
        /// Explicit speculation placement (text form or `@path` JSON).
        spec_map: Option<String>,
        /// Traffic benchmark.
        benchmark: Benchmark,
        /// Offered load, flits/ns per source.
        rate: f64,
        /// Number of consecutive seeds to replicate over (≥ 1).
        seeds: usize,
        /// Shared options.
        common: CommonOptions,
    },
    /// Saturation search.
    Saturate {
        /// Network architecture.
        arch: Architecture,
        /// Traffic benchmark.
        benchmark: Benchmark,
        /// Use the fast low-precision preset.
        quick: bool,
        /// Saturation-search fan-out (interior probes per round, ≥ 1).
        probe_fan: usize,
        /// Shared options.
        common: CommonOptions,
    },
    /// Latency-vs-load sweep.
    Sweep {
        /// Network architecture.
        arch: Architecture,
        /// Traffic benchmark.
        benchmark: Benchmark,
        /// First offered load.
        from: f64,
        /// Last offered load.
        to: f64,
        /// Number of points (≥ 2).
        steps: usize,
        /// Shared options.
        common: CommonOptions,
    },
    /// One measurement run on the 2D-mesh comparison fabric.
    Mesh {
        /// Traffic benchmark.
        benchmark: Benchmark,
        /// Offered load, flits/ns per endpoint.
        rate: f64,
        /// Mesh columns.
        cols: usize,
        /// Mesh rows.
        rows: usize,
        /// Shared options (size is ignored; cols x rows defines the mesh).
        common: CommonOptions,
    },
    /// One instrumented run emitting the JSON metrics report.
    Metrics {
        /// Network architecture (MoT substrate only; exactly one of
        /// `arch`/`spec_map` there, neither on the mesh substrates).
        arch: Option<Architecture>,
        /// Explicit speculation placement (MoT substrate only).
        spec_map: Option<String>,
        /// Traffic benchmark.
        benchmark: Benchmark,
        /// Offered load, flits/ns per source.
        rate: f64,
        /// Which fabric to instrument.
        substrate: Substrate,
        /// Multicast scheme on the vcmesh substrate (unused elsewhere).
        mcast: McastScheme,
        /// Time-series bin width, ns.
        bin_ns: u64,
        /// Write the JSON report here instead of stdout.
        metrics_out: Option<String>,
        /// Trace export format (implies tracing; requires `trace_out`).
        trace_format: Option<TraceFormat>,
        /// Trace output path.
        trace_out: Option<String>,
        /// Maximum trace events recorded.
        trace_limit: usize,
        /// Shared options.
        common: CommonOptions,
    },
    /// Offline causal analysis over an exported NDJSON flit trace.
    Analyze {
        /// The NDJSON trace to ingest.
        trace_in: String,
        /// Write the JSON report here instead of stdout.
        report_out: Option<String>,
        /// Bound on the ranked lists in the report.
        top: usize,
        /// Print the textual congestion heatmaps.
        heatmap: bool,
        /// Skip malformed trace lines (counted in the report) instead of
        /// failing on the first one.
        lenient: bool,
        /// Write an `asynoc-profile-v1` self-profile of the analysis pass
        /// (wall time, allocations; no engine runs) to this path.
        profile: Option<String>,
    },
    /// One deterministic fault-injection run, optionally paired with a
    /// clean twin and judged by the conformance oracle.
    Faults {
        /// Network architecture (MoT substrate only; exactly one of
        /// `arch`/`spec_map` there, neither on the mesh substrates).
        arch: Option<Architecture>,
        /// Explicit speculation placement (MoT substrate only).
        spec_map: Option<String>,
        /// Traffic benchmark.
        benchmark: Benchmark,
        /// Offered load, flits/ns per source.
        rate: f64,
        /// Which fabric to inject into.
        substrate: Substrate,
        /// Multicast scheme on the vcmesh substrate (unused elsewhere).
        mcast: McastScheme,
        /// Encoded fault plan to replay (`None` = draw one from the
        /// seed and `fault_rate`).
        plan: Option<String>,
        /// Random-plan density over the substrate's fault domain.
        fault_rate: f64,
        /// Pair with a clean twin and judge the differential oracle.
        oracle: bool,
        /// Write the JSON fault report here instead of stdout.
        report_out: Option<String>,
        /// Shared options.
        common: CommonOptions,
    },
    /// Design-space exploration over speculation placements, reporting
    /// the Pareto front as an `asynoc-explore-v1` JSON document.
    Explore {
        /// Traffic benchmark (`None` = the explore default, Multicast10).
        benchmark: Option<Benchmark>,
        /// Offered load, flits/ns per source (`None` = the explore
        /// default: 0.3, or 0.2 under `--smoke`).
        rate: Option<f64>,
        /// Search granularity.
        granularity: Granularity,
        /// Placements kept per beam round (node granularity only).
        beam: usize,
        /// Simulation budget (`None` = unbounded).
        max_points: Option<usize>,
        /// Preset asserted on/near the front (`None` = `--guard none`).
        guard: Option<Architecture>,
        /// Relative per-objective guard tolerance.
        tolerance: f64,
        /// Write the JSON report here instead of stdout.
        report_out: Option<String>,
        /// Shrink windows and load for CI smoke runs.
        smoke: bool,
        /// Shared options.
        common: CommonOptions,
    },
    /// Follow a streaming-telemetry NDJSON file: live dashboard or fold
    /// back into the batch metrics document.
    Watch {
        /// The stream to follow (`-` = stdin, which implies `once`).
        stream_in: String,
        /// Fold the (finished) stream into a batch metrics document at
        /// this path (`-` = stdout) instead of dashboarding.
        fold: Option<String>,
        /// Read what is present now, report, and exit without tailing.
        once: bool,
        /// Poll interval while tailing, milliseconds.
        interval_ms: u64,
    },
    /// Static information: node table, address bits, area/leakage.
    Info {
        /// Architecture to describe (default: all).
        arch: Option<Architecture>,
        /// Network size (default 8).
        size: usize,
    },
    /// Print usage.
    Help,
}

/// Which simulator fabric `asynoc metrics` instruments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// The paper's Mesh-of-Trees network.
    Mot,
    /// The 2D-mesh comparison fabric.
    Mesh,
    /// The credit-based virtual-channel mesh with in-network multicast.
    Vcmesh,
}

impl std::str::FromStr for Substrate {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "mot" => Ok(Substrate::Mot),
            "mesh" => Ok(Substrate::Mesh),
            "vcmesh" => Ok(Substrate::Vcmesh),
            other => Err(format!(
                "unknown substrate {other:?} (use mot, mesh, or vcmesh)"
            )),
        }
    }
}

/// Trace export formats for `asynoc metrics --trace-out`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line, round-trippable by `asynoc-telemetry`.
    Ndjson,
    /// Chrome trace-event JSON, loadable in ui.perfetto.dev.
    Chrome,
}

impl std::str::FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ndjson" => Ok(TraceFormat::Ndjson),
            "chrome" => Ok(TraceFormat::Chrome),
            other => Err(format!(
                "unknown trace format {other:?} (use ndjson or chrome)"
            )),
        }
    }
}

/// Options shared by the simulation commands.
#[derive(Clone, Debug, PartialEq)]
pub struct CommonOptions {
    /// Network size.
    pub size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Flits per packet.
    pub flits: u8,
    /// Warmup override, ns.
    pub warmup_ns: Option<u64>,
    /// Measurement override, ns.
    pub measure_ns: Option<u64>,
    /// Worker threads for independent runs (wall-clock only, never results).
    pub jobs: usize,
    /// Conservative shards splitting each single run across threads
    /// (wall-clock only, never results).
    pub shards: usize,
    /// Write an `asynoc-profile-v1` self-profile of the simulator's own
    /// execution to this path (host-side metadata only, never results).
    pub profile: Option<String>,
    /// Print the stderr progress heartbeat (TTY-gated, never results).
    pub progress: bool,
    /// Append `asynoc-stream-v1` NDJSON telemetry to this path (`-` =
    /// stdout) while the run executes (never changes results).
    pub stream: Option<String>,
    /// Stream flush-window width override, ns.
    pub stream_window_ns: Option<u64>,
    /// Emit per-event `trace` records into the stream.
    pub stream_trace: bool,
    /// Exit non-zero after the run when any watchpoint fired.
    pub watch_fatal: bool,
}

impl Default for CommonOptions {
    fn default() -> Self {
        let threads = asynoc::default_parallelism();
        CommonOptions {
            size: 8,
            seed: 42,
            flits: 5,
            warmup_ns: None,
            measure_ns: None,
            jobs: threads,
            shards: threads,
            profile: None,
            progress: false,
            stream: None,
            stream_window_ns: None,
            stream_trace: false,
            watch_fatal: false,
        }
    }
}

/// A CLI parse failure, carrying a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseCliError {
    message: String,
}

impl ParseCliError {
    fn new(message: impl Into<String>) -> Self {
        ParseCliError {
            message: message.into(),
        }
    }

    /// The user-facing message.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseCliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for ParseCliError {}

/// Splits `--key value` pairs into a map, rejecting unknown keys.
fn collect_flags(
    args: &[String],
    allowed: &[&str],
) -> Result<BTreeMap<String, String>, ParseCliError> {
    let mut flags = BTreeMap::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(ParseCliError::new(format!(
                "unexpected positional argument {arg:?}"
            )));
        };
        if !allowed.contains(&key) {
            return Err(ParseCliError::new(format!("unknown option --{key}")));
        }
        // `--quick`, `--heatmap`, `--lenient`, `--oracle`, `--progress`,
        // `--stream-trace`, `--watch-fatal`, `--once`, and `--smoke` are
        // bare flags; everything else takes a value.
        let value = if matches!(
            key,
            "quick"
                | "heatmap"
                | "lenient"
                | "oracle"
                | "progress"
                | "stream-trace"
                | "watch-fatal"
                | "once"
                | "smoke"
        ) {
            "true".to_string()
        } else {
            iter.next()
                .ok_or_else(|| ParseCliError::new(format!("--{key} requires a value")))?
                .clone()
        };
        if flags.insert(key.to_string(), value).is_some() {
            return Err(ParseCliError::new(format!("--{key} given twice")));
        }
    }
    Ok(flags)
}

fn required<'a>(flags: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, ParseCliError> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| ParseCliError::new(format!("missing required option --{key}")))
}

fn parse_value<T: std::str::FromStr>(key: &str, raw: &str) -> Result<T, ParseCliError>
where
    T::Err: fmt::Display,
{
    raw.parse()
        .map_err(|e| ParseCliError::new(format!("--{key}: {e}")))
}

/// Largest value a `--*-ns` flag may take. Simulated time is `u64`
/// picoseconds and a run's drain cap sits at twice its warm-up plus
/// measurement windows, so an eighth of the representable nanoseconds
/// keeps every sum the engine forms in range.
const MAX_NS: u64 = u64::MAX / 1_000 / 8;

/// Parses a simulated-time flag in nanoseconds, `min..=MAX_NS`.
fn parse_ns(key: &str, raw: &str, min: u64) -> Result<u64, ParseCliError> {
    let ns: u64 = parse_value(key, raw)?;
    if (min..=MAX_NS).contains(&ns) {
        Ok(ns)
    } else {
        Err(ParseCliError::new(format!(
            "--{key} must be in {min}..={MAX_NS} (simulated time is u64 picoseconds)"
        )))
    }
}

fn common_options(flags: &BTreeMap<String, String>) -> Result<CommonOptions, ParseCliError> {
    let mut options = CommonOptions::default();
    if let Some(raw) = flags.get("size") {
        options.size = parse_value("size", raw)?;
    }
    if let Some(raw) = flags.get("seed") {
        options.seed = parse_value("seed", raw)?;
    }
    if let Some(raw) = flags.get("flits") {
        options.flits = parse_value("flits", raw)?;
        if options.flits == 0 {
            return Err(ParseCliError::new("--flits must be at least 1"));
        }
    }
    if let Some(raw) = flags.get("warmup-ns") {
        options.warmup_ns = Some(parse_ns("warmup-ns", raw, 0)?);
    }
    if let Some(raw) = flags.get("measure-ns") {
        options.measure_ns = Some(parse_ns("measure-ns", raw, 1)?);
    }
    if let Some(raw) = flags.get("jobs") {
        options.jobs = parse_value("jobs", raw)?;
        if options.jobs == 0 {
            return Err(ParseCliError::new("--jobs must be at least 1"));
        }
    }
    if let Some(raw) = flags.get("shards") {
        options.shards = parse_value("shards", raw)?;
        if options.shards == 0 {
            return Err(ParseCliError::new("--shards must be at least 1"));
        }
    }
    options.profile = flags.get("profile").cloned();
    options.progress = flags.contains_key("progress");
    options.stream = flags.get("stream").cloned();
    if let Some(raw) = flags.get("stream-window-ns") {
        options.stream_window_ns = Some(parse_ns("stream-window-ns", raw, 1)?);
    }
    options.stream_trace = flags.contains_key("stream-trace");
    options.watch_fatal = flags.contains_key("watch-fatal");
    if options.stream.is_none() {
        for key in ["stream-window-ns", "stream-trace", "watch-fatal"] {
            if flags.contains_key(key) {
                return Err(ParseCliError::new(format!(
                    "--{key} requires --stream <path|->"
                )));
            }
        }
    }
    Ok(options)
}

const COMMON_KEYS: [&str; 9] = [
    "size",
    "seed",
    "flits",
    "warmup-ns",
    "measure-ns",
    "jobs",
    "shards",
    "profile",
    "progress",
];

/// The streaming-telemetry flags, accepted by the single-run commands
/// (`run`, `mesh`, `metrics`, `faults`) but not the multi-run searches.
const STREAM_KEYS: [&str; 4] = ["stream", "stream-window-ns", "stream-trace", "watch-fatal"];

fn with_common(extra: &[&str]) -> Vec<&'static str> {
    // Leaking tiny strings once per parse is fine for a CLI; avoid by
    // matching statically instead.
    let mut keys: Vec<&'static str> = COMMON_KEYS.to_vec();
    for &key in extra {
        keys.push(match key {
            "arch" => "arch",
            "spec-map" => "spec-map",
            "benchmark" => "benchmark",
            "rate" => "rate",
            "quick" => "quick",
            "from" => "from",
            "to" => "to",
            "steps" => "steps",
            "seeds" => "seeds",
            "probe-fan" => "probe-fan",
            "substrate" => "substrate",
            "mcast" => "mcast",
            "metrics-out" => "metrics-out",
            "trace-format" => "trace-format",
            "trace-out" => "trace-out",
            "trace-limit" => "trace-limit",
            "bin-ns" => "bin-ns",
            "plan" => "plan",
            "fault-rate" => "fault-rate",
            "oracle" => "oracle",
            "report-out" => "report-out",
            "stream" => "stream",
            "stream-window-ns" => "stream-window-ns",
            "stream-trace" => "stream-trace",
            "watch-fatal" => "watch-fatal",
            other => unreachable!("unknown static key {other}"),
        });
    }
    keys
}

/// Resolves the `--arch` / `--spec-map` placement pair: the two are
/// mutually exclusive, and exactly one is required when the command runs
/// on the MoT substrate.
fn placement_options(
    flags: &BTreeMap<String, String>,
    required_here: bool,
) -> Result<(Option<Architecture>, Option<String>), ParseCliError> {
    let arch = flags
        .get("arch")
        .map(|raw| parse_value::<Architecture>("arch", raw))
        .transpose()?;
    let spec_map = flags.get("spec-map").cloned();
    if arch.is_some() && spec_map.is_some() {
        return Err(ParseCliError::new(
            "--arch and --spec-map are mutually exclusive (a preset name is \
             itself a valid --spec-map)",
        ));
    }
    if required_here && arch.is_none() && spec_map.is_none() {
        return Err(ParseCliError::new(
            "missing required option --arch or --spec-map (the mot substrate \
             needs a placement)",
        ));
    }
    Ok((arch, spec_map))
}

/// Resolves the substrate-selection options shared by `metrics` and
/// `faults`: the substrate itself, the multicast scheme (vcmesh-only),
/// and the placement (mot-only, but required there).
type SubstrateOptions = (Substrate, McastScheme, Option<Architecture>, Option<String>);

fn substrate_options(flags: &BTreeMap<String, String>) -> Result<SubstrateOptions, ParseCliError> {
    let substrate: Substrate = flags
        .get("substrate")
        .map(|raw| parse_value("substrate", raw))
        .transpose()?
        .unwrap_or(Substrate::Mot);
    let mcast: McastScheme = flags
        .get("mcast")
        .map(|raw| parse_value("mcast", raw))
        .transpose()?
        .unwrap_or_default();
    if flags.contains_key("mcast") && substrate != Substrate::Vcmesh {
        return Err(ParseCliError::new(
            "--mcast applies to the vcmesh substrate only (add --substrate vcmesh)",
        ));
    }
    let (arch, spec_map) = placement_options(flags, substrate == Substrate::Mot)?;
    if substrate != Substrate::Mot && spec_map.is_some() {
        return Err(ParseCliError::new(
            "--spec-map applies to the mot substrate only",
        ));
    }
    Ok((substrate, mcast, arch, spec_map))
}

/// Parses a full argument vector (excluding the program name).
///
/// # Errors
///
/// Returns a [`ParseCliError`] with a user-facing message for any malformed
/// invocation.
pub fn parse(args: &[String]) -> Result<Command, ParseCliError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" => {
            let mut extra = vec!["arch", "spec-map", "benchmark", "rate", "seeds"];
            extra.extend(STREAM_KEYS);
            let flags = collect_flags(rest, &with_common(&extra))?;
            let seeds: usize = flags
                .get("seeds")
                .map(|raw| parse_value("seeds", raw))
                .transpose()?
                .unwrap_or(1);
            if seeds == 0 {
                return Err(ParseCliError::new("--seeds must be at least 1"));
            }
            if seeds > 1 && flags.contains_key("stream") {
                return Err(ParseCliError::new(
                    "--stream is not available with --seeds > 1 (one stream per run; \
                     stream a single seed instead)",
                ));
            }
            let (arch, spec_map) = placement_options(&flags, true)?;
            Ok(Command::Run {
                arch,
                spec_map,
                benchmark: parse_value("benchmark", required(&flags, "benchmark")?)?,
                rate: parse_value("rate", required(&flags, "rate")?)?,
                seeds,
                common: common_options(&flags)?,
            })
        }
        "saturate" => {
            let flags = collect_flags(
                rest,
                &with_common(&["arch", "benchmark", "quick", "probe-fan"]),
            )?;
            let probe_fan: usize = flags
                .get("probe-fan")
                .map(|raw| parse_value("probe-fan", raw))
                .transpose()?
                .unwrap_or(1);
            if probe_fan == 0 {
                return Err(ParseCliError::new("--probe-fan must be at least 1"));
            }
            Ok(Command::Saturate {
                arch: parse_value("arch", required(&flags, "arch")?)?,
                benchmark: parse_value("benchmark", required(&flags, "benchmark")?)?,
                quick: flags.contains_key("quick"),
                probe_fan,
                common: common_options(&flags)?,
            })
        }
        "sweep" => {
            let flags = collect_flags(
                rest,
                &with_common(&["arch", "benchmark", "from", "to", "steps"]),
            )?;
            let from: f64 = parse_value("from", required(&flags, "from")?)?;
            let to: f64 = parse_value("to", required(&flags, "to")?)?;
            let steps: usize = parse_value("steps", required(&flags, "steps")?)?;
            if !(from > 0.0 && to > from) {
                return Err(ParseCliError::new("sweep requires 0 < --from < --to"));
            }
            if steps < 2 {
                return Err(ParseCliError::new("--steps must be at least 2"));
            }
            Ok(Command::Sweep {
                arch: parse_value("arch", required(&flags, "arch")?)?,
                benchmark: parse_value("benchmark", required(&flags, "benchmark")?)?,
                from,
                to,
                steps,
                common: common_options(&flags)?,
            })
        }
        "mesh" => {
            let mut extra = vec!["benchmark", "rate"];
            extra.extend(STREAM_KEYS);
            let flags = collect_flags(rest, &{
                let mut keys = with_common(&extra);
                keys.push("cols");
                keys.push("rows");
                keys
            })?;
            Ok(Command::Mesh {
                benchmark: parse_value("benchmark", required(&flags, "benchmark")?)?,
                rate: parse_value("rate", required(&flags, "rate")?)?,
                cols: flags
                    .get("cols")
                    .map(|raw| parse_value("cols", raw))
                    .transpose()?
                    .unwrap_or(4),
                rows: flags
                    .get("rows")
                    .map(|raw| parse_value("rows", raw))
                    .transpose()?
                    .unwrap_or(4),
                common: common_options(&flags)?,
            })
        }
        "metrics" => {
            let mut extra = vec![
                "arch",
                "spec-map",
                "benchmark",
                "rate",
                "substrate",
                "mcast",
                "metrics-out",
                "trace-format",
                "trace-out",
                "trace-limit",
                "bin-ns",
            ];
            extra.extend(STREAM_KEYS);
            let flags = collect_flags(rest, &with_common(&extra))?;
            let (substrate, mcast, arch, spec_map) = substrate_options(&flags)?;
            let explicit_format: Option<TraceFormat> = flags
                .get("trace-format")
                .map(|raw| parse_value("trace-format", raw))
                .transpose()?;
            let trace_out = flags.get("trace-out").cloned();
            if explicit_format.is_some() && trace_out.is_none() {
                return Err(ParseCliError::new(
                    "--trace-format requires --trace-out <path>",
                ));
            }
            // --trace-out alone implies the round-trippable default.
            let trace_format = explicit_format.or(trace_out.as_ref().map(|_| TraceFormat::Ndjson));
            let bin_ns: u64 = flags
                .get("bin-ns")
                .map(|raw| parse_ns("bin-ns", raw, 1))
                .transpose()?
                .unwrap_or(100);
            if let Some(raw) = flags.get("stream-window-ns") {
                let window: u64 = parse_value("stream-window-ns", raw)?;
                if window == 0 || !window.is_multiple_of(bin_ns) {
                    return Err(ParseCliError::new(format!(
                        "--stream-window-ns ({window}) must be a non-zero multiple of \
                         --bin-ns ({bin_ns})"
                    )));
                }
            }
            let trace_limit: usize = flags
                .get("trace-limit")
                .map(|raw| parse_value("trace-limit", raw))
                .transpose()?
                .unwrap_or(100_000);
            Ok(Command::Metrics {
                arch,
                spec_map,
                benchmark: parse_value("benchmark", required(&flags, "benchmark")?)?,
                rate: parse_value("rate", required(&flags, "rate")?)?,
                substrate,
                mcast,
                bin_ns,
                metrics_out: flags.get("metrics-out").cloned(),
                trace_format,
                trace_out,
                trace_limit,
                common: common_options(&flags)?,
            })
        }
        "analyze" => {
            let flags = collect_flags(
                rest,
                &[
                    "trace-in",
                    "report-out",
                    "top",
                    "heatmap",
                    "lenient",
                    "profile",
                ],
            )?;
            let top: usize = flags
                .get("top")
                .map(|raw| parse_value("top", raw))
                .transpose()?
                .unwrap_or(10);
            if top == 0 {
                return Err(ParseCliError::new("--top must be at least 1"));
            }
            Ok(Command::Analyze {
                trace_in: required(&flags, "trace-in")?.to_string(),
                report_out: flags.get("report-out").cloned(),
                top,
                heatmap: flags.contains_key("heatmap"),
                lenient: flags.contains_key("lenient"),
                profile: flags.get("profile").cloned(),
            })
        }
        "faults" => {
            let mut extra = vec![
                "arch",
                "spec-map",
                "benchmark",
                "rate",
                "substrate",
                "mcast",
                "plan",
                "fault-rate",
                "oracle",
                "report-out",
            ];
            extra.extend(STREAM_KEYS);
            let flags = collect_flags(rest, &with_common(&extra))?;
            let (substrate, mcast, arch, spec_map) = substrate_options(&flags)?;
            let fault_rate: f64 = flags
                .get("fault-rate")
                .map(|raw| parse_value("fault-rate", raw))
                .transpose()?
                .unwrap_or(0.15);
            if !(fault_rate > 0.0 && fault_rate <= 1.0) {
                return Err(ParseCliError::new("--fault-rate must be in (0, 1]"));
            }
            Ok(Command::Faults {
                arch,
                spec_map,
                benchmark: parse_value("benchmark", required(&flags, "benchmark")?)?,
                rate: parse_value("rate", required(&flags, "rate")?)?,
                substrate,
                mcast,
                plan: flags.get("plan").cloned(),
                fault_rate,
                oracle: flags.contains_key("oracle"),
                report_out: flags.get("report-out").cloned(),
                common: common_options(&flags)?,
            })
        }
        "explore" => {
            // The per-run-only keys are accepted by the collector solely
            // so their rejection can explain the right alternative
            // instead of a generic "unknown option".
            let flags = collect_flags(
                rest,
                &[
                    "size",
                    "seed",
                    "flits",
                    "warmup-ns",
                    "measure-ns",
                    "jobs",
                    "shards",
                    "benchmark",
                    "rate",
                    "granularity",
                    "beam",
                    "max-points",
                    "guard",
                    "tolerance",
                    "report-out",
                    "smoke",
                    "plan",
                    "fault-rate",
                    "oracle",
                    "stream",
                    "stream-window-ns",
                    "stream-trace",
                    "watch-fatal",
                    "profile",
                    "progress",
                ],
            )?;
            for key in ["plan", "fault-rate", "oracle"] {
                if flags.contains_key(key) {
                    return Err(ParseCliError::new(format!(
                        "explore scores fault-free runs; --{key} is not available \
                         (replay one placement under faults with \
                         `asynoc faults --spec-map <map>`)"
                    )));
                }
            }
            for key in ["stream", "stream-window-ns", "stream-trace", "watch-fatal"] {
                if flags.contains_key(key) {
                    return Err(ParseCliError::new(format!(
                        "explore drives many runs through one invocation; --{key} is \
                         not available (stream one placement with \
                         `asynoc metrics --spec-map <map> --stream <path>`)"
                    )));
                }
            }
            for key in ["profile", "progress"] {
                if flags.contains_key(key) {
                    return Err(ParseCliError::new(format!(
                        "explore drives many runs through one invocation; --{key} is \
                         not available (profile one placement with \
                         `asynoc run --spec-map <map> --profile <path>`)"
                    )));
                }
            }
            let granularity: Granularity = flags
                .get("granularity")
                .map(|raw| parse_value("granularity", raw))
                .transpose()?
                .unwrap_or(Granularity::Level);
            let beam: usize = flags
                .get("beam")
                .map(|raw| parse_value("beam", raw))
                .transpose()?
                .unwrap_or(4);
            if beam == 0 {
                return Err(ParseCliError::new("--beam must be at least 1"));
            }
            let max_points: Option<usize> = flags
                .get("max-points")
                .map(|raw| parse_value("max-points", raw))
                .transpose()?;
            if max_points == Some(0) {
                return Err(ParseCliError::new("--max-points must be at least 1"));
            }
            let guard = match flags.get("guard").map(String::as_str) {
                None => Some(Architecture::OptHybridSpeculative),
                Some("none") => None,
                Some(raw) => Some(parse_value::<Architecture>("guard", raw)?),
            };
            let tolerance: f64 = flags
                .get("tolerance")
                .map(|raw| parse_value("tolerance", raw))
                .transpose()?
                .unwrap_or(0.05);
            if tolerance.is_nan() || tolerance < 0.0 {
                return Err(ParseCliError::new("--tolerance must be >= 0"));
            }
            Ok(Command::Explore {
                benchmark: flags
                    .get("benchmark")
                    .map(|raw| parse_value("benchmark", raw))
                    .transpose()?,
                rate: flags
                    .get("rate")
                    .map(|raw| parse_value("rate", raw))
                    .transpose()?,
                granularity,
                beam,
                max_points,
                guard,
                tolerance,
                report_out: flags.get("report-out").cloned(),
                smoke: flags.contains_key("smoke"),
                common: common_options(&flags)?,
            })
        }
        "watch" => {
            let flags = collect_flags(rest, &["stream-in", "fold", "once", "interval-ms"])?;
            let interval_ms: u64 = flags
                .get("interval-ms")
                .map(|raw| parse_value("interval-ms", raw))
                .transpose()?
                .unwrap_or(200);
            if interval_ms == 0 {
                return Err(ParseCliError::new("--interval-ms must be at least 1"));
            }
            let stream_in = required(&flags, "stream-in")?.to_string();
            Ok(Command::Watch {
                // Stdin cannot be tailed, so `-` implies a single pass.
                once: flags.contains_key("once") || stream_in == "-",
                stream_in,
                fold: flags.get("fold").cloned(),
                interval_ms,
            })
        }
        "info" => {
            let flags = collect_flags(rest, &["arch", "size"])?;
            let arch = flags
                .get("arch")
                .map(|raw| parse_value::<Architecture>("arch", raw))
                .transpose()?;
            let size = flags
                .get("size")
                .map(|raw| parse_value::<usize>("size", raw))
                .transpose()?
                .unwrap_or(8);
            Ok(Command::Info { arch, size })
        }
        other => Err(ParseCliError::new(format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]), Ok(Command::Help));
        assert_eq!(parse(&argv("help")), Ok(Command::Help));
        assert_eq!(parse(&argv("--help")), Ok(Command::Help));
    }

    #[test]
    fn run_with_defaults() {
        let cmd = parse(&argv(
            "run --arch OptHybridSpeculative --benchmark Multicast10 --rate 0.4",
        ))
        .expect("valid invocation");
        assert_eq!(
            cmd,
            Command::Run {
                arch: Some(Architecture::OptHybridSpeculative),
                spec_map: None,
                benchmark: Benchmark::Multicast10,
                rate: 0.4,
                seeds: 1,
                common: CommonOptions::default(),
            }
        );
    }

    #[test]
    fn run_with_all_options() {
        let cmd = parse(&argv(
            "run --arch baseline --benchmark shuffle --rate 1.0 --size 16 \
             --seed 7 --flits 3 --warmup-ns 100 --measure-ns 1000",
        ))
        .expect("valid invocation");
        let Command::Run { arch, common, .. } = cmd else {
            panic!("expected run");
        };
        assert_eq!(arch, Some(Architecture::Baseline));
        assert_eq!(common.size, 16);
        assert_eq!(common.seed, 7);
        assert_eq!(common.flits, 3);
        assert_eq!(common.warmup_ns, Some(100));
        assert_eq!(common.measure_ns, Some(1000));
    }

    #[test]
    fn saturate_quick_flag() {
        let cmd = parse(&argv(
            "saturate --arch Baseline --benchmark Hotspot --quick",
        ))
        .expect("valid invocation");
        assert!(matches!(cmd, Command::Saturate { quick: true, .. }));
        let cmd =
            parse(&argv("saturate --arch Baseline --benchmark Hotspot")).expect("valid invocation");
        assert!(matches!(cmd, Command::Saturate { quick: false, .. }));
    }

    #[test]
    fn sweep_validation() {
        assert!(parse(&argv(
            "sweep --arch Baseline --benchmark Shuffle --from 0.1 --to 1.0 --steps 5"
        ))
        .is_ok());
        assert!(parse(&argv(
            "sweep --arch Baseline --benchmark Shuffle --from 1.0 --to 0.1 --steps 5"
        ))
        .is_err());
        assert!(parse(&argv(
            "sweep --arch Baseline --benchmark Shuffle --from 0.1 --to 1.0 --steps 1"
        ))
        .is_err());
    }

    #[test]
    fn info_defaults_and_overrides() {
        assert_eq!(
            parse(&argv("info")),
            Ok(Command::Info {
                arch: None,
                size: 8
            })
        );
        assert_eq!(
            parse(&argv("info --arch OptAllSpeculative --size 16")),
            Ok(Command::Info {
                arch: Some(Architecture::OptAllSpeculative),
                size: 16
            })
        );
    }

    #[test]
    fn errors_are_specific() {
        let err = parse(&argv("run --benchmark Shuffle --rate 0.4")).unwrap_err();
        assert!(err.message().contains("--arch"));
        let err = parse(&argv("run --arch Baseline --benchmark Shuffle --rate nope")).unwrap_err();
        assert!(err.message().contains("--rate"));
        let err = parse(&argv("run --arch Baseline --bogus 3")).unwrap_err();
        assert!(err.message().contains("--bogus"));
        let err = parse(&argv("fly --arch Baseline")).unwrap_err();
        assert!(err.message().contains("fly"));
        let err = parse(&argv("run --arch Warp9 --benchmark Shuffle --rate 0.4")).unwrap_err();
        assert!(err.message().contains("Warp9"));
        let err = parse(&argv("run positional")).unwrap_err();
        assert!(err.message().contains("positional"));
        let err = parse(&argv(
            "run --arch Baseline --arch Baseline --benchmark Shuffle --rate 0.4",
        ))
        .unwrap_err();
        assert!(err.message().contains("twice"));
        let err = parse(&argv("run --arch")).unwrap_err();
        assert!(err.message().contains("requires a value"));
    }

    #[test]
    fn jobs_seeds_and_probe_fan_parse() {
        let cmd = parse(&argv(
            "run --arch Baseline --benchmark Shuffle --rate 0.4 --seeds 4 --jobs 4",
        ))
        .expect("valid invocation");
        let Command::Run { seeds, common, .. } = cmd else {
            panic!("expected run");
        };
        assert_eq!(seeds, 4);
        assert_eq!(common.jobs, 4);

        let cmd = parse(&argv(
            "saturate --arch Baseline --benchmark Hotspot --quick --probe-fan 3 --jobs 2",
        ))
        .expect("valid invocation");
        let Command::Saturate {
            probe_fan, common, ..
        } = cmd
        else {
            panic!("expected saturate");
        };
        assert_eq!(probe_fan, 3);
        assert_eq!(common.jobs, 2);

        let cmd = parse(&argv(
            "sweep --arch Baseline --benchmark Shuffle --from 0.1 --to 1.0 --steps 5 --jobs 3",
        ))
        .expect("valid invocation");
        let Command::Sweep { common, .. } = cmd else {
            panic!("expected sweep");
        };
        assert_eq!(common.jobs, 3);
    }

    #[test]
    fn zero_jobs_seeds_and_probe_fan_rejected() {
        for line in [
            "run --arch Baseline --benchmark Shuffle --rate 0.4 --jobs 0",
            "run --arch Baseline --benchmark Shuffle --rate 0.4 --seeds 0",
            "saturate --arch Baseline --benchmark Hotspot --probe-fan 0",
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert!(err.message().contains("at least 1"), "{line}: {err}");
        }
    }

    #[test]
    fn mesh_command_with_defaults_and_overrides() {
        let cmd = parse(&argv("mesh --benchmark Tornado --rate 0.2")).expect("valid");
        assert!(matches!(
            cmd,
            Command::Mesh {
                cols: 4,
                rows: 4,
                benchmark: Benchmark::Tornado,
                ..
            }
        ));
        let cmd = parse(&argv(
            "mesh --benchmark Shuffle --rate 0.2 --cols 8 --rows 8",
        ))
        .expect("valid");
        assert!(matches!(
            cmd,
            Command::Mesh {
                cols: 8,
                rows: 8,
                ..
            }
        ));
    }

    #[test]
    fn metrics_defaults_and_overrides() {
        let cmd = parse(&argv(
            "metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3",
        ))
        .expect("valid invocation");
        assert_eq!(
            cmd,
            Command::Metrics {
                arch: Some(Architecture::BasicHybridSpeculative),
                spec_map: None,
                benchmark: Benchmark::Multicast10,
                rate: 0.3,
                substrate: Substrate::Mot,
                mcast: McastScheme::XyTree,
                bin_ns: 100,
                metrics_out: None,
                trace_format: None,
                trace_out: None,
                trace_limit: 100_000,
                common: CommonOptions::default(),
            }
        );
        let cmd = parse(&argv(
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 --bin-ns 50 \
             --metrics-out m.json --trace-format chrome --trace-out t.json --trace-limit 500",
        ))
        .expect("valid invocation");
        let Command::Metrics {
            bin_ns,
            metrics_out,
            trace_format,
            trace_out,
            trace_limit,
            ..
        } = cmd
        else {
            panic!("expected metrics");
        };
        assert_eq!(bin_ns, 50);
        assert_eq!(metrics_out, Some("m.json".to_string()));
        assert_eq!(trace_format, Some(TraceFormat::Chrome));
        assert_eq!(trace_out, Some("t.json".to_string()));
        assert_eq!(trace_limit, 500);
    }

    #[test]
    fn metrics_mesh_substrate_needs_no_arch() {
        let cmd = parse(&argv(
            "metrics --substrate mesh --benchmark Tornado --rate 0.1",
        ))
        .expect("valid");
        assert!(matches!(
            cmd,
            Command::Metrics {
                substrate: Substrate::Mesh,
                arch: None,
                ..
            }
        ));
    }

    #[test]
    fn vcmesh_substrate_parses_with_and_without_mcast() {
        let cmd = parse(&argv(
            "metrics --substrate vcmesh --benchmark Multicast5 --rate 0.1",
        ))
        .expect("valid");
        assert!(matches!(
            cmd,
            Command::Metrics {
                substrate: Substrate::Vcmesh,
                mcast: McastScheme::XyTree,
                arch: None,
                ..
            }
        ));
        let cmd = parse(&argv(
            "metrics --substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1",
        ))
        .expect("valid");
        assert!(matches!(
            cmd,
            Command::Metrics {
                substrate: Substrate::Vcmesh,
                mcast: McastScheme::Dpm,
                ..
            }
        ));
        let cmd = parse(&argv(
            "faults --substrate vcmesh --mcast xy-tree --benchmark Tornado --rate 0.1",
        ))
        .expect("valid");
        assert!(matches!(
            cmd,
            Command::Faults {
                substrate: Substrate::Vcmesh,
                mcast: McastScheme::XyTree,
                ..
            }
        ));
    }

    #[test]
    fn mcast_is_vcmesh_only_and_validated() {
        // --mcast on a non-vcmesh substrate is rejected.
        let err = parse(&argv(
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 --mcast dpm",
        ))
        .unwrap_err();
        assert!(err.message().contains("vcmesh"), "{err}");
        let err = parse(&argv(
            "faults --substrate mesh --benchmark Shuffle --rate 0.2 --mcast dpm",
        ))
        .unwrap_err();
        assert!(err.message().contains("vcmesh"), "{err}");
        // Unknown scheme names are named in the error.
        let err = parse(&argv(
            "metrics --substrate vcmesh --benchmark Shuffle --rate 0.2 --mcast steiner",
        ))
        .unwrap_err();
        assert!(err.message().contains("steiner"), "{err}");
    }

    #[test]
    fn metrics_trace_out_alone_defaults_to_ndjson() {
        let cmd = parse(&argv(
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 --trace-out t.ndjson",
        ))
        .expect("valid");
        assert!(matches!(
            cmd,
            Command::Metrics {
                trace_format: Some(TraceFormat::Ndjson),
                ..
            }
        ));
    }

    #[test]
    fn metrics_validation_errors() {
        // mot substrate without an architecture.
        let err = parse(&argv("metrics --benchmark Shuffle --rate 0.2")).unwrap_err();
        assert!(err.message().contains("--arch"), "{err}");
        // trace format without a destination.
        let err = parse(&argv(
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 --trace-format ndjson",
        ))
        .unwrap_err();
        assert!(err.message().contains("--trace-out"), "{err}");
        // unknown enum values.
        let err = parse(&argv(
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 --substrate torus",
        ))
        .unwrap_err();
        assert!(err.message().contains("torus"), "{err}");
        let err = parse(&argv(
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 \
             --trace-format xml --trace-out t",
        ))
        .unwrap_err();
        assert!(err.message().contains("xml"), "{err}");
        // degenerate bin width.
        let err = parse(&argv(
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 --bin-ns 0",
        ))
        .unwrap_err();
        assert!(err.message().contains("bin-ns"), "{err}");
    }

    #[test]
    fn analyze_defaults_and_overrides() {
        let cmd = parse(&argv("analyze --trace-in t.ndjson")).expect("valid invocation");
        assert_eq!(
            cmd,
            Command::Analyze {
                trace_in: "t.ndjson".to_string(),
                report_out: None,
                top: 10,
                heatmap: false,
                lenient: false,
                profile: None,
            }
        );
        let cmd = parse(&argv(
            "analyze --trace-in t.ndjson --report-out r.json --top 3 --heatmap --lenient",
        ))
        .expect("valid invocation");
        assert_eq!(
            cmd,
            Command::Analyze {
                trace_in: "t.ndjson".to_string(),
                report_out: Some("r.json".to_string()),
                top: 3,
                heatmap: true,
                lenient: true,
                profile: None,
            }
        );
    }

    #[test]
    fn analyze_validation_errors() {
        let err = parse(&argv("analyze")).unwrap_err();
        assert!(err.message().contains("--trace-in"), "{err}");
        let err = parse(&argv("analyze --trace-in t --top 0")).unwrap_err();
        assert!(err.message().contains("--top"), "{err}");
        let err = parse(&argv("analyze --trace-in t --size 8")).unwrap_err();
        assert!(err.message().contains("--size"), "{err}");
    }

    #[test]
    fn faults_defaults_and_overrides() {
        let cmd = parse(&argv(
            "faults --arch Baseline --benchmark Shuffle --rate 0.2",
        ))
        .expect("valid invocation");
        assert_eq!(
            cmd,
            Command::Faults {
                arch: Some(Architecture::Baseline),
                spec_map: None,
                benchmark: Benchmark::Shuffle,
                rate: 0.2,
                substrate: Substrate::Mot,
                mcast: McastScheme::XyTree,
                plan: None,
                fault_rate: 0.15,
                oracle: false,
                report_out: None,
                common: CommonOptions::default(),
            }
        );
        let cmd = parse(&argv(
            "faults --substrate mesh --benchmark Tornado --rate 0.1 --plan stall:3:1:200 \
             --fault-rate 0.4 --oracle --report-out f.json --seed 7",
        ))
        .expect("valid invocation");
        let Command::Faults {
            arch,
            plan,
            fault_rate,
            oracle,
            report_out,
            common,
            ..
        } = cmd
        else {
            panic!("expected faults");
        };
        assert_eq!(arch, None);
        assert_eq!(plan, Some("stall:3:1:200".to_string()));
        assert!((fault_rate - 0.4).abs() < 1e-12);
        assert!(oracle);
        assert_eq!(report_out, Some("f.json".to_string()));
        assert_eq!(common.seed, 7);
    }

    #[test]
    fn faults_validation_errors() {
        let err = parse(&argv("faults --benchmark Shuffle --rate 0.2")).unwrap_err();
        assert!(err.message().contains("--arch"), "{err}");
        let err = parse(&argv(
            "faults --arch Baseline --benchmark Shuffle --rate 0.2 --fault-rate 0",
        ))
        .unwrap_err();
        assert!(err.message().contains("--fault-rate"), "{err}");
    }

    #[test]
    fn stream_flags_parse_on_single_run_commands() {
        for line in [
            "run --arch Baseline --benchmark Shuffle --rate 0.4",
            "mesh --benchmark Tornado --rate 0.1",
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2",
            "faults --arch Baseline --benchmark Shuffle --rate 0.2",
        ] {
            let cmd = parse(&argv(&format!(
                "{line} --stream s.ndjson --stream-window-ns 500 --stream-trace --watch-fatal"
            )))
            .expect("stream flags parse");
            let common = match cmd {
                Command::Run { common, .. }
                | Command::Mesh { common, .. }
                | Command::Metrics { common, .. }
                | Command::Faults { common, .. } => common,
                other => panic!("unexpected command {other:?}"),
            };
            assert_eq!(common.stream, Some("s.ndjson".to_string()));
            assert_eq!(common.stream_window_ns, Some(500));
            assert!(common.stream_trace);
            assert!(common.watch_fatal);
        }
    }

    #[test]
    fn stream_flags_are_rejected_where_meaningless() {
        // The search commands drive many runs through one invocation.
        for line in [
            "saturate --arch Baseline --benchmark Hotspot --stream s.ndjson",
            "sweep --arch Baseline --benchmark Shuffle --from 0.1 --to 0.2 --steps 2 \
             --stream s.ndjson",
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert!(err.message().contains("--stream"), "{err}");
        }
        // Seed replication would overwrite the one stream file.
        let err = parse(&argv(
            "run --arch Baseline --benchmark Shuffle --rate 0.4 --seeds 2 --stream s.ndjson",
        ))
        .unwrap_err();
        assert!(err.message().contains("--seeds"), "{err}");
        // The modifier flags need a stream to modify.
        let err = parse(&argv(
            "run --arch Baseline --benchmark Shuffle --rate 0.4 --watch-fatal",
        ))
        .unwrap_err();
        assert!(err.message().contains("requires --stream"), "{err}");
        // The metrics window must respect the bin grid.
        let err = parse(&argv(
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 --bin-ns 100 \
             --stream s.ndjson --stream-window-ns 150",
        ))
        .unwrap_err();
        assert!(err.message().contains("multiple"), "{err}");
    }

    #[test]
    fn profile_now_parses_on_saturate_and_sweep() {
        assert!(parse(&argv(
            "saturate --arch Baseline --benchmark Hotspot --quick --profile p.json"
        ))
        .is_ok());
        assert!(parse(&argv(
            "sweep --arch Baseline --benchmark Shuffle --from 0.1 --to 0.2 --steps 2 \
             --profile p.json"
        ))
        .is_ok());
    }

    #[test]
    fn watch_defaults_and_overrides() {
        assert_eq!(
            parse(&argv("watch --stream-in s.ndjson")),
            Ok(Command::Watch {
                stream_in: "s.ndjson".to_string(),
                fold: None,
                once: false,
                interval_ms: 200,
            })
        );
        assert_eq!(
            parse(&argv(
                "watch --stream-in s.ndjson --fold m.json --once --interval-ms 50"
            )),
            Ok(Command::Watch {
                stream_in: "s.ndjson".to_string(),
                fold: Some("m.json".to_string()),
                once: true,
                interval_ms: 50,
            })
        );
        // Stdin cannot be tailed.
        assert!(matches!(
            parse(&argv("watch --stream-in -")),
            Ok(Command::Watch { once: true, .. })
        ));
        let err = parse(&argv("watch")).unwrap_err();
        assert!(err.message().contains("--stream-in"), "{err}");
    }

    #[test]
    fn spec_map_parses_on_run_metrics_and_faults() {
        for line in [
            "run --spec-map levels:sp,ns,ns --benchmark Multicast10 --rate 0.3",
            "metrics --spec-map levels:sp,ns,ns --benchmark Multicast10 --rate 0.3",
            "faults --spec-map levels:sp,ns,ns --benchmark Multicast10 --rate 0.3",
        ] {
            let cmd = parse(&argv(line)).expect("spec-map parses");
            let (arch, spec_map) = match cmd {
                Command::Run { arch, spec_map, .. }
                | Command::Metrics { arch, spec_map, .. }
                | Command::Faults { arch, spec_map, .. } => (arch, spec_map),
                other => panic!("unexpected command {other:?}"),
            };
            assert_eq!(arch, None);
            assert_eq!(spec_map, Some("levels:sp,ns,ns".to_string()));
        }
    }

    #[test]
    fn spec_map_and_arch_are_mutually_exclusive() {
        for line in [
            "run --arch Baseline --spec-map levels:ns,ns,ns --benchmark Shuffle --rate 0.2",
            "metrics --arch Baseline --spec-map Baseline --benchmark Shuffle --rate 0.2",
            "faults --arch Baseline --spec-map Baseline --benchmark Shuffle --rate 0.2",
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert!(err.message().contains("mutually exclusive"), "{err}");
        }
        // Non-MoT substrates take neither.
        let err = parse(&argv(
            "metrics --substrate mesh --spec-map Baseline --benchmark Shuffle --rate 0.2",
        ))
        .unwrap_err();
        assert!(err.message().contains("mot substrate only"), "{err}");
        // The placement requirement names both spellings.
        let err = parse(&argv("run --benchmark Shuffle --rate 0.2")).unwrap_err();
        assert!(err.message().contains("--arch or --spec-map"), "{err}");
    }

    #[test]
    fn explore_defaults_and_overrides() {
        let cmd = parse(&argv("explore --smoke")).expect("valid invocation");
        assert_eq!(
            cmd,
            Command::Explore {
                benchmark: None,
                rate: None,
                granularity: Granularity::Level,
                beam: 4,
                max_points: None,
                guard: Some(Architecture::OptHybridSpeculative),
                tolerance: 0.05,
                report_out: None,
                smoke: true,
                common: CommonOptions::default(),
            }
        );
        let cmd = parse(&argv(
            "explore --benchmark Multicast5 --rate 0.25 --granularity node --beam 2 \
             --max-points 40 --guard OptNonSpeculative --tolerance 0.1 --report-out e.json \
             --size 4 --jobs 2",
        ))
        .expect("valid invocation");
        let Command::Explore {
            benchmark,
            rate,
            granularity,
            beam,
            max_points,
            guard,
            tolerance,
            report_out,
            smoke,
            common,
        } = cmd
        else {
            panic!("expected explore");
        };
        assert_eq!(benchmark, Some(Benchmark::Multicast5));
        assert_eq!(rate, Some(0.25));
        assert_eq!(granularity, Granularity::Node);
        assert_eq!(beam, 2);
        assert_eq!(max_points, Some(40));
        assert_eq!(guard, Some(Architecture::OptNonSpeculative));
        assert!((tolerance - 0.1).abs() < 1e-12);
        assert_eq!(report_out, Some("e.json".to_string()));
        assert!(!smoke);
        assert_eq!(common.size, 4);
        assert_eq!(common.jobs, 2);
        // --guard none disables the regression guard.
        let cmd = parse(&argv("explore --guard none")).expect("valid invocation");
        assert!(matches!(cmd, Command::Explore { guard: None, .. }));
    }

    #[test]
    fn explore_rejects_per_run_flags_with_pointers() {
        // Fault-campaign flags name the faults alternative.
        for line in [
            "explore --plan stall:3:1:200",
            "explore --fault-rate 0.2",
            "explore --oracle",
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert!(err.message().contains("faults --spec-map"), "{err}");
        }
        // Streaming flags name the metrics alternative.
        for line in [
            "explore --stream s.ndjson",
            "explore --stream-window-ns 500",
            "explore --stream-trace",
            "explore --watch-fatal",
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert!(err.message().contains("metrics --spec-map"), "{err}");
        }
        // Host-side observability flags name the run alternative.
        for line in ["explore --profile p.json", "explore --progress"] {
            let err = parse(&argv(line)).unwrap_err();
            assert!(err.message().contains("run --spec-map"), "{err}");
        }
    }

    #[test]
    fn explore_validation_errors() {
        let err = parse(&argv("explore --beam 0")).unwrap_err();
        assert!(err.message().contains("--beam"), "{err}");
        let err = parse(&argv("explore --max-points 0")).unwrap_err();
        assert!(err.message().contains("--max-points"), "{err}");
        let err = parse(&argv("explore --tolerance -0.5")).unwrap_err();
        assert!(err.message().contains("--tolerance"), "{err}");
        let err = parse(&argv("explore --granularity tile")).unwrap_err();
        assert!(err.message().contains("tile"), "{err}");
        let err = parse(&argv("explore --guard Warp9")).unwrap_err();
        assert!(err.message().contains("Warp9"), "{err}");
    }

    #[test]
    fn benchmark_aliases_parse() {
        let cmd = parse(&argv(
            "run --arch Baseline --benchmark Multicast_static --rate 0.2",
        ))
        .expect("paper spelling accepted");
        assert!(matches!(
            cmd,
            Command::Run {
                benchmark: Benchmark::MulticastStatic,
                ..
            }
        ));
    }
}
