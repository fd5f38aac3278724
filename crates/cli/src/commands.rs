//! Command execution, writing human-readable reports to any `Write` sink
//! (tests capture a `Vec<u8>`, `main` passes stdout).

use std::io::{self, Read, Write};

use asynoc::harness::{saturation_of, Quality};
use asynoc::{
    drive, parallel_map, Architecture, Duration, FanoutKind, MotSize, Network, NetworkConfig,
    Phases, RunConfig, RunReport, SimError, SpecMap,
};
use asynoc_mesh::{MeshReport, Wormhole};
use asynoc_telemetry::{JsonValue, Recorder};

use crate::args::{help, Command, CommonOptions};
use crate::fabric::Fabric;
use crate::metrics::config_json;
use crate::profile::ProfileWriter;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Simulation/configuration error.
    Sim(SimError),
    /// Output error.
    Io(io::Error),
    /// Invalid combination the parser cannot catch (e.g. bad size).
    Invalid(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Sim(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        CliError::Sim(e)
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Io(e)
    }
}

/// An I/O failure on the file a flag names says which flag and which
/// path, not just what the OS thought of it.
fn named<'a>(flag: &'a str, path: &'a str) -> impl Fn(io::Error) -> CliError + 'a {
    move |e| CliError::Io(io::Error::new(e.kind(), format!("{flag} {path}: {e}")))
}

/// Creates the file the output flag `flag` names. Commands call this
/// before they work, so a path that cannot be written costs no run.
pub(crate) fn create_output(flag: &str, path: &str) -> Result<std::fs::File, CliError> {
    std::fs::File::create(path).map_err(named(flag, path))
}

/// [`create_output`] for a flag that may be absent.
pub(crate) fn create_optional(
    flag: &str,
    path: Option<&String>,
) -> Result<Option<std::fs::File>, CliError> {
    path.map(|path| create_output(flag, path)).transpose()
}

/// Opens the file the input flag `flag` names.
pub(crate) fn open_input(flag: &str, path: &str) -> Result<std::fs::File, CliError> {
    std::fs::File::open(path).map_err(named(flag, path))
}

/// Reads the whole of the file [`open_input`] opens.
pub(crate) fn read_input(flag: &str, path: &str) -> Result<String, CliError> {
    let mut text = String::new();
    open_input(flag, path)?
        .read_to_string(&mut text)
        .map_err(named(flag, path))?;
    Ok(text)
}

/// Resolves `--arch` / `--spec-map` into a validated [`SpecMap`] at the
/// `--size` in effect. Accepts preset names, the `levels:`/`node:` text
/// grammar, and `@path` JSON documents.
pub(crate) fn resolve_spec_map(
    arch: Option<Architecture>,
    spec_map: Option<&String>,
    common: &CommonOptions,
) -> Result<SpecMap, CliError> {
    let size = MotSize::new(common.size).map_err(|e| CliError::Invalid(format!("--size: {e}")))?;
    match (arch, spec_map) {
        (Some(arch), None) => Ok(SpecMap::preset(arch, size)),
        (None, Some(raw)) => {
            if let Some(path) = raw.strip_prefix('@') {
                let text = read_input("--spec-map", path)?;
                let doc = JsonValue::parse(&text)
                    .map_err(|e| CliError::Invalid(format!("--spec-map {path}: {e}")))?;
                spec_map_from_json(size, &doc)
                    .map_err(|detail| CliError::Invalid(format!("--spec-map {path}: {detail}")))
            } else {
                SpecMap::parse(size, raw).map_err(|e| CliError::Invalid(format!("--spec-map: {e}")))
            }
        }
        // The parser enforces exactly-one; this covers direct Command construction.
        _ => Err(CliError::Invalid(
            "exactly one of --arch / --spec-map selects the placement".to_string(),
        )),
    }
}

/// The JSON `--spec-map @file` forms: `{"preset": "<Architecture>"}` or
/// `{"levels": ["sp", ...], "nodes": [{"tree": 0, "level": 1, "index": 0,
/// "kind": "ns"}, ...]}`.
fn spec_map_from_json(size: MotSize, doc: &JsonValue) -> Result<SpecMap, String> {
    if let Some(preset) = doc.get("preset") {
        let name = preset
            .as_str()
            .ok_or_else(|| "\"preset\" must be an architecture name string".to_string())?;
        let arch: Architecture = name.parse().map_err(|e| format!("\"preset\": {e}"))?;
        return Ok(SpecMap::preset(arch, size));
    }
    let levels = doc
        .get("levels")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "expected a \"preset\" string or a \"levels\" array".to_string())?;
    let mut kinds = Vec::with_capacity(levels.len());
    for (i, level) in levels.iter().enumerate() {
        let token = level
            .as_str()
            .ok_or_else(|| format!("\"levels\"[{i}] must be a fanout-kind token string"))?;
        kinds.push(
            FanoutKind::parse_token(token)
                .ok_or_else(|| format!("\"levels\"[{i}]: unknown fanout kind `{token}`"))?,
        );
    }
    let mut map = SpecMap::from_levels(size, kinds).map_err(|e| e.to_string())?;
    if let Some(nodes) = doc.get("nodes").and_then(JsonValue::as_array) {
        for (i, node) in nodes.iter().enumerate() {
            let field = |key: &str| -> Result<usize, String> {
                node.get(key)
                    .and_then(JsonValue::as_u64)
                    .and_then(|v| usize::try_from(v).ok())
                    .ok_or_else(|| format!("\"nodes\"[{i}].{key} must be a non-negative integer"))
            };
            let token = node
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("\"nodes\"[{i}].kind must be a fanout-kind token"))?;
            let kind = FanoutKind::parse_token(token)
                .ok_or_else(|| format!("\"nodes\"[{i}].kind: unknown fanout kind `{token}`"))?;
            map = map
                .node_at(field("tree")?, field("level")?, field("index")?)
                .and_then(|id| map.with_node(id, kind))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(map)
}

/// The placement's identity string: the `--arch` the run was started
/// with (on small fabrics several presets share one map, and the run
/// names the one it was given), else the first preset a `--spec-map`
/// equals, else its canonical `levels:` form. Recorded as `"arch"` in
/// every report config so any run is reproducible from its own output.
pub(crate) fn placement_id(arch: Option<Architecture>, map: &SpecMap) -> String {
    arch.or_else(|| map.label())
        .map_or_else(|| map.to_string(), |arch| arch.to_string())
}

/// Builds a network realizing an arbitrary speculation placement.
pub(crate) fn network_for(map: &SpecMap, common: &CommonOptions) -> Result<Network, CliError> {
    let config = NetworkConfig::with_spec_map(map.clone())
        .with_seed(common.seed)
        .with_flits_per_packet(common.flits);
    Ok(Network::new(config)?)
}

pub(crate) fn phases_for(benchmark: asynoc::Benchmark, common: &CommonOptions) -> Phases {
    let default = Phases::paper_standard(benchmark == asynoc::Benchmark::MulticastStatic);
    let warmup = common.warmup_ns.map_or(default.warmup(), Duration::from_ns);
    let measure = common
        .measure_ns
        .map_or(default.measure(), Duration::from_ns);
    Phases::new(warmup, measure)
}

/// The run `common` describes: its phases and the progress switch.
pub(crate) fn run_config(
    benchmark: asynoc::Benchmark,
    rate: f64,
    common: &CommonOptions,
) -> Result<RunConfig, CliError> {
    Ok(RunConfig::new(benchmark, rate)
        .map_err(SimError::from)?
        .with_phases(phases_for(benchmark, common))
        .with_progress(common.progress))
}

/// A latency column: the value, or `-` when no packet completed.
fn or_dash(latency: Option<Duration>) -> String {
    latency.map_or("-".to_string(), |d| d.to_string())
}

/// Mean ± sample standard deviation over independent seeds.
struct SeedStats {
    mean: f64,
    std_dev: f64,
}

impl SeedStats {
    /// Aggregates one sample per seed (`--seeds` is at least 1).
    fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std_dev = if n > 1 {
            (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        SeedStats { mean, std_dev }
    }
}

/// `run --seeds K`: replicates one measurement over consecutive seeds,
/// fanned across `--jobs` workers, and reports per-seed rows plus the
/// mean ± sample standard deviation of the mean latency.
fn run_across_seeds(
    map: &SpecMap,
    identity: &str,
    benchmark: asynoc::Benchmark,
    rate: f64,
    seeds: usize,
    common: &CommonOptions,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let mut profiler = ProfileWriter::when(common.profile.as_ref(), "run")?;
    let seed_list: Vec<u64> = (0..seeds as u64).map(|k| common.seed + k).collect();
    let reports = parallel_map(common.jobs, seed_list, |seed| {
        let options = CommonOptions {
            seed,
            ..common.clone()
        };
        let net = network_for(map, &options)?;
        let run = run_config(benchmark, rate, &options)?;
        Ok::<_, CliError>((net.run(&run)?, options))
    });

    writeln!(
        out,
        "{identity} ({0}x{0}) x {benchmark} @ {rate} flits/ns per source, {seeds} seeds",
        common.size
    )?;
    writeln!(
        out,
        "{:<8} {:>10} {:>14} {:>12} {:>12}",
        "seed", "packets", "mean", "p99", "accepted"
    )?;
    let mut means_ps = Vec::with_capacity(seeds);
    for result in reports {
        let (report, options) = result?;
        if let Some(profiler) = profiler.as_mut() {
            let config = config_json(Some(identity), benchmark, rate, common.size, &options);
            profiler.add_run(config, &report.profile);
        }
        let mean = report.latency.mean();
        let p99 = report.latency.p99();
        means_ps.push(mean.map(|d| d.as_ps() as f64).unwrap_or_default());
        writeln!(
            out,
            "{:<8} {:>10} {:>14} {:>12} {:>11.0}%",
            options.seed,
            report.packets_measured,
            or_dash(mean),
            or_dash(p99),
            100.0 * report.acceptance()
        )?;
    }
    let stats = SeedStats::from_samples(&means_ps);
    writeln!(
        out,
        "mean latency across seeds: {:.0} ps +/- {:.0} ps (sample std dev)",
        stats.mean, stats.std_dev
    )?;
    if let Some(profiler) = profiler {
        profiler.finish()?;
    }
    Ok(())
}

/// One plain measurement run on `net`, shared by `run` and `mesh`: the
/// self-profile and the optional stream sink around [`drive`], the
/// command's text report from `print`, then the stream's end record
/// (throughput, power where the fabric has an energy model, counters).
fn single_run<F: Fabric>(
    command: &'static str,
    net: &F,
    config: JsonValue,
    run: &RunConfig,
    common: &CommonOptions,
    out: &mut dyn Write,
    print: impl FnOnce(&mut dyn Write, &F::Report) -> io::Result<()>,
) -> Result<(), CliError> {
    let mut profiler = ProfileWriter::when(common.profile.as_ref(), command)?;
    // The pair a `--stream` sink windows, binned by its flush window.
    let window = crate::stream::window(common, None);
    let (mut latency, mut series) = net.collectors(run.phases(), window);
    let mut sink = match &common.stream {
        Some(path) => Some(crate::stream::sink::<F>(
            path,
            common,
            config.clone(),
            window,
            crate::stream::DEFAULT_TRACE_LIMIT,
            &mut latency,
            &mut series,
        )?),
        None => None,
    };
    let report = match sink.as_mut() {
        Some(sink) => {
            let mut recorder = Recorder::new(net.site_of(), vec![sink]);
            drive(net, run, &mut [&mut recorder], None)
        }
        None => drive(net, run, &mut [], None),
    }
    .map_err(SimError::from)?;
    if let Some(profiler) = profiler.as_mut() {
        profiler.add_run(config, &report.profile);
    }
    print(out, &report)?;
    if let Some(profiler) = profiler {
        profiler.finish()?;
    }
    if let Some(sink) = sink {
        let (_, power) = F::energy_sections(&report, None, run.phases().measure());
        let throughput = crate::metrics::throughput_json(&report.throughput);
        let mut sections = vec![("throughput".to_string(), throughput)];
        if power != JsonValue::Null {
            sections.push(("power".to_string(), power));
        }
        let counters = crate::metrics::counters_json(&report);
        sections.push(("counters".to_string(), counters));
        let watchpoints = sink
            .finish(JsonValue::Object(sections), report.packets_incomplete)?
            .watchpoints;
        crate::stream::fatal_check(watchpoints, common)?;
    }
    Ok(())
}

fn print_run(out: &mut dyn Write, report: &RunReport) -> io::Result<()> {
    writeln!(out, "  packets measured : {}", report.packets_measured)?;
    if report.packets_incomplete > 0 {
        writeln!(
            out,
            "  WARNING          : {} packets never completed (saturated?)",
            report.packets_incomplete
        )?;
    }
    if report.acceptance() < 0.95 {
        writeln!(
            out,
            "  WARNING          : only {:.0}% of offered load accepted — past saturation",
            100.0 * report.acceptance()
        )?;
    }
    if let Some(mean) = report.latency.mean() {
        writeln!(out, "  latency mean     : {mean}")?;
        if let (Some(p50), Some(p99), Some(max)) = (
            report.latency.median(),
            report.latency.p99(),
            report.latency.max(),
        ) {
            writeln!(out, "  latency p50/p99  : {p50} / {p99} (max {max})")?;
        }
    }
    writeln!(out, "  throughput       : {}", report.throughput)?;
    writeln!(out, "  power            : {}", report.power)?;
    writeln!(out, "  flits throttled  : {}", report.flits_throttled)?;
    let rows = report.latency.equal_width(8);
    if let Some(peak) = rows.iter().map(|row| row.2).max() {
        writeln!(out, "  latency distribution:")?;
        for (low, high, count) in rows {
            let bar = "#".repeat((count as usize * 32).div_ceil(peak as usize));
            let (low, high) = (low.to_string(), high.to_string());
            writeln!(out, "    {low:>12} .. {high:<12} |{bar:<32}| {count}")?;
        }
    }
    Ok(())
}

fn print_mesh(out: &mut dyn Write, report: &MeshReport) -> io::Result<()> {
    writeln!(out, "  packets measured : {}", report.packets_measured)?;
    if report.packets_incomplete > 0 || report.acceptance() < 0.95 {
        writeln!(
            out,
            "  WARNING          : saturated ({} incomplete, {:.0}% accepted)",
            report.packets_incomplete,
            100.0 * report.acceptance()
        )?;
    }
    if let (Some(mean), Some(p99)) = (report.latency.mean(), report.latency.p99()) {
        writeln!(out, "  latency mean/p99 : {mean} / {p99}")?;
    }
    writeln!(out, "  throughput       : {}", report.throughput)?;
    writeln!(out, "  mean hops        : {:.2}", report.mean_hops)
}

/// Executes a parsed command, writing its report to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] on simulation or I/O failure.
pub fn execute(command: &Command, out: &mut dyn Write) -> Result<(), CliError> {
    match command {
        Command::Help(topic) => Ok(out.write_all(help(*topic).as_bytes())?),
        Command::Run {
            arch,
            spec_map,
            benchmark,
            rate,
            seeds,
            common,
        } => {
            let map = resolve_spec_map(*arch, spec_map.as_ref(), common)?;
            let identity = placement_id(*arch, &map);
            if *seeds > 1 {
                return run_across_seeds(&map, &identity, *benchmark, *rate, *seeds, common, out);
            }
            let net = network_for(&map, common)?;
            let size = common.size;
            let config = config_json(Some(&identity), *benchmark, *rate, size, common);
            let run = run_config(*benchmark, *rate, common)?;
            single_run("run", &net, config, &run, common, out, |out, report| {
                writeln!(
                    out,
                    "{identity} ({size}x{size}) x {benchmark} @ {rate} flits/ns per source"
                )?;
                print_run(out, report)
            })
        }
        Command::Saturate {
            arch,
            benchmark,
            quick,
            probe_fan,
            common,
        } => {
            let mut profiler = ProfileWriter::when(common.profile.as_ref(), "saturate")?;
            let net = network_for(&resolve_spec_map(Some(*arch), None, common)?, common)?;
            let mut quality = if *quick {
                Quality::quick()
            } else {
                Quality::paper()
            };
            quality.seed = common.seed;
            quality.probe_fan = *probe_fan;
            quality.jobs = common.jobs;
            // A profiled search writes one runs[] entry per bisection
            // probe (plus the plateau run), keyed by its offered rate.
            let (point, profiles) = saturation_of(&net, *benchmark, &quality)?;
            if let Some(profiler) = profiler.as_mut() {
                let identity = arch.to_string();
                for (rate, profile) in &profiles {
                    let config =
                        config_json(Some(&identity), *benchmark, *rate, common.size, common);
                    profiler.add_run(config, profile);
                }
            }
            writeln!(out, "{arch} x {benchmark} saturation:")?;
            writeln!(
                out,
                "  stable injected load : {:.2} flits/ns per source",
                point.injected_gfs
            )?;
            writeln!(
                out,
                "  delivered plateau    : {:.2} GF/s per source (Table 1 quantity)",
                point.delivered_gfs
            )?;
            if let Some(profiler) = profiler {
                profiler.finish()?;
            }
            Ok(())
        }
        Command::Sweep {
            arch,
            benchmark,
            from,
            to,
            steps,
            common,
        } => {
            let mut profiler = ProfileWriter::when(common.profile.as_ref(), "sweep")?;
            let net = network_for(&resolve_spec_map(Some(*arch), None, common)?, common)?;
            writeln!(out, "{arch} x {benchmark}: latency vs offered load")?;
            writeln!(
                out,
                "{:<12} {:>14} {:>12} {:>12}",
                "load", "mean", "p99", "accepted"
            )?;
            // Sweep points are independent runs — fan them across workers
            // and print in input order (one runs[] entry per point, too).
            let rates: Vec<f64> = (0..*steps)
                .map(|k| from + (to - from) * k as f64 / (*steps - 1) as f64)
                .collect();
            let points = parallel_map(common.jobs, rates, |rate| {
                let report = net.run(&run_config(*benchmark, rate, common)?)?;
                let mean = or_dash(report.latency.mean());
                let p99 = or_dash(report.latency.p99());
                Ok::<_, CliError>((rate, mean, p99, report.acceptance(), report.profile))
            });
            for point in points {
                let (rate, mean, p99, acceptance, profile) = point?;
                if let Some(profiler) = profiler.as_mut() {
                    let identity = arch.to_string();
                    let config =
                        config_json(Some(&identity), *benchmark, rate, common.size, common);
                    profiler.add_run(config, &profile);
                }
                writeln!(
                    out,
                    "{:<12.3} {:>14} {:>12} {:>11.0}%",
                    rate,
                    mean,
                    p99,
                    100.0 * acceptance
                )?;
            }
            if let Some(profiler) = profiler {
                profiler.finish()?;
            }
            Ok(())
        }
        Command::Mesh {
            benchmark,
            rate,
            cols,
            rows,
            common,
        } => {
            let net = crate::fabric::mesh::<Wormhole>(*cols, *rows, (), common)?;
            // The mesh is cols x rows; `size` records the column count
            // (square in every default invocation).
            let config = config_json(None, *benchmark, *rate, *cols, common);
            let run = run_config(*benchmark, *rate, common)?;
            let size = net.config().size();
            single_run("mesh", &net, config, &run, common, out, |out, report| {
                writeln!(out, "{size} x {benchmark} @ {rate} flits/ns per endpoint")?;
                print_mesh(out, report)
            })
        }
        Command::Metrics(request) => crate::metrics::execute_metrics(request, out),
        Command::Analyze(request) => crate::analyze::execute_analyze(request, out),
        Command::Faults(request) => crate::faults::execute_faults(request, out),
        Command::Explore(request) => crate::explore::execute_explore(request, out),
        Command::Watch(request) => crate::watch::execute_watch(request, out),
        Command::Info { arch, size } => {
            let size =
                MotSize::new(*size).map_err(|e| CliError::Invalid(format!("--size: {e}")))?;
            writeln!(
                out,
                "Network size {size}: {} fanout + {} fanin nodes, {} levels",
                size.total_fanout_nodes(),
                size.total_fanin_nodes(),
                size.levels()
            )?;
            writeln!(out)?;
            writeln!(
                out,
                "{:<26} {:>10} {:>12} {:>14} {:>14}",
                "architecture", "addr bits", "spec nodes", "area (um^2)", "leakage (mW)"
            )?;
            let list: Vec<Architecture> = match arch {
                Some(a) => vec![*a],
                None => Architecture::ALL.to_vec(),
            };
            for a in list {
                let net = Network::new(NetworkConfig::new(size, a))?;
                let map = net.config().spec_map();
                writeln!(
                    out,
                    "{:<26} {:>10} {:>12} {:>14.0} {:>14.2}",
                    a.to_string(),
                    map.address_bits(),
                    map.speculative_nodes(),
                    net.area_um2(),
                    net.leakage_mw()
                )?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_cli(line: &str) -> String {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let command = parse(&args).expect("valid invocation");
        let mut out = Vec::new();
        execute(&command, &mut out).expect("command succeeds");
        String::from_utf8(out).expect("utf8 output")
    }

    /// `argv => part; part; !absent`: what a command prints, and what it
    /// must not.
    const PRINTS: &[&str] = &[
        "help => USAGE; OptHybridSpeculative",
        "run --arch OptHybridSpeculative --benchmark Multicast10 --rate 0.3 --warmup-ns 80 \
         --measure-ns 600 => packets measured; latency mean; power; !WARNING",
        "run --arch Baseline --benchmark Uniform-random --rate 2.5 --warmup-ns 80 --measure-ns 400 \
         => WARNING",
        "run --spec-map levels:sp,ns,ns;node:0.1.0=ons --benchmark Multicast5 --rate 0.2 \
         --warmup-ns 40 --measure-ns 300 => levels:sp,ns,ns;node:0.1.0=ons (8x8) x",
        "run --arch Baseline --benchmark Shuffle --rate 0.3 --seeds 3 --warmup-ns 60 \
         --measure-ns 400 => 3 seeds; 42; 43; 44; mean latency across seeds",
        // Hotspot anchor: ~0.29 GF/s per source.
        "saturate --arch Baseline --benchmark Hotspot --quick => stable injected load; \
         delivered plateau; 0.2",
        "sweep --arch Baseline --benchmark Shuffle --from 0.2 --to 0.6 --steps 3 --warmup-ns 60 \
         --measure-ns 400 => 0.200; 0.400; 0.600",
        "mesh --benchmark Uniform-random --rate 0.15 --cols 4 --rows 4 --warmup-ns 60 \
         --measure-ns 500 => 4x4 mesh; mean hops; !WARNING",
        // 20: the 16x16 hybrid's address bits.
        "info --size 16 => Baseline; BasicNonSpeculative; BasicHybridSpeculative; \
         OptHybridSpeculative; OptNonSpeculative; OptAllSpeculative; 20",
        "info --arch OptAllSpeculative => OptAllSpeculative; !BasicNonSpeculative",
    ];

    #[test]
    fn seed_stats_mean_and_deviation() {
        let stats = SeedStats::from_samples(&[2.0, 4.0, 6.0]);
        assert!((stats.mean - 4.0).abs() < 1e-12);
        assert!((stats.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(SeedStats::from_samples(&[5.0]).std_dev, 0.0);
    }

    #[test]
    fn every_command_prints_what_it_measured() {
        for (line, parts) in PRINTS.iter().map(|row| row.split_once(" => ").expect(row)) {
            let text = run_cli(line);
            for part in parts.split("; ") {
                let absent = part.strip_prefix('!');
                let found = text.contains(absent.unwrap_or(part));
                assert_eq!(found, absent.is_none(), "{line}: {part}\n{text}");
            }
        }
    }

    #[test]
    fn run_and_metrics_give_one_answer_on_unicast_traffic() {
        use asynoc_telemetry::JsonValue;
        // `run` reports per logical packet and `metrics` per delivered
        // header copy: the same samples when every packet has one header,
        // and since both are one `LogHistogram`, the same percentiles.
        let flags = "--arch OptHybridSpeculative --benchmark UniformRandom --rate 0.3 \
                     --measure-ns 2000";
        let text = run_cli(&format!("run {flags}"));
        let doc = JsonValue::parse(&run_cli(&format!("metrics {flags}"))).expect("document");
        let ps = |key: &str| {
            let value = doc.get("latency").and_then(|latency| latency.get(key));
            Duration::from_ps(value.and_then(JsonValue::as_u64).expect("a latency"))
        };
        let line = format!(
            "  latency p50/p99  : {} / {} (max {})\n",
            ps("p50_ps"),
            ps("p99_ps"),
            ps("max_ps")
        );
        assert!(text.contains(&line), "{line}{text}");
    }

    #[test]
    fn a_run_started_with_an_arch_names_that_arch_on_every_fabric_size() {
        use asynoc_telemetry::JsonValue;
        // On small fabrics presets share maps — at 2x2 five of the six are
        // two maps — and a map's label is only the first preset it equals.
        for size in [2, 4, 8] {
            for arch in Architecture::ALL {
                let name = arch.to_string();
                let flags = format!(
                    "--arch {arch} --benchmark Shuffle --rate 0.2 --size {size} \
                     --warmup-ns 20 --measure-ns 100"
                );
                let text = run_cli(&format!("run {flags}"));
                assert!(
                    text.starts_with(&format!("{arch} ({size}x{size}) x ")),
                    "{text}"
                );
                let doc = JsonValue::parse(&run_cli(&format!("metrics {flags}"))).unwrap();
                let config = doc.get("config").expect("config section");
                assert_eq!(config.get("arch").and_then(JsonValue::as_str), Some(&*name));
                // The guard finds its preset by map. Tolerance 1 always
                // holds, so it fails only for a preset it did not find.
                let explore = format!("explore --smoke --size {size} --tolerance 1 --guard {arch}");
                let doc = JsonValue::parse(&run_cli(&explore)).unwrap();
                let guard = doc.get("guard").expect("guard section");
                assert_eq!(guard.get("arch").and_then(JsonValue::as_str), Some(&*name));
            }
        }
    }

    #[test]
    fn profiled_run_writes_the_document_and_leaves_stdout_unchanged() {
        use asynoc_telemetry::JsonValue;
        let path = temp_path("profile-run.json");
        let base = "run --arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 \
                    --warmup-ns 40 --measure-ns 300";
        let plain = run_cli(base);
        // The profile goes to its file only — stdout must stay
        // byte-identical (check.sh diffs exactly this).
        assert_eq!(plain, run_cli(&format!("{base} --profile {path}")));
        let doc = JsonValue::parse(&std::fs::read_to_string(&path).expect("profile file"))
            .expect("profile document is valid JSON");
        let _ = std::fs::remove_file(&path);
        let runs = doc.get("runs").and_then(JsonValue::as_array).expect("runs");
        assert_eq!(runs.len(), 1);
        let counters = runs[0].get("shards").and_then(JsonValue::as_array);
        let events = counters.map(|c| c[0].get("events").and_then(JsonValue::as_f64));
        assert!(events.flatten() > Some(0.0), "the run executed events");
    }

    fn profile_runs(line: &str, path: &str) -> usize {
        use asynoc_telemetry::JsonValue;
        run_cli(line);
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("profile file"))
            .expect("profile document is valid JSON");
        let _ = std::fs::remove_file(path);
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(asynoc::probe::PROFILE_SCHEMA)
        );
        let runs = doc.get("runs").and_then(JsonValue::as_array).expect("runs");
        for run in runs {
            assert!(
                run.get("events").and_then(JsonValue::as_f64).unwrap() > 0.0,
                "every runs[] entry carries engine counters"
            );
            assert!(
                run.get("config")
                    .and_then(|c| c.get("rate_gfs"))
                    .and_then(JsonValue::as_f64)
                    .is_some(),
                "every runs[] entry is keyed by its offered rate"
            );
        }
        runs.len()
    }

    #[test]
    fn a_profiled_search_collects_one_run_per_simulation() {
        let path = temp_path("profile.json");
        for (line, runs) in [
            // The bisection always takes at least two probes (plus the
            // delivered-plateau run).
            (
                "saturate --arch Baseline --benchmark Hotspot --quick",
                2..=usize::MAX,
            ),
            (
                "sweep --arch Baseline --benchmark Shuffle --from 0.2 --to 0.4 --steps 3 \
                 --warmup-ns 60 --measure-ns 400",
                3..=3,
            ),
        ] {
            let profiled = profile_runs(&format!("{line} --profile {path}"), &path);
            assert!(
                runs.contains(&profiled),
                "{line}: {profiled} runs[] entries"
            );
        }
    }

    fn temp_path(name: &str) -> String {
        let file = format!("asynoc-commands-test-{}-{name}", std::process::id());
        std::env::temp_dir()
            .join(file)
            .to_string_lossy()
            .into_owned()
    }

    /// Invocations that must print the same bytes: the worker count and
    /// every spelling of one placement change nothing a run reports.
    #[test]
    fn equivalent_invocations_print_the_same_bytes() {
        let tail = "--benchmark Multicast5 --rate 0.2 --warmup-ns 40 --measure-ns 300";
        let (map, preset) = (temp_path("map.json"), temp_path("preset.json"));
        let nodes = r#"[{"tree": 0, "level": 1, "index": 0, "kind": "ons"}]"#;
        let json = format!(r#"{{"levels": ["sp", "ns", "ns"], "nodes": {nodes}}}"#);
        std::fs::write(&map, json).expect("spec-map file");
        std::fs::write(&preset, r#"{"preset": "Baseline"}"#).expect("spec-map file");
        let seeds = "run --arch Baseline --benchmark Shuffle --rate 0.3 --seeds 3 \
                     --warmup-ns 60 --measure-ns 400";
        let mut pairs = vec![
            (format!("{seeds} --jobs 1"), format!("{seeds} --jobs 3")),
            (
                format!("run --spec-map levels:sp,ns,ns;node:0.1.0=ons {tail}"),
                format!("run --spec-map @{map} {tail}"),
            ),
            (
                format!("run --arch Baseline {tail}"),
                format!("run --spec-map @{preset} {tail}"),
            ),
        ];
        for form in ["OptHybridSpeculative", "preset:OptHybridSpeculative"] {
            let preset = format!("run --arch OptHybridSpeculative {tail}");
            pairs.push((preset, format!("run --spec-map {form} {tail}")));
        }
        // Each of the paper's six networks as an explicit map.
        let size = MotSize::new(8).expect("8x8");
        for arch in Architecture::ALL {
            let levels = SpecMap::preset(arch, size);
            pairs.push((
                format!("run --arch {arch} {tail}"),
                format!("run --spec-map {levels} {tail}"),
            ));
        }
        for (a, b) in &pairs {
            assert_eq!(run_cli(a), run_cli(b), "{a}\n{b}");
        }
        let _ = (std::fs::remove_file(map), std::fs::remove_file(preset));
    }

    /// `--stream` is one more observer: stdout stays byte-identical, and
    /// the stream folds back to a document carrying the run's summary.
    #[test]
    fn a_streamed_run_prints_what_an_unstreamed_one_does() {
        use asynoc_telemetry::fold_stream;
        let path = temp_path("stream.ndjson");
        for base in [
            "run --arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 --warmup-ns 40 \
             --measure-ns 300",
            "mesh --benchmark Uniform-random --rate 0.15 --cols 4 --rows 4 --warmup-ns 60 \
             --measure-ns 500",
            "metrics --arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2 \
             --warmup-ns 40 --measure-ns 200 --stream-trace",
        ] {
            let plain = run_cli(&base.replace(" --stream-trace", ""));
            assert_eq!(plain, run_cli(&format!("{base} --stream {path}")), "{base}");
            let stream = std::fs::read_to_string(&path).expect("stream file");
            let folded = fold_stream(&stream).expect("the stream folds");
            let delivered = folded
                .get("throughput")
                .and_then(|t| t.get("delivered_gfs"));
            assert!(delivered.and_then(JsonValue::as_f64) > Some(0.0), "{base}");
            assert_eq!(
                stream.contains("\"type\":\"trace\""),
                base.contains("trace")
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invalid_size_is_reported() {
        let args: Vec<String> = "info --size 12"
            .split_whitespace()
            .map(String::from)
            .collect();
        let command = parse(&args).expect("parses");
        let mut out = Vec::new();
        let err = execute(&command, &mut out).unwrap_err();
        assert!(err.to_string().contains("12"));
    }
}
