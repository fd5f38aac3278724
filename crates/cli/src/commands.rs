//! Command execution, writing human-readable reports to any `Write` sink
//! (tests capture a `Vec<u8>`, `main` passes stdout).

use std::io::{self, Read, Write};

use asynoc::harness::{saturation_of, saturation_of_profiled, Quality, SeedStats};
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

/// The run `common` describes: its phases, shard count, and the
/// profile/progress switches.
pub(crate) fn run_config(
    benchmark: asynoc::Benchmark,
    rate: f64,
    common: &CommonOptions,
) -> Result<RunConfig, CliError> {
    Ok(RunConfig::new(benchmark, rate)
        .map_err(SimError::from)?
        .with_phases(phases_for(benchmark, common))
        .with_shards(common.shards)
        .with_profile(common.profile.is_some())
        .with_progress(common.progress))
}

/// A latency column: the value, or `-` when no packet completed.
fn or_dash(latency: Option<Duration>) -> String {
    latency.map_or("-".to_string(), |d| d.to_string())
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
        if let (Some(profiler), Some(profile)) = (profiler.as_mut(), &report.profile) {
            let config = config_json(Some(identity), benchmark, rate, common.size, &options);
            profiler.add_run(config, profile);
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
    if let (Some(profiler), Some(profile)) = (profiler.as_mut(), &report.profile) {
        profiler.add_run(config, profile);
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
            quality.shards = common.shards;
            // A profiled search collects one runs[] entry per bisection
            // probe (plus the plateau run), keyed by its offered rate.
            let (identity, size) = (arch.to_string(), common.size);
            let point = match profiler.as_mut() {
                Some(profiler) => {
                    let (point, profiles) = saturation_of_profiled(&net, *benchmark, &quality)?;
                    for (rate, profile) in &profiles {
                        let config = config_json(Some(&identity), *benchmark, *rate, size, common);
                        profiler.add_run(config, profile);
                    }
                    point
                }
                None => saturation_of(&net, *benchmark, &quality)?,
            };
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
                let mut report = net.run(&run_config(*benchmark, rate, common)?)?;
                let mean = or_dash(report.latency.mean());
                let p99 = or_dash(report.latency.p99());
                Ok::<_, CliError>((rate, mean, p99, report.acceptance(), report.profile.take()))
            });
            for point in points {
                let (rate, mean, p99, acceptance, profile) = point?;
                if let (Some(profiler), Some(profile)) = (profiler.as_mut(), &profile) {
                    let identity = arch.to_string();
                    let config =
                        config_json(Some(&identity), *benchmark, rate, common.size, common);
                    profiler.add_run(config, profile);
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

    #[test]
    fn help_prints_usage() {
        let text = run_cli("help");
        assert!(text.contains("USAGE"));
        assert!(text.contains("OptHybridSpeculative"));
    }

    #[test]
    fn run_reports_measurements() {
        let text = run_cli(
            "run --arch OptHybridSpeculative --benchmark Multicast10 --rate 0.3 \
             --warmup-ns 80 --measure-ns 600",
        );
        assert!(text.contains("packets measured"));
        assert!(text.contains("latency mean"));
        assert!(text.contains("power"));
        assert!(!text.contains("WARNING"));
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
    fn seed_replication_reports_all_seeds_and_is_jobs_invariant() {
        let base = "run --arch Baseline --benchmark Shuffle --rate 0.3 --seeds 3 \
                    --warmup-ns 60 --measure-ns 400";
        let serial = run_cli(&format!("{base} --jobs 1"));
        assert!(serial.contains("3 seeds"));
        for seed in [42, 43, 44] {
            assert!(
                serial.contains(&seed.to_string()),
                "seed {seed} missing:\n{serial}"
            );
        }
        assert!(serial.contains("mean latency across seeds"));
        // Worker count must change wall-clock only, never the report.
        let parallel = run_cli(&format!("{base} --jobs 3"));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_warns_when_saturated() {
        let text = run_cli(
            "run --arch Baseline --benchmark Uniform-random --rate 2.5 \
             --warmup-ns 80 --measure-ns 400",
        );
        assert!(text.contains("WARNING"), "saturated run must warn: {text}");
    }

    #[test]
    fn saturate_quick_reports_both_quantities() {
        let text = run_cli("saturate --arch Baseline --benchmark Hotspot --quick");
        assert!(text.contains("stable injected load"));
        assert!(text.contains("delivered plateau"));
        // Hotspot anchor: ~0.29 GF/s per source.
        assert!(text.contains("0.2"), "unexpected hotspot value: {text}");
    }

    #[test]
    fn sweep_prints_every_point() {
        let text = run_cli(
            "sweep --arch Baseline --benchmark Shuffle --from 0.2 --to 0.6 --steps 3 \
             --warmup-ns 60 --measure-ns 400",
        );
        assert!(text.contains("0.200"));
        assert!(text.contains("0.400"));
        assert!(text.contains("0.600"));
    }

    #[test]
    fn info_lists_all_architectures() {
        let text = run_cli("info --size 16");
        for arch in Architecture::ALL {
            assert!(text.contains(&arch.to_string()), "{arch} missing:\n{text}");
        }
        assert!(text.contains("20")); // 16x16 hybrid address bits
    }

    #[test]
    fn info_single_architecture() {
        let text = run_cli("info --arch OptAllSpeculative");
        assert!(text.contains("OptAllSpeculative"));
        assert!(!text.contains("BasicNonSpeculative"));
    }

    #[test]
    fn mesh_run_reports() {
        let text = run_cli(
            "mesh --benchmark Uniform-random --rate 0.15 --cols 4 --rows 4 \
             --warmup-ns 60 --measure-ns 500",
        );
        assert!(text.contains("4x4 mesh"));
        assert!(text.contains("mean hops"));
        assert!(!text.contains("WARNING"));
    }

    #[test]
    fn profiled_run_writes_the_document_and_leaves_stdout_unchanged() {
        asynoc_kernel::with_deadline(120, || {
            use asynoc_telemetry::JsonValue;
            let mut path = std::env::temp_dir();
            path.push(format!(
                "asynoc-cli-profile-test-{}.json",
                std::process::id()
            ));
            let path = path.to_string_lossy().into_owned();
            let base = "run --arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 \
                    --shards 2 --warmup-ns 40 --measure-ns 300";
            let plain = run_cli(base);
            let profiled = run_cli(&format!("{base} --profile {path}"));
            // The profile goes to its file only — stdout must stay
            // byte-identical (check.sh diffs exactly this).
            assert_eq!(plain, profiled);
            let doc = JsonValue::parse(&std::fs::read_to_string(&path).expect("profile file"))
                .expect("profile document is valid JSON");
            let _ = std::fs::remove_file(&path);
            assert_eq!(
                doc.get("schema").and_then(JsonValue::as_str),
                Some(asynoc::probe::PROFILE_SCHEMA)
            );
            let runs = doc.get("runs").and_then(JsonValue::as_array).expect("runs");
            assert_eq!(runs.len(), 1);
            let shards = runs[0]
                .get("shards")
                .and_then(JsonValue::as_array)
                .expect("per-shard sections");
            assert_eq!(shards.len(), 2, "one section per shard");
            for shard in shards {
                assert!(
                    shard.get("events").and_then(JsonValue::as_f64).unwrap() > 0.0,
                    "both shards executed events"
                );
                assert!(
                    shard
                        .get("barrier_wait")
                        .and_then(|h| h.get("count"))
                        .and_then(JsonValue::as_f64)
                        .unwrap()
                        > 0.0,
                    "sharded runs wait at the window barrier"
                );
            }
            let imbalance = runs[0].get("imbalance").expect("imbalance summary");
            assert!(
                imbalance
                    .get("event_ratio")
                    .and_then(JsonValue::as_f64)
                    .unwrap()
                    >= 1.0
            );
        });
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
                run.get("events").and_then(JsonValue::as_f64).unwrap() > 0.0
                    || run
                        .get("shards")
                        .and_then(JsonValue::as_array)
                        .is_some_and(|s| !s.is_empty()),
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
    fn profiled_saturate_collects_one_run_per_probe() {
        let path = std::env::temp_dir().join(format!(
            "asynoc-saturate-profile-{}.json",
            std::process::id()
        ));
        let path = path.to_string_lossy().into_owned();
        let runs = profile_runs(
            &format!("saturate --arch Baseline --benchmark Hotspot --quick --profile {path}"),
            &path,
        );
        // The bisection search always takes at least two probes (plus
        // the delivered-plateau run).
        assert!(runs >= 2, "expected >= 2 profiled probes, got {runs}");
    }

    #[test]
    fn profiled_sweep_collects_one_run_per_point() {
        let path =
            std::env::temp_dir().join(format!("asynoc-sweep-profile-{}.json", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        let runs = profile_runs(
            &format!(
                "sweep --arch Baseline --benchmark Shuffle --from 0.2 --to 0.4 --steps 3 \
                 --warmup-ns 60 --measure-ns 400 --profile {path}"
            ),
            &path,
        );
        assert_eq!(runs, 3, "one runs[] entry per sweep point");
    }

    #[test]
    fn run_and_mesh_stream_without_perturbing_the_report() {
        use asynoc_telemetry::{fold_stream, JsonValue};
        for (tag, base) in [
            (
                "run",
                "run --arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 \
                 --warmup-ns 40 --measure-ns 300",
            ),
            (
                "mesh",
                "mesh --benchmark Uniform-random --rate 0.15 --cols 4 --rows 4 \
                 --warmup-ns 60 --measure-ns 500",
            ),
        ] {
            let path = std::env::temp_dir()
                .join(format!("asynoc-{tag}-stream-{}.ndjson", std::process::id()));
            let path = path.to_string_lossy().into_owned();
            let plain = run_cli(base);
            let streamed = run_cli(&format!("{base} --stream {path}"));
            assert_eq!(plain, streamed, "{tag}: --stream must not change stdout");
            let stream = std::fs::read_to_string(&path).expect("stream file");
            let _ = std::fs::remove_file(&path);
            let folded = fold_stream(&stream).expect("run stream folds");
            assert!(
                folded
                    .get("throughput")
                    .and_then(|t| t.get("delivered_gfs"))
                    .and_then(JsonValue::as_f64)
                    .unwrap()
                    > 0.0,
                "{tag}: end sections carry the scalar summary"
            );
        }
    }

    #[test]
    fn every_preset_run_is_bit_identical_to_its_map_form() {
        // The tentpole equivalence proof at the CLI surface: expressing
        // each of the paper's six architectures as an explicit speculation
        // map must reproduce the preset run byte-for-byte — headers,
        // percentiles, power, histogram, everything.
        let size = asynoc::MotSize::new(8).unwrap();
        let tail = "--benchmark Multicast5 --rate 0.2 --warmup-ns 40 --measure-ns 300";
        for arch in Architecture::ALL {
            let map = SpecMap::preset(arch, size).to_string();
            let preset = run_cli(&format!("run --arch {arch} {tail}"));
            let mapped = run_cli(&format!("run --spec-map {map} {tail}"));
            assert_eq!(preset, mapped, "{arch}: map form must be bit-identical");
        }
    }

    #[test]
    fn preset_named_spec_map_is_bit_identical_too() {
        let tail = "--benchmark Shuffle --rate 0.2 --warmup-ns 40 --measure-ns 300";
        let preset = run_cli(&format!("run --arch OptHybridSpeculative {tail}"));
        for form in ["OptHybridSpeculative", "preset:OptHybridSpeculative"] {
            let mapped = run_cli(&format!("run --spec-map {form} {tail}"));
            assert_eq!(preset, mapped, "{form} must resolve to the preset run");
        }
    }

    #[test]
    fn custom_map_reports_its_canonical_identity_and_reproduces_itself() {
        // A placement with a node override is not a preset: the report
        // header carries the canonical map string, and feeding that string
        // back reproduces the run — every report names its own recipe.
        let tail = "--benchmark Multicast5 --rate 0.2 --warmup-ns 40 --measure-ns 300";
        let custom = "levels:sp,ns,ns;node:0.1.0=ons";
        let first = run_cli(&format!("run --spec-map {custom} {tail}"));
        assert!(
            first.starts_with(custom),
            "header must carry the canonical map string:\n{first}"
        );
        let second = run_cli(&format!("run --spec-map {custom} {tail}"));
        assert_eq!(first, second);
    }

    #[test]
    fn json_spec_map_file_matches_the_text_form() {
        let path =
            std::env::temp_dir().join(format!("asynoc-spec-map-{}.json", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        std::fs::write(
            &path,
            r#"{"levels": ["sp", "ns", "ns"],
                "nodes": [{"tree": 0, "level": 1, "index": 0, "kind": "ons"}]}"#,
        )
        .expect("spec-map file");
        let tail = "--benchmark Multicast5 --rate 0.2 --warmup-ns 40 --measure-ns 300";
        let text = run_cli(&format!(
            "run --spec-map levels:sp,ns,ns;node:0.1.0=ons {tail}"
        ));
        let json = run_cli(&format!("run --spec-map @{path_str} {tail}"));
        let _ = std::fs::remove_file(&path);
        assert_eq!(text, json, "@file JSON form must equal the text form");
    }

    #[test]
    fn json_preset_spec_map_file_matches_the_preset() {
        let path =
            std::env::temp_dir().join(format!("asynoc-spec-preset-{}.json", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        std::fs::write(&path, r#"{"preset": "Baseline"}"#).expect("spec-map file");
        let tail = "--benchmark Shuffle --rate 0.2 --warmup-ns 40 --measure-ns 300";
        let preset = run_cli(&format!("run --arch Baseline {tail}"));
        let json = run_cli(&format!("run --spec-map @{path_str} {tail}"));
        let _ = std::fs::remove_file(&path);
        assert_eq!(preset, json);
    }

    #[test]
    fn invalid_spec_maps_are_rejected_with_the_validation_detail() {
        // An inline map is refused by the parser (a usage error, like a
        // bad --arch); the same placement in an @file when the command runs.
        let reject = |line: &str, needle: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            let err = match parse(&args) {
                Err(usage) => usage.to_string(),
                Ok(command) => execute(&command, &mut Vec::new()).unwrap_err().to_string(),
            };
            assert!(err.starts_with("--spec-map"), "{line}: {err}");
            assert!(err.contains(needle), "{line}: {err}");
        };
        let tail = "--benchmark Shuffle --rate 0.2";
        // Wrong level count for an 8x8 (3 levels).
        reject(&format!("run --spec-map levels:sp,ns {tail}"), "level");
        // Speculating at the leaf level breaks delivery filtering.
        reject(&format!("run --spec-map levels:ns,ns,sp {tail}"), "leaf");
        // A speculative node whose children cannot throttle.
        reject(
            &format!("run --spec-map levels:ns,sp,ns;node:0.2.0=sp {tail}"),
            "leaf",
        );
        // Node coordinates outside the fabric.
        reject(
            &format!("run --spec-map levels:ns,ns,ns;node:9.0.0=sp {tail}"),
            "range",
        );
        // A level of 2^32 used to wrap to 0 and quietly make the root
        // speculative, in both forms.
        reject(
            &format!("run --spec-map levels:ons,ons,ons;node:0.4294967296.0=osp {tail}"),
            "s0:4294967296.0 out of range",
        );
        let path =
            std::env::temp_dir().join(format!("asynoc-spec-wrap-{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"levels": ["ons", "ons", "ons"],
                "nodes": [{"tree": 0, "level": 4294967296, "index": 0, "kind": "osp"}]}"#,
        )
        .expect("spec-map file");
        reject(
            &format!("run --spec-map @{} {tail}", path.to_string_lossy()),
            "s0:4294967296.0 out of range",
        );
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
