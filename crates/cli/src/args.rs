//! The command line, declared once: [`FLAGS`] says which flags exist, whether
//! they take a value and how `help` describes them; [`COMMANDS`] says which
//! command accepts or refuses which. [`parse`] and [`help`] both read the two
//! tables, so a new flag is one row plus the field that consumes it.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

use asynoc::explore::Granularity;
use asynoc::{Architecture, Benchmark, MotSize, SpecMap};
use asynoc_vcmesh::McastScheme;

use crate::analyze::AnalyzeRequest;
use crate::explore::ExploreRequest;
use crate::faults::FaultsRequest;
use crate::metrics::MetricsRequest;
use crate::watch::WatchRequest;

/// The `help` section a flag is listed under. Commands accept the two
/// shared sections wholesale and every other flag by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// Listed with the commands that name it.
    Own,
    /// The options the simulation commands share.
    Common,
    /// `--stream` and its modifiers (the single-run commands).
    Stream,
}
use Group::{Common, Own, Stream};

/// One row of the flag table.
#[derive(Debug)]
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// The value placeholder `help` prints; empty for a bare flag.
    pub value: &'static str,
    /// The `help` section.
    pub group: Group,
    /// What `help` says about it.
    pub help: &'static str,
}

const fn flag(name: &'static str, value: &'static str, group: Group, help: &'static str) -> Flag {
    Flag {
        name,
        value,
        group,
        help,
    }
}

/// Every flag the CLI knows, one row each.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    flag("arch",             "<A>",             Own,    "architecture preset (see ARCHITECTURES)"),
    flag("spec-map",         "<M>",             Own,    SPEC_MAP_HELP),
    flag("benchmark",        "<B>",             Own,    "traffic benchmark (see BENCHMARKS)"),
    flag("rate",             "<flits/ns>",      Own,    "offered load per source"),
    flag("seeds",            "<K>",             Own,    "replicate over seeds S, S+1, … S+K−1"),
    flag("quick",            "",                Own,    "the fast low-precision search preset"),
    flag("probe-fan",        "<K>",             Own,    "rates probed per search round"),
    flag("from",             "<R0>",            Own,    "first offered load"),
    flag("to",               "<R1>",            Own,    "last offered load"),
    flag("steps",            "<K>",             Own,    "number of load points (at least 2)"),
    flag("cols",             "<C>",             Own,    "mesh columns (default 4)"),
    flag("rows",             "<R>",             Own,    "mesh rows (default 4)"),
    flag("substrate",        "mot|mesh|vcmesh", Own,    "the fabric to run on (default mot)"),
    flag("mcast",            "xy-tree|dpm",     Own,    "vcmesh multicast scheme (default xy-tree)"),
    flag("metrics-out",      "<path>",          Own,    "write the JSON report here, not to stdout"),
    flag("trace-format",     "ndjson|chrome",   Own,    "flit-trace format (default ndjson)"),
    flag("trace-out",        "<path>",          Own,    "export the flit trace here"),
    flag("trace-limit",      "<K>",             Own,    "maximum trace events recorded (default 100000)"),
    flag("bin-ns",           "<W>",             Own,    "time-series bin width, ns (default 100)"),
    flag("trace-in",         "<path>",          Own,    "the NDJSON flit trace to analyze"),
    flag("report-out",       "<path>",          Own,    "write the JSON report here, not to stdout"),
    flag("top",              "<N>",             Own,    "bound on the ranked lists (default 10)"),
    flag("heatmap",          "",                Own,    "print the text congestion heatmaps"),
    flag("lenient",          "",                Own,    "skip (and count) malformed lines"),
    flag("plan",             "<encoded>",       Own,    "replay an encoded fault campaign"),
    flag("fault-rate",       "<D>",             Own,    "density of a drawn plan (default 0.15)"),
    flag("oracle",           "",                Own,    "judge the run against a clean twin"),
    flag("granularity",      "level|node",      Own,    "search unit (default level)"),
    flag("beam",             "<K>",             Own,    "placements kept per beam round (default 4)"),
    flag("max-points",       "<N>",             Own,    "bound on the number of simulations"),
    flag("guard",            "<A|none>",        Own,    "preset asserted on or near the front"),
    flag("tolerance",        "<T>",             Own,    "relative guard tolerance (default 0.05)"),
    flag("smoke",            "",                Own,    "shrink windows and load for CI"),
    flag("stream-in",        "<path|->",        Own,    "the stream to follow (`-` = stdin, read once)"),
    flag("fold",             "<path|->",        Own,    "fold the stream into a batch metrics document"),
    flag("once",             "",                Own,    "read what is there and exit"),
    flag("interval-ms",      "<T>",             Own,    "tail poll period (default 200)"),
    flag("size",             "<N>",             Common, "network size (power of two, 2..=64; default 8)"),
    flag("seed",             "<S>",             Common, "RNG seed (default 42)"),
    flag("flits",            "<F>",             Common, "flits per packet (default 5)"),
    flag("warmup-ns",        "<W>",             Common, "warmup window in ns (default: paper standard)"),
    flag("measure-ns",       "<M>",             Common, "measurement window in ns (default: paper standard)"),
    flag("jobs",             "<J>",             Common, "worker threads for independent runs"),
    flag("shards",           "<S>",             Common, "conservative shards splitting each single run"),
    flag("profile",          "<path>",          Common, "write an asynoc-profile-v1 JSON self-profile here"),
    flag("progress",         "",                Common, "single-line stderr heartbeat"),
    flag("stream",           "<path|->",        Stream, "append asynoc-stream-v1 NDJSON telemetry here"),
    flag("stream-window-ns", "<W>",             Stream, "flush window width in ns (default 1000)"),
    flag("stream-trace",     "",                Stream, "also emit per-event trace records"),
    flag("watch-fatal",      "",                Stream, "exit non-zero when any online watchpoint fired"),
];

const SPEC_MAP_HELP: &str = "\
an explicit speculation placement instead of a preset --arch
(mutually exclusive; the mot substrate requires exactly one):
  ArchitectureName            a preset by name
  preset:ArchitectureName     same, explicit
  levels:sp,ns,ns             one kind per fanout level, root first
                              (base, ns, sp, ons, osp)
  levels:...;node:T.L.I=kind  per-node overrides on top of the level
                              kinds (tree T, level L, index I)
  @path                       JSON file: {\"preset\": ...} or
                              {\"levels\": [...], \"nodes\": [{\"tree\",
                              \"level\", \"index\", \"kind\"}]}
Leaf-level nodes must be non-speculative (the fanin network cannot
throttle), and the serial baseline kind cannot be mixed with
parallel-multicast kinds.";

/// The `help` sections in print order: heading and the prose under its rows.
const SECTIONS: [(Group, &str, &str); 3] = [
    (Own, "OPTIONS", ""),
    (
        Common,
        "COMMON OPTIONS",
        "--jobs defaults to all hardware threads and --shards to 1: independent\n\
         runs spread across cores at no cost, while splitting one run only pays\n\
         on fabrics large enough to fill a window between barriers (shards are\n\
         clamped to what the topology supports). Results are bit-identical at\n\
         any setting — only wall time changes. --profile records the simulator's own execution\n\
         (scheduler counters, per-shard balance, barrier waits, phase wall\n\
         splits); multi-run commands (run --seeds, saturate, sweep, faults\n\
         --oracle) collect one runs[] entry per simulation. --progress reports\n\
         events done, events/s and per-shard lag a few times per second, only\n\
         when stderr is a terminal (set ASYNOC_PROGRESS_FORCE=1 to override).\n\
         Neither changes simulation results.",
    ),
    (
        Stream,
        "STREAMING OPTIONS",
        "--stream (`-` = stdout) writes while the run executes: a head record,\n\
         one window record per flushed simulated-time window (counter deltas,\n\
         latency delta, time-series bins), watchpoint records as online\n\
         invariants fire (token-conservation violation, stall, busy watermark,\n\
         waste-rate ceiling), and an end record with the scalar summary\n\
         sections. Memory stays bounded by the window, not the run length (the\n\
         run's own latency statistic is a fixed-size histogram too), and\n\
         simulation results never change. On `metrics` the window must be a\n\
         multiple of --bin-ns. --stream-trace is bounded per window by\n\
         --trace-limit where available, else 100000.",
    ),
];

/// One row of the command table.
pub struct CommandSpec {
    /// The command word.
    pub name: &'static str,
    /// The usage line(s) after `asynoc <name>`. This is also what the
    /// command accepts: every `--flag` it names, and the shared sections
    /// it mentions as `[common options]` / `[streaming options]`.
    pub synopsis: &'static str,
    /// What it refuses with a reason rather than as unknown: space-separated
    /// flag names, then the message (`{}` stands for the flag as typed). A
    /// row here overrides the synopsis.
    pub rejects: &'static [(&'static str, &'static str)],
    /// What `help` says about the command.
    pub notes: &'static str,
    build: fn(&Flags) -> Parsed<Command>,
}

impl CommandSpec {
    fn reason_against(&self, name: &str) -> Option<&'static str> {
        let listed = |(names, _): &&(&str, _)| names.split(' ').any(|listed| listed == name);
        self.rejects.iter().find(listed).map(|(_, reason)| *reason)
    }

    /// Whether the command takes `flag`.
    #[must_use]
    pub fn accepts(&self, flag: &Flag) -> bool {
        let section = match flag.group {
            Own => None,
            Common => Some("common"),
            Stream => Some("streaming"),
        };
        let mut words = self.synopsis.split([' ', '\n', '[', ']', '(', ')']);
        self.reason_against(flag.name).is_none()
            && words.any(|word| Some(word) == section || word.strip_prefix("--") == Some(flag.name))
    }
}

/// Every command, in `help` order.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "run",
        synopsis: "(--arch <A> | --spec-map <M>) --benchmark <B> --rate <flits/ns>\n\
                   [--seeds <K>] [common options] [streaming options]",
        rejects: &[],
        notes: "one measurement run on the MoT network. --seeds <K> replicates it\n\
                (fanned across --jobs workers) and reports per-seed results plus\n\
                mean ± sample std dev.",
        build: run,
    },
    CommandSpec {
        name: "saturate",
        synopsis: "--arch <A> --benchmark <B> [--quick] [--probe-fan <K>] [common options]",
        rejects: &[],
        notes: "saturation search. --probe-fan <K> probes K rates per search round\n\
                (k-section; deterministic, but K changes which rates are probed).",
        build: saturate,
    },
    CommandSpec {
        name: "sweep",
        synopsis: "--arch <A> --benchmark <B> --from <R0> --to <R1> --steps <K>\n\
                   [common options]",
        rejects: &[],
        notes: "latency versus offered load over evenly spaced points.",
        build: sweep,
    },
    CommandSpec {
        name: "mesh",
        synopsis: "--benchmark <B> --rate <flits/ns> [--cols <C>] [--rows <R>]\n\
                   [common options] [streaming options]",
        rejects: &[(
            "size",
            "{} does not shape `asynoc mesh`; the fabric is --cols <C> by --rows <R> \
             (default 4 by 4)",
        )],
        notes: "one measurement run on the 2D-mesh comparison fabric, shaped by\n\
                --cols and --rows (not --size).",
        build: mesh,
    },
    CommandSpec {
        name: "metrics",
        synopsis: "--benchmark <B> --rate <flits/ns> [--arch <A> | --spec-map <M>]\n\
                   [--substrate mot|mesh|vcmesh] [--mcast xy-tree|dpm]\n\
                   [--metrics-out <path>] [--trace-format ndjson|chrome]\n\
                   [--trace-out <path>] [--trace-limit <K>] [--bin-ns <W>]\n\
                   [common options] [streaming options]",
        rejects: &[],
        notes: "one instrumented run emitting a JSON report (latency percentiles,\n\
                time-series, speculation-waste ledger, power). A placement is\n\
                required on the mot substrate and refused elsewhere; the vcmesh\n\
                substrate (credit-based VC mesh with in-network multicast) takes\n\
                --mcast to pick its multicast scheme (xy-tree default, dpm =\n\
                Dynamic Partition Merging); --trace-out exports the flit trace\n\
                (ndjson default, chrome is Perfetto-loadable). Latency here is\n\
                per delivered header copy; `run` reports it per logical packet\n\
                (creation to last header). Both are one log-bucketed histogram —\n\
                a percentile is never below the exact nearest-rank sample and at\n\
                most 1/32 above it — and are equal on unicast traffic.",
        build: metrics,
    },
    CommandSpec {
        name: "analyze",
        synopsis: "--trace-in <path> [--report-out <path>] [--top <N>] [--heatmap]\n\
                   [--lenient] [--profile <path>]",
        rejects: &[],
        notes: "offline causal analysis over an NDJSON flit trace (from metrics\n\
                --trace-out): per-packet critical paths, blocked-time attribution,\n\
                congestion heatmaps, speculation scorecard. A record's site, action\n\
                and detail are closed grammars (src3, fo[s2:1.0], fi[d4:2.3], D5,\n\
                r12, ch101, node15; inject, forward, …): a label outside them is a\n\
                malformed line — an error naming the line and the field, or under\n\
                --lenient a skipped line — never a site of its own.",
        build: analyze,
    },
    CommandSpec {
        name: "faults",
        synopsis: "--benchmark <B> --rate <flits/ns> [--arch <A> | --spec-map <M>]\n\
                   [--substrate mot|mesh|vcmesh] [--mcast xy-tree|dpm]\n\
                   [--plan <encoded>] [--fault-rate <D>] [--oracle]\n\
                   [--report-out <path>] [common options] [streaming options]",
        rejects: &[],
        notes: "one deterministic fault-injection run emitting a JSON fault report.\n\
                --plan replays an encoded campaign (stall:3:2:500;lose:0:1;...);\n\
                without it a recoverable plan is drawn from --seed and --fault-rate\n\
                (density). --oracle judges the conformance contract against a clean\n\
                twin; --stream exports the faulted run only.",
        build: faults,
    },
    CommandSpec {
        name: "explore",
        synopsis: "[--benchmark <B>] [--rate <flits/ns>] [--granularity level|node]\n\
                   [--beam <K>] [--max-points <N>] [--guard <A|none>]\n\
                   [--tolerance <T>] [--report-out <path>] [--smoke]\n\
                   [common options]",
        rejects: &[
            (
                "plan fault-rate oracle",
                "explore scores fault-free runs; {} is not available (replay one placement \
                 under faults with `asynoc faults --spec-map <map>`)",
            ),
            (
                "stream stream-window-ns stream-trace watch-fatal",
                "explore drives many runs through one invocation; {} is not available \
                 (stream one placement with `asynoc metrics --spec-map <map> --stream <path>`)",
            ),
            (
                "profile progress",
                "explore drives many runs through one invocation; {} is not available \
                 (profile one placement with `asynoc run --spec-map <map> --profile <path>`)",
            ),
        ],
        notes: "search the speculation-placement design space and report the Pareto\n\
                front (p50/p99 latency, power, area) as an asynoc-explore-v1 JSON\n\
                document. --granularity level enumerates every per-level placement\n\
                exhaustively; node runs a deterministic beam search over per-node\n\
                placements seeded with the per-level front. An exhausted\n\
                --max-points budget still reports the front over what was\n\
                evaluated, with \"truncated\": true. --guard (default\n\
                OptHybridSpeculative; none disables) asserts the preset lands on or\n\
                within --tolerance (relative per objective) of the front, exiting\n\
                non-zero otherwise. Results are bit-identical at any --jobs value.",
        build: explore,
    },
    CommandSpec {
        name: "watch",
        synopsis: "--stream-in <path|-> [--fold <path|->] [--once] [--interval-ms <T>]",
        rejects: &[],
        notes: "tail an asynoc-stream-v1 NDJSON file (from --stream) and render a\n\
                live dashboard: events/s, in-flight flits, per-level busy fractions,\n\
                watchpoint alerts. --fold instead folds the finished stream back\n\
                into the batch asynoc-metrics-v1 document (byte-identical for\n\
                `metrics --stream` runs; `-` = stdout).",
        build: watch,
    },
    CommandSpec {
        name: "info",
        synopsis: "[--arch <A>] [--size <N>]",
        rejects: &[],
        notes: "static information: node table, address bits, area and leakage.",
        build: info,
    },
];

const HELP_TAIL: &str = "
ARCHITECTURES:
  Baseline, BasicNonSpeculative, BasicHybridSpeculative,
  OptHybridSpeculative, OptNonSpeculative, OptAllSpeculative

BENCHMARKS:
  Uniform-random, Shuffle, Hotspot, Multicast5, Multicast10, Multicast-static,
  Bit-complement, Bit-reverse, Transpose, Tornado, Nearest-neighbor
";

/// Appends `text`: its first line after `lead`, the rest indented by `rest`.
fn push_hanging(out: &mut String, lead: &str, rest: usize, text: &str) {
    for (i, line) in text.lines().enumerate() {
        let lead = if i == 0 { lead } else { &" ".repeat(rest) };
        out.push_str(&format!("{lead}{line}\n"));
    }
}

/// The `USAGE:` block of `commands`.
fn usage_of(commands: &[&CommandSpec]) -> String {
    let mut out = String::from("USAGE:\n");
    for spec in commands {
        let lead = format!("  asynoc {:<8} ", spec.name);
        push_hanging(&mut out, &lead, lead.len(), spec.synopsis);
    }
    out
}

/// The `USAGE:` block of the command named `word`, if there is one.
#[must_use]
pub fn usage(word: &str) -> Option<String> {
    let spec = COMMANDS.iter().find(|spec| spec.name == word)?;
    Some(usage_of(&[spec]))
}

/// The text of `asynoc help` (`topic` = `None`) or `asynoc help <command>`:
/// synopses, notes, and the [`FLAGS`] rows the shown commands accept (the
/// full text adds each section's prose).
#[must_use]
pub fn help(topic: Option<&str>) -> String {
    let shown: Vec<&CommandSpec> = COMMANDS
        .iter()
        .filter(|spec| topic.is_none_or(|name| spec.name == name))
        .collect();
    let mut out = "asynoc — asynchronous Mesh-of-Trees NoC simulator \
                   (DAC'16 local-speculation multicast)\n\n"
        .to_string();
    out.push_str(&usage_of(&shown));
    out.push_str("  asynoc help     [<command>]  (or: asynoc <command> --help)\n\n");
    for spec in &shown {
        push_hanging(&mut out, &format!("  {:<10}", spec.name), 12, spec.notes);
    }
    for (group, heading, prose) in SECTIONS {
        let mut rows = FLAGS
            .iter()
            .filter(|flag| flag.group == group && shown.iter().any(|spec| spec.accepts(flag)))
            .peekable();
        if rows.peek().is_none() {
            continue;
        }
        out.push_str(&format!("\n{heading}:\n"));
        for flag in rows {
            let label = format!("--{} {}", flag.name, flag.value);
            push_hanging(&mut out, &format!("  {label:<28} "), 8, flag.help);
        }
        if topic.is_none() {
            push_hanging(&mut out, "    ", 4, prose);
        }
    }
    out + HELP_TAIL
}

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
        /// Shared options (`size` stays at its default: `--size` is refused).
        common: CommonOptions,
    },
    /// One instrumented run emitting the JSON metrics report.
    Metrics(MetricsRequest),
    /// Offline causal analysis over an exported NDJSON flit trace.
    Analyze(AnalyzeRequest),
    /// One deterministic fault-injection run, optionally paired with a
    /// clean twin and judged by the conformance oracle.
    Faults(FaultsRequest),
    /// Design-space exploration over speculation placements.
    Explore(ExploreRequest),
    /// Follow a streaming-telemetry NDJSON file: live dashboard or fold
    /// back into the batch metrics document.
    Watch(WatchRequest),
    /// Static information: node table, address bits, area/leakage.
    Info {
        /// Architecture to describe (default: all).
        arch: Option<Architecture>,
        /// Network size (default 8).
        size: usize,
    },
    /// Print usage: everything, or one command's section.
    Help(Option<&'static str>),
}

/// Which simulator fabric `metrics` and `faults` run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// The paper's Mesh-of-Trees network.
    Mot,
    /// The 2D-mesh comparison fabric.
    Mesh,
    /// The credit-based virtual-channel mesh with in-network multicast.
    Vcmesh,
}

impl fmt::Display for Substrate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Substrate::Mot => "mot",
            Substrate::Mesh => "mesh",
            Substrate::Vcmesh => "vcmesh",
        })
    }
}

impl FromStr for Substrate {
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

impl FromStr for TraceFormat {
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

/// `--size` when the flag is absent: the paper's 8×8.
const DEFAULT_SIZE: usize = 8;

impl Default for CommonOptions {
    fn default() -> Self {
        CommonOptions {
            size: DEFAULT_SIZE,
            seed: 42,
            flits: 5,
            warmup_ns: None,
            measure_ns: None,
            jobs: asynoc::default_parallelism(),
            // One run on one thread unless asked: even a 64×64 MoT on two
            // threads does not beat the serial loop (EXPERIMENTS.md).
            shards: 1,
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

type Parsed<T> = Result<T, ParseCliError>;

fn fail<T>(message: impl Into<String>) -> Parsed<T> {
    Err(ParseCliError::new(message))
}

/// Largest value a `--*-ns` flag may take. Simulated time is `u64`
/// picoseconds and a run's drain cap sits at twice its warm-up plus
/// measurement windows, so an eighth of the representable nanoseconds
/// keeps every sum the engine forms in range.
const MAX_NS: u64 = u64::MAX / 1_000 / 8;

/// The flags one invocation gave, by table name (bare flags map to "").
struct Flags(BTreeMap<&'static str, String>);

impl Flags {
    /// Splits `args` into `--key [value]` pairs against the tables: a key
    /// must be a [`FLAGS`] row that `spec` accepts, and takes a value
    /// exactly when its row has a placeholder.
    fn collect(spec: &CommandSpec, args: &[String]) -> Parsed<Flags> {
        let mut flags = BTreeMap::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return fail(format!("unexpected positional argument {arg:?}"));
            };
            if let Some(reason) = spec.reason_against(key) {
                return fail(reason.replace("{}", arg));
            }
            let Some(flag) = FLAGS
                .iter()
                .find(|flag| flag.name == key && spec.accepts(flag))
            else {
                return fail(format!("unknown option --{key}"));
            };
            let value = if flag.value.is_empty() {
                String::new()
            } else if let Some(value) = iter.next() {
                value.clone()
            } else {
                return fail(format!("--{key} requires a value"));
            };
            if flags.insert(flag.name, value).is_some() {
                return fail(format!("--{key} given twice"));
            }
        }
        Ok(Flags(flags))
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// The typed value of `--key`, if given.
    fn get<T: FromStr<Err: fmt::Display>>(&self, key: &str) -> Parsed<Option<T>> {
        let parsed = self.0.get(key).map(|raw| raw.parse::<T>()).transpose();
        parsed.map_err(|e| ParseCliError::new(format!("--{key}: {e}")))
    }

    /// The typed value of a count flag, which must be at least 1.
    fn positive<T>(&self, key: &str) -> Parsed<Option<T>>
    where
        T: FromStr<Err: fmt::Display> + PartialEq + From<u8>,
    {
        match self.get(key)? {
            Some(zero) if zero == T::from(0u8) => fail(format!("--{key} must be at least 1")),
            value => Ok(value),
        }
    }

    fn required<T: FromStr<Err: fmt::Display>>(&self, key: &str) -> Parsed<T> {
        let missing = || ParseCliError::new(format!("missing required option --{key}"));
        self.get(key)?.ok_or_else(missing)
    }

    /// A simulated-time flag in nanoseconds, `min..=MAX_NS`.
    fn ns(&self, key: &str, min: u64) -> Parsed<Option<u64>> {
        match self.get(key)? {
            Some(ns) if !(min..=MAX_NS).contains(&ns) => fail(format!(
                "--{key} must be in {min}..={MAX_NS} (simulated time is u64 picoseconds)"
            )),
            value => Ok(value),
        }
    }

    fn common(&self) -> Parsed<CommonOptions> {
        let defaults = CommonOptions::default();
        let options = CommonOptions {
            size: self.get("size")?.unwrap_or(defaults.size),
            seed: self.get("seed")?.unwrap_or(defaults.seed),
            flits: self.positive("flits")?.unwrap_or(defaults.flits),
            warmup_ns: self.ns("warmup-ns", 0)?,
            measure_ns: self.ns("measure-ns", 1)?,
            jobs: self.positive("jobs")?.unwrap_or(defaults.jobs),
            shards: self.positive("shards")?.unwrap_or(defaults.shards),
            profile: self.get("profile")?,
            progress: self.has("progress"),
            stream: self.get("stream")?,
            stream_window_ns: self.ns("stream-window-ns", 1)?,
            stream_trace: self.has("stream-trace"),
            watch_fatal: self.has("watch-fatal"),
        };
        if options.stream.is_none() {
            let modifier = |flag: &&Flag| flag.group == Stream && self.has(flag.name);
            if let Some(flag) = FLAGS.iter().find(modifier) {
                return fail(format!("--{} requires --stream <path|->", flag.name));
            }
        }
        Ok(options)
    }

    /// Resolves the `--arch` / `--spec-map` placement pair: the two are
    /// mutually exclusive, and exactly one is required when the command
    /// runs on the MoT substrate. An inline map is checked here, against
    /// the `--size` in effect, so a malformed one is a usage error like a
    /// malformed `--arch`; an `@file` is read when the command runs.
    fn placement(&self, required_here: bool) -> Parsed<(Option<Architecture>, Option<String>)> {
        let placement: (_, Option<String>) = (self.get("arch")?, self.get("spec-map")?);
        let size = self.get("size")?.unwrap_or(DEFAULT_SIZE);
        if let (Some(inline), Ok(size)) = (&placement.1, MotSize::new(size)) {
            if !inline.starts_with('@') {
                SpecMap::parse(size, inline)
                    .map_err(|e| ParseCliError::new(format!("--spec-map: {e}")))?;
            }
        }
        match placement {
            (Some(_), Some(_)) => fail(
                "--arch and --spec-map are mutually exclusive (a preset name is \
                 itself a valid --spec-map)",
            ),
            (None, None) if required_here => fail(
                "missing required option --arch or --spec-map (the mot substrate \
                 needs a placement)",
            ),
            _ => Ok(placement),
        }
    }

    /// Resolves the substrate-selection options shared by `metrics` and
    /// `faults`: the substrate itself, the multicast scheme and the
    /// placement (required on mot).
    fn substrate(&self) -> Parsed<SubstrateOptions> {
        let substrate = self.get("substrate")?.unwrap_or(Substrate::Mot);
        let mcast = self.get("mcast")?.unwrap_or_default();
        for (flag, only, hint) in SUBSTRATE_ONLY {
            if self.has(flag) && only.parse() != Ok(substrate) {
                return fail(format!(
                    "--{flag} applies to the {only} substrate only{hint}"
                ));
            }
        }
        let (arch, spec_map) = self.placement(substrate == Substrate::Mot)?;
        Ok((substrate, mcast, arch, spec_map))
    }
}

type SubstrateOptions = (Substrate, McastScheme, Option<Architecture>, Option<String>);

/// The flags that exist on one substrate only, and the way out.
const SUBSTRATE_ONLY: [(&str, &str, &str); 3] = [
    ("mcast", "vcmesh", " (add --substrate vcmesh)"),
    ("arch", "mot", ""),
    ("spec-map", "mot", ""),
];

fn run(flags: &Flags) -> Parsed<Command> {
    let seeds = flags.positive("seeds")?.unwrap_or(1);
    if seeds > 1 && flags.has("stream") {
        return fail(
            "--stream is not available with --seeds > 1 (one stream per run; \
             stream a single seed instead)",
        );
    }
    let (arch, spec_map) = flags.placement(true)?;
    Ok(Command::Run {
        arch,
        spec_map,
        benchmark: flags.required("benchmark")?,
        rate: flags.required("rate")?,
        seeds,
        common: flags.common()?,
    })
}

fn saturate(flags: &Flags) -> Parsed<Command> {
    Ok(Command::Saturate {
        probe_fan: flags.positive("probe-fan")?.unwrap_or(1),
        arch: flags.required("arch")?,
        benchmark: flags.required("benchmark")?,
        quick: flags.has("quick"),
        common: flags.common()?,
    })
}

fn sweep(flags: &Flags) -> Parsed<Command> {
    let from: f64 = flags.required("from")?;
    let to: f64 = flags.required("to")?;
    let steps: usize = flags.required("steps")?;
    if !(from > 0.0 && to > from) {
        return fail("sweep requires 0 < --from < --to");
    }
    if steps < 2 {
        return fail("--steps must be at least 2");
    }
    Ok(Command::Sweep {
        arch: flags.required("arch")?,
        benchmark: flags.required("benchmark")?,
        from,
        to,
        steps,
        common: flags.common()?,
    })
}

fn mesh(flags: &Flags) -> Parsed<Command> {
    Ok(Command::Mesh {
        benchmark: flags.required("benchmark")?,
        rate: flags.required("rate")?,
        cols: flags.get("cols")?.unwrap_or(4),
        rows: flags.get("rows")?.unwrap_or(4),
        common: flags.common()?,
    })
}

fn metrics(flags: &Flags) -> Parsed<Command> {
    let (substrate, mcast, arch, spec_map) = flags.substrate()?;
    let explicit_format: Option<TraceFormat> = flags.get("trace-format")?;
    let trace_out = flags.get("trace-out")?;
    if explicit_format.is_some() && trace_out.is_none() {
        return fail("--trace-format requires --trace-out <path>");
    }
    let bin_ns = flags.ns("bin-ns", 1)?.unwrap_or(100);
    if let Some(window) = flags.get::<u64>("stream-window-ns")? {
        if window == 0 || !window.is_multiple_of(bin_ns) {
            return fail(format!(
                "--stream-window-ns ({window}) must be a non-zero multiple of \
                 --bin-ns ({bin_ns})"
            ));
        }
    }
    Ok(Command::Metrics(MetricsRequest {
        arch,
        spec_map,
        benchmark: flags.required("benchmark")?,
        rate: flags.required("rate")?,
        substrate,
        mcast,
        bin_ns,
        metrics_out: flags.get("metrics-out")?,
        // --trace-out alone implies the round-trippable default.
        trace_format: explicit_format.or(trace_out.as_ref().map(|_| TraceFormat::Ndjson)),
        trace_out,
        trace_limit: flags.get("trace-limit")?.unwrap_or(100_000),
        common: flags.common()?,
    }))
}

fn analyze(flags: &Flags) -> Parsed<Command> {
    Ok(Command::Analyze(AnalyzeRequest {
        top: flags.positive("top")?.unwrap_or(10),
        trace_in: flags.required("trace-in")?,
        report_out: flags.get("report-out")?,
        heatmap: flags.has("heatmap"),
        lenient: flags.has("lenient"),
        profile: flags.get("profile")?,
    }))
}

fn faults(flags: &Flags) -> Parsed<Command> {
    let (substrate, mcast, arch, spec_map) = flags.substrate()?;
    let fault_rate: f64 = flags.get("fault-rate")?.unwrap_or(0.15);
    if !(fault_rate > 0.0 && fault_rate <= 1.0) {
        return fail("--fault-rate must be in (0, 1]");
    }
    Ok(Command::Faults(FaultsRequest {
        arch,
        spec_map,
        benchmark: flags.required("benchmark")?,
        rate: flags.required("rate")?,
        substrate,
        mcast,
        plan: flags.get("plan")?,
        fault_rate,
        oracle: flags.has("oracle"),
        report_out: flags.get("report-out")?,
        common: flags.common()?,
    }))
}

fn explore(flags: &Flags) -> Parsed<Command> {
    let guard = match flags.get::<String>("guard")?.as_deref() {
        None => Some(Architecture::OptHybridSpeculative),
        Some("none") => None,
        Some(_) => flags.get("guard")?,
    };
    let tolerance: f64 = flags.get("tolerance")?.unwrap_or(0.05);
    if tolerance.is_nan() || tolerance < 0.0 {
        return fail("--tolerance must be >= 0");
    }
    Ok(Command::Explore(ExploreRequest {
        benchmark: flags.get("benchmark")?,
        rate: flags.get("rate")?,
        granularity: flags.get("granularity")?.unwrap_or(Granularity::Level),
        beam: flags.positive("beam")?.unwrap_or(4),
        max_points: flags.positive("max-points")?,
        guard,
        tolerance,
        report_out: flags.get("report-out")?,
        smoke: flags.has("smoke"),
        common: flags.common()?,
    }))
}

fn watch(flags: &Flags) -> Parsed<Command> {
    let interval_ms = flags.positive("interval-ms")?.unwrap_or(200);
    let stream_in: String = flags.required("stream-in")?;
    Ok(Command::Watch(WatchRequest {
        // Stdin cannot be tailed, so `-` implies a single pass.
        once: flags.has("once") || stream_in == "-",
        stream_in,
        fold: flags.get("fold")?,
        interval_ms,
    }))
}

fn info(flags: &Flags) -> Parsed<Command> {
    Ok(Command::Info {
        arch: flags.get("arch")?,
        size: flags.get("size")?.unwrap_or(8),
    })
}

/// Parses a full argument vector (excluding the program name).
///
/// # Errors
///
/// Returns a [`ParseCliError`] with a user-facing message for any malformed
/// invocation.
pub fn parse(args: &[String]) -> Result<Command, ParseCliError> {
    let Some((word, rest)) = args.split_first() else {
        return Ok(Command::Help(None));
    };
    let find = |name: &str| {
        let spec = COMMANDS.iter().find(|spec| spec.name == name);
        spec.ok_or_else(|| ParseCliError::new(format!("unknown command {name:?}")))
    };
    if matches!(word.as_str(), "help" | "--help" | "-h") {
        return match rest {
            [] => Ok(Command::Help(None)),
            [topic] => Ok(Command::Help(Some(find(topic)?.name))),
            [_, extra, ..] => fail(format!("unexpected positional argument {extra:?}")),
        };
    }
    let spec = find(word)?;
    if rest.iter().any(|arg| arg == "--help" || arg == "-h") {
        return Ok(Command::Help(Some(spec.name)));
    }
    (spec.build)(&Flags::collect(spec, rest)?)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]), Ok(Command::Help(None)));
        assert_eq!(parse(&argv("help")), Ok(Command::Help(None)));
        assert_eq!(parse(&argv("--help")), Ok(Command::Help(None)));
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

    /// A run is split across threads only when asked: the README's
    /// commands must not land on the sharded path by default.
    #[test]
    fn one_shard_unless_asked() {
        let defaults = CommonOptions::default();
        assert_eq!(defaults.shards, 1);
        assert_eq!(defaults.jobs, asynoc::default_parallelism());
        assert!(help(None).contains("--shards to 1"));
        let Ok(Command::Run { common, .. }) = parse(&argv(
            "run --arch Baseline --benchmark Shuffle --rate 0.2 --size 64 --shards 2",
        )) else {
            panic!("expected run");
        };
        assert_eq!(common.shards, 2);
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
            Command::Metrics(MetricsRequest {
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
            })
        );
        let cmd = parse(&argv(
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 --bin-ns 50 \
             --metrics-out m.json --trace-format chrome --trace-out t.json --trace-limit 500",
        ))
        .expect("valid invocation");
        let Command::Metrics(MetricsRequest {
            bin_ns,
            metrics_out,
            trace_format,
            trace_out,
            trace_limit,
            ..
        }) = cmd
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
            Command::Metrics(MetricsRequest {
                substrate: Substrate::Mesh,
                arch: None,
                ..
            })
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
            Command::Metrics(MetricsRequest {
                substrate: Substrate::Vcmesh,
                mcast: McastScheme::XyTree,
                arch: None,
                ..
            })
        ));
        let cmd = parse(&argv(
            "metrics --substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1",
        ))
        .expect("valid");
        assert!(matches!(
            cmd,
            Command::Metrics(MetricsRequest {
                substrate: Substrate::Vcmesh,
                mcast: McastScheme::Dpm,
                ..
            })
        ));
        let cmd = parse(&argv(
            "faults --substrate vcmesh --mcast xy-tree --benchmark Tornado --rate 0.1",
        ))
        .expect("valid");
        assert!(matches!(
            cmd,
            Command::Faults(FaultsRequest {
                substrate: Substrate::Vcmesh,
                mcast: McastScheme::XyTree,
                ..
            })
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
            Command::Metrics(MetricsRequest {
                trace_format: Some(TraceFormat::Ndjson),
                ..
            })
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
            Command::Analyze(AnalyzeRequest {
                trace_in: "t.ndjson".to_string(),
                report_out: None,
                top: 10,
                heatmap: false,
                lenient: false,
                profile: None,
            })
        );
        let cmd = parse(&argv(
            "analyze --trace-in t.ndjson --report-out r.json --top 3 --heatmap --lenient",
        ))
        .expect("valid invocation");
        assert_eq!(
            cmd,
            Command::Analyze(AnalyzeRequest {
                trace_in: "t.ndjson".to_string(),
                report_out: Some("r.json".to_string()),
                top: 3,
                heatmap: true,
                lenient: true,
                profile: None,
            })
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
            Command::Faults(FaultsRequest {
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
            })
        );
        let cmd = parse(&argv(
            "faults --substrate mesh --benchmark Tornado --rate 0.1 --plan stall:3:1:200 \
             --fault-rate 0.4 --oracle --report-out f.json --seed 7",
        ))
        .expect("valid invocation");
        let Command::Faults(FaultsRequest {
            arch,
            plan,
            fault_rate,
            oracle,
            report_out,
            common,
            ..
        }) = cmd
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
                | Command::Metrics(MetricsRequest { common, .. })
                | Command::Faults(FaultsRequest { common, .. }) => common,
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
            Ok(Command::Watch(WatchRequest {
                stream_in: "s.ndjson".to_string(),
                fold: None,
                once: false,
                interval_ms: 200,
            }))
        );
        assert_eq!(
            parse(&argv(
                "watch --stream-in s.ndjson --fold m.json --once --interval-ms 50"
            )),
            Ok(Command::Watch(WatchRequest {
                stream_in: "s.ndjson".to_string(),
                fold: Some("m.json".to_string()),
                once: true,
                interval_ms: 50,
            }))
        );
        // Stdin cannot be tailed.
        assert!(matches!(
            parse(&argv("watch --stream-in -")),
            Ok(Command::Watch(WatchRequest { once: true, .. }))
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
                | Command::Metrics(MetricsRequest { arch, spec_map, .. })
                | Command::Faults(FaultsRequest { arch, spec_map, .. }) => (arch, spec_map),
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
            Command::Explore(ExploreRequest {
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
            })
        );
        let cmd = parse(&argv(
            "explore --benchmark Multicast5 --rate 0.25 --granularity node --beam 2 \
             --max-points 40 --guard OptNonSpeculative --tolerance 0.1 --report-out e.json \
             --size 4 --jobs 2",
        ))
        .expect("valid invocation");
        let Command::Explore(ExploreRequest {
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
        }) = cmd
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
        assert!(matches!(
            cmd,
            Command::Explore(ExploreRequest { guard: None, .. })
        ));
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

    /// A valid value for `flag`.
    fn sample(flag: &Flag) -> &'static str {
        match flag.name {
            "arch" | "guard" => "Baseline",
            "spec-map" => "levels:sp,ns,ns",
            "benchmark" => "Shuffle",
            "rate" | "from" | "fault-rate" | "tolerance" => "0.2",
            "to" => "0.4",
            "substrate" => "mot",
            "mcast" => "dpm",
            "trace-format" => "chrome",
            "granularity" => "node",
            "plan" => "stall:3:1:200",
            "stream-window-ns" => "500",
            _ if flag.value.contains("path") => "file.json",
            _ => "2",
        }
    }

    /// What else a line needs before `flag` is legal on it.
    fn companions(flag: &str) -> &'static str {
        match flag {
            "stream-window-ns" | "stream-trace" | "watch-fatal" => "--stream s.ndjson",
            "trace-format" => "--trace-out t.json",
            "mcast" => "--substrate vcmesh",
            _ => "",
        }
    }

    fn row(name: &str) -> &'static Flag {
        FLAGS.iter().find(|flag| flag.name == name).expect("a row")
    }

    /// The flags a synopsis leaves unbracketed (the first of an `(a | b)`
    /// choice), plus the placement the default mot substrate requires.
    fn required(spec: &CommandSpec) -> Vec<&'static Flag> {
        let (mut depth, mut alternative, mut names) = (0, false, Vec::new());
        for word in spec.synopsis.split_whitespace() {
            depth += word.matches('[').count();
            alternative |= word == "|";
            if let Some(name) = word.trim_start_matches(['(', '[']).strip_prefix("--") {
                if depth == 0 && !alternative {
                    names.push(row(name));
                }
            }
            depth -= word.matches(']').count();
            alternative &= !word.ends_with(')');
        }
        if spec.synopsis.contains("[--arch <A> |") {
            names.push(row("arch"));
        }
        names
    }

    fn line(spec: &CommandSpec, flags: &[&Flag], extra: &str) -> Vec<String> {
        let mut words = vec![spec.name.to_string()];
        for flag in flags {
            words.push(format!("--{}", flag.name));
            if !flag.value.is_empty() {
                words.push(sample(flag).to_string());
            }
        }
        words.extend(argv(extra));
        words
    }

    #[test]
    fn every_command_flag_pair_is_accepted_or_refused_as_the_table_says() {
        for spec in COMMANDS {
            let base = required(spec);
            parse(&line(spec, &base, "")).unwrap_or_else(|e| panic!("{} base: {e}", spec.name));
            // Every unbracketed flag really is required.
            for missing in &base {
                let rest: Vec<_> = base
                    .iter()
                    .filter(|f| f.name != missing.name)
                    .copied()
                    .collect();
                let err = parse(&line(spec, &rest, "")).unwrap_err();
                let named = format!("--{}", missing.name);
                assert!(
                    err.message().contains(&named),
                    "{} -{named}: {err}",
                    spec.name
                );
            }
            for flag in FLAGS {
                // The flag under test replaces its own base entry and the
                // placement it excludes.
                let clash = |f: &&&Flag| {
                    f.name != flag.name
                        && !(f.name == "arch" && matches!(flag.name, "spec-map" | "mcast"))
                };
                let mut flags: Vec<_> = base.iter().filter(clash).copied().collect();
                flags.push(flag);
                let result = parse(&line(spec, &flags, companions(flag.name)));
                let pair = format!("{} --{}", spec.name, flag.name);
                if spec.accepts(flag) {
                    assert!(result.is_ok(), "{pair}: {result:?}");
                    continue;
                }
                let err = result.expect_err(&pair);
                let expected = match spec.reason_against(flag.name) {
                    Some(reason) => reason.replace("{}", &format!("--{}", flag.name)),
                    None => format!("unknown option --{}", flag.name),
                };
                assert_eq!(err.message(), expected, "{pair}");
            }
        }
    }

    /// The `--flag` words of `text`.
    fn flags_named(text: &str) -> std::collections::BTreeSet<&str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .filter(|name| !name.is_empty())
            .collect()
    }

    #[test]
    fn help_lists_exactly_the_tables_flags() {
        let mut expected: std::collections::BTreeSet<&str> =
            FLAGS.iter().map(|flag| flag.name).collect();
        expected.insert("help");
        assert_eq!(flags_named(&help(None)), expected);
        for spec in COMMANDS {
            // One command's section has an option row per accepted flag,
            // and its synopsis spells each placeholder as the table does.
            let text = help(Some(spec.name));
            let rows: Vec<&str> = text
                .lines()
                .filter_map(|line| line.strip_prefix("  --"))
                .map(|row| row.split(' ').next().unwrap())
                .collect();
            let accepted: Vec<&str> = FLAGS
                .iter()
                .filter(|flag| spec.accepts(flag))
                .map(|flag| flag.name)
                .collect();
            assert_eq!(rows, accepted, "{}", spec.name);
            for name in flags_named(spec.synopsis) {
                let flag = FLAGS.iter().find(|flag| flag.name == name);
                let flag = flag.unwrap_or_else(|| panic!("{}: --{name} has no row", spec.name));
                let spelled = format!("--{name} {}", flag.value);
                assert!(
                    spec.synopsis.contains(spelled.trim_end()),
                    "{}: {spelled}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn help_for_one_command_parses_three_ways() {
        for spec in COMMANDS {
            for line in [
                format!("help {}", spec.name),
                format!("{} --help", spec.name),
                format!("{} --bogus -h", spec.name),
            ] {
                assert_eq!(
                    parse(&argv(&line)),
                    Ok(Command::Help(Some(spec.name))),
                    "{line}"
                );
            }
            assert!(help(Some(spec.name)).contains(&format!("asynoc {}", spec.name)));
        }
        let err = parse(&argv("help fly")).unwrap_err();
        assert!(err.message().contains("fly"), "{err}");
        let err = parse(&argv("help run now")).unwrap_err();
        assert!(err.message().contains("now"), "{err}");
    }

    #[test]
    fn mesh_refuses_size_and_points_at_cols_and_rows() {
        let err = parse(&argv("mesh --benchmark Tornado --rate 0.1 --size 8")).unwrap_err();
        for part in ["--size", "--cols", "--rows"] {
            assert!(err.message().contains(part), "{err}");
        }
        // The square mesh substrates are still shaped by --size.
        for line in [
            "metrics --substrate mesh --benchmark Tornado --rate 0.1 --size 4",
            "faults --substrate vcmesh --benchmark Tornado --rate 0.1 --size 4",
        ] {
            assert!(parse(&argv(line)).is_ok(), "{line}");
        }
    }

    #[test]
    fn arch_is_refused_off_the_mot_substrate_like_spec_map() {
        for command in ["metrics", "faults"] {
            for substrate in ["mesh", "vcmesh"] {
                let err = parse(&argv(&format!(
                    "{command} --substrate {substrate} --arch Baseline --benchmark Shuffle --rate 0.2"
                )))
                .unwrap_err();
                assert_eq!(err.message(), "--arch applies to the mot substrate only");
            }
        }
    }

    /// One shell line's words, quotes dropped.
    pub(crate) fn words(line: &str) -> Vec<String> {
        line.split_whitespace()
            .map(|w| w.replace(['"', '\''], ""))
            .collect()
    }

    /// The `asynoc` argument vectors a document's shell lines run through
    /// `cargo run … -p asynoc-cli --`.
    pub(crate) fn documented_lines(text: &str) -> Vec<Vec<String>> {
        let text = text.replace("\\\n", " ");
        text.lines()
            .filter(|line| !line.trim_start().starts_with('#'))
            .filter_map(|line| line.split_once("asynoc-cli -- "))
            .map(|(_, rest)| words(rest.split(" >").next().unwrap()))
            .collect()
    }

    /// The `asynoc` argument vectors of the gate table in
    /// `scripts/check.sh`: every `;`-separated step of a `name | steps` row
    /// that runs `asynoc`, with the script's `name='…'` variables expanded.
    pub(crate) fn gate_lines(script: &str) -> Vec<Vec<String>> {
        let script = script.replace("\\\n", " ");
        let variables: Vec<(String, &str)> = script
            .lines()
            .filter_map(|line| line.split_once("='"))
            .filter_map(|(name, value)| Some((format!("${name}"), value.strip_suffix('\'')?)))
            .collect();
        script
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| line.split_once(" | "))
            .flat_map(|(_, steps)| steps.split(';'))
            .filter_map(|step| step.trim().strip_prefix("asynoc "))
            .map(|step| {
                let mut step = step.split(" > ").next().unwrap().to_string();
                for (name, value) in &variables {
                    step = step.replace(name, value);
                }
                assert!(!step.contains('$'), "unexpanded variable in {step:?}");
                words(&step)
            })
            .collect()
    }

    #[test]
    fn every_documented_command_line_parses() {
        let readme = documented_lines(include_str!("../../../README.md"));
        let check = gate_lines(include_str!("../../../scripts/check.sh"));
        assert!(
            readme.len() >= 13 && check.len() >= 21,
            "the tour was not found"
        );
        for line in readme.iter().chain(&check) {
            let parsed = parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert!(!matches!(parsed, Command::Help(_)), "{line:?}");
        }
    }
}
