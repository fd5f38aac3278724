//! `bm-e2e` — the end-to-end tier of the asynoc benchmark.
//!
//! Drives the release `asynoc` binary the way a user does (argv, files and
//! the pinned `asynoc-*-v1` documents only), one child process at a time,
//! verifies every output and prints every metric by name. It depends on no
//! workspace crate, so it keeps reporting through any API refactor; the
//! in-process layer timings come from the separate `bm-layers` binary.
//! `benchmark/run.sh` builds everything and is the command to run.

mod affinity;
mod child;
mod digest;
mod json;
mod measure;
mod metrics;
mod profile;
mod reference;
mod rows;
mod spans;
mod stats;
mod workloads;

use measure::{measure, Options, Outcome};
use metrics::{END_TO_END, PER_LAYER};
use spans::{quote, Recorder};
use stats::{median, spread};
use std::io::{self, BufWriter};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str =
    "usage: bm-e2e --asynoc <binary> --scratch <dir> [--layers <binary>] [--spans <file>] \
    [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--selfcheck]";

/// Σ stage walls must reach 98 % of a pass, first spawn to last exit.
const MAX_HARNESS_GAP_SHARE: f64 = 0.02;

/// The seed `--selfcheck` holds out: never used while the workloads were sized.
const HELD_OUT_SEED: u64 = 7;

struct Args {
    options: Options,
    /// One workload when named, else the whole matrix.
    workloads: Vec<Workload>,
    /// Where a traced run writes its spans when it ends.
    spans: Option<PathBuf>,
    selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut asynoc, mut layers, mut scratch, mut spans) = (None, None, None, None);
    let (mut seed, mut seconds, mut trace, mut selfcheck) = (42, 12.0, true, false);
    let mut workloads = Workload::ALL.to_vec();
    let mut words = argv.iter();
    while let Some(flag) = words.next() {
        if flag == "--selfcheck" {
            selfcheck = true;
            continue;
        }
        let value = words.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--asynoc" => asynoc = Some(PathBuf::from(value)),
            "--layers" => layers = Some(PathBuf::from(value)),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            "--workload" => {
                workloads = vec![Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .ok_or_else(bad)?]
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = matches!(value.as_str(), "0" | "1")
                    .then(|| value == "1")
                    .ok_or_else(bad)?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let options = Options {
        asynoc: asynoc.ok_or("--asynoc is required")?,
        layers,
        scratch: scratch.ok_or("--scratch is required")?,
        seed,
        seconds,
        trace,
    };
    Ok(Args {
        options,
        workloads,
        spans,
        selfcheck,
    })
}

/// Prints every metric of one workload by name, then — as the last line —
/// the JSON result object: the end-to-end metrics of an untraced run, the
/// per-layer metrics of a traced one.
fn report(outcome: &Outcome, options: &Options) {
    println!(
        "workload {}  seed {}  sim_digest {:016x}  attempted {}  failed {}",
        outcome.workload.name(),
        options.seed,
        outcome.digest,
        outcome.attempted,
        outcome.failed
    );
    println!(
        "  {:<36} {:>16} {:<6} {:>3} {:>8} {:<7} {:>6}",
        "end to end", "median", "unit", "n", "spread", "better", "bound"
    );
    let entry = |name: &str, value: f64, unit: &str| {
        format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        )
    };
    let mut json = Vec::new();
    for def in &END_TO_END {
        let samples = outcome.samples(def.name);
        println!(
            "  {:<36} {:>16.6} {:<6} {:>3} {:>7.2}% {:<7} {:>5.0}%",
            def.name,
            median(samples),
            def.unit,
            samples.len(),
            spread(samples) * 100.0,
            def.better.word(),
            def.bound * 100.0
        );
        let listed: Vec<String> = samples.iter().map(|s| format!("{s:.3}")).collect();
        println!("  {:<36} {}", "", listed.join(" "));
        json.push(entry(def.name, median(samples), def.unit));
    }
    let unscaled = &outcome.unscaled;
    println!(
        "  host speed {:.3} (reference kernel: {:.3} s nominal / measured); \
        as the clock read them: wall_s {:.3}  cpu_s {:.3}  setup_s {:.3}",
        outcome.host_speed,
        reference::NOMINAL_S,
        unscaled.wall_s,
        unscaled.cpu_s,
        unscaled.setup_s
    );
    if let Some(layers) = &outcome.layers {
        json.clear();
        println!(
            "  {:<36} {:>16} {:<6} {:>3} {:>8} {:<7}",
            "per layer (traced pass)", "value", "unit", "src", "", "better"
        );
        for (def, value) in PER_LAYER.iter().zip(layers.values()) {
            let shown = value.map_or("missing".to_string(), |v| format!("{v:.6}"));
            println!(
                "  {:<36} {shown:>16} {:<6} {:>3} {:>8} {:<7}",
                def.name,
                def.unit,
                def.source.letter(),
                "",
                def.better.word()
            );
            json.extend(value.map(|value| entry(def.name, value, def.unit)));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
}

/// Measures and reports the selected workloads.
fn run_matrix(args: &Args, rec: &mut Recorder) -> io::Result<Vec<Outcome>> {
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        let outcome = measure(workload, &args.options, rec)?;
        report(&outcome, &args.options);
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// Two full sets at the given seed must agree within each metric's own
/// bound on every gated workload, and a held-out seed must verify too.
fn selfcheck(mut args: Args) -> io::Result<bool> {
    args.options.trace = false;
    let mut rec = Recorder::new(false);
    let first = run_matrix(&args, &mut rec)?;
    let second = run_matrix(&args, &mut rec)?;
    let mut ok = first.iter().chain(&second).all(Outcome::correct);
    println!("selfcheck: two sets at seed {}", args.options.seed);
    println!(
        "  {:<18} {:<12} {:>12} {:>12} {:>9} {:>6}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        // Closure: the stage walls must account for the pass.
        for set in [a, b]
            .into_iter()
            .filter(|set| set.harness_gap_share > MAX_HARNESS_GAP_SHARE)
        {
            ok = false;
            println!(
                "  {:<18} harness_gap_share {:.4} exceeds {MAX_HARNESS_GAP_SHARE}",
                set.workload.name(),
                set.harness_gap_share
            );
        }
        for def in &END_TO_END {
            let (x, y) = (median(a.samples(def.name)), median(b.samples(def.name)));
            let differ = (y - x).abs() / x;
            let verdict = match (differ <= def.bound, a.workload.gated()) {
                (true, _) => "",
                (false, true) => "  EXCEEDS ITS BOUND",
                (false, false) => "  exceeds the bound (not gated)",
            };
            ok &= differ <= def.bound || !a.workload.gated();
            println!(
                "  {:<18} {:<12} {x:>12.4} {y:>12.4} {:>8.2}% {:>5.0}%{verdict}",
                a.workload.name(),
                def.name,
                differ * 100.0,
                def.bound * 100.0
            );
        }
    }
    args.options.seed = HELD_OUT_SEED;
    println!("selfcheck: held-out seed {HELD_OUT_SEED}");
    let held_out = run_matrix(&args, &mut rec)?;
    Ok(ok && held_out.iter().all(Outcome::correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--reference"] {
        std::hint::black_box(reference::run());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bm-e2e: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.selfcheck {
        selfcheck(args)
    } else {
        let mut rec = Recorder::new(args.options.trace);
        run_matrix(&args, &mut rec).and_then(|outcomes| {
            if let Some(path) = args.spans.as_ref().filter(|_| args.options.trace) {
                rec.write_ndjson(&mut BufWriter::new(std::fs::File::create(path)?))?;
            }
            Ok(outcomes.iter().all(Outcome::correct))
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("bm-e2e: {error}");
            ExitCode::from(2)
        }
    }
}
