//! `bm-layers` — the per-layer tier of the asynoc benchmark.
//!
//! Times in-process calls into the workspace crates on a workload's own
//! inputs and prints one `metric <name> <value>` line per number and one
//! `span <name> <start_ns> <end_ns>` line per call (nanoseconds since this
//! process started). `bm-e2e` runs it in the workload's scratch directory
//! after the traced pass and merges both into its report; every call goes
//! through an adapter in `layers.rs`.

mod layers;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: bm-layers --workload <name> --seed <n> --depth <n> --measure-ns <n> \
    [--trace <file> --stream <file> --doc <file>]";

/// Hold-model steps timed for `kernel.queue_ns_per_op`.
const HOLD_OPS: u64 = 1_000_000;
const BARRIER_ROUNDS: u64 = 20_000;
const EMPTY_TASKS: u64 = 200_000;
/// Repetitions behind a median for calls that take milliseconds.
const REPEATS: usize = 5;

struct Timer {
    epoch: Instant,
}

impl Timer {
    /// Runs `call`, prints its span and returns its result and seconds.
    fn time<R>(&self, name: &str, call: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let result = black_box(call());
        let end = Instant::now();
        println!(
            "span {name} {} {}",
            (start - self.epoch).as_nanos(),
            (end - self.epoch).as_nanos()
        );
        (result, (end - start).as_secs_f64())
    }

    /// Median seconds of `REPEATS` runs of `call`.
    fn median<R>(&self, name: &str, mut call: impl FnMut() -> R) -> f64 {
        let mut seconds: Vec<f64> = (0..REPEATS).map(|_| self.time(name, &mut call).1).collect();
        seconds.sort_by(f64::total_cmp);
        seconds[REPEATS / 2]
    }
}

fn metric(name: &str, value: f64) {
    println!("metric {name} {value}");
}

struct Args {
    workload: String,
    seed: u64,
    depth: usize,
    measure_ns: u64,
    trace: Option<String>,
    stream: Option<String>,
    doc: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        depth: 0,
        measure_ns: 0,
        trace: None,
        stream: None,
        doc: None,
    };
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--depth" => args.depth = value.parse().map_err(|_| bad())?,
            "--measure-ns" => args.measure_ns = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = Some(value.clone()),
            "--stream" => args.stream = Some(value.clone()),
            "--doc" => args.doc = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn read(path: &Option<String>, flag: &str) -> Result<String, String> {
    let path = path
        .as_ref()
        .ok_or(format!("{flag} is required for this workload"))?;
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args) -> Result<(), String> {
    let timer = Timer {
        epoch: Instant::now(),
    };
    if args.depth > 0 {
        let (_, seconds) = timer.time("CalendarQueue::hold", || {
            layers::queue_hold(args.depth, HOLD_OPS)
        });
        metric(
            "kernel.queue_ns_per_op",
            seconds * 1e9 / (2 * HOLD_OPS) as f64,
        );
    }
    match args.workload.as_str() {
        "mot-serial" => {
            metric(
                "core.build_ms_8",
                timer.median("Network::new(8)", || layers::build_network(8, args.seed)) * 1e3,
            );
            metric(
                "core.build_ms_64",
                timer.median("Network::new(64)", || layers::build_network(64, args.seed)) * 1e3,
            );
            let network = layers::build_network(8, args.seed);
            let (mut report, seconds) = timer.time("Network::run", || {
                layers::run_network(&network, args.measure_ns)
            });
            metric("core.run_s", seconds);
            // Simulated results: exact, and identical on every host.
            let ps = |d: Option<asynoc::Duration>| d.map_or(0.0, |d| d.as_ps() as f64);
            metric("core.sim_p50_ps", ps(report.latency.median()));
            metric("core.sim_p99_ps", ps(report.latency.p99()));
            metric("core.sim_delivered_gfs", report.throughput.delivered);
            metric("core.sim_power_mw", report.power.total_mw());
            metric("core.throttled_flits", report.flits_throttled as f64);
            let copies = (report.flits_delivered + report.flits_throttled) as f64;
            metric(
                "core.useful_copy_ratio",
                report.flits_delivered as f64 / copies.max(1.0),
            );
        }
        "vcmesh-serial" => {
            let (_, seconds) = timer.time("VcMeshNetwork::run", || {
                layers::run_vcmesh(args.seed, args.measure_ns)
            });
            metric("vcmesh.run_s", seconds);
        }
        "observe-read" => {
            let (trace, stream, doc) = (
                read(&args.trace, "--trace")?,
                read(&args.stream, "--stream")?,
                read(&args.doc, "--doc")?,
            );
            let ((meta, records), seconds) =
                timer.time("parse_trace", || layers::parse_trace_text(&trace));
            let count = records.len().max(1) as f64;
            metric("telemetry.parse_ns_per_record", seconds * 1e9 / count);
            let (_, seconds) = timer.time("fold_stream", || layers::fold_stream_text(&stream));
            metric("telemetry.fold_ns_per_record", seconds * 1e9 / count);
            let seconds = timer.median("JsonValue::parse", || layers::parse_json(&doc));
            metric(
                "telemetry.json_parse_mb_per_s",
                doc.len() as f64 / 1e6 / seconds,
            );
            let (analysis, seconds) =
                timer.time("Analysis::build", || layers::build_analysis(meta, records));
            metric("analysis.build_ns_per_record", seconds * 1e9 / count);
            metric(
                "analysis.to_json_ms",
                timer.median("Analysis::to_json", || layers::analysis_to_json(&analysis)) * 1e3,
            );
        }
        "default-parallel" | "pinned-parallel" => {
            // `pinned-parallel` asks for two threads, whatever the host has.
            let threads = match args.workload.as_str() {
                "pinned-parallel" => 2,
                _ => layers::threads(),
            };
            let (_, seconds) = timer.time("WindowBarrier::round_trip", || {
                layers::barrier_round_trips(threads, BARRIER_ROUNDS)
            });
            metric(
                "kernel.barrier_us_per_sync",
                seconds * 1e6 / BARRIER_ROUNDS as f64,
            );
            let (_, seconds) = timer.time("parallel_map", || {
                layers::parallel_map_empty(threads, EMPTY_TASKS)
            });
            metric(
                "kernel.parallel_map_us_per_task",
                seconds * 1e6 / EMPTY_TASKS as f64,
            );
        }
        "observe-write" => {} // its layer is measured by file sizes and wall differences
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bm-layers: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
