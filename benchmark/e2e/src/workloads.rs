//! The workloads: which `asynoc` commands make up a pass, what set-up must
//! produce first, and how every output is verified.
//!
//! Window lengths are sized so that one pass takes 2–4 s on a 2-core box:
//! a run must fit three set-ups and at least three timed passes into about
//! twenty seconds (see README.md, "Sizing").

use crate::json::Value;
use std::path::Path;

const MC10: &str = "--arch OptHybridSpeculative --benchmark Multicast10 --rate 0.4";
const VCMESH: &str = "--substrate vcmesh --benchmark Multicast5 --rate 0.1 --size 8";
const TRACE_ALL: &str = "--trace-limit 100000000";
/// Threads `pinned-parallel` asks for, whatever the host has.
pub const PINNED_THREADS: usize = 2;
/// Repetitions of the near-empty run behind `cli.fixed_cost_ms`.
const FIXED_COST_RUNS: usize = 5;

/// One `asynoc` invocation. Runs with the workload's scratch directory as
/// its working directory, so file arguments are bare names and no output
/// depends on where the checkout lives.
#[derive(Clone, Debug)]
pub struct Cmd {
    pub label: &'static str,
    pub args: Vec<String>,
    /// Whether the command accepts `--profile` (added in the traced pass).
    pub profiled: bool,
}

fn cmd(label: &'static str, profiled: bool, line: &str) -> Cmd {
    Cmd {
        label,
        args: line.split_whitespace().map(str::to_string).collect(),
        profiled,
    }
}

/// A finished command of a pass, as the checks see it.
pub struct Stage {
    pub command: String,
    pub stdout: String,
    /// First reason this command counts as failed, if any; a non-zero exit
    /// is recorded here before any check runs.
    pub failure: Option<String>,
}

impl Stage {
    fn fail(&mut self, reason: String) {
        self.failure.get_or_insert(reason);
    }
}

/// What set-up leaves behind for the checks of later passes.
#[derive(Default)]
pub struct Reference {
    /// Stdout of the set-up's input commands, in order.
    pub inputs: Vec<String>,
    /// Records in `in.trace.ndjson` (`observe-read` only).
    pub trace_records: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MotSerial,
    VcmeshSerial,
    ObserveWrite,
    ObserveRead,
    PinnedParallel,
    DefaultParallel,
}

impl Workload {
    /// `default-parallel` comes last: the barrier traffic it makes slows
    /// the VM down for whatever runs next (see README.md, Findings).
    pub const ALL: [Workload; 6] = [
        Workload::MotSerial,
        Workload::VcmeshSerial,
        Workload::ObserveWrite,
        Workload::ObserveRead,
        Workload::PinnedParallel,
        Workload::DefaultParallel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MotSerial => "mot-serial",
            Workload::VcmeshSerial => "vcmesh-serial",
            Workload::ObserveWrite => "observe-write",
            Workload::ObserveRead => "observe-read",
            Workload::PinnedParallel => "pinned-parallel",
            Workload::DefaultParallel => "default-parallel",
        }
    }

    /// Whether `BENCHMARK.json` lists the workload, so that the acceptance
    /// driver holds later changes to its bounds. `default-parallel` is
    /// reported but not gated: as many threads as CPUs, meeting at a barrier
    /// every few microseconds, measure the host's scheduler first.
    pub fn gated(self) -> bool {
        self != Workload::DefaultParallel
    }

    /// Whether the workload's children run on one CPU.
    pub fn pinned(self) -> bool {
        self == Workload::PinnedParallel
    }

    fn parallel(self) -> bool {
        matches!(self, Workload::PinnedParallel | Workload::DefaultParallel)
    }

    /// Commands set-up runs before the warm-up pass to make the inputs.
    pub fn inputs(self, seed: u64) -> Vec<Cmd> {
        let s = serial(seed);
        match self {
            // The reader's inputs come from the writer's two commands, so a
            // format change that speeds reading up pays here, in `setup_s`.
            Workload::ObserveRead => vec![
                cmd("make-stream", false, &format!("metrics {MC10} --measure-ns 4000 --metrics-out batch.json --stream in.stream.ndjson --stream-trace {TRACE_ALL} {s}")),
                cmd("make-trace", false, &format!("metrics {MC10} --measure-ns 4000 --metrics-out batch2.json --trace-out in.trace.ndjson {TRACE_ALL} {s}")),
            ],
            // The serial twin of every timed command: its output is the
            // reference, its wall the base of `engine.parallel_slowdown`.
            _ if self.parallel() => parallel_cmds(seed, Some(1)),
            _ => Vec::new(),
        }
    }

    /// The command list of one pass, run in order, one process at a time.
    pub fn pass(self, seed: u64) -> Vec<Cmd> {
        let s = serial(seed);
        match self {
            Workload::MotSerial => vec![
                cmd("run-8x8", true, &format!("run {MC10} --size 8 --measure-ns 80000 {s}")),
                cmd("run-64x64", true, &format!("run {MC10} --size 64 --measure-ns 3200 {s}")),
                cmd("run-baseline", true, &format!("run --arch Baseline --benchmark UniformRandom --rate 0.4 --measure-ns 80000 {s}")),
                cmd("faults-oracle", true, &format!("faults --arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 --fault-rate 0.15 --oracle --measure-ns 20000 {s}")),
            ],
            Workload::VcmeshSerial => vec![
                cmd("xy-tree", true, &format!("metrics {VCMESH} --mcast xy-tree --measure-ns 12000 --metrics-out xy.json {s}")),
                cmd("dpm", true, &format!("metrics {VCMESH} --mcast dpm --measure-ns 12000 --metrics-out dpm.json {s}")),
            ],
            Workload::ObserveWrite => vec![
                cmd("stream-trace", true, &format!("metrics {MC10} --measure-ns 8000 --metrics-out m1.json --stream s1.ndjson --stream-trace {TRACE_ALL} {s}")),
                cmd("trace-out", true, &format!("metrics {MC10} --measure-ns 8000 --metrics-out m2.json --trace-out t2.ndjson {TRACE_ALL} {s}")),
                cmd("windows-only", true, &format!("metrics {MC10} --measure-ns 8000 --metrics-out m3.json --stream s3.ndjson {s}")),
            ],
            Workload::ObserveRead => vec![
                cmd("watch-fold", false, "watch --stream-in in.stream.ndjson --once --fold fold.json"),
                cmd("analyze", true, "analyze --trace-in in.trace.ndjson --report-out analysis.json"),
            ],
            Workload::PinnedParallel => parallel_cmds(seed, Some(PINNED_THREADS)),
            // No --shards/--jobs: both default to every hardware thread.
            Workload::DefaultParallel => parallel_cmds(seed, None),
        }
    }

    /// Commands only a traced run adds, after the traced pass; their walls
    /// feed difference metrics and never an end-to-end number.
    pub fn extras(self, seed: u64) -> Vec<Cmd> {
        let s = serial(seed);
        // Process start + argv + building the largest network, and no events.
        let fixed = cmd(
            "fixed-cost",
            false,
            &format!("run {MC10} --size 64 --warmup-ns 0 --measure-ns 1 {s}"),
        );
        let mut extras = vec![fixed; FIXED_COST_RUNS];
        if self == Workload::ObserveWrite {
            // The same simulation as `windows-only` with no observer at all.
            extras.push(cmd(
                "bare-run",
                false,
                &format!("run {MC10} --measure-ns 8000 {s}"),
            ));
        }
        extras
    }

    /// The set-up products `bm-layers` reads, as arguments for it.
    pub fn layer_files(self) -> &'static str {
        match self {
            Workload::ObserveRead => {
                "--trace in.trace.ndjson --stream in.stream.ndjson --doc batch.json"
            }
            _ => "",
        }
    }

    /// Files every pass must write anew; the documents among them enter
    /// `sim_digest`.
    pub fn outputs(self) -> &'static [&'static str] {
        match self {
            Workload::MotSerial => &[],
            Workload::VcmeshSerial => &["xy.json", "dpm.json"],
            Workload::ObserveWrite => &[
                "m1.json",
                "m2.json",
                "m3.json",
                "s1.ndjson",
                "t2.ndjson",
                "s3.ndjson",
            ],
            Workload::ObserveRead => &["fold.json", "analysis.json"],
            Workload::PinnedParallel | Workload::DefaultParallel => &["explore.json"],
        }
    }

    /// Called once per set-up, after the input commands: keeps what later
    /// checks compare against.
    pub fn prepare(self, dir: &Path, inputs: &[Stage]) -> std::io::Result<Reference> {
        let mut reference = Reference {
            inputs: inputs.iter().map(|s| s.stdout.clone()).collect(),
            trace_records: 0,
        };
        match self {
            Workload::ObserveRead => {
                reference.trace_records = trace_records(dir, "in.trace.ndjson")?
            }
            Workload::PinnedParallel | Workload::DefaultParallel => {
                std::fs::rename(dir.join("explore.json"), dir.join("explore.serial.json"))?
            }
            _ => {}
        }
        Ok(reference)
    }

    /// Verifies one finished pass; a failed check marks the command it
    /// belongs to. `warm` is the stdout of the set-up's warm-up pass.
    pub fn check(
        self,
        dir: &Path,
        stages: &mut [Stage],
        reference: &Reference,
        warm: Option<&[String]>,
    ) {
        for (index, stage) in stages.iter_mut().enumerate() {
            // The simulator is deterministic: any two passes print the same.
            if let Some(expected) = warm.and_then(|w| w.get(index)) {
                if let Some(reason) = first_difference(
                    "stdout vs warm-up pass",
                    expected.as_bytes(),
                    stage.stdout.as_bytes(),
                ) {
                    stage.fail(reason);
                }
            }
        }
        let result = match self {
            Workload::MotSerial => check_mot_serial(stages),
            Workload::VcmeshSerial => check_vcmesh(dir, stages),
            Workload::ObserveWrite => check_observe_write(dir, stages),
            Workload::ObserveRead => check_observe_read(dir, stages, reference),
            Workload::PinnedParallel | Workload::DefaultParallel => {
                check_parallel(dir, stages, reference)
            }
        };
        // A check that could not even read its document fails the pass's
        // last command, which is the one that should have produced it.
        if let (Err(reason), Some(last)) = (result, stages.last_mut()) {
            last.fail(reason);
        }
    }
}

/// The commands of the two parallel workloads, with `--jobs` and `--shards`
/// set to `threads`, or left to their defaults.
fn parallel_cmds(seed: u64, threads: Option<usize>) -> Vec<Cmd> {
    let mut cmds = vec![
        cmd("run-64x64", true, &format!("run {MC10} --size 64 --measure-ns 400 --seed {seed}")),
        cmd("saturate", true, &format!("saturate --arch OptHybridSpeculative --benchmark Multicast10 --quick --seed {seed}")),
        cmd("explore", false, &format!("explore --size 4 --report-out explore.json --seed {seed}")),
    ];
    for cmd in &mut cmds {
        if let Some(threads) = threads {
            let threads = threads.to_string();
            cmd.args
                .extend(["--jobs", &threads, "--shards", &threads].map(String::from));
        }
    }
    cmds
}

fn serial(seed: u64) -> String {
    format!("--shards 1 --jobs 1 --seed {seed}")
}

/// Records in an NDJSON trace file: its lines, less the leading meta line.
/// Streamed through a small buffer: a child's `ru_maxrss` starts from the
/// harness's own resident size at spawn, so the harness must stay small.
pub fn trace_records(dir: &Path, name: &str) -> std::io::Result<u64> {
    let mut file = std::fs::File::open(dir.join(name))?;
    let mut buffer = [0u8; 1 << 16];
    let mut lines = 0u64;
    loop {
        match std::io::Read::read(&mut file, &mut buffer)? {
            0 => return Ok(lines.saturating_sub(1)),
            n => lines += buffer[..n].iter().filter(|&&byte| byte == b'\n').count() as u64,
        }
    }
}

/// Reads and parses a JSON document from the scratch directory.
pub fn read_doc(dir: &Path, name: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{name}: {e}"))
}

/// `None` when equal, else where the two byte strings first differ.
pub fn first_difference(what: &str, expected: &[u8], actual: &[u8]) -> Option<String> {
    if expected == actual {
        return None;
    }
    let at = expected
        .iter()
        .zip(actual)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(actual.len()));
    let show =
        |bytes: &[u8]| String::from_utf8_lossy(&bytes[at..bytes.len().min(at + 24)]).into_owned();
    Some(format!(
        "{what}: first difference at byte {at} (lengths {} vs {}): expected {:?}, got {:?}",
        expected.len(),
        actual.len(),
        show(expected),
        show(actual)
    ))
}

fn files_equal(dir: &Path, expected: &str, actual: &str) -> Result<Option<String>, String> {
    let read = |name: &str| std::fs::read(dir.join(name)).map_err(|e| format!("{name}: {e}"));
    Ok(first_difference(
        &format!("{actual} vs {expected}"),
        &read(expected)?,
        &read(actual)?,
    ))
}

fn check_mot_serial(stages: &mut [Stage]) -> Result<(), String> {
    let faults = &mut stages[3];
    let report = Value::parse(&faults.stdout).map_err(|e| format!("faults report: {e}"))?;
    if report.at("oracle/pass") != Some(&Value::Bool(true)) {
        faults.fail(format!(
            "field oracle/pass is {:?}, expected true",
            report.at("oracle/pass")
        ));
    }
    Ok(())
}

fn check_vcmesh(dir: &Path, stages: &mut [Stage]) -> Result<(), String> {
    let mut links = [0.0; 2];
    for (index, name) in ["xy.json", "dpm.json"].into_iter().enumerate() {
        let doc = read_doc(dir, name)?;
        if doc.get("schema").and_then(Value::as_str) != Some("asynoc-metrics-v1") {
            stages[index].fail(format!("{name}: field schema is {:?}", doc.get("schema")));
        }
        let acceptance = doc.num("throughput/acceptance")?;
        if acceptance < 0.95 {
            stages[index].fail(format!(
                "{name}: field throughput/acceptance is {acceptance}, expected >= 0.95"
            ));
        }
        links[index] = doc.num("vcs/link_traversals")?;
    }
    if links[1] > links[0] {
        stages[1].fail(format!(
            "field vcs/link_traversals: dpm {} exceeds xy-tree {}",
            links[1], links[0]
        ));
    }
    Ok(())
}

fn check_observe_write(dir: &Path, stages: &mut [Stage]) -> Result<(), String> {
    for (index, name) in [(1, "m2.json"), (2, "m3.json")] {
        if let Some(reason) = files_equal(dir, "m1.json", name)? {
            stages[index].fail(reason);
        }
    }
    // The meta record leads the trace file; one line is all that is read.
    let trace =
        std::fs::File::open(dir.join("t2.ndjson")).map_err(|e| format!("t2.ndjson: {e}"))?;
    let mut head = String::new();
    std::io::BufRead::read_line(&mut std::io::BufReader::new(trace), &mut head)
        .map_err(|e| format!("t2.ndjson: {e}"))?;
    let dropped = Value::parse(&head)
        .map_err(|e| format!("t2.ndjson line 1: {e}"))?
        .num("dropped_events")?;
    if dropped != 0.0 {
        stages[1].fail(format!(
            "t2.ndjson: field dropped_events is {dropped}, expected 0"
        ));
    }
    Ok(())
}

fn check_observe_read(
    dir: &Path,
    stages: &mut [Stage],
    reference: &Reference,
) -> Result<(), String> {
    if let Some(reason) = files_equal(dir, "batch.json", "fold.json")? {
        stages[0].fail(reason);
    }
    let report = read_doc(dir, "analysis.json")?;
    let records = report.num("ingest/records")?;
    if records != reference.trace_records as f64 {
        stages[1].fail(format!(
            "field ingest/records is {records}, the trace holds {}",
            reference.trace_records
        ));
    }
    let broken = report.num("ingest/broken_trees")?;
    if broken != 0.0 {
        stages[1].fail(format!("field ingest/broken_trees is {broken}, expected 0"));
    }
    Ok(())
}

fn check_parallel(dir: &Path, stages: &mut [Stage], reference: &Reference) -> Result<(), String> {
    for (stage, serial) in stages.iter_mut().zip(&reference.inputs) {
        if let Some(reason) = first_difference(
            "stdout vs --jobs 1 --shards 1",
            serial.as_bytes(),
            stage.stdout.as_bytes(),
        ) {
            stage.fail(reason);
        }
    }
    if let Some(reason) = files_equal(dir, "explore.serial.json", "explore.json")? {
        stages[2].fail(reason);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_names_the_byte() {
        assert_eq!(first_difference("x", b"same", b"same"), None);
        let reason = first_difference("x", b"p50 1458 ps", b"p50 1459 ps").unwrap();
        assert!(
            reason.contains("byte 7") && reason.contains("\"8 ps\"") && reason.contains("\"9 ps\""),
            "{reason}"
        );
        let reason = first_difference("x", b"abc", b"abcd").unwrap();
        assert!(
            reason.contains("byte 3") && reason.contains("lengths 3 vs 4"),
            "{reason}"
        );
    }

    #[test]
    fn trace_records_counts_lines_after_the_meta_line() {
        let dir = std::env::temp_dir();
        let name = format!("bm-e2e-trace-{}.ndjson", std::process::id());
        // Longer than the read buffer, so a count must survive a refill.
        let record = format!("{{\"pad\":\"{}\"}}\n", "x".repeat(1000));
        std::fs::write(
            dir.join(&name),
            format!("{{\"schema\":\"meta\"}}\n{}", record.repeat(200)),
        )
        .unwrap();
        assert_eq!(trace_records(&dir, &name).unwrap(), 200);
        std::fs::write(dir.join(&name), "").unwrap();
        assert_eq!(trace_records(&dir, &name).unwrap(), 0);
        std::fs::remove_file(dir.join(&name)).unwrap();
    }

    #[test]
    fn parallel_variants_differ_only_by_the_thread_flags() {
        let default = Workload::DefaultParallel.pass(9);
        assert!(!default
            .iter()
            .any(|cmd| cmd.args.iter().any(|a| a == "--jobs" || a == "--shards")));
        for (cmds, flags) in [
            (
                Workload::DefaultParallel.inputs(9),
                ["--jobs", "1", "--shards", "1"],
            ),
            (
                Workload::PinnedParallel.inputs(9),
                ["--jobs", "1", "--shards", "1"],
            ),
            (
                Workload::PinnedParallel.pass(9),
                ["--jobs", "2", "--shards", "2"],
            ),
        ] {
            assert_eq!(cmds.len(), default.len());
            for (cmd, default) in cmds.iter().zip(&default) {
                let shared = default.args.len();
                assert_eq!(cmd.args[..shared], default.args[..]);
                assert_eq!(cmd.args[shared..], flags);
            }
        }
    }

    #[test]
    fn every_command_carries_the_seed_or_reads_seeded_inputs() {
        for workload in Workload::ALL {
            for cmd in workload
                .pass(1234)
                .iter()
                .chain(&workload.inputs(1234))
                .chain(&workload.extras(1234))
            {
                let seeded = cmd
                    .args
                    .windows(2)
                    .any(|w| w[0] == "--seed" && w[1] == "1234");
                let reads_inputs = cmd.args.iter().any(|a| a.starts_with("in."));
                assert!(seeded || reads_inputs, "{} {:?}", workload.name(), cmd.args);
            }
        }
    }
}
