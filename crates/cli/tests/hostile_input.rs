//! Hostile input through the real binary: every byte a user can hand the
//! tool — JSON, a stream, a placement or argv — yields a located `error:`
//! line and exit 1 (bad file) or 2 (bad flag), never an abort.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use asynoc_cli::args::{COMMANDS, FLAGS};
use asynoc_kernel::SimRng;

fn asynoc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asynoc"))
        .args(args)
        .output()
        .expect("the binary runs")
}

fn fixture(name: &str, content: &str) -> String {
    let file = format!("asynoc-hostile-{}-{name}", std::process::id());
    let path = std::env::temp_dir().join(file);
    std::fs::write(&path, content).expect("fixture written");
    path.to_string_lossy().into_owned()
}

/// The `head` record of a minimal stream.
const STREAM_HEAD: &str = r#"{"schema":"asynoc-stream-v1","type":"head","substrate":"mot","config":{},"window_ps":1000,"bin_ps":1000,"levels":[],"endpoints":4,"trace":false}"#;

/// Exit 1 and a single ordinary `error:` line carrying `located`.
fn assert_located_error(output: &Output, located: &[&str]) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    for part in located {
        assert!(stderr.contains(part), "{part:?} missing from: {stderr}");
    }
}

#[test]
fn two_million_open_brackets_are_an_error_not_an_abort() {
    // This line used to overflow the stack of the recursive parser
    // (`fatal runtime error: stack overflow`, exit 134) on all three paths.
    let deep = "[".repeat(2_000_000);
    let where_ = ["byte 128", "nesting deeper than 128 levels"];

    let trace = fixture("trace.ndjson", &format!("{deep}\n"));
    let output = asynoc(&["analyze", "--trace-in", &trace]);
    assert_located_error(&output, &[&trace, "line 1", where_[0], where_[1]]);
    // `--lenient` skips the line like any other malformed one.
    let output = asynoc(&["analyze", "--trace-in", &trace, "--lenient"]);
    assert_located_error(&output, &["no trace records to analyze"]);

    let stream = fixture("stream.ndjson", &format!("{STREAM_HEAD}\n{deep}\n"));
    let output = asynoc(&["watch", "--stream-in", &stream, "--once", "--fold", "-"]);
    assert_located_error(&output, &["--fold", "line 2", where_[0], where_[1]]);
    // Without `--fold` the dashboard counts the line and carries on.
    let output = asynoc(&["watch", "--stream-in", &stream, "--once"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("1 malformed line(s) skipped"), "{stdout}");

    let map = fixture("map.json", &deep);
    let spec = format!("@{map}");
    let output = asynoc(&[
        "run",
        "--spec-map",
        &spec,
        "--benchmark",
        "Multicast5",
        "--rate",
        "0.2",
    ]);
    assert_located_error(&output, &["--spec-map", where_[0], where_[1]]);

    for path in [trace, stream, map] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn a_misread_integer_fails_the_analysis_instead_of_skewing_it() {
    let line = |flit: &str| {
        format!(
            "{{\"t_ps\":10,\"packet\":1,\"flit\":{flit},\"site\":\"src0\",\
             \"action\":\"inject\",\"detail\":\"\",\"copies\":1}}\n"
        )
    };
    let trace = fixture("flit.ndjson", &format!("{}{}", line("0"), line("300")));
    let output = asynoc(&["analyze", "--trace-in", &trace]);
    assert_located_error(&output, &["line 2: field \"flit\": 300 does not fit u8"]);
    let output = asynoc(&["analyze", "--trace-in", &trace, "--lenient"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"skipped_lines\": 1"), "{stdout}");
    let _ = std::fs::remove_file(trace);
}

#[test]
fn out_of_range_run_flags_are_usage_errors_not_panics() {
    // Each of these used to reach an `assert!` or an overflowing time
    // addition inside the simulator and abort with exit 101.
    let commands: [&[&str]; 4] = [
        &["run", "--arch", "Baseline"],
        &["mesh"],
        &["metrics", "--substrate", "vcmesh"],
        &["faults", "--substrate", "mesh"],
    ];
    let huge = u64::MAX.to_string();
    let just_over = (u64::MAX / 1_000 + 1).to_string();
    let flags: [(&str, &str); 7] = [
        ("--flits", "0"),
        ("--measure-ns", "0"),
        ("--measure-ns", &huge),
        ("--measure-ns", &just_over),
        ("--warmup-ns", &huge),
        ("--stream-window-ns", &huge),
        ("--bin-ns", &huge),
    ];
    for command in commands {
        for (flag, value) in flags {
            if flag == "--bin-ns" && command[0] != "metrics" {
                continue;
            }
            let mut args = command.to_vec();
            args.extend(["--benchmark", "Shuffle", "--rate", "0.2"]);
            if command[0] != "mesh" {
                args.extend(["--size", "4"]);
            }
            args.extend(["--stream", "-", flag, value]);
            let output = asynoc(&args);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
            let first = stderr.lines().next().unwrap_or_default();
            assert!(
                first.starts_with("error: ") && first.contains(flag),
                "{args:?}: {first}"
            );
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
    // A window the flag range allows is a run, however long: sizing the
    // latency reservoir for it up front used to abort at once (`memory
    // allocation of 12800000000000592 bytes failed`, exit 134).
    let mut child = Command::new(env!("CARGO_BIN_EXE_asynoc"))
        .args(["run", "--arch", "Baseline", "--benchmark", "UniformRandom"])
        .args(["--rate", "0.4", "--measure-ns", "2000000000000000"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("the binary runs");
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(2) {
        let exited = child.try_wait().expect("child is waitable");
        assert_eq!(exited, None, "a 2e15 ns window cannot end in 2 s");
        std::thread::sleep(Duration::from_millis(50));
    }
    child.kill().expect("still running, so killable");
    child.wait().expect("reaped");
}

#[test]
fn a_non_power_of_two_mesh_says_so() {
    let output = asynoc(&[
        "metrics",
        "--substrate",
        "mesh",
        "--benchmark",
        "Shuffle",
        "--rate",
        "0.2",
        "--size",
        "3",
    ]);
    assert_located_error(&output, &["3x3", "(9) must be a power of two"]);
}

#[test]
fn a_usage_error_prints_its_command_synopsis_not_the_whole_help() {
    let output = asynoc(&["sweep", "--arch", "Baseline", "--steps", "1"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    assert!(lines[0].starts_with("error: "), "{stderr}");
    assert!(stderr.contains("USAGE:\n  asynoc sweep "), "{stderr}");
    assert_eq!(lines.last(), Some(&"see `asynoc help`"), "{stderr}");
    assert!(
        lines.len() < 10 && !stderr.contains("asynoc run"),
        "{stderr}"
    );
}

#[test]
fn help_after_a_command_is_that_commands_section_and_exit_zero() {
    for args in [["run", "--help"], ["run", "-h"], ["help", "run"]] {
        let output = asynoc(&args);
        assert_eq!(output.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("asynoc run "), "{stdout}");
        assert!(stdout.contains("--seeds <K>"), "{stdout}");
        assert!(!stdout.contains("asynoc sweep"), "{stdout}");
        assert!(output.stderr.is_empty(), "{args:?}");
    }
}

/// Values a flag can be handed: plausible ones, and junk that is empty,
/// negative, non-finite, overflowing, or shaped like another flag.
const VALUES: [&str; 26] = [
    "0",
    "1",
    "2",
    "8",
    "0.2",
    "-1",
    "NaN",
    "inf",
    "1e999",
    "18446744073709551615",
    "18446744073709551616",
    "",
    "-",
    "--",
    "--rate",
    "--help",
    "-h",
    "Baseline",
    "Shuffle",
    "levels:sp,ns,ns",
    "mot",
    "vcmesh",
    "dpm",
    "chrome",
    "node",
    "\u{fffd}junk",
];

/// One argv drawn from the flag and command tables, then shuffled,
/// duplicated into, or truncated.
fn mutated_argv(rng: &mut SimRng) -> Vec<String> {
    let spec = &COMMANDS[rng.index(COMMANDS.len())];
    let accepted: Vec<_> = FLAGS.iter().filter(|flag| spec.accepts(flag)).collect();
    let mut args = vec![spec.name.to_string()];
    for _ in 0..rng.index(7) {
        // Mostly a flag the command takes, so the refusals come from
        // deeper than "unknown option".
        let flag = if rng.chance(0.8) {
            accepted[rng.index(accepted.len())]
        } else {
            &FLAGS[rng.index(FLAGS.len())]
        };
        args.push(format!("--{}", flag.name));
        // Mostly the arity the table gives; sometimes the other one.
        if flag.value.is_empty() == rng.chance(0.1) {
            args.push(VALUES[rng.index(VALUES.len())].to_string());
        }
    }
    match rng.index(4) {
        0 => {
            for _ in 0..args.len() {
                let (a, b) = (rng.index(args.len()), rng.index(args.len()));
                args.swap(a, b);
            }
        }
        1 => args.push(args[rng.index(args.len())].clone()),
        2 => args.truncate(1 + rng.index(args.len())),
        _ => {}
    }
    args
}

#[test]
fn mutated_argv_never_panics_and_every_refusal_is_a_usage_error() {
    let mut rng = SimRng::seed_from(0x00A5_7A0C);
    let (mut refused, mut helped) = (0, 0);
    for _ in 0..600 {
        let args = mutated_argv(&mut rng);
        // A line that parses would start a simulation; the parser having
        // returned at all is the property for those.
        let expected = match asynoc_cli::parse(&args) {
            Err(_) => 2,
            Ok(asynoc_cli::Command::Help(_)) => 0,
            Ok(_) => continue,
        };
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let output = asynoc(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(expected), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        if expected == 2 {
            let first = stderr.lines().next().unwrap_or_default();
            assert!(first.starts_with("error: "), "{args:?}: {stderr}");
            refused += 1;
        } else {
            helped += 1;
        }
    }
    assert!(
        refused > 200 && helped > 0,
        "{refused} refused, {helped} helped"
    );
}

#[test]
fn a_malformed_inline_spec_map_is_a_usage_error_like_a_malformed_arch() {
    let tail = ["--benchmark", "Shuffle", "--rate", "0.2"];
    let run = |flag: &str, value: &str| {
        let output = asynoc(&[&["run", flag, value], &tail[..]].concat());
        (
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).into_owned(),
        )
    };
    let (arch_code, arch_err) = run("--arch", "NoSuchNetwork");
    for (bad, detail) in [
        (
            "levels:sp,ns",
            "--spec-map: speculation map has 2 levels but the tree has 3",
        ),
        (
            "levels:ns,ns,sp",
            "--spec-map: leaf fanout level cannot be speculative",
        ),
        (
            "nonsense",
            "--spec-map: invalid speculation map: expected a preset name",
        ),
        (
            "levels:ons,ons,ons;node:0.4294967296.0=osp",
            "--spec-map: fanout node s0:4294967296.0 out of range for 8x8 network",
        ),
    ] {
        let (code, stderr) = run("--spec-map", bad);
        assert_eq!(code, arch_code, "{bad}: {stderr}");
        assert_eq!(code, Some(2), "{bad}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with(&format!("error: {detail}")),
            "{bad}: {first}"
        );
        // Same shape as the --arch refusal: the line, then the synopsis.
        assert_eq!(
            stderr.lines().skip(1).collect::<Vec<_>>(),
            arch_err.lines().skip(1).collect::<Vec<_>>(),
            "{bad}"
        );
    }
    // The same placement in a file is a bad file: exit 1, one line.
    let file = fixture(
        "wrap.json",
        r#"{"levels":["ons","ons","ons"],"nodes":[{"tree":0,"level":4294967296,"index":0,"kind":"osp"}]}"#,
    );
    let (code, stderr) = run("--spec-map", &format!("@{file}"));
    let _ = std::fs::remove_file(&file);
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("s0:4294967296.0 out of range"), "{stderr}");
}

#[test]
fn a_single_pass_watch_over_something_else_is_an_error_not_an_empty_dashboard() {
    let empty = fixture("empty.ndjson", "");
    let trace = fixture(
        "not-a-stream.ndjson",
        "{\"t_ps\":10,\"packet\":1,\"flit\":0,\"site\":\"src0\",\"action\":\"inject\",\"detail\":\"\",\"copies\":1}\n",
    );
    for path in [empty, trace] {
        let output = asynoc(&["watch", "--stream-in", &path, "--once"]);
        assert_located_error(
            &output,
            &["line 1: expected a \"asynoc-stream-v1\" head record"],
        );
        assert!(output.stdout.is_empty(), "no dashboard for a non-stream");
        let _ = std::fs::remove_file(path);
    }
}

/// A path no file can be created at, and the argv of a small MoT run.
const NOWHERE: &str = "/nonexistent-asynoc-dir/out";
const SMALL_RUN: [&str; 10] = [
    "--arch",
    "Baseline",
    "--benchmark",
    "Shuffle",
    "--rate",
    "0.2",
    "--warmup-ns",
    "20",
    "--measure-ns",
    "100",
];

/// `command … flag NOWHERE` fails with the flag, the path and the OS error
/// on its one `error:` line, with nothing on stdout and — where `command`
/// alone works for seconds — long before the work could have been done.
fn assert_fails_before_it_works(command: &[&str], flag: &str) {
    let started = Instant::now();
    let output = asynoc(&[command, &[flag, NOWHERE]].concat());
    let took = started.elapsed();
    let located = format!("error: {flag} {NOWHERE}: No such file or directory");
    assert_located_error(&output, &[&located]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.is_empty(), "{command:?} reported first: {stdout}");
    assert!(
        took < Duration::from_millis(500),
        "{command:?} worked first: {took:?}"
    );
}

/// A file of `count` inject records, bare (a trace) or wrapped as the
/// `trace` lines of a stream: seconds of `analyze` or `watch --fold`.
fn many_records(name: &str, count: u64, stream: bool) -> String {
    let mut text = String::new();
    if stream {
        text.push_str(STREAM_HEAD);
        text.push('\n');
    }
    for i in 0..count {
        let record = format!(
            "{{\"t_ps\":{},\"packet\":{i},\"flit\":0,\"site\":\"src0\",\"action\":\"inject\",\"detail\":\"\",\"copies\":1}}",
            10 + i
        );
        if stream {
            text.push_str(&format!(
                "{{\"type\":\"trace\",\"seq\":0,\"record\":{record}}}\n"
            ));
        } else {
            text.push_str(&record);
            text.push('\n');
        }
    }
    if stream {
        text.push_str("{\"type\":\"end\",\"windows\":0,\"watchpoints\":0,\"sections\":{}}\n");
    }
    fixture(name, &text)
}

/// Simulating commands whose run takes seconds, `--jobs 1 --shards 1`.
const LONG: [&str; 8] = [
    "--warmup-ns",
    "20",
    "--measure-ns",
    "200000",
    "--jobs",
    "1",
    "--shards",
    "1",
];

#[test]
fn an_unwritable_trace_out_fails_before_the_run_and_says_which_file() {
    let metrics = [&["metrics"], &SMALL_RUN[..6], &LONG[..]].concat();
    assert_fails_before_it_works(&metrics, "--trace-out");
}

#[test]
fn an_unwritable_metrics_out_fails_before_the_run_and_says_which_file() {
    let metrics = [&["metrics"], &SMALL_RUN[..6], &LONG[..]].concat();
    assert_fails_before_it_works(&metrics, "--metrics-out");
}

#[test]
fn an_unwritable_stream_says_which_file() {
    for command in ["run", "metrics", "faults"] {
        assert_fails_before_it_works(&[&[command], &SMALL_RUN[..]].concat(), "--stream");
    }
}

#[test]
fn an_unwritable_profile_fails_before_the_work_on_every_command_that_takes_one() {
    let placed = &SMALL_RUN[..6];
    for command in ["run", "metrics", "faults"] {
        assert_fails_before_it_works(&[&[command], placed, &LONG[..]].concat(), "--profile");
    }
    let mesh = ["mesh", "--benchmark", "Shuffle", "--rate", "0.2"];
    assert_fails_before_it_works(&[&mesh[..], &LONG[..]].concat(), "--profile");
    let saturate = ["saturate", "--arch", "Baseline", "--benchmark", "Shuffle"];
    assert_fails_before_it_works(&[&saturate[..], &LONG[4..]].concat(), "--profile");
    let sweep = ["--from", "0.1", "--to", "0.4", "--steps", "4"];
    assert_fails_before_it_works(
        &[&["sweep"], &placed[..4], &sweep[..], &LONG[..]].concat(),
        "--profile",
    );
    let trace = many_records("long-trace.ndjson", 200_000, false);
    assert_fails_before_it_works(&["analyze", "--trace-in", &trace], "--profile");
    let _ = std::fs::remove_file(trace);
}

#[test]
fn an_unwritable_report_out_fails_before_the_work() {
    let faults = [&["faults"], &SMALL_RUN[..6], &LONG[..], &["--oracle"][..]].concat();
    assert_fails_before_it_works(&faults, "--report-out");
    assert_fails_before_it_works(&["explore", "--jobs", "1", "--shards", "1"], "--report-out");
    let trace = many_records("long-trace-2.ndjson", 200_000, false);
    assert_fails_before_it_works(&["analyze", "--trace-in", &trace], "--report-out");
    let _ = std::fs::remove_file(trace);
}

#[test]
fn an_unwritable_fold_fails_before_the_dashboard() {
    let stream = many_records("long-stream.ndjson", 200_000, true);
    assert_fails_before_it_works(&["watch", "--stream-in", &stream, "--once"], "--fold");
    // Tailing: the file ends, so without the early failure this returns too.
    assert_fails_before_it_works(&["watch", "--stream-in", &stream], "--fold");
    let _ = std::fs::remove_file(stream);
}

#[test]
fn a_missing_input_file_says_which_flag_and_which_file() {
    for (command, flag) in [
        (&["analyze"][..], "--trace-in"),
        (&["watch", "--once"][..], "--stream-in"),
        (&["watch"][..], "--stream-in"),
    ] {
        let output = asynoc(&[command, &[flag, NOWHERE]].concat());
        let located = format!("error: {flag} {NOWHERE}: No such file or directory");
        assert_located_error(&output, &[&located]);
    }
}

#[test]
fn a_closed_pipe_is_a_quiet_exit_not_an_error() {
    // `asynoc run … | head -0`: the reader is gone long before the report
    // is written. This used to end `error: Broken pipe (os error 32)`, exit 1.
    let mut child = Command::new(env!("CARGO_BIN_EXE_asynoc"))
        .args([&["run"], &SMALL_RUN[..6], &LONG[..]].concat())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary runs");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("the run ends");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");

    // `asynoc explore --max-points 0 2>&1 | head -0`: a usage error nobody
    // reads is still exit 2, where `eprintln!` panicked (exit 101).
    let mut child = Command::new(env!("CARGO_BIN_EXE_asynoc"))
        .args(["explore", "--max-points", "0"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary runs");
    drop(child.stderr.take());
    assert_eq!(child.wait().expect("it ends").code(), Some(2));
}

/// Numbers a coordinate can be swapped for: in range, just out of it,
/// wrapping `u32`/`u64`, negative, fractional, exponent, not a number.
const COORDINATES: [&str; 12] = [
    "0",
    "7",
    "8",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1.5",
    "1e30",
    "",
    "x",
];

/// Kind tokens: the five real ones, long and mixed-case forms, unknowns.
const KINDS: [&str; 9] = [
    "ns",
    "sp",
    "ons",
    "osp",
    "base",
    "Opt-Speculative",
    "speculative",
    "fast",
    "",
];

/// One mutation of a valid placement, in the text grammar when `sep` is
/// `;` and on the JSON form's `nodes` entries when it is `},{`: cut short,
/// a segment duplicated, a number or a kind token swapped, a byte of junk.
fn mutated_placement(rng: &mut SimRng, valid: &str, sep: &str) -> String {
    let mut text = valid.to_string();
    match rng.index(5) {
        0 => text.truncate(rng.index(text.len() + 1)),
        1 => {
            let segments: Vec<&str> = text.split(sep).collect();
            let again = segments[rng.index(segments.len())];
            text = format!("{text}{sep}{again}");
        }
        2 | 3 => {
            // Swap one run of digits (or, failing that, append one).
            let digits: Vec<usize> = text
                .char_indices()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            let with = COORDINATES[rng.index(COORDINATES.len())];
            match digits.get(rng.index(digits.len().max(1))) {
                Some(&at) => text.replace_range(at..=at, with),
                None => text.push_str(with),
            }
        }
        _ => {
            let from = ["osp", "ons", "sp", "ns"][rng.index(4)];
            text = text.replacen(from, KINDS[rng.index(KINDS.len())], 1);
        }
    }
    if rng.chance(0.15) {
        let at = rng.index(text.len() + 1);
        text.insert(at, ['=', ';', ':', '.', ',', '"', '{', ' '][rng.index(8)]);
    }
    text
}

#[test]
fn mutated_spec_maps_never_panic_and_exit_as_the_contract_says() {
    const TEXT: [&str; 6] = [
        "OptHybridSpeculative",
        "preset:Baseline",
        "levels:osp,ons,ons",
        "levels:sp,sp,ns",
        "levels:ons,ons,ons;node:0.0.0=osp;node:7.1.1=osp",
        "levels:osp,osp,ons;node:3.1.0=ons;node:3.0.0=ons",
    ];
    const JSON: [&str; 3] = [
        r#"{"preset":"OptAllSpeculative"}"#,
        r#"{"levels":["osp","ons","ons"]}"#,
        r#"{"levels":["ons","ons","ons"],"nodes":[{"tree":0,"level":0,"index":0,"kind":"osp"},{"tree":7,"level":1,"index":1,"kind":"osp"}]}"#,
    ];
    let tail = "--benchmark Shuffle --rate 0.2 --warmup-ns 10 --measure-ns 40 --shards 1";
    let mut rng = SimRng::seed_from(0x5BEC_3A90);
    let file = fixture("mutant.json", "");
    let (mut ran, mut usage, mut bad_file) = (0, 0, 0);
    for round in 0..300 {
        let inline = round % 2 == 0;
        let value = if inline {
            let valid = TEXT[rng.index(TEXT.len())];
            mutated_placement(&mut rng, valid, ";")
        } else {
            let valid = JSON[rng.index(JSON.len())];
            let json = mutated_placement(&mut rng, valid, "},{");
            std::fs::write(&file, &json).expect("fixture rewritten");
            format!("@{file}")
        };
        let mut args = vec!["run", "--spec-map", &value];
        args.extend(tail.split(' '));
        let output = asynoc(&args);
        let shown = if inline {
            value.clone()
        } else {
            std::fs::read_to_string(&file).unwrap_or_default()
        };
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{shown:?}: {stderr}");
        // An inline value the parser takes is a valid map and must run; one
        // it refuses is a usage error. A file is read by the command.
        let owned: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let allowed: &[i32] = match (inline, asynoc_cli::parse(&owned)) {
            (true, Ok(_)) => &[0],
            (false, Ok(_)) => &[0, 1],
            (_, Err(_)) => &[2],
        };
        let code = output.status.code().unwrap_or(-1);
        assert!(allowed.contains(&code), "{shown:?}: exit {code}: {stderr}");
        match code {
            0 => ran += 1,
            1 => bad_file += 1,
            _ => usage += 1,
        }
        if code != 0 {
            let first = stderr.lines().next().unwrap_or_default();
            assert!(first.starts_with("error: "), "{shown:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_file(&file);
    assert!(
        ran > 20 && usage > 40 && bad_file > 40,
        "{ran} ran, {usage} usage errors, {bad_file} bad files"
    );
}

#[test]
fn mutated_fault_plans_run_or_fail_with_a_located_error() {
    const PLANS: [&str; 5] = [
        "stall:3:2:500;drop:1:0:1:500",
        "stall:0:1:300;corrupt:0:1:both;stuck:7:2",
        "lose:0:0;stall:175:3:200",
        "corrupt:55:1:drop;lose:7:1",
        "drop:7:2:2:700;stall:12:1:100000000",
    ];
    const FABRICS: [&str; 3] = [
        "--arch BasicHybridSpeculative",
        "--substrate mesh --size 4",
        "--substrate vcmesh --mcast dpm --size 4",
    ];
    let tail = "--benchmark Multicast5 --rate 0.1 --warmup-ns 10 --measure-ns 60 --oracle";
    let mut rng = SimRng::seed_from(0xFA17_91A2);
    let (mut ran, mut refused, mut off_fabric) = (0, 0, 0);
    for round in 0..240 {
        let valid = PLANS[rng.index(PLANS.len())];
        let plan = mutated_placement(&mut rng, valid, ";");
        let mut args = vec!["faults", "--plan", &plan];
        args.extend(FABRICS[round % 3].split(' ').chain(tail.split(' ')));
        let started = Instant::now();
        let output = asynoc(&args);
        assert!(started.elapsed() < Duration::from_secs(2), "{plan:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        // Exit 0, or 1 behind an `error:` line (a plan the grammar or the
        // fabric refuses, or one the oracle rejects): never a signal, a
        // panic, or — the text is one flag's value — a usage error.
        match output.status.code() {
            Some(0) => ran += 1,
            Some(1) => {
                let first = stderr.lines().next().unwrap_or_default();
                assert!(first.starts_with("error: "), "{plan:?}: {stderr}");
                refused += usize::from(first.starts_with("error: --plan: "));
                off_fabric += usize::from(first.contains(" is outside this fabric's 0.."));
            }
            code => panic!("{plan:?}: exit {code:?}: {stderr}"),
        }
    }
    assert!(
        ran > 20 && refused > 60 && off_fabric > 20,
        "{ran} ran, {refused} refused, {off_fabric} of them for their aim"
    );
}

/// The latency delta of a `window` record, as `asynoc metrics --stream`
/// writes it for headers that took 40, 700 and 700 ps.
const DELTA: &str = r#"{"overall":{"n":3,"min":40,"max":700,"sum":"1440","b":[[40,1],[171,2]]},"per_dest":[{"dest":1,"h":{"n":3,"min":40,"max":700,"sum":"1440","b":[[40,1],[171,2]]}}],"per_hops":[{"hops":4,"h":{"n":3,"min":40,"max":700,"sum":"1440","b":[[40,1],[171,2]]}}]}"#;

/// `watch --once --fold` over [`STREAM_HEAD`] and one `window` record
/// carrying the latency delta `delta`: exit 0, or exit 1 with the fold's
/// located error — never a signal, and never the seconds an allocation
/// sized by the file would take. Returns whether it folded.
fn folds(test: &str, delta: &str) -> bool {
    let window = format!(
        "{{\"type\":\"window\",\"seq\":0,\"t_ps\":0,\"events\":9,\"injected\":3,\"delivered\":3,\
         \"dropped\":0,\"forwards\":3,\"in_flight\":0,\"latency\":{delta},\"bins\":[]}}"
    );
    let stream = fixture(test, &format!("{STREAM_HEAD}\n{window}\n"));
    let started = Instant::now();
    let output = asynoc(&["watch", "--stream-in", &stream, "--once", "--fold", "-"]);
    let took = started.elapsed();
    let _ = std::fs::remove_file(stream);
    assert!(took < Duration::from_secs(2), "{delta}: {took:?}");
    if output.status.code() != Some(0) {
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{delta}: {stderr}");
        assert!(
            stderr.starts_with("error: --fold: line 2: "),
            "{delta}: {stderr}"
        );
    }
    output.status.success()
}

#[test]
fn a_hostile_window_delta_is_a_located_error_not_an_allocation() {
    assert!(folds("hostile.ndjson", DELTA));
    // The first used to abort (`memory allocation of 32000000000000008
    // bytes failed`), the second to cost 4.5 GiB and half a minute and exit
    // 0, the third to fold into a document that counted 2 of 5 samples.
    for (from, to) in [
        ("[171,2]", "[4000000000000000,2]"),
        ("[171,2]", "[300000000,2]"),
        ("\"n\":3", "\"n\":5"),
        ("[171,2]", "[1920,2]"),
        ("[40,1],[171,2]", "[171,2],[40,1]"),
        ("[40,1],[171,2]", "[40,1],[40,2]"),
        ("\"min\":40,\"max\":700", "\"min\":700,\"max\":40"),
        ("\"min\":40", "\"min\":39"),
        ("\"max\":700", "\"max\":720"),
        ("\"max\":700", "\"max\":700.5"),
        ("\"n\":3", "\"n\":-3"),
    ] {
        for nth in 0..3 {
            // In `overall`, in a `per_dest` entry, in a `per_hops` entry.
            let at = DELTA
                .match_indices(from)
                .nth(nth)
                .expect("three histograms")
                .0;
            let hostile = format!("{}{to}{}", &DELTA[..at], &DELTA[at + from.len()..]);
            assert!(!folds("hostile.ndjson", &hostile), "{hostile}");
        }
    }
}

/// Numbers a field of a latency delta can be swapped for: bucket indices
/// around the end of the domain, counts, sizes no machine holds, and the
/// usual non-integers.
const DELTA_NUMBERS: [&str; 16] = [
    "0",
    "1",
    "5",
    "31",
    "700",
    "1919",
    "1920",
    "300000000",
    "4000000000000000",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1.5",
    "1e30",
    "",
    "x",
];

#[test]
fn mutated_window_deltas_fold_or_fail_with_a_located_error() {
    let mut rng = SimRng::seed_from(0x00DE_17A5);
    let starts: Vec<usize> = (1..DELTA.len())
        .filter(|&i| {
            DELTA.as_bytes()[i].is_ascii_digit() && !DELTA.as_bytes()[i - 1].is_ascii_digit()
        })
        .collect();
    let (mut folded, mut refused) = (0, 0);
    for _ in 0..300 {
        // Swap one run of digits: an `n`, `min`, `max`, `sum`, bucket
        // index, count, `dest` or `hops`.
        let start = starts[rng.index(starts.len())];
        let digits = DELTA[start..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        let with = DELTA_NUMBERS[rng.index(DELTA_NUMBERS.len())];
        let mutant = format!("{}{with}{}", &DELTA[..start], &DELTA[start + digits..]);
        if folds("mutant.ndjson", &mutant) {
            folded += 1;
        } else {
            refused += 1;
        }
    }
    assert!(
        folded > 10 && refused > 100,
        "{folded} folded, {refused} refused"
    );
}

/// A short multicast journey on a 4x4 MoT, one record a line: a
/// speculative root, a throttled copy, two deliveries.
const JOURNEY: [(&str, &str, &str); 8] = [
    ("src0", "inject", ""),
    ("fo[s0:0.0]", "forward", "both"),
    ("fo[s0:1.0]", "forward", "both"),
    ("fo[s0:1.1]", "throttle", ""),
    ("fi[d0:1.0]", "forward", "input0"),
    ("fi[d0:0.0]", "forward", "input1"),
    ("D0", "deliver", ""),
    ("ch3", "fault", "link-stall"),
];

/// What a label can be spliced with or swapped for: other labels, pieces
/// of the grammar, coordinates no fabric has, text of another case.
const LABEL_PIECES: [&str; 20] = [
    "src",
    "fo[s",
    "fi[d",
    "D",
    "r7",
    "node2",
    "]",
    ":",
    ".",
    "0",
    "18446744073709551616",
    "-1",
    " ",
    "?",
    "input",
    "both",
    "deliver",
    "flit-drop",
    "Inject",
    "\u{e9}",
];

#[test]
fn mutated_trace_labels_are_located_errors_or_skipped_lines() {
    let mut rng = SimRng::seed_from(0x0005_17E5);
    let (mut accepted, mut refused) = (0, 0);
    for round in 0..160 {
        // One member of one line, spliced, truncated, re-cased or swapped.
        let (line, member) = (rng.index(JOURNEY.len()), rng.index(3));
        let mut labels = JOURNEY.map(|(site, action, detail)| [site, action, detail]);
        let original = labels[line][member];
        let piece = LABEL_PIECES[rng.index(LABEL_PIECES.len())];
        let cut = rng.index(original.len() + 1);
        let mutant = match rng.index(4) {
            0 => format!("{}{piece}{}", &original[..cut], &original[cut..]),
            1 => original[..cut].to_string(),
            2 => original.to_uppercase(),
            _ => piece.to_string(),
        };
        labels[line][member] = &mutant;
        let text: String = labels
            .iter()
            .enumerate()
            .map(|(at, [site, action, detail])| {
                format!(
                    "{{\"t_ps\":{},\"packet\":1,\"flit\":0,\"site\":\"{site}\",\
                     \"action\":\"{action}\",\"detail\":\"{detail}\",\"copies\":1}}\n",
                    100 + 10 * at
                )
            })
            .collect();
        let trace = fixture("labels.ndjson", &text);
        let started = Instant::now();
        let strict = asynoc(&["analyze", "--trace-in", &trace]);
        let lenient = asynoc(&["analyze", "--trace-in", &trace, "--lenient"]);
        let took = started.elapsed();
        let _ = std::fs::remove_file(&trace);
        assert!(took < Duration::from_secs(2), "{mutant:?}: {took:?}");
        // A label either reads as one of its grammar or the line is
        // malformed: located when strict, counted when lenient.
        let skipped = match strict.status.code() {
            Some(0) => 0,
            _ => {
                let field = ["site", "action", "detail"][member];
                let located = format!("line {}: field \"{field}\": {mutant:?} is not", line + 1);
                assert_located_error(&strict, &[&located]);
                1
            }
        };
        let stdout = String::from_utf8_lossy(&lenient.stdout);
        assert_eq!(lenient.status.code(), Some(0), "{round}: {mutant:?}");
        assert!(
            stdout.contains(&format!("\"skipped_lines\": {skipped}")),
            "{mutant:?}: {stdout}"
        );
        accepted += 1 - skipped;
        refused += skipped;
    }
    assert!(
        accepted > 10 && refused > 80,
        "{accepted} accepted, {refused} refused"
    );
}
