//! Hostile input through the real binary: every byte a user can hand the
//! tool — JSON or argv — yields a located `error:` line and exit 1 (bad
//! file) or 2 (bad flag), never an abort.

use std::process::{Command, Output};

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

    let head = r#"{"schema":"asynoc-stream-v1","type":"head","substrate":"mot","config":{},"window_ps":1000,"bin_ps":1000,"levels":[],"endpoints":4,"trace":false}"#;
    let stream = fixture("stream.ndjson", &format!("{head}\n{deep}\n"));
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
