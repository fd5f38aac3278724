//! Hostile input through the real binary: every byte a user can hand the
//! tool — JSON or argv — yields a located `error:` line and exit 1 (bad
//! file) or 2 (bad flag), never an abort.

use std::process::{Command, Output};

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
            args.extend(["--benchmark", "Shuffle", "--rate", "0.2", "--size", "4"]);
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
