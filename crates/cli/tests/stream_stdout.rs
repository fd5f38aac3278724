//! `--stream -` through the real binary: stdout carries the stream alone,
//! byte for byte what `--stream FILE` writes, and what the command says
//! of its run goes to stderr, byte for byte what it prints unstreamed.

use std::fs::File;
use std::process::{Command, Output, Stdio};

fn asynoc(args: &[&str], stdin: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asynoc"))
        .args(args)
        .stdin(stdin)
        .output()
        .expect("the binary runs")
}

fn temp_path(name: &str) -> String {
    let file = format!("asynoc-stream-stdout-{}-{name}", std::process::id());
    let path = std::env::temp_dir().join(file);
    path.to_string_lossy().into_owned()
}

/// Runs `line` and asserts it exited 0; returns stdout and stderr.
fn succeeds(line: &[&str]) -> (Vec<u8>, Vec<u8>) {
    let output = asynoc(line, Stdio::null());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{line:?}: {stderr}");
    (output.stdout, output.stderr)
}

#[test]
fn a_stream_to_stdout_has_stdout_to_itself() {
    let (file, fold, metrics) = (
        temp_path("s.ndjson"),
        temp_path("f.json"),
        temp_path("m.json"),
    );
    let mot = "--arch OptHybridSpeculative --benchmark Multicast10 --rate 0.4 --warmup-ns 40 \
               --measure-ns 400";
    let lines = [
        format!("run {mot}"),
        "mesh --benchmark Multicast10 --rate 0.05 --cols 4 --rows 4 --warmup-ns 40 \
         --measure-ns 400"
            .to_string(),
        format!("metrics {mot} --stream-trace"),
        format!("metrics {mot} --stream-trace --metrics-out {metrics}"),
        "faults --arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2 \
         --warmup-ns 20 --measure-ns 150 --oracle"
            .to_string(),
    ];
    for line in &lines {
        let args: Vec<&str> = line.split_whitespace().collect();
        let unstreamed = line.replace(" --stream-trace", "");
        let (plain, _) = succeeds(&unstreamed.split_whitespace().collect::<Vec<_>>());
        let (to_file, _) = succeeds(&[&args[..], &["--stream", &file]].concat());
        let written = std::fs::read(&file).expect("the stream file");
        let (stream, said) = succeeds(&[&args[..], &["--stream", "-"]].concat());
        assert!(stream == written, "{line}: stdout is not the stream file");
        assert!(said == plain, "{line}: stderr is not the plain stdout");
        assert!(to_file == plain, "{line}: --stream FILE moved stdout");

        // `asynoc … --stream - | asynoc watch --stream-in - …`
        let stdin = File::open(&file).expect("the stream file, which is stdout");
        let watch = ["watch", "--stream-in", "-", "--once", "--fold", &fold];
        let output = asynoc(&watch, Stdio::from(stdin));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{line}: watch: {stderr}");
    }
    for path in [file, fold, metrics] {
        let _ = std::fs::remove_file(path);
    }
}
