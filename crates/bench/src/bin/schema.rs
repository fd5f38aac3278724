//! `schema <name>`: prints the *schema skeleton* of one of the CLI's JSON
//! documents — every key with its value replaced by a type name, arrays
//! reduced to their first element's shape. `scripts/check.sh` diffs each
//! against `results/<name>_schema.golden.json`, so any report-format
//! change has to be made deliberately (regenerate with
//! `cargo run --release -p asynoc-bench --bin schema <name> > results/<name>_schema.golden.json`).
//!
//! Names: `metrics` (one skeleton per substrate, keyed by substrate
//! name), `analysis`, `faults`, `profile`, `explore` (the exhaustive and
//! the truncated form, keyed by case name). Short windows keep every
//! invocation fast.

use asynoc_cli::{execute, parse};
use asynoc_telemetry::JsonValue;

/// Runs one CLI invocation in-process and returns its stdout.
fn run(line: &str) -> String {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    let command = parse(&args).expect("valid invocation");
    let mut out = Vec::new();
    execute(&command, &mut out).expect("command succeeds");
    String::from_utf8(out).expect("utf8")
}

fn skeleton(text: &str) -> JsonValue {
    JsonValue::parse(text)
        .expect("valid JSON document")
        .schema()
}

fn keyed(cases: &[(&str, &str)]) -> JsonValue {
    JsonValue::Object(
        cases
            .iter()
            .map(|(key, line)| (key.to_string(), skeleton(&run(line))))
            .collect(),
    )
}

fn temp(name: &str) -> String {
    let file = format!("asynoc-schema-{}-{name}", std::process::id());
    std::env::temp_dir()
        .join(file)
        .to_string_lossy()
        .into_owned()
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let document = match name.as_str() {
        // Each invocation is chosen so every report section its substrate
        // can populate is populated (the hybrid MoT throttles redundant
        // copies, filling the waste ledger; the VC mesh multicasts,
        // filling the per-VC occupancy section).
        "metrics" => keyed(&[
            (
                "mot",
                "metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 \
                 --warmup-ns 40 --measure-ns 400",
            ),
            (
                "mesh",
                "metrics --substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 \
                 --warmup-ns 40 --measure-ns 400",
            ),
            (
                "vcmesh",
                "metrics --substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1 \
                 --size 4 --warmup-ns 40 --measure-ns 400",
            ),
        ]),
        // The hybrid multicast run populates every report section (the
        // speculation scorecard needs throttles and energy constants).
        "analysis" => {
            let (trace, metrics) = (temp("trace.ndjson"), temp("metrics.json"));
            run(&format!(
                "metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 \
                 --warmup-ns 40 --measure-ns 400 --trace-limit 200000 \
                 --metrics-out {metrics} --trace-out {trace}"
            ));
            let report = run(&format!("analyze --trace-in {trace}"));
            let _ = std::fs::remove_file(&trace);
            let _ = std::fs::remove_file(&metrics);
            skeleton(&report)
        }
        // The explicit plan covers every fault class and fires an oracle
        // verdict, so every report section — plan, both outcomes, ledger
        // rows, checks — is populated. The hybrid architecture certifies
        // corrupt sites; the lethal loss keeps the degradation branch in
        // the skeleton exercised too (judged, reconciled, still passing).
        "faults" => skeleton(&run(
            "faults --arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2 \
             --warmup-ns 20 --measure-ns 150 --oracle \
             --plan stall:0:2:300;drop:1:0:1:500;lose:2:0",
        )),
        // A sharded run populates every section of the document: two
        // shards give non-empty barrier-wait buckets, cross-cut `sent`
        // slots, and a meaningful imbalance summary.
        "profile" => {
            let path = temp("profile.json");
            run(&format!(
                "run --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 \
                 --shards 2 --warmup-ns 40 --measure-ns 400 --profile {path}"
            ));
            let text = std::fs::read_to_string(&path).expect("profile document written");
            let _ = std::fs::remove_file(&path);
            skeleton(&text)
        }
        // 4x4 keeps this fast (9 placements). The exhaustive case keeps
        // the default guard — tolerance 1.0 always holds, so the guard
        // section is populated without ever failing the bin; the
        // truncated case pins the `truncated: true` / `guard: null` shape.
        "explore" => keyed(&[
            ("exhaustive", "explore --smoke --size 4 --tolerance 1.0"),
            (
                "truncated",
                "explore --smoke --size 4 --max-points 3 --guard none",
            ),
        ]),
        other => {
            eprintln!("usage: schema metrics|analysis|faults|profile|explore (got {other:?})");
            std::process::exit(2);
        }
    };
    print!("{}", document.render_pretty());
}
