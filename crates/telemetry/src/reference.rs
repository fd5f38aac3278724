//! Test-only reference readers and writer, and the corpus they are
//! compared on.
//!
//! Before the pull scanner, every reader built a [`JsonValue`] tree per
//! line and picked its fields out of it. Those conversions live on here,
//! unchanged, as the oracles of the differential tests in `trace` and
//! `stream`: the scanner-based readers must return the same `Ok` value,
//! or fail on the same line, for every line of real traces and streams
//! and of a mutated corpus. The one intended divergence — integers a
//! cast used to clamp, truncate or round are now errors — is spelled out
//! by [`misreads_an_integer`], not waved through.
//!
//! The write side went the same way: [`record_tree`] is the tree every
//! trace record used to be rendered through, kept as the oracle of the
//! direct serialiser, and [`fnv1a`] pins the bytes of whole files to
//! what the tree-based writers produced.

use std::sync::OnceLock;

use asynoc_kernel::SimRng;

use crate::json::{JsonError, JsonValue};
use crate::latency::{LatencyHistograms, LatencyWindow};
use crate::stream::{StreamFoldError, STREAM_SCHEMA};
use crate::trace::{Line, TraceMeta, TraceRecord, TRACE_SCHEMA};
use crate::METRICS_SCHEMA;

/// The tree-based `TraceRecord::from_ndjson`, casts and all.
pub(crate) fn record_from_ndjson(line: &str) -> Result<TraceRecord, JsonError> {
    let value = JsonValue::parse(line)?;
    let err = |message: String| JsonError { at: 0, message };
    let required = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| err(format!("missing field {key:?}")))
    };
    let number = |key: &str| {
        required(key)?
            .as_f64()
            .ok_or_else(|| err(format!("field {key:?} is not a number")))
    };
    let optional_number = |key: &str, default: f64| match value.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| err(format!("field {key:?} is not a number"))),
    };
    // The labels' grammars are the typed record's own: the oracle reads
    // the string out of the tree and hands it to the same `FromStr`.
    fn label<T: std::str::FromStr<Err = String>>(
        value: Option<&JsonValue>,
        key: &str,
    ) -> Result<T, JsonError> {
        let err = |message: String| JsonError { at: 0, message };
        value
            .ok_or_else(|| err(format!("missing field {key:?}")))?
            .as_str()
            .ok_or_else(|| err(format!("field {key:?} is not a string")))?
            .parse()
            .map_err(|reason| err(format!("field {key:?}: {reason}")))
    }
    let packet = number("packet")? as u64;
    Ok(TraceRecord {
        t_ps: number("t_ps")? as u64,
        packet,
        logical: optional_number("logical", packet as f64)? as u64,
        flit: number("flit")? as u8,
        src: optional_number("src", 0.0)? as u64,
        dests: optional_number("dests", 0.0)? as u64,
        created_ps: optional_number("created_ps", 0.0)? as u64,
        site: label(value.get("site"), "site")?,
        action: label(value.get("action"), "action")?,
        detail: label(value.get("detail"), "detail")?,
        copies: optional_number("copies", 0.0)? as u8,
        busy_ps: optional_number("busy_ps", 0.0)? as u64,
    })
}

/// The tree-based `TraceRecord::to_json`, `as f64` casts and all: what
/// `to_ndjson` and a stream's `trace` lines used to render.
pub(crate) fn record_tree(record: &TraceRecord) -> JsonValue {
    JsonValue::Object(vec![
        ("t_ps".to_string(), JsonValue::uint(record.t_ps)),
        ("packet".to_string(), JsonValue::uint(record.packet)),
        ("logical".to_string(), JsonValue::uint(record.logical)),
        ("flit".to_string(), JsonValue::uint(u64::from(record.flit))),
        ("src".to_string(), JsonValue::uint(record.src)),
        ("dests".to_string(), JsonValue::uint(record.dests)),
        ("created_ps".to_string(), JsonValue::uint(record.created_ps)),
        ("site".to_string(), JsonValue::str(record.site.to_string())),
        ("action".to_string(), JsonValue::str(record.action.label())),
        (
            "detail".to_string(),
            JsonValue::str(record.detail.to_string()),
        ),
        (
            "copies".to_string(),
            JsonValue::uint(u64::from(record.copies)),
        ),
        ("busy_ps".to_string(), JsonValue::uint(record.busy_ps)),
    ])
}

/// What a string can hold that a writer must get right: everything JSON
/// escapes, the bytes around the escape range, two- to four-byte scalars,
/// text that looks like an escape, and the plain runs in between.
pub(crate) const HOSTILE_PIECES: [&str; 18] = [
    "\"",
    "\\",
    "\n",
    "\r",
    "\t",
    "\u{0}",
    "\u{8}",
    "\u{1f}",
    "\u{7f}",
    "\u{e9}",
    "\u{6f22}",
    "\u{1f600}",
    "\u{2028}",
    "\\u0041",
    "fo[s2:0.0]",
    "a",
    " ",
    "",
];

/// 64-bit FNV-1a, for pinning whole files to a constant.
pub(crate) fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The tree-based `TraceMeta::from_json`.
fn meta_from_json(value: &JsonValue) -> Result<TraceMeta, JsonError> {
    let err = |message: String| JsonError { at: 0, message };
    let schema = value
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("missing field \"schema\"".to_string()))?;
    if schema != TRACE_SCHEMA {
        return Err(err(format!(
            "field \"schema\" is {schema:?}, expected {TRACE_SCHEMA:?}"
        )));
    }
    let number = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| err(format!("field {key:?} is missing or not a number")))
    };
    let opt_number = |key: &str| match value.get(key) {
        None | Some(JsonValue::Null) => None,
        Some(v) => v.as_f64(),
    };
    Ok(TraceMeta {
        substrate: value
            .get("substrate")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err("field \"substrate\" is missing or not a string".to_string()))?
            .to_string(),
        arch: value
            .get("arch")
            .and_then(JsonValue::as_str)
            .map(str::to_string),
        size: number("size")? as u64,
        seed: number("seed")? as u64,
        flits: number("flits")? as u8,
        rate: number("rate_gfs")?,
        warmup_ps: number("warmup_ps")? as u64,
        measure_ps: number("measure_ps")? as u64,
        wire_fj: opt_number("wire_fj"),
        drop_fj: opt_number("drop_fj"),
        dropped_events: opt_number("dropped_events").unwrap_or(0.0) as u64,
    })
}

/// The tree-based `parse_line`: a substring test, then up to two parses.
pub(crate) fn trace_line(line: &str) -> Result<Line, JsonError> {
    if line.trim().is_empty() {
        return Ok(Line::Blank);
    }
    if line.contains("\"schema\"") {
        if let Ok(value) = JsonValue::parse(line) {
            if value.get("schema").is_some() {
                return meta_from_json(&value).map(Line::Meta);
            }
        }
    }
    record_from_ndjson(line).map(Line::Record)
}

/// Whether the casts of the tree-based readers get one of `line`'s
/// integer fields wrong: a value that is negative, fractional, too wide
/// for its field, or past the integers an `f64` holds. These are the
/// lines on which the scanner-based readers are *meant* to differ.
pub(crate) fn misreads_an_integer(line: &str) -> bool {
    const NARROW: [&str; 3] = ["flit", "copies", "flits"];
    const WIDE: [&str; 13] = [
        "t_ps",
        "packet",
        "logical",
        "src",
        "dests",
        "created_ps",
        "busy_ps",
        "size",
        "seed",
        "warmup_ps",
        "measure_ps",
        "dropped_events",
        "endpoints",
    ];
    let Ok(value) = JsonValue::parse(line) else {
        return false;
    };
    let misread = |key: &str, max: f64| {
        value
            .get(key)
            .and_then(JsonValue::as_f64)
            .is_some_and(|n| n < 0.0 || n.fract() != 0.0 || n > max)
    };
    NARROW.iter().any(|key| misread(key, 255.0))
        || WIDE.iter().any(|key| misread(key, 9_007_199_254_740_991.0))
}

/// The whole-text, tree-per-line `fold_stream`.
pub(crate) fn fold_stream(text: &str) -> Result<JsonValue, StreamFoldError> {
    let err = |line: usize, message: String| StreamFoldError { line, message };
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (head_index, head_line) = lines
        .next()
        .ok_or_else(|| err(1, "empty stream".to_string()))?;
    let head = JsonValue::parse(head_line).map_err(|e| err(head_index + 1, e.message))?;
    if head.get("schema").and_then(JsonValue::as_str) != Some(STREAM_SCHEMA)
        || head.get("type").and_then(JsonValue::as_str) != Some("head")
    {
        return Err(err(
            head_index + 1,
            format!("expected a {STREAM_SCHEMA:?} head record"),
        ));
    }
    let head_field = |key: &str| {
        head.get(key)
            .cloned()
            .ok_or_else(|| err(head_index + 1, format!("head record missing {key:?}")))
    };
    let substrate = head_field("substrate")?;
    let config = head_field("config")?;
    let bin_ps = head_field("bin_ps")?;
    let levels = head_field("levels")?;
    let endpoints = head_field("endpoints")?.as_f64().ok_or_else(|| {
        err(
            head_index + 1,
            "head \"endpoints\" is not a number".to_string(),
        )
    })? as usize;
    // The original sized its histograms from whatever the cast gave it; a
    // mutated head must not take the test process down with it.
    if endpoints > 1 << 16 {
        return Err(err(
            head_index + 1,
            "head \"endpoints\" is huge".to_string(),
        ));
    }
    let mut accumulator = LatencyHistograms::accumulator(endpoints);
    let mut bins: Vec<JsonValue> = Vec::new();
    let mut sections: Vec<(String, JsonValue)> = Vec::new();
    for (index, line) in lines {
        let value = JsonValue::parse(line).map_err(|e| err(index + 1, e.message))?;
        match value.get("type").and_then(JsonValue::as_str) {
            Some("window") => {
                match value.get("latency") {
                    None | Some(JsonValue::Null) => {}
                    Some(delta) => {
                        let window = LatencyWindow::from_json(delta).ok_or_else(|| {
                            err(
                                index + 1,
                                "window latency delta does not decode".to_string(),
                            )
                        })?;
                        accumulator
                            .absorb(&window)
                            .map_err(|e| err(index + 1, format!("window latency delta: {e}")))?;
                    }
                }
                if let Some(window_bins) = value.get("bins").and_then(JsonValue::as_array) {
                    bins.extend(window_bins.iter().cloned());
                }
            }
            Some("end") => {
                if let Some(members) = value.get("sections").and_then(JsonValue::as_object) {
                    let counters = members.iter().find(|(key, _)| key == "counters");
                    let counters = counters.and_then(|(_, c)| c.as_object());
                    for (key, count) in counters.unwrap_or_default() {
                        if count.as_u64().is_none() {
                            let message = format!("end counter {key:?} is not a count");
                            return Err(err(index + 1, message));
                        }
                    }
                    sections = members.to_vec();
                }
            }
            Some("trace" | "watchpoint" | "head") | None => {}
            Some(other) => {
                return Err(err(index + 1, format!("unknown record type {other:?}")));
            }
        }
    }
    let mut members = vec![
        ("schema".to_string(), JsonValue::str(METRICS_SCHEMA)),
        ("substrate".to_string(), substrate),
        ("config".to_string(), config),
        ("latency".to_string(), accumulator.to_json()),
        (
            "timeseries".to_string(),
            JsonValue::Object(vec![
                ("bin_ps".to_string(), bin_ps),
                ("levels".to_string(), levels),
                ("bins".to_string(), JsonValue::Array(bins)),
            ]),
        ),
    ];
    members.extend(sections);
    Ok(JsonValue::Object(members))
}

/// One real run's files: the trace `--trace-out` wrote and the stream
/// `--stream --stream-trace` wrote.
pub(crate) struct Run {
    pub(crate) name: &'static str,
    pub(crate) trace: String,
    pub(crate) stream: String,
}

/// Traces and streams of all three substrates, plus a faulted MoT run
/// whose stream carries `fault` records and watchpoints, produced once
/// per test process by the CLI itself, so the texts can be pinned.
pub(crate) fn real_runs() -> &'static [Run] {
    static RUNS: OnceLock<Vec<Run>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let window = "--warmup-ns 40 --measure-ns 400";
        [
            ("mot", format!("metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 {window}")),
            ("mesh", format!("metrics --substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 {window}")),
            ("vcmesh", format!("metrics --substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1 --size 4 {window}")),
            ("mot-faulted", "faults --arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2 --fault-rate 0.15 --warmup-ns 20 --measure-ns 150".to_string()),
        ]
        .into_iter()
        .map(|(name, command)| {
            let path = |kind: &str| {
                let file = format!("asynoc-reference-{}-{name}.{kind}", std::process::id());
                std::env::temp_dir().join(file).to_string_lossy().into_owned()
            };
            let (trace_path, stream_path) = (path("trace.ndjson"), path("stream.ndjson"));
            let mut line = format!("{command} --stream {stream_path} --stream-trace");
            // `faults` has no `--trace-out`; its records ride the stream.
            if name != "mot-faulted" {
                line.push_str(&format!(" --trace-limit 200000 --trace-out {trace_path}"));
            }
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            let command = asynoc_cli::parse(&args).expect("valid invocation");
            asynoc_cli::execute(&command, &mut Vec::new()).expect("the run succeeds");
            let read = |path: &str| {
                let text = std::fs::read_to_string(path).unwrap_or_default();
                let _ = std::fs::remove_file(path);
                text
            };
            Run {
                name,
                trace: read(&trace_path),
                stream: read(&stream_path),
            }
        })
        .collect()
    })
}

/// At least `count` mutants of `seeds`, xoshiro-driven and so the same
/// on every run: byte flips, truncations, duplicated, missing and
/// reordered members, and nested junk in place of a scalar.
pub(crate) fn mutants(seeds: &[&str], count: usize, seed: u64) -> Vec<String> {
    const JUNK: [&str; 8] = [
        "[[[[1]]]]",
        "{\"a\":{\"b\":[null,true]}}",
        "\"\\ud83d\\ude00\"",
        "-1",
        "1.5",
        "300",
        "1e400",
        "null",
    ];
    let mut rng = SimRng::seed_from(seed);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let line = seeds[rng.index(seeds.len())];
        // Top-level members, cut at the commas no string or container hides.
        let members = top_level_members(line);
        let rebuilt = |members: &[&str]| format!("{{{}}}", members.join(","));
        let mutant = match rng.index(7) {
            0 => {
                let mut bytes = line.as_bytes().to_vec();
                for _ in 0..=rng.index(3) {
                    let at = rng.index(bytes.len());
                    bytes[at] = rng.index(256) as u8;
                }
                String::from_utf8_lossy(&bytes).into_owned()
            }
            1 => {
                let mut cut = rng.index(line.len());
                while !line.is_char_boundary(cut) {
                    cut -= 1;
                }
                line[..cut].to_string()
            }
            _ if members.len() < 2 => continue,
            2 => {
                let mut members = members.clone();
                let (from, to) = (rng.index(members.len()), rng.index(members.len()));
                members.insert(to, members[from]);
                rebuilt(&members)
            }
            3 => {
                let mut members = members.clone();
                members.remove(rng.index(members.len()));
                rebuilt(&members)
            }
            4 => {
                let mut members = members.clone();
                let (a, b) = (rng.index(members.len()), rng.index(members.len()));
                members.swap(a, b);
                rebuilt(&members)
            }
            _ => {
                let at = rng.index(members.len());
                let Some((key, _)) = members[at].split_once(':') else {
                    continue;
                };
                let junk = format!("{key}:{}", JUNK[rng.index(JUNK.len())]);
                let mut members = members.clone();
                members[at] = &junk;
                rebuilt(&members)
            }
        };
        out.push(mutant);
    }
    out
}

/// The members of a one-line JSON object our own writer produced.
fn top_level_members(line: &str) -> Vec<&str> {
    let Some(inner) = line
        .trim()
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
    else {
        return Vec::new();
    };
    let (mut members, mut start, mut depth, mut quoted, mut escaped) =
        (Vec::new(), 0, 0i32, false, false);
    for (at, byte) in inner.bytes().enumerate() {
        match byte {
            _ if escaped => escaped = false,
            b'\\' if quoted => escaped = true,
            b'"' => quoted = !quoted,
            _ if quoted => {}
            b'[' | b'{' => depth += 1,
            b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                members.push(&inner[start..at]);
                start = at + 1;
            }
            _ => {}
        }
    }
    members.push(&inner[start..]);
    members
}
