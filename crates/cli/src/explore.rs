//! `asynoc explore`: design-space exploration over speculation placements.
//!
//! The command is the CLI surface of [`asynoc::explore`]: it enumerates
//! (per-level) or beam-searches (per-node) the placement space the
//! `--spec-map` machinery opened up, scores every candidate with one
//! deterministic run each — latency p50/p99, total power, silicon area —
//! and emits the Pareto front as a JSON document under the
//! [`EXPLORE_SCHEMA`] version tag.
//!
//! With `--guard <Architecture>` (default `OptHybridSpeculative`) the
//! command additionally asserts that the preset lands on the front or
//! within `--tolerance` of it in every objective, and exits non-zero —
//! after writing the report — when it does not. `--guard none` disables
//! the check.

use std::io::Write;

use asynoc::explore::{explore, ExploreSpec, Granularity, EXPLORE_SCHEMA};
use asynoc::{Architecture, Benchmark, Duration, MotSize, Phases};
use asynoc_telemetry::JsonValue;

use crate::args::CommonOptions;
use crate::commands::{create_optional, CliError};

/// A fully-resolved `explore` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreRequest {
    /// Traffic benchmark (`None` = the spec default, Multicast10).
    pub benchmark: Option<Benchmark>,
    /// Offered load, flits/ns per source (`None` = the spec default).
    pub rate: Option<f64>,
    /// Search granularity.
    pub granularity: Granularity,
    /// Beam width (node granularity only).
    pub beam: usize,
    /// Simulation budget; `None` is unbounded.
    pub max_points: Option<usize>,
    /// Preset asserted on/near the front; `None` = `--guard none`.
    pub guard: Option<Architecture>,
    /// Relative per-objective guard tolerance.
    pub tolerance: f64,
    /// JSON report destination (`None` = the command's output stream).
    pub report_out: Option<String>,
    /// Use the short CI windows and light load.
    pub smoke: bool,
    /// Shared options.
    pub common: CommonOptions,
}

/// Builds the engine spec an invocation resolves to.
fn explore_spec(request: &ExploreRequest) -> Result<ExploreSpec, CliError> {
    let size =
        MotSize::new(request.common.size).map_err(|e| CliError::Invalid(format!("--size: {e}")))?;
    let mut spec = if request.smoke {
        ExploreSpec::smoke(size)
    } else {
        ExploreSpec::new(size)
    };
    if let Some(benchmark) = request.benchmark {
        spec.benchmark = benchmark;
    }
    if let Some(rate) = request.rate {
        spec.rate_gfs = rate;
    }
    spec.seed = request.common.seed;
    spec.flits_per_packet = request.common.flits;
    let warmup = request
        .common
        .warmup_ns
        .map_or(spec.phases.warmup(), Duration::from_ns);
    let measure = request
        .common
        .measure_ns
        .map_or(spec.phases.measure(), Duration::from_ns);
    spec.phases = Phases::new(warmup, measure);
    spec.granularity = request.granularity;
    spec.beam_width = request.beam;
    spec.jobs = request.common.jobs;
    spec.shards = request.common.shards;
    spec.max_points = request.max_points;
    Ok(spec)
}

/// Picosecond scores of placements that never drained render as null.
fn ps_json(ps: u64) -> JsonValue {
    if ps == u64::MAX {
        JsonValue::Null
    } else {
        JsonValue::uint(ps)
    }
}

fn config_json(spec: &ExploreSpec) -> JsonValue {
    JsonValue::Object(vec![
        ("size".to_string(), JsonValue::uint(spec.size.n() as u64)),
        (
            "benchmark".to_string(),
            JsonValue::str(spec.benchmark.to_string()),
        ),
        ("rate_gfs".to_string(), JsonValue::Number(spec.rate_gfs)),
        ("seed".to_string(), JsonValue::uint(spec.seed)),
        (
            "flits".to_string(),
            JsonValue::uint(u64::from(spec.flits_per_packet)),
        ),
        (
            "warmup_ps".to_string(),
            JsonValue::uint(spec.phases.warmup().as_ps()),
        ),
        (
            "measure_ps".to_string(),
            JsonValue::uint(spec.phases.measure().as_ps()),
        ),
        (
            "granularity".to_string(),
            JsonValue::str(spec.granularity.to_string()),
        ),
        ("beam".to_string(), JsonValue::uint(spec.beam_width as u64)),
        (
            "max_points".to_string(),
            spec.max_points
                .map_or(JsonValue::Null, |n| JsonValue::uint(n as u64)),
        ),
    ])
}

fn point_json(point: &asynoc::explore::PlacementScore) -> JsonValue {
    JsonValue::Object(vec![
        ("map".to_string(), JsonValue::str(point.map.to_string())),
        (
            "preset".to_string(),
            point
                .preset
                .map_or(JsonValue::Null, |a| JsonValue::str(a.to_string())),
        ),
        ("mean_ps".to_string(), ps_json(point.mean_ps)),
        ("p50_ps".to_string(), ps_json(point.p50_ps)),
        ("p99_ps".to_string(), ps_json(point.p99_ps)),
        ("power_mw".to_string(), JsonValue::Number(point.power_mw)),
        ("area_um2".to_string(), JsonValue::Number(point.area_um2)),
        (
            "address_bits".to_string(),
            JsonValue::uint(point.address_bits as u64),
        ),
        (
            "acceptance".to_string(),
            JsonValue::Number(point.acceptance),
        ),
        ("feasible".to_string(), JsonValue::Bool(point.feasible)),
        ("on_front".to_string(), JsonValue::Bool(point.on_front)),
    ])
}

fn guard_json(outcome: &asynoc::explore::GuardOutcome) -> JsonValue {
    JsonValue::Object(vec![
        (
            "arch".to_string(),
            JsonValue::str(outcome.architecture.to_string()),
        ),
        (
            "tolerance".to_string(),
            JsonValue::Number(outcome.tolerance),
        ),
        ("epsilon".to_string(), JsonValue::Number(outcome.epsilon)),
        ("on_front".to_string(), JsonValue::Bool(outcome.on_front)),
        (
            "within_tolerance".to_string(),
            JsonValue::Bool(outcome.within_tolerance),
        ),
    ])
}

/// Executes an `explore` command: runs the search, writes the JSON
/// report (to `--report-out` or `out`), and fails — after the report is
/// on disk — when the guard preset falls off the tolerance envelope.
///
/// # Errors
///
/// Returns a [`CliError`] on simulation, configuration, I/O, or guard
/// failure.
pub fn execute_explore(request: &ExploreRequest, out: &mut dyn Write) -> Result<(), CliError> {
    let spec = explore_spec(request)?;
    let mut report_file = create_optional("--report-out", request.report_out.as_ref())?;
    let report = explore(&spec)?;
    let guard = request
        .guard
        .and_then(|arch| report.guard(arch, request.tolerance));

    let doc = JsonValue::Object(vec![
        ("schema".to_string(), JsonValue::str(EXPLORE_SCHEMA)),
        ("config".to_string(), config_json(&spec)),
        ("space".to_string(), JsonValue::uint(report.space as u64)),
        (
            "evaluated".to_string(),
            JsonValue::uint(report.evaluated as u64),
        ),
        ("truncated".to_string(), JsonValue::Bool(report.truncated)),
        (
            "points".to_string(),
            JsonValue::Array(report.points.iter().map(point_json).collect()),
        ),
        (
            "front".to_string(),
            JsonValue::Array(
                report
                    .front()
                    .iter()
                    .map(|p| JsonValue::str(p.map.to_string()))
                    .collect(),
            ),
        ),
        (
            "guard".to_string(),
            guard.as_ref().map_or(JsonValue::Null, guard_json),
        ),
    ]);
    let rendered = doc.render_pretty();
    match request.report_out.as_ref().zip(report_file.as_mut()) {
        Some((path, file)) => {
            file.write_all(rendered.as_bytes())?;
            writeln!(
                out,
                "explored {} of {} placements ({} granularity, {}x{})",
                report.evaluated,
                report.space,
                spec.granularity,
                spec.size.n(),
                spec.size.n()
            )?;
            if report.truncated {
                writeln!(
                    out,
                    "  TRUNCATED        : --max-points budget exhausted; front covers the evaluated prefix"
                )?;
            }
            writeln!(
                out,
                "  front            : {} placements",
                report.front().len()
            )?;
            for point in report.front() {
                writeln!(
                    out,
                    "    {:<40} p50 {} ps, p99 {} ps, {:.2} mW, {:.0} um^2",
                    point.map.to_string(),
                    point.p50_ps,
                    point.p99_ps,
                    point.power_mw,
                    point.area_um2
                )?;
            }
            if let Some(outcome) = &guard {
                writeln!(
                    out,
                    "  guard {}: {} (epsilon {:.4}, tolerance {:.4})",
                    outcome.architecture,
                    if outcome.on_front {
                        "on the front"
                    } else if outcome.within_tolerance {
                        "within tolerance"
                    } else {
                        "VIOLATED"
                    },
                    outcome.epsilon,
                    outcome.tolerance
                )?;
            }
            writeln!(out, "exploration report written to {path}")?;
        }
        // Bare stdout stays pure JSON so pipelines can parse it.
        None => out.write_all(rendered.as_bytes())?,
    }

    if let Some(arch) = request.guard {
        match &guard {
            Some(outcome) if !outcome.within_tolerance => {
                return Err(CliError::Invalid(format!(
                    "regression guard violated: {arch} is epsilon {:.4} off the Pareto front \
                     (tolerance {:.4})",
                    outcome.epsilon, outcome.tolerance
                )));
            }
            None if !report.truncated => {
                return Err(CliError::Invalid(format!(
                    "regression guard inconclusive: {arch} was not feasible at this load \
                     (rerun with a lighter --rate, or --guard none)"
                )));
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use crate::commands::execute;

    fn run_cli(line: &str) -> String {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let command = parse(&args).expect("valid invocation");
        let mut out = Vec::new();
        execute(&command, &mut out).expect("command succeeds");
        String::from_utf8(out).expect("utf8 output")
    }

    fn explore_doc(line: &str) -> JsonValue {
        JsonValue::parse(&run_cli(line)).expect("explore output is valid JSON")
    }

    #[test]
    fn smoke_exploration_emits_the_full_document() {
        // Tolerance 1.0 always holds (epsilon < 1 by construction), so the
        // default guard cannot flake this test.
        let doc = explore_doc("explore --smoke --size 4 --tolerance 1.0");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(EXPLORE_SCHEMA)
        );
        assert_eq!(doc.get("truncated"), Some(&JsonValue::Bool(false)));
        // 4×4 per-level space: 4 interior × 2 leaf + baseline.
        assert_eq!(doc.get("space").and_then(JsonValue::as_f64), Some(9.0));
        assert_eq!(doc.get("evaluated").and_then(JsonValue::as_f64), Some(9.0));
        let points = doc.get("points").and_then(JsonValue::as_array).unwrap();
        assert_eq!(points.len(), 9);
        for point in points {
            assert!(point.get("map").and_then(JsonValue::as_str).is_some());
            assert!(point
                .get("acceptance")
                .and_then(JsonValue::as_f64)
                .is_some());
        }
        let front = doc.get("front").and_then(JsonValue::as_array).unwrap();
        assert!(!front.is_empty(), "a front always exists");
        let guard = doc.get("guard").expect("guard section");
        assert_eq!(
            guard.get("arch").and_then(JsonValue::as_str),
            Some("OptHybridSpeculative")
        );
        assert_eq!(guard.get("within_tolerance"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn exploration_is_jobs_invariant() {
        let base = "explore --smoke --size 4 --guard none";
        let serial = run_cli(&format!("{base} --jobs 1"));
        let parallel = run_cli(&format!("{base} --jobs 2"));
        assert_eq!(serial, parallel, "worker count must not change the report");
    }

    #[test]
    fn exhausted_budget_is_flagged_truncated() {
        let doc = explore_doc("explore --smoke --size 4 --max-points 3 --guard none");
        assert_eq!(doc.get("truncated"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("evaluated").and_then(JsonValue::as_f64), Some(3.0));
        assert!(
            !doc.get("front")
                .and_then(JsonValue::as_array)
                .unwrap()
                .is_empty(),
            "partial exploration still reports its front"
        );
    }

    #[test]
    fn report_out_writes_the_file_and_prints_the_summary() {
        let path =
            std::env::temp_dir().join(format!("asynoc-explore-report-{}.json", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        let text = run_cli(&format!(
            "explore --smoke --size 4 --guard none --report-out {path}"
        ));
        assert!(text.contains("explored 9 of 9 placements"), "{text}");
        assert!(text.contains("front"), "{text}");
        assert!(text.contains("exploration report written"), "{text}");
        let doc = JsonValue::parse(&std::fs::read_to_string(&path).expect("report file"))
            .expect("report is valid JSON");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(EXPLORE_SCHEMA)
        );
    }

    #[test]
    fn impossible_tolerance_fails_after_writing_the_report() {
        // Tolerance 0 demands the guard preset be exactly on the front for
        // every objective; if it is not, the command must exit non-zero
        // *after* the report reached disk. (If the preset happens to sit
        // on the front, the guard passes — both outcomes are legal here;
        // what we pin is report-before-verdict.)
        let path = std::env::temp_dir().join(format!(
            "asynoc-explore-guardfail-{}.json",
            std::process::id()
        ));
        let path = path.to_string_lossy().into_owned();
        let line =
            format!("explore --smoke --size 4 --guard Baseline --tolerance 0 --report-out {path}");
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let command = parse(&args).expect("valid invocation");
        let mut out = Vec::new();
        let result = execute(&command, &mut out);
        let written = std::fs::read_to_string(&path);
        let _ = std::fs::remove_file(&path);
        let doc = JsonValue::parse(&written.expect("report written regardless of verdict"))
            .expect("report is valid JSON");
        let on_front = doc
            .get("guard")
            .and_then(|g| g.get("on_front"))
            .and_then(|v| match v {
                JsonValue::Bool(b) => Some(*b),
                _ => None,
            })
            .expect("guard verdict recorded");
        assert_eq!(
            result.is_ok(),
            on_front,
            "non-zero exit exactly when the guard preset is off the front"
        );
        if let Err(err) = result {
            assert!(err.to_string().contains("regression guard"), "{err}");
        }
    }
}
