//! Per-layer rows of a traced run: exact counts from the profile documents
//! and output files, walls of child processes and their differences, and
//! the in-process timings `bm-layers` reports.

use crate::json::Value;
use crate::measure::{Options, Pass, Runner};
use crate::metrics::{Source, PER_LAYER};
use crate::profile::Totals;
use crate::stats::median;
use crate::workloads::{read_doc, trace_records, Cmd, Stage, Workload};
use std::io;
use std::path::Path;

/// The paper's Table 1 saturation throughput for OptHybridSpeculative on
/// Multicast10, GF/s per source. The model is calibrated to the paper, not
/// validated on silicon, so this is the only error figure the benchmark gives.
const PAPER_MC10_SATURATION_GFS: f64 = 1.84;

/// One value per `PER_LAYER` row; `None` marks a row that is missing
/// because the per-layer tier was not there to measure it.
pub struct LayerRows(Vec<Option<f64>>);

impl LayerRows {
    fn new(layers_available: bool) -> Self {
        LayerRows(
            PER_LAYER
                .iter()
                .map(|row| (row.source != Source::Layers || layers_available).then_some(0.0))
                .collect(),
        )
    }

    fn index(name: &str) -> Option<usize> {
        PER_LAYER.iter().position(|row| row.name == name)
    }

    fn set(&mut self, name: &str, value: f64) {
        let index = Self::index(name).unwrap_or_else(|| panic!("{name} is not a per-layer row"));
        // A ratio over an empty denominator reads 0, like an idle layer.
        self.0[index] = Some(if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0[Self::index(name)?]
    }

    pub fn values(&self) -> &[Option<f64>] {
        &self.0
    }
}

/// What the rows are computed from.
pub struct Inputs<'a> {
    pub workload: Workload,
    pub dir: &'a Path,
    pub cmds: &'a [Cmd],
    pub timed: &'a [Pass],
    pub traced: &'a Pass,
    /// The traced run's extra commands and how they went.
    pub extra_cmds: &'a [Cmd],
    pub extras: &'a Pass,
    /// Summed wall of the set-up's input commands, one per set-up.
    pub serial_wall_s: &'a [f64],
    pub trace_records: u64,
    pub host_speed: f64,
}

impl Inputs<'_> {
    /// Median over the timed passes of stage `index`'s wall.
    fn stage_wall_s(&self, index: usize) -> f64 {
        median(
            &self
                .timed
                .iter()
                .map(|pass| pass.usages[index].wall_s)
                .collect::<Vec<_>>(),
        )
    }

    fn stage_rss_mib(&self, index: usize) -> f64 {
        median(
            &self
                .timed
                .iter()
                .map(|pass| pass.usages[index].peak_rss_mib)
                .collect::<Vec<_>>(),
        )
    }

    /// Median wall of the extras labelled `label`.
    fn extra_wall_s(&self, label: &str) -> f64 {
        let walls = self
            .extra_cmds
            .iter()
            .zip(&self.extras.usages)
            .filter(|(cmd, _)| cmd.label == label)
            .map(|(_, u)| u.wall_s);
        median(&walls.collect::<Vec<_>>())
    }
}

/// The value following `flag` in a command's arguments.
fn flag<'a>(cmd: &'a Cmd, flag: &str) -> Option<&'a str> {
    let at = cmd.args.iter().position(|arg| arg == flag)?;
    cmd.args.get(at + 1).map(String::as_str)
}

fn file_len(dir: &Path, name: &str) -> Result<f64, String> {
    Ok(std::fs::metadata(dir.join(name))
        .map_err(|e| format!("{name}: {e}"))?
        .len() as f64)
}

/// Every row that needs no in-process call.
pub fn from_passes(
    inputs: &Inputs,
    options: &Options,
    gap_share: f64,
) -> Result<LayerRows, String> {
    let mut rows = LayerRows::new(options.layers.is_some());
    let wall_s = median(&inputs.timed.iter().map(Pass::wall_s).collect::<Vec<_>>());

    for index in 0..inputs.cmds.len() {
        rows.set(
            &format!("cli.stage{}_s", index + 1),
            inputs.stage_wall_s(index),
        );
        rows.set(
            &format!("cli.stage{}_rss_mb", index + 1),
            inputs.stage_rss_mib(index),
        );
    }
    rows.set("cli.harness_gap_share", gap_share);
    rows.set("cli.host_speed", inputs.host_speed);
    rows.set(
        "cli.trace_overhead_share",
        inputs.traced.wall_s() / wall_s - 1.0,
    );
    rows.set("cli.fixed_cost_ms", inputs.extra_wall_s("fixed-cost") * 1e3);

    let mut totals = Totals::default();
    let mut simulating_wall_s = 0.0;
    for (index, _) in inputs
        .cmds
        .iter()
        .enumerate()
        .filter(|(_, cmd)| cmd.profiled)
    {
        totals.add(&read_doc(
            inputs.dir,
            &format!("profile-{}.json", index + 1),
        )?)?;
        simulating_wall_s += inputs.stage_wall_s(index);
    }
    rows.set("kernel.queue_ops", totals.queue_ops);
    rows.set("kernel.queue_resizes", totals.queue_resizes);
    rows.set("kernel.queue_fallback_scans", totals.queue_fallback_scans);
    rows.set(
        "kernel.queue_depth_high_water",
        totals.queue_depth_high_water,
    );
    rows.set("kernel.barrier_windows", totals.barrier_windows);
    rows.set(
        "kernel.barrier_wait_share",
        totals.barrier_wait_ns / totals.shard_wall_ns,
    );
    rows.set("engine.events", totals.events);
    rows.set("engine.events_inject", totals.inject);
    rows.set("engine.events_arrive", totals.arrive);
    rows.set("engine.events_free", totals.free);
    rows.set("engine.events_retry", totals.retry);
    rows.set("engine.retry_share", totals.retry / totals.events);
    rows.set("engine.pool_hit_rate", totals.pool_hits / totals.pool_takes);
    rows.set(
        "engine.shard_event_ratio",
        totals.weighted_event_ratio / totals.events,
    );
    rows.set("engine.lookahead_ps", totals.lookahead_ps);
    if totals.events > 0.0 {
        rows.set(
            "engine.ns_per_event",
            simulating_wall_s * 1e9 / totals.events,
        );
    }

    match inputs.workload {
        Workload::MotSerial => {
            rows.set("faults.oracle_s", inputs.stage_wall_s(3));
            rows.set("faults.peak_rss_mb", inputs.stage_rss_mib(3));
        }
        Workload::VcmeshSerial => {
            let (xy, dpm) = (
                read_doc(inputs.dir, "xy.json")?,
                read_doc(inputs.dir, "dpm.json")?,
            );
            let events =
                xy.num("counters/events_processed")? + dpm.num("counters/events_processed")?;
            rows.set("vcmesh.ns_per_event", wall_s * 1e9 / events);
            rows.set("vcmesh.link_traversals", xy.num("vcs/link_traversals")?);
            rows.set(
                "vcmesh.dpm_link_ratio",
                dpm.num("vcs/link_traversals")? / xy.num("vcs/link_traversals")?,
            );
            let peaks = [&xy, &dpm].map(|doc| doc.at("vcs/vc_peak").map_or(&[][..], Value::items));
            rows.set(
                "vcmesh.vc_peak",
                peaks
                    .concat()
                    .iter()
                    .filter_map(Value::as_f64)
                    .fold(0.0, f64::max),
            );
            rows.set("vcmesh.sim_p50_ps", xy.num("latency/p50_ps")?);
            rows.set("vcmesh.sim_p99_ps", xy.num("latency/p99_ps")?);
        }
        Workload::ObserveWrite => {
            // stream-trace − windows-only = the cost of serialising records;
            // windows-only − bare run = the cost of the observers alone.
            let (traced_s, windows_s) = (inputs.stage_wall_s(0), inputs.stage_wall_s(2));
            let events = read_doc(inputs.dir, "m3.json")?.num("counters/events_processed")?;
            let records = trace_records(inputs.dir, "t2.ndjson")
                .map_err(|e| format!("t2.ndjson: {e}"))? as f64;
            rows.set(
                "telemetry.observer_ns_per_event",
                (windows_s - inputs.extra_wall_s("bare-run")) * 1e9 / events,
            );
            rows.set(
                "telemetry.write_ns_per_record",
                (traced_s - windows_s) * 1e9 / records,
            );
            rows.set(
                "telemetry.write_mb_per_s",
                file_len(inputs.dir, "s1.ndjson")? / 1e6 / (traced_s - windows_s),
            );
            rows.set("telemetry.records", records);
            let written =
                ["s1.ndjson", "t2.ndjson", "s3.ndjson"].map(|name| file_len(inputs.dir, name));
            rows.set(
                "telemetry.bytes_written",
                written.into_iter().sum::<Result<f64, String>>()?,
            );
        }
        Workload::ObserveRead => {
            let report = read_doc(inputs.dir, "analysis.json")?;
            rows.set("telemetry.records", inputs.trace_records as f64);
            rows.set("analysis.flit_trees", report.num("ingest/flit_trees")?);
            rows.set("analysis.open_trees", report.num("ingest/open_trees")?);
            rows.set("analysis.broken_trees", report.num("ingest/broken_trees")?);
        }
        Workload::PinnedParallel | Workload::DefaultParallel => {
            rows.set(
                "engine.parallel_slowdown",
                wall_s / median(inputs.serial_wall_s),
            );
            let plateau = plateau_gfs(&inputs.traced.stages[1].stdout)
                .ok_or("saturate printed no delivered plateau")?;
            rows.set(
                "core.mc10_sat_error_pct",
                (plateau - PAPER_MC10_SATURATION_GFS).abs() / PAPER_MC10_SATURATION_GFS * 100.0,
            );
        }
    }
    Ok(rows)
}

/// The GF/s figure of `saturate`'s "delivered plateau" line.
fn plateau_gfs(stdout: &str) -> Option<f64> {
    let line = stdout
        .lines()
        .find(|line| line.contains("delivered plateau"))?;
    line.split(':')
        .nth(1)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Runs `bm-layers` on the workload's own inputs and merges what it prints
/// (`metric <name> <value>` and `span <name> <start_ns> <end_ns>` lines)
/// into the rows and the span record. Returns the child as a stage so it is
/// counted like every other command.
pub fn call_layers(
    run: &mut Runner,
    options: &Options,
    inputs: &Inputs,
    rows: &mut LayerRows,
) -> io::Result<Option<Stage>> {
    let Some(program) = &options.layers else {
        return Ok(None);
    };
    let depth = rows.get("kernel.queue_depth_high_water").unwrap_or(0.0);
    let measure_ns = flag(&inputs.cmds[0], "--measure-ns").unwrap_or("0");
    let (seed, depth) = (options.seed.to_string(), depth.to_string());
    let args: Vec<String> = [
        "--workload",
        inputs.workload.name(),
        "--seed",
        &seed,
        "--depth",
        &depth,
        "--measure-ns",
        measure_ns,
    ]
    .into_iter()
    .chain(inputs.workload.layer_files().split_whitespace())
    .map(str::to_string)
    .collect();
    let (_, span, mut stage) = run.spawn(program, &args, "bm-layers")?;
    for line in stage.stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields[..] {
            ["metric", name, value] if LayerRows::index(name).is_some() => match value.parse() {
                Ok(value) => rows.set(name, value),
                Err(_) => stage.failure = Some(format!("unreadable value in {line:?}")),
            },
            ["span", name, start, end] => {
                if let (Some(parent), Ok(start), Ok(end)) = (span, start.parse(), end.parse()) {
                    run.rec.record_within(parent, name, start, end);
                }
            }
            _ => stage.failure = Some(format!("unexpected line {line:?}")),
        }
    }
    Ok(Some(stage))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plateau_is_read_from_the_saturate_summary() {
        let stdout = "OptHybridSpeculative x Multicast10 saturation:\n  stable injected load : 1.17 flits/ns per source\n  delivered plateau    : 1.57 GF/s per source (Table 1 quantity)\n";
        assert_eq!(plateau_gfs(stdout), Some(1.57));
        assert_eq!(plateau_gfs("no such line"), None);
    }

    #[test]
    fn layer_sourced_rows_are_missing_without_the_layer_tier() {
        let with = LayerRows::new(true);
        assert!(with.values().iter().all(|v| *v == Some(0.0)));
        let without = LayerRows::new(false);
        assert_eq!(without.get("core.run_s"), None);
        assert_eq!(without.get("engine.events"), Some(0.0));
        let missing = without.values().iter().filter(|v| v.is_none()).count();
        assert_eq!(
            missing,
            PER_LAYER
                .iter()
                .filter(|row| row.source == Source::Layers)
                .count()
        );
    }

    #[test]
    fn non_finite_values_read_zero() {
        let mut rows = LayerRows::new(true);
        rows.set("engine.retry_share", f64::NAN);
        rows.set("engine.pool_hit_rate", f64::INFINITY);
        assert_eq!(rows.get("engine.retry_share"), Some(0.0));
        assert_eq!(rows.get("engine.pool_hit_rate"), Some(0.0));
    }
}
