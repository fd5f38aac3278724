//! The metric tables: every name the benchmark prints, with unit, direction
//! and (end to end) the bound by which it may worsen. `BENCHMARK.json` at
//! the repository root lists the same rows; a unit test keeps them equal.

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a per-layer number comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Source {
    /// Exact count from the traced pass's `asynoc-profile-v1` documents.
    Profile,
    /// Exact value from a document or file the workload wrote.
    Files,
    /// Host time of child processes (stage walls and their differences).
    Walls,
    /// Host time of an in-process call made by `bm-layers`.
    Layers,
}

impl Source {
    pub fn letter(self) -> &'static str {
        match self {
            Source::Profile => "P",
            Source::Files => "F",
            Source::Walls => "D",
            Source::Layers => "T",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn row(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Files, Layers, Profile, Walls};

/// Every traced run reports every row; a layer the workload does not
/// exercise reads 0 (see README.md for which workload moves which row).
pub const PER_LAYER: [PerLayer; 64] = [
    row("kernel.queue_ops", "count", Lower, Profile),
    row("kernel.queue_resizes", "count", Lower, Profile),
    row("kernel.queue_fallback_scans", "count", Lower, Profile),
    row("kernel.queue_depth_high_water", "count", Lower, Profile),
    row("kernel.queue_ns_per_op", "ns", Lower, Layers),
    row("kernel.barrier_windows", "count", Lower, Profile),
    row("kernel.barrier_wait_share", "ratio", Lower, Profile),
    row("kernel.barrier_us_per_sync", "us", Lower, Layers),
    row("kernel.parallel_map_us_per_task", "us", Lower, Layers),
    row("engine.events", "count", Lower, Profile),
    row("engine.events_inject", "count", Lower, Profile),
    row("engine.events_arrive", "count", Lower, Profile),
    row("engine.events_free", "count", Lower, Profile),
    row("engine.events_retry", "count", Lower, Profile),
    row("engine.retry_share", "ratio", Lower, Profile),
    row("engine.pool_hit_rate", "ratio", Higher, Profile),
    row("engine.shard_event_ratio", "ratio", Lower, Profile),
    row("engine.lookahead_ps", "ps", Higher, Profile),
    row("engine.ns_per_event", "ns", Lower, Walls),
    row("engine.parallel_slowdown", "ratio", Lower, Walls),
    row("core.build_ms_8", "ms", Lower, Layers),
    row("core.build_ms_64", "ms", Lower, Layers),
    row("core.run_s", "s", Lower, Layers),
    row("core.sim_p50_ps", "ps", Lower, Layers),
    row("core.sim_p99_ps", "ps", Lower, Layers),
    row("core.sim_delivered_gfs", "GF/s", Higher, Layers),
    row("core.sim_power_mw", "mW", Lower, Layers),
    row("core.throttled_flits", "count", Lower, Layers),
    row("core.useful_copy_ratio", "ratio", Higher, Layers),
    row("core.mc10_sat_error_pct", "%", Lower, Files),
    row("vcmesh.ns_per_event", "ns", Lower, Walls),
    row("vcmesh.run_s", "s", Lower, Layers),
    row("vcmesh.link_traversals", "count", Lower, Files),
    row("vcmesh.vc_peak", "count", Lower, Files),
    row("vcmesh.sim_p50_ps", "ps", Lower, Files),
    row("vcmesh.sim_p99_ps", "ps", Lower, Files),
    row("vcmesh.dpm_link_ratio", "ratio", Lower, Files),
    row("telemetry.observer_ns_per_event", "ns", Lower, Walls),
    row("telemetry.write_ns_per_record", "ns", Lower, Walls),
    row("telemetry.write_mb_per_s", "MB/s", Higher, Walls),
    row("telemetry.records", "count", Lower, Files),
    row("telemetry.bytes_written", "B", Lower, Files),
    row("telemetry.parse_ns_per_record", "ns", Lower, Layers),
    row("telemetry.fold_ns_per_record", "ns", Lower, Layers),
    row("telemetry.json_parse_mb_per_s", "MB/s", Higher, Layers),
    row("analysis.build_ns_per_record", "ns", Lower, Layers),
    row("analysis.to_json_ms", "ms", Lower, Layers),
    row("analysis.flit_trees", "count", Lower, Files),
    row("analysis.open_trees", "count", Lower, Files),
    row("analysis.broken_trees", "count", Lower, Files),
    row("faults.oracle_s", "s", Lower, Walls),
    row("faults.peak_rss_mb", "MiB", Lower, Walls),
    row("cli.stage1_s", "s", Lower, Walls),
    row("cli.stage2_s", "s", Lower, Walls),
    row("cli.stage3_s", "s", Lower, Walls),
    row("cli.stage4_s", "s", Lower, Walls),
    row("cli.stage1_rss_mb", "MiB", Lower, Walls),
    row("cli.stage2_rss_mb", "MiB", Lower, Walls),
    row("cli.stage3_rss_mb", "MiB", Lower, Walls),
    row("cli.stage4_rss_mb", "MiB", Lower, Walls),
    row("cli.fixed_cost_ms", "ms", Lower, Walls),
    row("cli.harness_gap_share", "ratio", Lower, Walls),
    row("cli.trace_overhead_share", "ratio", Lower, Walls),
    row("cli.host_speed", "ratio", Higher, Walls),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::workloads::Workload;

    /// `BENCHMARK.json` is what the acceptance driver reads; the tables
    /// above are what the harness prints. They must describe the same rows.
    #[test]
    fn manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let manifest =
            Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
                .unwrap();
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);

        let rows = manifest.get("end_to_end").unwrap().items();
        assert_eq!(rows.len(), END_TO_END.len());
        for (row, def) in rows.iter().zip(&END_TO_END) {
            assert_eq!(text(row, "name").as_deref(), Some(def.name));
            assert_eq!(text(row, "unit").as_deref(), Some(def.unit), "{}", def.name);
            assert_eq!(
                text(row, "better").as_deref(),
                Some(def.better.word()),
                "{}",
                def.name
            );
            assert_eq!(row.num("bound"), Ok(def.bound), "{}", def.name);
        }
        let rows = manifest.get("per_layer").unwrap().items();
        assert_eq!(rows.len(), PER_LAYER.len());
        for (row, def) in rows.iter().zip(&PER_LAYER) {
            assert_eq!(text(row, "name").as_deref(), Some(def.name));
            assert_eq!(text(row, "unit").as_deref(), Some(def.unit), "{}", def.name);
            assert_eq!(
                text(row, "better").as_deref(),
                Some(def.better.word()),
                "{}",
                def.name
            );
        }
        let names: Vec<_> = manifest
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| text(w, "name").unwrap())
            .collect();
        let gated: Vec<_> = Workload::ALL.into_iter().filter(|w| w.gated()).collect();
        assert_eq!(names, gated.iter().map(|w| w.name()).collect::<Vec<_>>());
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .collect();
        for name in &names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
