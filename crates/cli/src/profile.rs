//! `--profile <path>`: the pinned `asynoc-profile-v1` self-profile
//! document.
//!
//! Every profiled command funnels through one [`ProfileWriter`]: it
//! stamps the process wall clock and allocation counter when the
//! command starts — creating the file then, so an unwritable path costs
//! no run — collects one `runs[]` entry per simulation run (a
//! multi-seed `run --seeds K` contributes K entries, a `faults
//! --oracle` pair contributes two), and writes the document on the way
//! out. The file is written silently — profiled stdout stays
//! byte-identical to unprofiled stdout, which is what lets
//! `scripts/check.sh` diff the two.
//!
//! The document shape is golden-diffed (schema skeleton, not values) in
//! `scripts/check.sh` against `results/profile_schema.golden.json`;
//! regenerate with
//! `cargo run -p asynoc-bench --bin schema profile > results/profile_schema.golden.json`.

use std::io::Write;
use std::time::Instant;

use asynoc::probe::{allocations, EngineProfile, PhaseWall, QueueStats, PROFILE_SCHEMA};
use asynoc_telemetry::JsonValue;

use crate::commands::CliError;

/// Accumulates per-run engine profiles and renders the
/// `asynoc-profile-v1` document.
pub struct ProfileWriter {
    command: &'static str,
    file: std::fs::File,
    started: Instant,
    allocations_at_start: u64,
    runs: Vec<JsonValue>,
}

impl ProfileWriter {
    /// Starts profiling one CLI command when it asked for that
    /// (`--profile <path>` parsed), so call sites stay a one-liner next
    /// to the run they wrap: creates the document's file, stamps the wall
    /// clock and the process allocation counter (live only when the
    /// binary installs [`asynoc::probe::CountingAlloc`], as `asynoc`'s
    /// `main` does; otherwise the count reads 0).
    ///
    /// # Errors
    ///
    /// Returns a [`CliError::Io`] naming `--profile` and the path when
    /// the file cannot be created.
    pub fn when(
        path: Option<&String>,
        command: &'static str,
    ) -> Result<Option<ProfileWriter>, CliError> {
        let Some(file) = crate::commands::create_optional("--profile", path)? else {
            return Ok(None);
        };
        Ok(Some(ProfileWriter {
            command,
            file,
            started: Instant::now(),
            allocations_at_start: allocations(),
            runs: Vec::new(),
        }))
    }

    /// Appends one run's section: the identity `config` the run was
    /// keyed by plus the engine's profile.
    pub fn add_run(&mut self, config: JsonValue, profile: &EngineProfile) {
        self.runs.push(run_json(config, profile));
    }

    /// Renders and writes the document to the file the writer was
    /// created with. Silent on success: profiled stdout must stay
    /// byte-identical to unprofiled stdout.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError::Io`] when the file cannot be written.
    pub fn finish(mut self) -> Result<(), CliError> {
        let wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let allocated = allocations().saturating_sub(self.allocations_at_start);
        let doc = JsonValue::Object(vec![
            ("schema".to_string(), JsonValue::str(PROFILE_SCHEMA)),
            ("command".to_string(), JsonValue::str(self.command)),
            (
                "host".to_string(),
                JsonValue::Object(vec![(
                    "threads".to_string(),
                    JsonValue::uint(asynoc::default_parallelism() as u64),
                )]),
            ),
            ("wall_ms".to_string(), JsonValue::Number(wall_ms)),
            ("allocations".to_string(), JsonValue::uint(allocated)),
            ("runs".to_string(), JsonValue::Array(self.runs)),
        ]);
        Ok(self.file.write_all(doc.render_pretty().as_bytes())?)
    }
}

fn run_json(config: JsonValue, profile: &EngineProfile) -> JsonValue {
    let wall_s = profile.wall_ns as f64 / 1e9;
    let events = profile.kinds.total();
    let uint = |key: &str, value: u64| (key.to_string(), JsonValue::uint(value));
    // `lookahead_ps`, `windows`, `barrier_wait.total_ns` and
    // `imbalance.event_ratio` hold the one-thread values, the counters sit
    // under `shards[0]`, `queue` keeps `resizes` (0: the timing wheel never
    // resizes), and `pool` keeps `takes` and `hits` (both the packets
    // created: no descriptor allocates), because
    // benchmark/e2e/src/profile.rs reads exactly those paths.
    let counters = JsonValue::Object(vec![
        uint("events", events),
        uint("windows", 0),
        (
            "kinds".to_string(),
            JsonValue::Object(vec![
                uint("inject", profile.kinds.inject),
                uint("arrive", profile.kinds.arrive),
                uint("free", profile.kinds.free),
                uint("retry", profile.kinds.retry),
            ]),
        ),
        ("queue".to_string(), queue_json(&profile.queue)),
        (
            "pool".to_string(),
            JsonValue::Object(vec![
                uint("takes", profile.packets),
                uint("hits", profile.packets),
            ]),
        ),
        (
            "barrier_wait".to_string(),
            JsonValue::Object(vec![uint("total_ns", 0)]),
        ),
        ("phase".to_string(), phase_json(&profile.phase)),
    ]);
    JsonValue::Object(vec![
        ("config".to_string(), config),
        uint("events", events),
        (
            "wall_ms".to_string(),
            JsonValue::Number(profile.wall_ns as f64 / 1e6),
        ),
        (
            "events_per_sec".to_string(),
            JsonValue::Number(if wall_s > 0.0 {
                events as f64 / wall_s
            } else {
                0.0
            }),
        ),
        uint("lookahead_ps", 0),
        ("shards".to_string(), JsonValue::Array(vec![counters])),
        (
            "imbalance".to_string(),
            JsonValue::Object(vec![("event_ratio".to_string(), JsonValue::Number(1.0))]),
        ),
    ])
}

fn queue_json(queue: &QueueStats) -> JsonValue {
    JsonValue::Object(vec![
        ("inserts".to_string(), JsonValue::uint(queue.inserts)),
        ("pops".to_string(), JsonValue::uint(queue.pops)),
        ("resizes".to_string(), JsonValue::uint(0)),
        (
            "fallback_scans".to_string(),
            JsonValue::uint(queue.fallback_scans),
        ),
        (
            "depth_high_water".to_string(),
            JsonValue::uint(queue.depth_high_water),
        ),
    ])
}

fn phase_json(phase: &PhaseWall) -> JsonValue {
    JsonValue::Object(vec![
        ("warmup_ns".to_string(), JsonValue::uint(phase.warmup_ns)),
        ("measure_ns".to_string(), JsonValue::uint(phase.measure_ns)),
        ("drain_ns".to_string(), JsonValue::uint(phase.drain_ns)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> EngineProfile {
        let mut profile = EngineProfile {
            wall_ns: 2_000_000,
            packets: 10,
            ..EngineProfile::default()
        };
        profile.kinds.inject = 25;
        profile.kinds.arrive = 75;
        profile.queue.inserts = 100;
        profile.queue.pops = 100;
        profile
    }

    #[test]
    fn document_carries_schema_and_run_sections() {
        let path = std::env::temp_dir().join(format!(
            "asynoc-profile-writer-test-{}.json",
            std::process::id()
        ));
        let path = path.to_string_lossy().into_owned();
        assert!(ProfileWriter::when(None, "run").expect("no file").is_none());
        let mut writer = ProfileWriter::when(Some(&path), "run")
            .expect("creates")
            .expect("asked for");
        writer.add_run(
            JsonValue::Object(vec![("seed".to_string(), JsonValue::uint(42))]),
            &sample_profile(),
        );
        writer.finish().expect("writes");
        let doc = JsonValue::parse(&std::fs::read_to_string(&path).expect("file"))
            .expect("valid JSON document");
        let _ = std::fs::remove_file(&path);

        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(PROFILE_SCHEMA)
        );
        assert_eq!(doc.get("command").and_then(JsonValue::as_str), Some("run"));
        assert!(doc.get("wall_ms").and_then(JsonValue::as_f64).is_some());
        let runs = doc.get("runs").and_then(JsonValue::as_array).expect("runs");
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        let num = |at: &str| {
            at.split('/')
                .try_fold(run, |value, key| match key.parse::<usize>() {
                    Ok(index) => value.as_array()?.get(index),
                    Err(_) => value.get(key),
                })
                .and_then(JsonValue::as_f64)
        };
        assert_eq!(num("events"), Some(100.0));
        assert_eq!(num("wall_ms"), Some(2.0));
        assert_eq!(num("shards/0/kinds/arrive"), Some(75.0));
        assert_eq!(num("shards/0/pool/hits"), Some(10.0));
        // The members the benchmark reads, at their one-thread values.
        assert_eq!(num("lookahead_ps"), Some(0.0));
        assert_eq!(num("shards/0/windows"), Some(0.0));
        assert_eq!(num("shards/0/barrier_wait/total_ns"), Some(0.0));
        assert_eq!(num("imbalance/event_ratio"), Some(1.0));
    }
}
