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

use asynoc::probe::{
    allocations, EngineProfile, HostHistogram, PhaseWall, PoolStats, QueueStats, ShardProfile,
    PROFILE_SCHEMA,
};
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
    /// keyed by plus the engine's per-shard profile.
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
    let events: u64 = profile.shards.iter().map(|s| s.events).sum();
    let wall_s = profile.wall_ns as f64 / 1e9;
    let imbalance = profile.imbalance();
    JsonValue::Object(vec![
        ("config".to_string(), config),
        ("events".to_string(), JsonValue::uint(events)),
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
        (
            "lookahead_ps".to_string(),
            JsonValue::uint(profile.lookahead_ps),
        ),
        (
            "shards".to_string(),
            JsonValue::Array(profile.shards.iter().map(shard_json).collect()),
        ),
        (
            "imbalance".to_string(),
            JsonValue::Object(vec![
                (
                    "max_shard_events".to_string(),
                    JsonValue::uint(imbalance.max_shard_events),
                ),
                (
                    "mean_shard_events".to_string(),
                    JsonValue::Number(imbalance.mean_shard_events),
                ),
                (
                    "event_ratio".to_string(),
                    JsonValue::Number(imbalance.event_ratio),
                ),
                (
                    "barrier_wait_ns".to_string(),
                    JsonValue::uint(imbalance.barrier_wait_ns),
                ),
                (
                    "barrier_wait_share".to_string(),
                    JsonValue::Number(imbalance.barrier_wait_share),
                ),
            ]),
        ),
    ])
}

fn shard_json(shard: &ShardProfile) -> JsonValue {
    JsonValue::Object(vec![
        ("shard".to_string(), JsonValue::uint(shard.shard as u64)),
        ("events".to_string(), JsonValue::uint(shard.events)),
        ("windows".to_string(), JsonValue::uint(shard.windows)),
        (
            "kinds".to_string(),
            JsonValue::Object(vec![
                ("inject".to_string(), JsonValue::uint(shard.kinds.inject)),
                ("arrive".to_string(), JsonValue::uint(shard.kinds.arrive)),
                ("free".to_string(), JsonValue::uint(shard.kinds.free)),
                ("retry".to_string(), JsonValue::uint(shard.kinds.retry)),
            ]),
        ),
        ("queue".to_string(), queue_json(&shard.queue)),
        ("pool".to_string(), pool_json(&shard.pool)),
        (
            "barrier_wait".to_string(),
            histogram_json(&shard.barrier_wait),
        ),
        (
            "sent".to_string(),
            JsonValue::Array(shard.sent.iter().map(|&n| JsonValue::uint(n)).collect()),
        ),
        ("received".to_string(), JsonValue::uint(shard.received)),
        (
            "mailbox_depth_high_water".to_string(),
            JsonValue::uint(shard.mailbox_depth_high_water),
        ),
        ("phase".to_string(), phase_json(&shard.phase)),
    ])
}

fn queue_json(queue: &QueueStats) -> JsonValue {
    JsonValue::Object(vec![
        ("inserts".to_string(), JsonValue::uint(queue.inserts)),
        ("pops".to_string(), JsonValue::uint(queue.pops)),
        ("resizes".to_string(), JsonValue::uint(queue.resizes)),
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

fn pool_json(pool: &PoolStats) -> JsonValue {
    JsonValue::Object(vec![
        ("takes".to_string(), JsonValue::uint(pool.takes)),
        ("hits".to_string(), JsonValue::uint(pool.hits)),
        ("recycled".to_string(), JsonValue::uint(pool.recycled)),
        ("rejected".to_string(), JsonValue::uint(pool.rejected)),
        (
            "occupancy_high_water".to_string(),
            JsonValue::uint(pool.occupancy_high_water),
        ),
        ("hit_rate".to_string(), JsonValue::Number(pool.hit_rate())),
    ])
}

fn histogram_json(hist: &HostHistogram) -> JsonValue {
    JsonValue::Object(vec![
        ("count".to_string(), JsonValue::uint(hist.count())),
        ("total_ns".to_string(), JsonValue::uint(hist.total_ns())),
        ("max_ns".to_string(), JsonValue::uint(hist.max_ns())),
        ("mean_ns".to_string(), JsonValue::Number(hist.mean_ns())),
        (
            "buckets".to_string(),
            JsonValue::Array(
                hist.nonzero_buckets()
                    .map(|(floor_ns, count)| {
                        JsonValue::Object(vec![
                            ("floor_ns".to_string(), JsonValue::uint(floor_ns)),
                            ("count".to_string(), JsonValue::uint(count)),
                        ])
                    })
                    .collect(),
            ),
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
        let mut shard = ShardProfile {
            shard: 0,
            events: 100,
            windows: 4,
            ..ShardProfile::default()
        };
        shard.kinds.inject = 25;
        shard.kinds.arrive = 75;
        shard.queue.inserts = 100;
        shard.queue.pops = 100;
        shard.pool.takes = 10;
        shard.pool.hits = 9;
        shard
            .barrier_wait
            .record(std::time::Duration::from_nanos(300));
        shard.sent = vec![0, 7];
        EngineProfile {
            wall_ns: 2_000_000,
            lookahead_ps: 500,
            shards: vec![shard],
        }
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
        assert_eq!(run.get("events").and_then(JsonValue::as_f64), Some(100.0));
        assert_eq!(run.get("wall_ms").and_then(JsonValue::as_f64), Some(2.0));
        let shards = run
            .get("shards")
            .and_then(JsonValue::as_array)
            .expect("shard sections");
        assert_eq!(shards.len(), 1);
        let shard = &shards[0];
        assert_eq!(
            shard
                .get("kinds")
                .and_then(|k| k.get("arrive"))
                .and_then(JsonValue::as_f64),
            Some(75.0)
        );
        assert_eq!(
            shard
                .get("pool")
                .and_then(|p| p.get("hit_rate"))
                .and_then(JsonValue::as_f64),
            Some(0.9)
        );
        // Barrier-wait buckets are (floor_ns, count) pairs: 300 ns falls
        // in [256, 512).
        let buckets = shard
            .get("barrier_wait")
            .and_then(|h| h.get("buckets"))
            .and_then(JsonValue::as_array)
            .expect("buckets");
        assert_eq!(
            buckets[0].get("floor_ns").and_then(JsonValue::as_f64),
            Some(256.0)
        );
        let imbalance = run.get("imbalance").expect("imbalance summary");
        assert_eq!(
            imbalance.get("event_ratio").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert_eq!(
            imbalance.get("barrier_wait_ns").and_then(JsonValue::as_f64),
            Some(300.0)
        );
    }
}
