//! Reader for the pinned `asynoc-profile-v1` document: folds the exact
//! per-shard counters of every run in a traced pass into layer totals.

use crate::json::Value;

/// Per-shard numbers read, as paths below `runs/<r>/shards/<s>`.
pub const SHARD_PATHS: [&str; 14] = [
    "events",
    "windows",
    "kinds/inject",
    "kinds/arrive",
    "kinds/free",
    "kinds/retry",
    "queue/inserts",
    "queue/pops",
    "queue/resizes",
    "queue/fallback_scans",
    "queue/depth_high_water",
    "pool/takes",
    "pool/hits",
    "barrier_wait/total_ns",
];

/// Per-run numbers read, as paths below `runs/<r>`.
pub const RUN_PATHS: [&str; 3] = ["wall_ms", "lookahead_ps", "imbalance/event_ratio"];

/// Counters summed (high-water marks: maximised) over every shard of
/// every run of every profile document folded in.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Totals {
    pub events: f64,
    pub inject: f64,
    pub arrive: f64,
    pub free: f64,
    pub retry: f64,
    pub queue_ops: f64,
    pub queue_resizes: f64,
    pub queue_fallback_scans: f64,
    pub queue_depth_high_water: f64,
    pub pool_takes: f64,
    pub pool_hits: f64,
    /// Window-barrier rounds, counted once per run (every shard of a run
    /// goes through the same windows).
    pub barrier_windows: f64,
    pub barrier_wait_ns: f64,
    /// Σ run wall × shard count: the host time the waits are a share of.
    pub shard_wall_ns: f64,
    /// Σ `event_ratio` × events, for an event-weighted mean.
    pub weighted_event_ratio: f64,
    /// Largest window width seen (0 for serial runs).
    pub lookahead_ps: f64,
}

impl Totals {
    /// Folds one profile document in; errors name the missing field.
    pub fn add(&mut self, doc: &Value) -> Result<(), String> {
        match doc.get("schema").and_then(Value::as_str) {
            Some("asynoc-profile-v1") => {}
            other => return Err(format!("profile schema tag is {other:?}")),
        }
        for run in doc.get("runs").map_or(&[][..], Value::items) {
            let [wall_ms, lookahead_ps, event_ratio] = RUN_PATHS.map(|path| run.num(path));
            let shards = run.get("shards").map_or(&[][..], Value::items);
            let mut run_events = 0.0;
            let mut windows = 0.0f64;
            for shard in shards {
                let mut n = [0.0; SHARD_PATHS.len()];
                for (slot, path) in n.iter_mut().zip(SHARD_PATHS) {
                    *slot = shard.num(path)?;
                }
                run_events += n[0];
                windows = windows.max(n[1]);
                self.inject += n[2];
                self.arrive += n[3];
                self.free += n[4];
                self.retry += n[5];
                self.queue_ops += n[6] + n[7];
                self.queue_resizes += n[8];
                self.queue_fallback_scans += n[9];
                self.queue_depth_high_water = self.queue_depth_high_water.max(n[10]);
                self.pool_takes += n[11];
                self.pool_hits += n[12];
                self.barrier_wait_ns += n[13];
            }
            self.events += run_events;
            self.barrier_windows += windows;
            self.shard_wall_ns += wall_ms? * 1e6 * shards.len() as f64;
            self.weighted_event_ratio += event_ratio? * run_events;
            self.lookahead_ps = self.lookahead_ps.max(lookahead_ps?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(events: u64, windows: u64, wait_ns: u64, depth: u64) -> String {
        format!(
            r#"{{"events": {events}, "windows": {windows},
                "kinds": {{"inject": 1, "arrive": 2, "free": 3, "retry": 4}},
                "queue": {{"inserts": 10, "pops": 9, "resizes": 1, "fallback_scans": 0, "depth_high_water": {depth}}},
                "pool": {{"takes": 4, "hits": 3}},
                "barrier_wait": {{"total_ns": {wait_ns}}}}}"#
        )
    }

    #[test]
    fn folds_runs_and_shards() {
        let text = format!(
            r#"{{"schema": "asynoc-profile-v1", "runs": [
                {{"wall_ms": 2.0, "lookahead_ps": 150, "imbalance": {{"event_ratio": 1.5}}, "shards": [{}, {}]}},
                {{"wall_ms": 1.0, "lookahead_ps": 0, "imbalance": {{"event_ratio": 1.0}}, "shards": [{}]}}]}}"#,
            shard(300, 7, 500_000, 40),
            shard(100, 7, 1_500_000, 90),
            shard(600, 0, 0, 20),
        );
        let mut totals = Totals::default();
        totals.add(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(totals.events, 1000.0);
        assert_eq!((totals.inject, totals.retry), (3.0, 12.0));
        assert_eq!(totals.queue_ops, 57.0);
        assert_eq!(totals.queue_depth_high_water, 90.0);
        assert_eq!(totals.barrier_windows, 7.0);
        assert_eq!(totals.barrier_wait_ns, 2_000_000.0);
        assert_eq!(totals.shard_wall_ns, 5_000_000.0);
        assert_eq!(totals.weighted_event_ratio / totals.events, 1.2);
        assert_eq!(totals.lookahead_ps, 150.0);
    }

    #[test]
    fn names_the_missing_field_and_checks_the_tag() {
        let mut totals = Totals::default();
        let doc = Value::parse(
            r#"{"schema": "asynoc-profile-v1", "runs": [{"shards": [{"events": 1}]}]}"#,
        );
        assert!(totals.add(&doc.unwrap()).unwrap_err().contains("windows"));
        let other = Value::parse(r#"{"schema": "asynoc-metrics-v1"}"#).unwrap();
        assert!(totals.add(&other).unwrap_err().contains("schema"));
    }

    /// Every path this reader follows must be a number in the repository's
    /// pinned schema skeleton, so a schema change fails here first.
    #[test]
    fn paths_exist_in_the_pinned_schema_golden() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/profile_schema.golden.json"
        );
        let golden =
            Value::parse(&std::fs::read_to_string(path).expect("golden is readable")).unwrap();
        assert_eq!(golden.get("schema").and_then(Value::as_str), Some("string"));
        for path in RUN_PATHS {
            let at = format!("runs/0/{path}");
            assert_eq!(
                golden.at(&at).and_then(Value::as_str),
                Some("number"),
                "{at}"
            );
        }
        for path in SHARD_PATHS {
            let at = format!("runs/0/shards/0/{path}");
            assert_eq!(
                golden.at(&at).and_then(Value::as_str),
                Some("number"),
                "{at}"
            );
        }
    }
}
