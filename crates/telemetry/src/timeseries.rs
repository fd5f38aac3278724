//! Windowed time-series sampling of throughput, in-flight flits, and
//! per-level channel busy-fraction.
//!
//! Saturation onset becomes *observable*: instead of inferring a knee from
//! bisection over whole-window averages, the time-series shows injected vs
//! delivered rates diverging and in-flight flit count climbing, bin by bin.

use asynoc_kernel::{Duration, Time};

use crate::json::JsonValue;
use crate::recorder::RecordSink;
use crate::site::{Site, Stage};
use crate::trace::{Action, TraceRecord};

/// One group of nodes whose busy time is aggregated per bin — a tree
/// level on the MoT, the whole router array on the mesh.
#[derive(Clone, Copy, Debug)]
pub struct LevelSpec {
    /// The stage whose nodes form the group; its `Display` form
    /// (`fanout-L1`, `router`) is the level's label.
    pub stage: Stage,
    /// Number of nodes in the group (the busy-fraction denominator).
    pub nodes: usize,
}

/// Counters for one time bin.
#[derive(Clone, Debug, Default)]
pub struct Bin {
    /// Flits injected by sources during this bin.
    pub injected: u64,
    /// Flits consumed by sinks during this bin.
    pub delivered: u64,
    /// Redundant copies throttled during this bin.
    pub dropped: u64,
    /// Node firings (forward events) during this bin.
    pub forwards: u64,
    /// Flit copies in the network at the end of the bin.
    pub in_flight: i64,
    busy_ps: Vec<u64>,
}

/// A substrate-agnostic time-series collector with fixed-width bins.
///
/// All phases are recorded (the warmup ramp and post-window drain are part
/// of the story); each record's node-busy duration is attributed to the bin
/// containing its instant.
pub struct TimeSeries {
    bin: Duration,
    levels: Vec<LevelSpec>,
    bins: Vec<Bin>,
    in_flight: i64,
    cap: usize,
}

impl TimeSeries {
    /// Creates a time-series with `bin`-wide buckets over the given level
    /// groups. A firing node's busy time goes to the group of its site's
    /// stage; a node of no listed stage is left out of the accounting.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    #[must_use]
    pub fn new(bin: Duration, levels: Vec<LevelSpec>) -> Self {
        assert!(!bin.is_zero(), "bin width must be non-zero");
        TimeSeries {
            bin,
            levels,
            bins: Vec::new(),
            in_flight: 0,
            cap: 1 << 16,
        }
    }

    /// The bin width.
    #[must_use]
    pub fn bin_width(&self) -> Duration {
        self.bin
    }

    /// The recorded bins, oldest first.
    #[must_use]
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// Busy fraction of level `level` during bin `index`: accumulated
    /// node-busy time over the group's total node-time in the bin.
    #[must_use]
    pub fn busy_fraction(&self, index: usize, level: usize) -> f64 {
        let busy = self.bins[index].busy_ps.get(level).copied().unwrap_or(0);
        let capacity = self.bin.as_ps() * self.levels[level].nodes.max(1) as u64;
        busy as f64 / capacity as f64
    }

    fn bin_at(&mut self, t_ps: u64) -> Option<usize> {
        let index = (t_ps / self.bin.as_ps()) as usize;
        if index >= self.cap {
            return None;
        }
        while self.bins.len() <= index {
            // Bins between events inherit the running in-flight level.
            self.bins.push(Bin {
                in_flight: self.in_flight,
                busy_ps: vec![0; self.levels.len()],
                ..Bin::default()
            });
        }
        Some(index)
    }

    fn add_busy(&mut self, index: usize, site: Site, busy_ps: u64) {
        let stage = site.stage();
        if let Some(level) = self.levels.iter().position(|l| l.stage == stage) {
            self.bins[index].busy_ps[level] += busy_ps;
        }
    }

    /// Number of bins materialized so far (bins exist lazily, up to the
    /// latest event seen).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Returns `true` if no bins have been materialized.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// The level labels, in busy-fraction array order.
    #[must_use]
    pub fn level_labels(&self) -> Vec<String> {
        self.levels.iter().map(|l| l.stage.to_string()).collect()
    }

    /// Materializes every bin covering instants strictly before `at`
    /// (gap bins inherit the running in-flight level, exactly as a
    /// later record would create them). A stream sink windowing this
    /// collector calls it at a window boundary so the bins below it are
    /// final and can be emitted; the record that crossed the boundary
    /// would have backfilled the same bins.
    pub fn backfill_before(&mut self, at: Time) {
        if at == Time::ZERO {
            return;
        }
        let _ = self.bin_at(at.as_ps() - 1);
    }

    /// One bin's JSON object, exactly as it appears in the batch
    /// report's `bins` array.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn bin_json(&self, index: usize) -> JsonValue {
        let bin = &self.bins[index];
        let busy: Vec<JsonValue> = (0..self.levels.len())
            .map(|level| JsonValue::Number(self.busy_fraction(index, level)))
            .collect();
        JsonValue::Object(vec![
            (
                "t_ps".to_string(),
                JsonValue::uint(index as u64 * self.bin.as_ps()),
            ),
            ("injected".to_string(), JsonValue::uint(bin.injected)),
            ("delivered".to_string(), JsonValue::uint(bin.delivered)),
            ("dropped".to_string(), JsonValue::uint(bin.dropped)),
            ("forwards".to_string(), JsonValue::uint(bin.forwards)),
            ("in_flight".to_string(), JsonValue::int(bin.in_flight)),
            ("busy_fraction".to_string(), JsonValue::Array(busy)),
        ])
    }

    /// The time-series section of the metrics report: bin width, level
    /// labels, and one object per bin with counters and per-level busy
    /// fractions.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let labels: Vec<JsonValue> = self
            .level_labels()
            .into_iter()
            .map(JsonValue::str)
            .collect();
        let bins: Vec<JsonValue> = (0..self.bins.len()).map(|i| self.bin_json(i)).collect();
        JsonValue::Object(vec![
            ("bin_ps".to_string(), JsonValue::uint(self.bin.as_ps())),
            ("levels".to_string(), JsonValue::Array(labels)),
            ("bins".to_string(), JsonValue::Array(bins)),
        ])
    }
}

impl RecordSink for TimeSeries {
    fn on_record(&mut self, record: &TraceRecord, _in_window: bool) {
        let Some(index) = self.bin_at(record.t_ps) else {
            return;
        };
        match record.action {
            Action::Inject => {
                self.bins[index].injected += 1;
                self.in_flight += 1;
            }
            Action::Forward => {
                self.bins[index].forwards += 1;
                // One input copy consumed, `copies` output copies launched.
                self.in_flight += i64::from(record.copies) - 1;
                self.add_busy(index, record.site, record.busy_ps);
            }
            Action::Throttle => {
                self.bins[index].dropped += 1;
                self.in_flight -= 1;
                self.add_busy(index, record.site, record.busy_ps);
            }
            Action::Deliver => {
                self.bins[index].delivered += 1;
                self.in_flight -= 1;
            }
            // Fault hooks fire alongside the flit's normal lifecycle
            // events (a stalled launch still Arrives; a dropped header
            // was never Injected), so they move no in-flight tokens.
            Action::Fault => {}
        }
        self.bins[index].in_flight = self.in_flight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        let routers = LevelSpec {
            stage: Stage::Router,
            nodes: 4,
        };
        TimeSeries::new(Duration::from_ns(1), vec![routers])
    }

    fn at(t_ps: u64, action: Action) -> TraceRecord {
        TraceRecord {
            t_ps,
            action,
            ..TraceRecord::INJECT
        }
    }

    /// A forward or throttle at `site` that kept it busy for `busy_ps`.
    fn firing(t_ps: u64, action: Action, site: Site, copies: u8, busy_ps: u64) -> TraceRecord {
        TraceRecord {
            site,
            copies,
            busy_ps,
            ..at(t_ps, action)
        }
    }

    #[test]
    fn events_land_in_their_bins_and_gaps_carry_in_flight() {
        let mut ts = series();
        ts.on_record(&at(100, Action::Inject), false);
        // Two empty bins pass, then delivery in bin 3.
        ts.on_record(&at(3_500, Action::Deliver), true);
        assert_eq!(ts.bins().len(), 4);
        assert_eq!(ts.bins()[0].injected, 1);
        assert_eq!(ts.bins()[0].in_flight, 1);
        assert_eq!(ts.bins()[1].in_flight, 1, "gap bins carry the level");
        assert_eq!(ts.bins()[2].in_flight, 1);
        assert_eq!(ts.bins()[3].delivered, 1);
        assert_eq!(ts.bins()[3].in_flight, 0);
    }

    #[test]
    fn replication_and_drops_move_in_flight() {
        let mut ts = series();
        ts.on_record(&at(10, Action::Inject), true);
        let fork = firing(20, Action::Forward, Site::Router(0), 2, 100);
        ts.on_record(&fork, true);
        assert_eq!(ts.bins()[0].in_flight, 2, "a broadcast added a copy");
        let throttle = firing(30, Action::Throttle, Site::Router(1), 0, 80);
        ts.on_record(&throttle, true);
        assert_eq!(ts.bins()[0].in_flight, 1, "the throttle removed it");
        assert_eq!(ts.bins()[0].dropped, 1);
        // A site at a stage the series does not list.
        let elsewhere = firing(40, Action::Throttle, Site::Node(7), 0, 500);
        ts.on_record(&elsewhere, true);
        // 100 + 80 ps of busy over 4 nodes x 1000 ps; the 500 ps count
        // nowhere.
        assert!((ts.busy_fraction(0, 0) - 180.0 / 4000.0).abs() < 1e-12);
        assert_eq!(ts.bins()[0].dropped, 2);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut ts = series();
        ts.on_record(&at(10, Action::Inject), true);
        let json = ts.to_json();
        assert_eq!(json.get("bin_ps").and_then(JsonValue::as_f64), Some(1000.0));
        let bins = json.get("bins").and_then(JsonValue::as_array).unwrap();
        assert_eq!(bins.len(), 1);
        let busy = bins[0]
            .get("busy_fraction")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(busy.len(), 1);
    }
}
