//! Windowed time-series sampling of throughput, in-flight flits, and
//! per-level channel busy-fraction.
//!
//! Saturation onset becomes *observable*: instead of inferring a knee from
//! bisection over whole-window averages, the time-series shows injected vs
//! delivered rates diverging and in-flight flit count climbing, bin by bin.

use asynoc_engine::{Observer, SimEvent};
use asynoc_kernel::{Duration, Time};

use crate::json::JsonValue;
use crate::site::{SiteOf, Stage};

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

/// A substrate-agnostic time-series observer with fixed-width bins.
///
/// All phases are recorded (the warmup ramp and post-window drain are part
/// of the story); each event's node-busy duration is attributed to the bin
/// containing the event instant.
pub struct TimeSeries<N> {
    bin: Duration,
    levels: Vec<LevelSpec>,
    site_of: SiteOf<N>,
    bins: Vec<Bin>,
    in_flight: i64,
    cap: usize,
}

impl<N: Copy> TimeSeries<N> {
    /// Creates a time-series with `bin`-wide buckets over the given level
    /// groups. A firing node's busy time goes to the group of its site's
    /// stage; a node of no listed stage is left out of the accounting.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    #[must_use]
    pub fn new(bin: Duration, levels: Vec<LevelSpec>, site_of: SiteOf<N>) -> Self {
        assert!(!bin.is_zero(), "bin width must be non-zero");
        TimeSeries {
            bin,
            levels,
            site_of,
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

    fn bin_at(&mut self, at: Time) -> Option<usize> {
        let index = (at.as_ps() / self.bin.as_ps()) as usize;
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

    fn add_busy(&mut self, index: usize, node: N, busy: Duration) {
        let stage = (self.site_of)(node).stage();
        if let Some(level) = self.levels.iter().position(|l| l.stage == stage) {
            self.bins[index].busy_ps[level] += busy.as_ps();
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
    /// later event would create them). Streaming sinks call this at a
    /// window boundary so the bins below it are final and can be
    /// emitted; batch collectors never need it because the triggering
    /// event itself backfills the same bins.
    pub fn backfill_before(&mut self, at: Time) {
        if at == Time::ZERO {
            return;
        }
        let _ = self.bin_at(Time::from_ps(at.as_ps() - 1));
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

impl<N: Copy> Observer<N> for TimeSeries<N> {
    fn on_event(&mut self, at: Time, _in_window: bool, event: &SimEvent<'_, N>) {
        let Some(index) = self.bin_at(at) else {
            return;
        };
        match event {
            SimEvent::Inject { .. } => {
                self.bins[index].injected += 1;
                self.in_flight += 1;
            }
            SimEvent::Forward {
                node, copies, busy, ..
            } => {
                self.bins[index].forwards += 1;
                // One input copy consumed, `copies` output copies launched.
                self.in_flight += i64::from(*copies) - 1;
                self.add_busy(index, *node, *busy);
            }
            SimEvent::Drop { node, busy, .. } => {
                self.bins[index].dropped += 1;
                self.in_flight -= 1;
                self.add_busy(index, *node, *busy);
            }
            SimEvent::Deliver { .. } => {
                self.bins[index].delivered += 1;
                self.in_flight -= 1;
            }
            // Fault hooks fire alongside the flit's normal lifecycle
            // events (a stalled launch still Arrives; a dropped header
            // was never Injected), so they move no in-flight tokens.
            SimEvent::Fault { .. } => {}
        }
        self.bins[index].in_flight = self.in_flight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use std::sync::Arc;

    use crate::site::Site;

    use asynoc_packet::{DestSet, Flit, PacketDescriptor, PacketId, RouteHeader};

    fn flit() -> Flit {
        Flit::new(
            Arc::new(PacketDescriptor::new(
                PacketId::new(1),
                0,
                DestSet::unicast(1),
                RouteHeader::for_tree(8),
                1,
                Time::ZERO,
            )),
            0,
        )
    }

    fn series() -> TimeSeries<usize> {
        let routers = LevelSpec {
            stage: Stage::Router,
            nodes: 4,
        };
        // Nodes past the four routers sit at a stage the series does not list.
        let site_of = |node| match node {
            0..4 => Site::Router(node),
            _ => Site::Node(node),
        };
        TimeSeries::new(Duration::from_ns(1), vec![routers], Rc::new(site_of))
    }

    #[test]
    fn events_land_in_their_bins_and_gaps_carry_in_flight() {
        let mut ts = series();
        let f = flit();
        ts.on_event(
            Time::from_ps(100),
            false,
            &SimEvent::Inject {
                source: 0,
                flit: &f,
            },
        );
        // Two empty bins pass, then delivery in bin 3.
        ts.on_event(
            Time::from_ps(3_500),
            true,
            &SimEvent::Deliver { dest: 1, flit: &f },
        );
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
        let f = flit();
        ts.on_event(
            Time::from_ps(10),
            true,
            &SimEvent::Inject {
                source: 0,
                flit: &f,
            },
        );
        ts.on_event(
            Time::from_ps(20),
            true,
            &SimEvent::Forward {
                node: 0usize,
                flit: &f,
                info: asynoc_engine::ForwardInfo::Arbitrated { input: 0 },
                copies: 2,
                busy: Duration::from_ps(100),
            },
        );
        assert_eq!(ts.bins()[0].in_flight, 2, "a broadcast added a copy");
        ts.on_event(
            Time::from_ps(30),
            true,
            &SimEvent::Drop {
                node: 1usize,
                flit: &f,
                busy: Duration::from_ps(80),
            },
        );
        assert_eq!(ts.bins()[0].in_flight, 1, "the throttle removed it");
        assert_eq!(ts.bins()[0].dropped, 1);
        ts.on_event(
            Time::from_ps(40),
            true,
            &SimEvent::Drop {
                node: 7usize,
                flit: &f,
                busy: Duration::from_ps(500),
            },
        );
        // 100 + 80 ps of busy over 4 nodes x 1000 ps; node 7's stage is
        // not a level of the series, so its 500 ps count nowhere.
        assert!((ts.busy_fraction(0, 0) - 180.0 / 4000.0).abs() < 1e-12);
        assert_eq!(ts.bins()[0].dropped, 2);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut ts = series();
        let f = flit();
        ts.on_event(
            Time::from_ps(10),
            true,
            &SimEvent::Inject {
                source: 0,
                flit: &f,
            },
        );
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
