//! Streaming telemetry: bounded-memory NDJSON export of windowed
//! metric deltas, with online invariant watchpoints.
//!
//! A [`StreamSink`] is an engine observer that writes an
//! [`STREAM_SCHEMA`] NDJSON stream *while the run executes*: one `head`
//! record describing the run, one `window` record per closed
//! simulated-time window (latency histogram deltas and finalized
//! time-series bins), optional per-event `trace` records, `watchpoint`
//! records whenever an online invariant fires, and one `end` record
//! carrying the run's scalar summary sections verbatim.
//!
//! Two properties anchor the design:
//!
//! - **Determinism.** The sink is driven purely by the observer event
//!   stream, which the engine replays in exact serial order regardless
//!   of shard count — so serial and sharded runs of the same spec
//!   produce *byte-identical* streams.
//! - **Concatenation.** Folding a metrics-grade stream back together
//!   ([`fold_stream`]) reproduces the batch `asynoc-metrics-v1`
//!   document byte-for-byte: latency deltas merge losslessly
//!   ([`LatencyHistograms::absorb`]), window bins concatenate into the
//!   batch `bins` array, and the scalar sections (waste, throughput,
//!   power, counters) ride the `end` record unchanged.
//!
//! Live memory is bounded independent of event count: histogram deltas
//! are drained every window, emitted bins are never revisited (the bin
//! store itself is capped), the trace buffer is drained per window, and
//! per-flit watchpoint bookkeeping is proportional to *in-flight*
//! traffic, not run length.
//!
//! # Watchpoints
//!
//! Four online invariants are evaluated during the run, each firing a
//! structured `watchpoint` record with causal context (site label,
//! offending flit key, window):
//!
//! - `token_conservation` — a flit copy was consumed (delivered,
//!   dropped) more times than it was produced (injected, forwarded).
//! - `no_progress` — `STALL_WINDOWS` consecutive windows closed with
//!   copies in flight but zero deliveries; names the oldest in-flight
//!   flit and the site that last touched it. Also fired at
//!   [`StreamSink::finish`] if the run ended with a measured packet
//!   incomplete or with a flit a fault touched still in flight. (Copies
//!   in flight at the close are no stall by themselves: the engine stops
//!   draining when the last measured *header* lands, so body and tail
//!   flits and not-yet-throttled redundant copies are always under way.)
//! - `busy_watermark` — one node's accumulated busy time exceeded
//!   `BUSY_CEILING` of a window (fires once per node).
//! - `waste_rate` — a window's throttle/forward ratio exceeded
//!   `WASTE_CEILING` (fires once per run; needs `WASTE_MIN_FORWARDS`
//!   forwards to avoid small-sample noise).

use std::collections::{HashMap, HashSet};
use std::io::{BufWriter, Write};

use asynoc_engine::{NodeKey, Observer, SimEvent};
use asynoc_kernel::{Duration, Time, WindowClock};
use asynoc_stats::Phases;

use crate::json::{write_u64, JsonError, JsonValue, Scanner};
use crate::latency::{LatencyHistograms, LatencyWindow};
use crate::site::{Site, SiteOf};
use crate::timeseries::TimeSeries;
use crate::tokens::TokenLedger;
use crate::trace::TraceWriter;
use crate::METRICS_SCHEMA;

/// Schema tag of the streaming NDJSON format (the `schema` field of the
/// leading `head` record). Bump when any record shape changes.
pub const STREAM_SCHEMA: &str = "asynoc-stream-v1";

/// Token-conservation violations reported per run before the sink goes
/// quiet (the invariant keeps being *checked*; the cap only bounds
/// output on a badly broken run).
const MAX_CONSERVATION_RECORDS: u64 = 16;

/// Consecutive zero-delivery windows (with flits in flight) before
/// `no_progress` fires.
const STALL_WINDOWS: u64 = 8;
/// Per-node busy fraction of one window above which `busy_watermark`
/// fires.
const BUSY_CEILING: f64 = 0.98;
/// Window throttle/forward ratio above which `waste_rate` fires.
const WASTE_CEILING: f64 = 0.75;
/// Minimum forwards in a window before the waste ratio is meaningful.
const WASTE_MIN_FORWARDS: u64 = 32;

/// Static description of a streamed run, written into the `head`
/// record.
pub struct StreamConfig {
    /// Which fabric produced the stream (`"mot"` or `"mesh"`).
    pub substrate: String,
    /// The run's `config` section, verbatim as the batch metrics report
    /// would carry it.
    pub config: JsonValue,
    /// Flush window width (must be a multiple of the time-series bin
    /// width).
    pub window: Duration,
    /// Emit per-event `trace` records, at most this many per window.
    pub trace_limit: Option<usize>,
}

/// What a finished stream amounted to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamSummary {
    /// Window records emitted (including the final partial window).
    pub windows: u64,
    /// Watchpoint records emitted.
    pub watchpoints: u64,
}

/// The streaming observer. See the module docs for the record protocol.
///
/// Register it alongside (or instead of) the batch collectors; after
/// the run, call [`StreamSink::finish`] with the scalar summary
/// sections to close the stream.
pub struct StreamSink<N> {
    out: BufWriter<Box<dyn Write>>,
    err: Option<std::io::Error>,
    clock: WindowClock,
    latency: LatencyHistograms,
    series: TimeSeries<N>,
    trace: Option<TraceWriter<N>>,
    site_of: SiteOf<N>,
    // Per-window counters, reset at every flush.
    w_events: u64,
    w_injected: u64,
    w_delivered: u64,
    w_dropped: u64,
    w_forwards: u64,
    node_busy: HashMap<u64, (N, u64)>,
    // Run-wide state.
    in_flight: i64,
    emitted_bins: usize,
    windows: u64,
    /// Every flit in flight, with the site that last touched it.
    tokens: TokenLedger<Site>,
    packet_refs: HashMap<u64, i64>,
    watermark_fired: HashSet<u64>,
    stall_run: u64,
    stalled: bool,
    conservation_fired: u64,
    waste_fired: bool,
    watchpoints: u64,
}

impl<N: Copy + NodeKey> StreamSink<N> {
    /// Opens a stream over `out`: writes the `head` record and returns
    /// the sink ready to observe events. `phases` gates latency
    /// sampling exactly as the batch collector does; `endpoints` sizes
    /// the per-destination breakdown; `series` supplies the bin width
    /// and level grouping (build it exactly as the batch path would);
    /// `site_of` places nodes in trace and watchpoint records.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the `head` record cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the window width is zero or not a multiple of the
    /// series' bin width.
    pub fn new(
        out: Box<dyn Write>,
        cfg: StreamConfig,
        phases: Phases,
        endpoints: usize,
        series: TimeSeries<N>,
        site_of: SiteOf<N>,
    ) -> std::io::Result<StreamSink<N>> {
        let bin = series.bin_width();
        assert!(
            !cfg.window.is_zero() && cfg.window.as_ps().is_multiple_of(bin.as_ps()),
            "stream window ({}) must be a non-zero multiple of the bin width ({})",
            cfg.window,
            bin,
        );
        let trace = cfg
            .trace_limit
            .map(|limit| TraceWriter::new(limit, SiteOf::clone(&site_of)));
        let labels: Vec<JsonValue> = series
            .level_labels()
            .into_iter()
            .map(JsonValue::str)
            .collect();
        let head = JsonValue::Object(vec![
            ("schema".to_string(), JsonValue::str(STREAM_SCHEMA)),
            ("type".to_string(), JsonValue::str("head")),
            (
                "substrate".to_string(),
                JsonValue::str(cfg.substrate.clone()),
            ),
            ("config".to_string(), cfg.config.clone()),
            ("window_ps".to_string(), JsonValue::uint(cfg.window.as_ps())),
            ("bin_ps".to_string(), JsonValue::uint(bin.as_ps())),
            ("levels".to_string(), JsonValue::Array(labels)),
            ("endpoints".to_string(), JsonValue::uint(endpoints as u64)),
            ("trace".to_string(), JsonValue::Bool(trace.is_some())),
            (
                "watch".to_string(),
                JsonValue::Object(vec![
                    ("stall_windows".to_string(), JsonValue::uint(STALL_WINDOWS)),
                    ("busy_ceiling".to_string(), JsonValue::Number(BUSY_CEILING)),
                    (
                        "waste_ceiling".to_string(),
                        JsonValue::Number(WASTE_CEILING),
                    ),
                    (
                        "waste_min_forwards".to_string(),
                        JsonValue::uint(WASTE_MIN_FORWARDS),
                    ),
                ]),
            ),
        ]);
        let mut out = BufWriter::new(out);
        let mut line = head.render();
        line.push('\n');
        out.write_all(line.as_bytes())?;
        Ok(StreamSink {
            out,
            err: None,
            clock: WindowClock::new(cfg.window),
            latency: LatencyHistograms::new(phases, endpoints),
            series,
            trace,
            site_of,
            w_events: 0,
            w_injected: 0,
            w_delivered: 0,
            w_dropped: 0,
            w_forwards: 0,
            node_busy: HashMap::new(),
            in_flight: 0,
            emitted_bins: 0,
            windows: 0,
            tokens: TokenLedger::default(),
            packet_refs: HashMap::new(),
            watermark_fired: HashSet::new(),
            stall_run: 0,
            stalled: false,
            conservation_fired: 0,
            waste_fired: false,
            watchpoints: 0,
        })
    }

    /// Watchpoint records emitted so far (drives `--watch-fatal`).
    #[must_use]
    pub fn watchpoints_fired(&self) -> u64 {
        self.watchpoints
    }

    /// Flushes the final partial window, runs the close-time check, and
    /// writes the `end` record carrying `sections` — the scalar summary
    /// sections (`waste`, `throughput`, `power`, `counters`) exactly as
    /// the batch metrics document orders them, so [`fold_stream`] can
    /// splice them back verbatim. Pass an empty object for streams that
    /// do not fold into a metrics report.
    ///
    /// The close-time `no_progress` record fires iff the run left work
    /// undone: `packets_incomplete` (the engine report's count of
    /// measured packets that never completed) is non-zero, or a flit a
    /// fault touched is still in flight. It names the oldest such flit.
    ///
    /// # Errors
    ///
    /// Surfaces the first I/O error encountered at any point of the
    /// stream's life (the observer path itself cannot fail, so errors
    /// are held until here).
    pub fn finish(
        mut self,
        sections: JsonValue,
        packets_incomplete: usize,
    ) -> std::io::Result<StreamSummary> {
        if self.w_events > 0 || self.emitted_bins < self.series.len() {
            self.flush_window(self.clock.next_seq(), false);
        }
        let faulted = self.tokens.oldest_in_flight(true);
        if packets_incomplete > 0 || faulted.is_some() {
            let copies = self.in_flight;
            let oldest = faulted.or_else(|| self.tokens.oldest_in_flight(false));
            let seq = self.clock.next_seq();
            let t = self.clock.boundary_of(seq.saturating_sub(1));
            self.watchpoint(
                "no_progress",
                seq,
                t,
                oldest.map(|(_, site)| site),
                oldest.map(|(key, _)| key),
                Some(copies as f64),
                format!(
                    "run ended with {packets_incomplete} measured packet(s) incomplete \
                     and {copies} copies still in flight"
                ),
            );
        }
        let end = JsonValue::Object(vec![
            ("type".to_string(), JsonValue::str("end")),
            ("windows".to_string(), JsonValue::uint(self.windows)),
            ("watchpoints".to_string(), JsonValue::uint(self.watchpoints)),
            ("sections".to_string(), sections),
        ]);
        self.write_value(&end);
        if let Some(err) = self.err {
            return Err(err);
        }
        self.out.flush()?;
        Ok(StreamSummary {
            windows: self.windows,
            watchpoints: self.watchpoints,
        })
    }

    fn write_value(&mut self, value: &JsonValue) {
        let mut line = value.render();
        line.push('\n');
        Self::write_text(&mut self.out, &mut self.err, &line);
    }

    /// Writes `text` unless an earlier write failed; the first error is
    /// held for [`finish`](StreamSink::finish).
    fn write_text(out: &mut impl Write, err: &mut Option<std::io::Error>, text: &str) {
        if err.is_none() {
            *err = out.write_all(text.as_bytes()).err();
        }
    }

    /// Emits the `window` record for `seq` plus any trace records and
    /// window-scoped watchpoints, then resets the per-window state.
    /// `backfill` materializes gap bins up to the window boundary —
    /// exactly the bins the batch collector would create when the event
    /// that triggered this flush reaches it — and must be `false` only
    /// for the final partial window (where no further event exists).
    fn flush_window(&mut self, seq: u64, backfill: bool) {
        let boundary = self.clock.boundary_of(seq);
        if backfill {
            self.series.backfill_before(boundary);
        }
        let bin_ps = self.series.bin_width().as_ps();
        let target = usize::try_from(boundary.as_ps() / bin_ps)
            .unwrap_or(usize::MAX)
            .min(self.series.len());
        let target = if backfill { target } else { self.series.len() };
        let bins: Vec<JsonValue> = (self.emitted_bins..target)
            .map(|i| self.series.bin_json(i))
            .collect();
        self.emitted_bins = target;
        // The window's `trace` lines, rendered as its events went by.
        if let Some(trace) = &mut self.trace {
            Self::write_text(&mut self.out, &mut self.err, trace.text());
            trace.clear();
        }
        let delta = self.latency.drain_window();
        let latency = if delta.is_empty() {
            JsonValue::Null
        } else {
            delta.to_json()
        };
        let window = JsonValue::Object(vec![
            ("type".to_string(), JsonValue::str("window")),
            ("seq".to_string(), JsonValue::uint(seq)),
            (
                "t_ps".to_string(),
                JsonValue::uint(seq * self.clock.width().as_ps()),
            ),
            ("events".to_string(), JsonValue::uint(self.w_events)),
            ("injected".to_string(), JsonValue::uint(self.w_injected)),
            ("delivered".to_string(), JsonValue::uint(self.w_delivered)),
            ("dropped".to_string(), JsonValue::uint(self.w_dropped)),
            ("forwards".to_string(), JsonValue::uint(self.w_forwards)),
            ("in_flight".to_string(), JsonValue::int(self.in_flight)),
            ("latency".to_string(), latency),
            ("bins".to_string(), JsonValue::Array(bins)),
        ]);
        self.write_value(&window);
        self.windows += 1;
        self.window_watchpoints(seq, boundary);
        self.w_events = 0;
        self.w_injected = 0;
        self.w_delivered = 0;
        self.w_dropped = 0;
        self.w_forwards = 0;
        self.node_busy.clear();
    }

    /// Evaluates the window-scoped invariants for the window that just
    /// closed. Emission order is deterministic: busy watermarks sorted
    /// by node key, then waste rate, then the stall check.
    fn window_watchpoints(&mut self, seq: u64, boundary: Time) {
        let window_ps = self.clock.width().as_ps();
        let mut hot: Vec<(u64, N, u64)> = self
            .node_busy
            .iter()
            .filter(|(key, (_, busy))| {
                *busy as f64 / window_ps as f64 > BUSY_CEILING
                    && !self.watermark_fired.contains(*key)
            })
            .map(|(key, (node, busy))| (*key, *node, *busy))
            .collect();
        hot.sort_unstable_by_key(|(key, _, _)| *key);
        for (key, node, busy) in hot {
            self.watermark_fired.insert(key);
            let site = (self.site_of)(node);
            let value = busy as f64 / window_ps as f64;
            self.watchpoint(
                "busy_watermark",
                seq,
                boundary,
                Some(site),
                None,
                Some(value),
                format!("node busy {busy} ps of a {window_ps} ps window"),
            );
        }
        if !self.waste_fired
            && self.w_forwards >= WASTE_MIN_FORWARDS
            && self.w_dropped as f64 / self.w_forwards as f64 > WASTE_CEILING
        {
            self.waste_fired = true;
            let value = self.w_dropped as f64 / self.w_forwards as f64;
            let (dropped, forwards) = (self.w_dropped, self.w_forwards);
            self.watchpoint(
                "waste_rate",
                seq,
                boundary,
                None,
                None,
                Some(value),
                format!("{dropped} throttles against {forwards} forwards this window"),
            );
        }
        if self.in_flight > 0 && self.w_delivered == 0 {
            self.stall_run += 1;
        } else {
            self.stall_run = 0;
        }
        if self.stall_run >= STALL_WINDOWS && !self.stalled {
            self.stalled = true;
            let windows = self.stall_run;
            let copies = self.in_flight;
            let oldest = self.tokens.oldest_in_flight(false);
            self.watchpoint(
                "no_progress",
                seq,
                boundary,
                oldest.map(|(_, site)| site),
                oldest.map(|(key, _)| key),
                Some(copies as f64),
                format!("{windows} consecutive windows with {copies} copies in flight and zero deliveries"),
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn watchpoint(
        &mut self,
        kind: &str,
        seq: u64,
        at: Time,
        site: Option<Site>,
        flit: Option<(u64, u8)>,
        value: Option<f64>,
        detail: String,
    ) {
        self.watchpoints += 1;
        let record = JsonValue::Object(vec![
            ("type".to_string(), JsonValue::str("watchpoint")),
            ("kind".to_string(), JsonValue::str(kind)),
            ("seq".to_string(), JsonValue::uint(seq)),
            ("t_ps".to_string(), JsonValue::uint(at.as_ps())),
            (
                "site".to_string(),
                site.map_or(JsonValue::Null, |site| JsonValue::str(site.to_string())),
            ),
            (
                "packet".to_string(),
                flit.map_or(JsonValue::Null, |(p, _)| JsonValue::uint(p)),
            ),
            (
                "flit".to_string(),
                flit.map_or(JsonValue::Null, |(_, f)| JsonValue::uint(u64::from(f))),
            ),
            (
                "value".to_string(),
                value.map_or(JsonValue::Null, JsonValue::Number),
            ),
            ("detail".to_string(), JsonValue::str(detail)),
        ]);
        self.write_value(&record);
    }

    /// Moves a lifecycle event's tokens on the per-flit ledger, fires
    /// `token_conservation` if a copy count went negative, and lets go of
    /// a packet's latency bookkeeping with its last copy. `delta` is the
    /// event's net change of copies in flight.
    fn track_tokens(&mut self, at: Time, event: &SimEvent<'_, N>, delta: i64) {
        self.in_flight += delta;
        let site = Site::of_event(event, &*self.site_of);
        let (key, tokens) = self.tokens.apply(at, event, site);
        let refs = tokens.in_flight;
        if refs < 0 && self.conservation_fired < MAX_CONSERVATION_RECORDS {
            self.conservation_fired += 1;
            let seq = self.clock.seq_of(at);
            self.watchpoint(
                "token_conservation",
                seq,
                at,
                Some(site),
                Some(key),
                Some(refs as f64),
                format!("flit copy count went to {refs}"),
            );
        }
        let packet = self.packet_refs.entry(key.0).or_insert(0);
        *packet += delta;
        if *packet <= 0 {
            self.packet_refs.remove(&key.0);
            self.latency.forget_packet(key.0);
        }
    }
}

impl<N: Copy + NodeKey> Observer<N> for StreamSink<N> {
    fn on_event(&mut self, at: Time, in_window: bool, event: &SimEvent<'_, N>) {
        if let Some(range) = self.clock.crossed(at) {
            for seq in range {
                self.flush_window(seq, true);
            }
        }
        self.latency.on_event(at, in_window, event);
        self.series.on_event(at, in_window, event);
        if let Some(trace) = &mut self.trace {
            // The window that will flush this line: the next to close.
            let seq = self.clock.next_seq();
            let open = |line: &mut String| {
                line.push_str("{\"type\":\"trace\",\"seq\":");
                write_u64(line, seq);
                line.push_str(",\"record\":");
            };
            trace.record(at, event, open, "}\n");
        }
        self.w_events += 1;
        let mut busy_at = |node: &N, busy: &Duration| {
            let slot = self.node_busy.entry(node.node_key()).or_insert((*node, 0));
            slot.1 += busy.as_ps();
        };
        // The event's net change of copies in flight.
        let delta = match event {
            SimEvent::Inject { .. } => {
                self.w_injected += 1;
                1
            }
            SimEvent::Forward {
                node, copies, busy, ..
            } => {
                self.w_forwards += 1;
                busy_at(node, busy);
                i64::from(*copies) - 1
            }
            SimEvent::Drop { node, busy, .. } => {
                self.w_dropped += 1;
                busy_at(node, busy);
                -1
            }
            SimEvent::Deliver { .. } => {
                self.w_delivered += 1;
                -1
            }
            // Fault hooks fire alongside the flit's normal lifecycle
            // events, so they move no tokens (see `TimeSeries`); the
            // ledger remembers which flits they touched.
            SimEvent::Fault { .. } => {
                let site = Site::of_event(event, &*self.site_of);
                self.tokens.apply(at, event, site);
                return;
            }
        };
        self.track_tokens(at, event, delta);
    }
}

/// A malformed stream document handed to [`fold_stream`]: the 1-based
/// line number and what was wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamFoldError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for StreamFoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for StreamFoldError {}

/// One line of a stream, parsed once and only as far as its consumers
/// (the folder, the `watch` dashboard) need.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamLine {
    /// Nothing but whitespace.
    Blank,
    /// A `trace` record. They are all but a handful of a traced stream's
    /// lines and neither consumer reads one, so they are validated and
    /// skipped, never built into a tree.
    Trace,
    /// Any other line (`head`, `window`, `watchpoint`, `end`, or something
    /// unknown) as a tree: a few per window, read member by member.
    Record(JsonValue),
}

impl StreamLine {
    /// Parses one line, reading its `type` before deciding whether to
    /// build a tree.
    ///
    /// # Errors
    ///
    /// Returns the [`JsonError`] of a line that is not one JSON value.
    pub fn parse(line: &str) -> Result<StreamLine, JsonError> {
        if line.trim().is_empty() {
            return Ok(StreamLine::Blank);
        }
        let mut scanner = Scanner::new(line);
        if scanner.peek() == Some(b'{') {
            let mut more = scanner.open(b'{', b'}')?;
            while more {
                // The first `type` member decides, as `JsonValue::get` would.
                if scanner.key()? == "type" {
                    if scanner.peek() != Some(b'"') || scanner.string()? != "trace" {
                        break;
                    }
                    while scanner.more(b'}')? {
                        scanner.key()?;
                        scanner.skip_value()?;
                    }
                    scanner.end()?;
                    return Ok(StreamLine::Trace);
                }
                scanner.skip_value()?;
                more = scanner.more(b'}')?;
            }
        }
        JsonValue::parse(line).map(StreamLine::Record)
    }
}

/// Largest `endpoints` a `head` record may declare: the folder sizes its
/// per-destination histograms from it before reading anything else.
const MAX_ENDPOINTS: u64 = 1 << 16;

/// The members of the `head` record the folded document repeats.
const HEAD_MEMBERS: [&str; 4] = ["substrate", "config", "bin_ps", "levels"];

/// Folds an [`STREAM_SCHEMA`] stream back into the batch metrics report
/// it streamed from, one line at a time: latency window deltas are
/// absorbed into one accumulator, window bins concatenate into the
/// `timeseries` section, and the `end` record's scalar sections are
/// spliced in verbatim. What it holds is the folded document, never the
/// stream. For a stream produced by `asynoc metrics --stream`, the result
/// is byte-identical (after pretty-rendering) to the batch
/// `asynoc-metrics-v1` document of the same run.
///
/// The first malformed line — a missing or mistyped `head`, unparsable
/// JSON, a window whose latency delta does not decode — is remembered
/// and reported by [`finish`](StreamFolder::finish); lines after it are
/// ignored, so a consumer sharing the lines (the dashboard) can carry on.
#[derive(Default)]
pub struct StreamFolder {
    lines: usize,
    /// The `head` record and the accumulator sized from it.
    head: Option<(JsonValue, LatencyHistograms)>,
    bins: Vec<JsonValue>,
    sections: Vec<(String, JsonValue)>,
    error: Option<StreamFoldError>,
}

impl StreamFolder {
    /// Parses and folds the stream's next line.
    pub fn push_line(&mut self, line: &str) {
        self.push(&StreamLine::parse(line));
    }

    /// Folds the stream's next line, already parsed by a caller that
    /// shares it with another consumer.
    pub fn push(&mut self, line: &Result<StreamLine, JsonError>) {
        self.lines += 1;
        if self.error.is_some() {
            return;
        }
        if let Err(message) = self.fold(line) {
            self.error = Some(StreamFoldError {
                line: self.lines,
                message,
            });
        }
    }

    fn fold(&mut self, line: &Result<StreamLine, JsonError>) -> Result<(), String> {
        let value = match line {
            Err(e) => return Err(e.to_string()),
            Ok(StreamLine::Blank) => return Ok(()),
            Ok(StreamLine::Trace) => &JsonValue::Null,
            Ok(StreamLine::Record(value)) => value,
        };
        let kind = value.get("type").and_then(JsonValue::as_str);
        let Some((_, latency)) = &mut self.head else {
            if value.get("schema").and_then(JsonValue::as_str) != Some(STREAM_SCHEMA)
                || kind != Some("head")
            {
                return Err(format!("expected a {STREAM_SCHEMA:?} head record"));
            }
            if let Some(key) = HEAD_MEMBERS.iter().find(|key| value.get(key).is_none()) {
                return Err(format!("head record missing {key:?}"));
            }
            let endpoints = value
                .get("endpoints")
                .ok_or("head record missing \"endpoints\"")?
                .as_u64()
                .filter(|n| *n <= MAX_ENDPOINTS)
                .ok_or_else(|| {
                    format!("head \"endpoints\" is not a count up to {MAX_ENDPOINTS}")
                })?;
            let latency = LatencyHistograms::accumulator(endpoints as usize);
            self.head = Some((value.clone(), latency));
            return Ok(());
        };
        match kind {
            Some("window") => {
                match value.get("latency") {
                    None | Some(JsonValue::Null) => {}
                    Some(delta) => {
                        let window = LatencyWindow::from_json(delta)
                            .ok_or("window latency delta does not decode")?;
                        latency.absorb(&window);
                    }
                }
                if let Some(window_bins) = value.get("bins").and_then(JsonValue::as_array) {
                    self.bins.extend_from_slice(window_bins);
                }
            }
            Some("end") => {
                if let Some(members) = value.get("sections").and_then(JsonValue::as_object) {
                    self.sections = members.to_vec();
                }
            }
            Some("trace" | "watchpoint" | "head") | None => {}
            Some(other) => return Err(format!("unknown record type {other:?}")),
        }
        Ok(())
    }

    /// The folded `asynoc-metrics-v1` document.
    ///
    /// # Errors
    ///
    /// Returns the [`StreamFoldError`] of the first malformed line, or of
    /// line 1 when the stream was empty.
    pub fn finish(self) -> Result<JsonValue, StreamFoldError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        let (head, latency) = self.head.ok_or(StreamFoldError {
            line: 1,
            message: "empty stream".to_string(),
        })?;
        let [substrate, config, bin_ps, levels] =
            HEAD_MEMBERS.map(|key| head.get(key).cloned().unwrap_or(JsonValue::Null));
        let mut members = vec![
            ("schema".to_string(), JsonValue::str(METRICS_SCHEMA)),
            ("substrate".to_string(), substrate),
            ("config".to_string(), config),
            ("latency".to_string(), latency.to_json()),
            (
                "timeseries".to_string(),
                JsonValue::Object(vec![
                    ("bin_ps".to_string(), bin_ps),
                    ("levels".to_string(), levels),
                    ("bins".to_string(), JsonValue::Array(self.bins)),
                ]),
            ),
        ];
        members.extend(self.sections);
        Ok(JsonValue::Object(members))
    }
}

/// Folds a whole [`STREAM_SCHEMA`] NDJSON document through a
/// [`StreamFolder`].
///
/// # Errors
///
/// Returns a [`StreamFoldError`] naming the first malformed line.
pub fn fold_stream(text: &str) -> Result<JsonValue, StreamFoldError> {
    let mut folder = StreamFolder::default();
    for line in text.lines() {
        folder.push_line(line);
    }
    folder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    use asynoc_packet::{DestSet, Flit, PacketDescriptor, PacketId, RouteHeader};

    /// A `Box<dyn Write>` target the test can read back.
    #[derive(Clone, Default)]
    struct SharedBuf(Rc<RefCell<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.borrow().clone()).expect("utf-8 stream")
        }
    }

    fn flit(id: u64, dest: usize, created: Time) -> Flit {
        Flit::new(
            Arc::new(PacketDescriptor::new(
                PacketId::new(id),
                0,
                DestSet::unicast(dest),
                RouteHeader::for_tree(8),
                1,
                created,
            )),
            0,
        )
    }

    fn phases() -> Phases {
        Phases::new(Duration::ZERO, Duration::from_ns(100))
    }

    fn make_sink(buf: &SharedBuf, trace: Option<usize>) -> StreamSink<usize> {
        StreamSink::new(
            Box::new(buf.clone()),
            StreamConfig {
                substrate: "mot".to_string(),
                config: JsonValue::Object(vec![("seed".to_string(), JsonValue::uint(42))]),
                window: Duration::from_ns(2),
                trace_limit: trace,
            },
            phases(),
            8,
            series(),
            Rc::new(Site::Router),
        )
        .expect("head write succeeds")
    }

    /// Four routers, one level, 1 ns bins.
    fn series() -> TimeSeries<usize> {
        let routers = crate::LevelSpec {
            stage: crate::site::Stage::Router,
            nodes: 4,
        };
        TimeSeries::new(Duration::from_ns(1), vec![routers], Rc::new(Site::Router))
    }

    fn inject(at: u64, f: &Flit) -> (Time, SimEvent<'_, usize>) {
        (Time::from_ps(at), SimEvent::Inject { source: 0, flit: f })
    }

    fn deliver(at: u64, dest: usize, f: &Flit) -> (Time, SimEvent<'_, usize>) {
        (Time::from_ps(at), SimEvent::Deliver { dest, flit: f })
    }

    fn forward(
        at: u64,
        node: usize,
        copies: u8,
        busy: u64,
        f: &Flit,
    ) -> (Time, SimEvent<'_, usize>) {
        (
            Time::from_ps(at),
            SimEvent::Forward {
                node,
                flit: f,
                info: asynoc_engine::ForwardInfo::Arbitrated { input: 0 },
                copies,
                busy: Duration::from_ps(busy),
            },
        )
    }

    #[test]
    fn stream_folds_back_to_the_batch_sections() {
        let buf = SharedBuf::default();
        let mut sink = make_sink(&buf, None);
        // The same events drive independent batch collectors.
        let mut batch_latency = LatencyHistograms::new(phases(), 8);
        let mut batch_series = series();
        let flits: Vec<Flit> = (0..6)
            .map(|k| flit(k, (k % 8) as usize, Time::from_ps(100 + k * 1_700)))
            .collect();
        for (k, f) in flits.iter().enumerate() {
            let k = k as u64;
            let events = [
                inject(100 + k * 1_700, f),
                forward(400 + k * 1_700, (k % 4) as usize, 1, 80, f),
                deliver(900 + k * 1_700, (k % 8) as usize, f),
            ];
            for (at, event) in events {
                sink.on_event(at, true, &event);
                batch_latency.on_event(at, true, &event);
                batch_series.on_event(at, true, &event);
            }
        }
        let sections = JsonValue::Object(vec![
            ("waste".to_string(), JsonValue::Null),
            (
                "counters".to_string(),
                JsonValue::Object(vec![("delivered".to_string(), JsonValue::uint(6))]),
            ),
        ]);
        let summary = sink.finish(sections, 0).expect("stream closes");
        assert!(summary.windows >= 4, "several windows closed");
        assert_eq!(summary.watchpoints, 0, "clean run fires nothing");

        let folded = fold_stream(&buf.text()).expect("stream folds");
        assert_eq!(
            folded.get("latency").unwrap().render(),
            batch_latency.to_json().render(),
            "latency deltas merge back to the batch section"
        );
        assert_eq!(
            folded.get("timeseries").unwrap().render(),
            batch_series.to_json().render(),
            "window bins concatenate to the batch series"
        );
        assert_eq!(
            folded.get("schema").and_then(JsonValue::as_str),
            Some(METRICS_SCHEMA)
        );
        assert_eq!(
            folded.get("counters").unwrap().render(),
            "{\"delivered\":6}",
            "end sections splice in verbatim"
        );
        assert_eq!(folded.get("waste"), Some(&JsonValue::Null));
    }

    #[test]
    fn streams_are_line_structured_and_headed() {
        let buf = SharedBuf::default();
        let mut sink = make_sink(&buf, Some(100));
        let f = flit(1, 2, Time::from_ps(50));
        let events = [inject(50, &f), deliver(2_500, 2, &f)];
        for (at, event) in events {
            sink.on_event(at, true, &event);
        }
        let _ = sink
            .finish(JsonValue::Object(Vec::new()), 0)
            .expect("stream closes");
        let text = buf.text();
        let first = text.lines().next().expect("head line");
        let head = JsonValue::parse(first).expect("head parses");
        assert_eq!(
            head.get("schema").and_then(JsonValue::as_str),
            Some(STREAM_SCHEMA)
        );
        assert_eq!(head.get("trace"), Some(&JsonValue::Bool(true)));
        assert!(
            text.lines().any(|l| l.contains("\"type\":\"trace\"")),
            "trace records stream with the windows"
        );
        for line in text.lines() {
            let _ = JsonValue::parse(line).expect("every line is one JSON object");
        }
        assert!(
            text.lines()
                .last()
                .expect("end line")
                .contains("\"type\":\"end\""),
            "the end record closes the stream"
        );
    }

    #[test]
    fn stall_watchpoint_names_the_oldest_flit() {
        let buf = SharedBuf::default();
        let mut sink = make_sink(&buf, None);
        let f = flit(7, 1, Time::from_ps(100));
        let events = [
            inject(100, &f),
            forward(300, 2, 1, 50, &f),
            // Nothing moves for many windows; the next event closes them
            // all at once and the stall fires during the gap.
            deliver(20_500, 1, &f),
        ];
        for (at, event) in events {
            sink.on_event(at, true, &event);
        }
        let summary = sink
            .finish(JsonValue::Object(Vec::new()), 0)
            .expect("stream closes");
        assert_eq!(summary.watchpoints, 1);
        let text = buf.text();
        let alert = text
            .lines()
            .find(|l| l.contains("\"kind\":\"no_progress\""))
            .expect("stall watchpoint fired");
        let record = JsonValue::parse(alert).expect("watchpoint parses");
        assert_eq!(
            record.get("site").and_then(JsonValue::as_str),
            Some("r2"),
            "causal site is where the flit last was"
        );
        assert_eq!(record.get("packet").and_then(JsonValue::as_f64), Some(7.0));
    }

    #[test]
    fn conservation_watchpoint_fires() {
        // A delivery that was never injected drives the ledger negative.
        let buf = SharedBuf::default();
        let mut sink = make_sink(&buf, None);
        let f = flit(3, 1, Time::from_ps(100));
        let (at, event) = deliver(100, 1, &f);
        sink.on_event(at, true, &event);
        let summary = sink
            .finish(JsonValue::Object(Vec::new()), 0)
            .expect("stream closes");
        assert_eq!(summary.watchpoints, 1);
        assert!(buf.text().contains("\"kind\":\"token_conservation\""));
    }

    /// Closes a stream holding two flits in flight — packet 4, then
    /// packet 5, which a link stall touched iff `stalled` — and returns
    /// the packet its close-time record names, if one fired.
    fn close_time_record(packets_incomplete: usize, stalled: bool) -> Option<f64> {
        let buf = SharedBuf::default();
        let mut sink = make_sink(&buf, None);
        let (f, g) = (
            flit(4, 1, Time::from_ps(100)),
            flit(5, 1, Time::from_ps(150)),
        );
        for (at, event) in [inject(100, &f), inject(150, &g)] {
            sink.on_event(at, true, &event);
        }
        if stalled {
            let stall = SimEvent::Fault {
                class: asynoc_kernel::FaultClass::LinkStall,
                site: 0,
                flit: &g,
            };
            sink.on_event(Time::from_ps(200), true, &stall);
        }
        let summary = sink
            .finish(JsonValue::Object(Vec::new()), packets_incomplete)
            .expect("stream closes");
        let text = buf.text();
        let record = text
            .lines()
            .find(|l| l.contains("\"kind\":\"no_progress\""))
            .map(|l| JsonValue::parse(l).expect("watchpoint parses"));
        assert_eq!(summary.watchpoints, u64::from(record.is_some()));
        record.map(|r| {
            let detail = r.get("detail").and_then(JsonValue::as_str).unwrap();
            assert!(detail.contains("2 copies still in flight"), "{detail}");
            r.get("packet").and_then(JsonValue::as_f64).unwrap()
        })
    }

    #[test]
    fn close_time_record_means_work_left_undone() {
        // Copies in flight at the close are how every run ends (the drain
        // stops at the last measured header): no record.
        assert_eq!(close_time_record(0, false), None);
        // A measured packet incomplete: the oldest flit in flight.
        assert_eq!(close_time_record(3, false), Some(4.0));
        // A fault-touched flit still in flight, even with every measured
        // packet complete: that flit, not the older clean one.
        assert_eq!(close_time_record(0, true), Some(5.0));
        assert_eq!(close_time_record(3, true), Some(5.0));
    }

    #[test]
    fn busy_and_waste_watchpoints_fire_once() {
        let buf = SharedBuf::default();
        let mut sink = make_sink(&buf, None);
        let f = flit(9, 1, Time::from_ps(10));
        // Pump the copy count up so drops cannot go negative.
        for k in 0..40 {
            let (at, event) = inject(10 + k, &f);
            sink.on_event(at, true, &event);
        }
        // Node 3 accumulates 1990 ps of busy inside a 2000 ps window.
        let (at, event) = forward(500, 3, 1, 1_990, &f);
        sink.on_event(at, true, &event);
        // 32 forwards make the window's waste ratio meaningful; 28
        // throttles against them exceed the ceiling.
        for k in 0..WASTE_MIN_FORWARDS {
            let (at, event) = forward(600 + k, 1, 1, 10, &f);
            sink.on_event(at, true, &event);
        }
        for k in 0..28 {
            let (at, event) = (
                Time::from_ps(700 + k),
                SimEvent::Drop {
                    node: 1usize,
                    flit: &f,
                    busy: Duration::from_ps(5),
                },
            );
            sink.on_event(at, true, &event);
        }
        // Drain the rest, crossing a boundary.
        for k in 0..12 {
            let (at, event) = deliver(2_600 + k, 1, &f);
            sink.on_event(at, true, &event);
        }
        let summary = sink
            .finish(JsonValue::Object(Vec::new()), 0)
            .expect("stream closes");
        let text = buf.text();
        assert!(text.contains("\"kind\":\"busy_watermark\""));
        assert!(text.contains("\"site\":\"r3\""));
        assert!(text.contains("\"kind\":\"waste_rate\""));
        assert_eq!(summary.watchpoints, 2, "each fires exactly once");
    }

    #[test]
    fn lines_are_classed_by_their_first_type_member() {
        let parse = |line: &str| StreamLine::parse(line).expect(line);
        assert_eq!(parse("  \t"), StreamLine::Blank);
        assert_eq!(
            parse(r#"{"type":"trace","seq":0,"record":{"site":"a\n","xs":[1,{"y":null}]}}"#),
            StreamLine::Trace
        );
        assert_eq!(parse(r#" {"seq":3, "type" : "trace"} "#), StreamLine::Trace);
        for line in [
            r#"{"type":"window","seq":1}"#,
            r#"{"type":"end","type":"trace"}"#,
            r#"{"type":7,"seq":1}"#,
            r#"{"seq":1}"#,
            r#"["type","trace"]"#,
        ] {
            let tree = JsonValue::parse(line).expect("valid JSON");
            assert_eq!(parse(line), StreamLine::Record(tree), "{line}");
        }
        // A skipped line is still a validated line.
        for line in [
            r#"{"type":"trace","seq":}"#,
            r#"{"type":"trace","seq":1"#,
            r#"{"type":"trace","seq":1} x"#,
            r#"{"type":"trace","record":{"a":[1,}}"#,
        ] {
            let expected = JsonValue::parse(line).expect_err(line);
            assert_eq!(StreamLine::parse(line), Err(expected), "{line}");
        }
    }

    /// Holds the incremental folder to the whole-text, tree-per-line fold
    /// on `text`. Returns whether the stream is one of the intended
    /// divergences: a head whose `endpoints` the oracle's cast misread.
    fn agrees_with_the_oracle(text: &str) -> bool {
        match (reference::fold_stream(text), fold_stream(text)) {
            (Ok(expected), Ok(got)) if expected == got => false,
            (Err(expected), Err(got)) if expected.line == got.line => false,
            // The oracle took the misread count and went on, to fold the
            // stream or to trip over a later line.
            (_, Err(got)) if text.lines().any(reference::misreads_an_integer) => {
                assert!(got.message.contains("endpoints"), "{got}");
                true
            }
            (expected, got) => panic!("{text}\n oracle: {expected:?}\nfolder: {got:?}"),
        }
    }

    #[test]
    fn folder_agrees_with_the_whole_text_fold_on_real_streams() {
        for run in reference::real_runs() {
            assert!(run.stream.lines().count() > 1_000, "{}", run.name);
            assert!(!agrees_with_the_oracle(&run.stream), "{}", run.name);
            let folded = fold_stream(&run.stream).expect("real streams fold");
            assert!(folded.get("latency").is_some(), "{}", run.name);
            // Cut anywhere, a stream folds the same way twice.
            let cut = run.stream.len() / 2;
            assert!(!agrees_with_the_oracle(&run.stream[..cut]), "{}", run.name);
        }
    }

    #[test]
    fn folder_agrees_with_the_whole_text_fold_on_a_mutated_corpus() {
        let runs = reference::real_runs();
        let (mut documents, mut lines, mut folded, mut divergences) = (0, 0, 0, 0);
        for (index, run) in runs.iter().enumerate() {
            let head = run.stream.lines().next().expect("head line");
            let end = run.stream.lines().last().expect("end line");
            // Every kind of record the run produced, traces thinned out.
            let body: Vec<&str> = run
                .stream
                .lines()
                .skip(1)
                .enumerate()
                .filter(|(i, l)| i % 50 == 0 || !l.contains("\"type\":\"trace\""))
                .map(|(_, l)| l)
                .collect();
            let mutants = reference::mutants(&body, 2_600, 0xf01d + index as u64);
            let heads = reference::mutants(&[head], 40, 0x4ead + index as u64);
            // Three mutants a document: the fold stops at the first bad line.
            for (n, chunk) in mutants.chunks(3).enumerate() {
                let head = heads.get(n).map_or(head, String::as_str);
                let text = format!("{head}\n{}\n{end}\n", chunk.join("\n"));
                divergences += usize::from(agrees_with_the_oracle(&text));
                folded += usize::from(fold_stream(&text).is_ok());
                lines += text.lines().count();
                documents += 1;
            }
        }
        assert!(lines >= 10_000, "{lines} lines");
        assert!(folded > documents / 20, "{folded} of {documents} folded");
        assert!(
            folded < documents * 19 / 20,
            "{folded} of {documents} folded"
        );
        assert!(divergences > 0, "no head misread its endpoints");
    }

    #[test]
    fn fold_rejects_malformed_streams() {
        let err = fold_stream("").unwrap_err();
        assert!(err.message.contains("empty"));
        let err = fold_stream("not json\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = fold_stream("{\"schema\":\"something-else\"}\n").unwrap_err();
        assert!(err.message.contains("head"), "{err}");
        let head = "{\"schema\":\"asynoc-stream-v1\",\"type\":\"head\",\
                    \"substrate\":\"mot\",\"config\":{},\"window_ps\":1000,\
                    \"bin_ps\":1000,\"levels\":[],\"endpoints\":4,\"trace\":false}";
        let bad = format!("{head}\n{{\"type\":\"mystery\"}}\n");
        let err = fold_stream(&bad).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("mystery"), "{err}");
    }
}
