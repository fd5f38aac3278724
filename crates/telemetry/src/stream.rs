//! Streaming telemetry: bounded-memory NDJSON export of windowed
//! metric deltas, with online invariant watchpoints.
//!
//! A [`StreamSink`] is a record sink that writes an
//! [`STREAM_SCHEMA`] NDJSON stream *while the run executes*: one `head`
//! record describing the run, one `window` record per closed
//! simulated-time window (latency histogram deltas and finalized
//! time-series bins), optional per-event `trace` records, `watchpoint`
//! records whenever an online invariant fires, and one `end` record
//! carrying the run's scalar summary sections verbatim.
//!
//! Two properties anchor the design:
//!
//! - **Determinism.** The sink is driven purely by the record stream,
//!   which the engine's events arrive as in exact serial order regardless
//!   of shard count — so serial and sharded runs of the same spec
//!   produce *byte-identical* streams.
//! - **Concatenation.** The sink keeps no latency or time-series state of
//!   its own: it is a window over the run's [`LatencyHistograms`] and
//!   [`TimeSeries`], which it borrows, feeds, and reads deltas from at
//!   every flush. So folding a metrics-grade stream back together
//!   ([`fold_stream`]) reproduces the batch `asynoc-metrics-v1` document
//!   byte-for-byte by construction: latency deltas merge losslessly
//!   ([`LatencyHistograms::absorb`]) into the very totals the document
//!   renders, window bins are the document's `bins` in order, and the
//!   scalar sections (waste, throughput, power, counters) ride the `end`
//!   record unchanged.
//!
//! What the sink itself holds is bounded independent of record count:
//! the trace buffer is drained per window, and per-flit watchpoint
//! bookkeeping is proportional to *in-flight* traffic, not run length
//! (the borrowed collectors keep what a batch run keeps: fixed-size
//! histograms and a capped bin store).
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

use asynoc_kernel::{Duration, Time, WindowClock};

use crate::json::{write_u64, JsonError, JsonValue, Scanner};
use crate::latency::{LatencyHistograms, LatencyWindow};
use crate::recorder::RecordSink;
use crate::site::Site;
use crate::timeseries::TimeSeries;
use crate::tokens::TokenLedger;
use crate::trace::{Action, TraceRecord, TraceWriter};
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

/// The streaming sink. See the module docs for the record protocol.
///
/// It stands in front of the run's latency and time-series collectors:
/// register it *instead of* them, and it feeds each record on; after the
/// run, call [`StreamSink::finish`] with the scalar summary sections to
/// close the stream and release the collectors.
pub struct StreamSink<'a> {
    out: BufWriter<Box<dyn Write>>,
    err: Option<std::io::Error>,
    clock: WindowClock,
    latency: &'a mut LatencyHistograms,
    series: &'a mut TimeSeries,
    trace: Option<TraceWriter>,
    // Per-window counters, reset at every flush.
    w_events: u64,
    w_injected: u64,
    w_delivered: u64,
    w_dropped: u64,
    w_forwards: u64,
    node_busy: HashMap<Site, u64>,
    // Run-wide state.
    in_flight: i64,
    emitted_bins: usize,
    windows: u64,
    /// Every flit in flight, with the site that last touched it.
    tokens: TokenLedger<Site>,
    packet_refs: HashMap<u64, i64>,
    watermark_fired: HashSet<Site>,
    stall_run: u64,
    stalled: bool,
    conservation_fired: u64,
    waste_fired: bool,
    watchpoints: u64,
}

/// Orders the sites of one window's `busy_watermark` records as the
/// substrates number their nodes: tree by tree in level order, a fanout
/// node ahead of the fanin node of the same coordinates; routers by index.
fn node_order(site: Site) -> (usize, u32, usize, bool) {
    match site {
        Site::Fanout { tree, level, index } => (tree, level, index, false),
        Site::Fanin { tree, level, index } => (tree, level, index, true),
        Site::Source(n) | Site::Sink(n) | Site::Router(n) | Site::Channel(n) | Site::Node(n) => {
            (n, 0, 0, false)
        }
    }
}

impl<'a> StreamSink<'a> {
    /// Opens a stream over `out`, windowing the run's `latency` and
    /// `series`: writes the `head` record (bin width, level grouping and
    /// endpoint count are the collectors' own) and returns the sink ready
    /// to take records.
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
        latency: &'a mut LatencyHistograms,
        series: &'a mut TimeSeries,
    ) -> std::io::Result<StreamSink<'a>> {
        // The first window's delta starts here, empty.
        let _ = latency.drain_window();
        let bin = series.bin_width();
        assert!(
            !cfg.window.is_zero() && cfg.window.as_ps().is_multiple_of(bin.as_ps()),
            "stream window ({}) must be a non-zero multiple of the bin width ({})",
            cfg.window,
            bin,
        );
        let trace = cfg.trace_limit.map(TraceWriter::new);
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
            (
                "endpoints".to_string(),
                JsonValue::uint(latency.endpoints() as u64),
            ),
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
            latency,
            series,
            trace,
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
    /// stream's life (the record path itself cannot fail, so errors
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
    /// exactly the bins the series would create when the record that
    /// triggered this flush reaches it — and must be `false` only for
    /// the final partial window (where no further record exists).
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
    /// closed. Emission order is deterministic: busy watermarks in
    /// [`node_order`], then waste rate, then the stall check.
    fn window_watchpoints(&mut self, seq: u64, boundary: Time) {
        let window_ps = self.clock.width().as_ps();
        let mut hot: Vec<(Site, u64)> = self
            .node_busy
            .iter()
            .filter(|(site, busy)| {
                **busy as f64 / window_ps as f64 > BUSY_CEILING
                    && !self.watermark_fired.contains(*site)
            })
            .map(|(site, busy)| (*site, *busy))
            .collect();
        hot.sort_unstable_by_key(|(site, _)| node_order(*site));
        for (site, busy) in hot {
            self.watermark_fired.insert(site);
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

    /// Moves a lifecycle record's tokens on the per-flit ledger, fires
    /// `token_conservation` if a copy count went negative, and lets go of
    /// a packet's latency bookkeeping with its last copy. `delta` is the
    /// record's net change of copies in flight.
    fn track_tokens(&mut self, record: &TraceRecord, delta: i64) {
        self.in_flight += delta;
        let (key, tokens) = self.tokens.apply(record, record.site);
        let refs = tokens.in_flight;
        if refs < 0 && self.conservation_fired < MAX_CONSERVATION_RECORDS {
            self.conservation_fired += 1;
            let at = Time::from_ps(record.t_ps);
            self.watchpoint(
                "token_conservation",
                self.clock.seq_of(at),
                at,
                Some(record.site),
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

impl RecordSink for StreamSink<'_> {
    fn on_record(&mut self, record: &TraceRecord, in_window: bool) {
        if let Some(range) = self.clock.crossed(Time::from_ps(record.t_ps)) {
            for seq in range {
                self.flush_window(seq, true);
            }
        }
        self.latency.on_record(record, in_window);
        self.series.on_record(record, in_window);
        if let Some(trace) = &mut self.trace {
            // The window that will flush this line: the next to close.
            let seq = self.clock.next_seq();
            let open = |line: &mut String| {
                line.push_str("{\"type\":\"trace\",\"seq\":");
                write_u64(line, seq);
                line.push_str(",\"record\":");
            };
            trace.record(record, open, "}\n");
        }
        self.w_events += 1;
        if matches!(record.action, Action::Forward | Action::Throttle) {
            *self.node_busy.entry(record.site).or_insert(0) += record.busy_ps;
        }
        // The record's net change of copies in flight.
        let delta = match record.action {
            Action::Inject => {
                self.w_injected += 1;
                1
            }
            Action::Forward => {
                self.w_forwards += 1;
                i64::from(record.copies) - 1
            }
            Action::Throttle => {
                self.w_dropped += 1;
                -1
            }
            Action::Deliver => {
                self.w_delivered += 1;
                -1
            }
            // Fault hooks fire alongside the flit's normal lifecycle
            // events, so they move no tokens (see `TimeSeries`); the
            // ledger remembers which flits they touched.
            Action::Fault => {
                self.tokens.apply(record, record.site);
                return;
            }
        };
        self.track_tokens(record, delta);
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
    use crate::trace::Detail;
    use std::cell::RefCell;
    use std::rc::Rc;

    use asynoc_stats::Phases;

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

    /// The run's pair: eight destinations sampled from time zero; four
    /// routers, one level, 1 ns bins.
    fn collectors() -> (LatencyHistograms, TimeSeries) {
        let routers = crate::LevelSpec {
            stage: crate::site::Stage::Router,
            nodes: 4,
        };
        (
            LatencyHistograms::new(Phases::new(Duration::ZERO, Duration::from_ns(100)), 8),
            TimeSeries::new(Duration::from_ns(1), vec![routers]),
        )
    }

    /// Streams `records` into `buf` through a sink over `pair` and closes
    /// it.
    fn stream(
        buf: &SharedBuf,
        pair: &mut (LatencyHistograms, TimeSeries),
        trace: Option<usize>,
        records: &[TraceRecord],
        sections: JsonValue,
        packets_incomplete: usize,
    ) -> StreamSummary {
        let config = StreamConfig {
            substrate: "mot".to_string(),
            config: JsonValue::Object(vec![("seed".to_string(), JsonValue::uint(42))]),
            window: Duration::from_ns(2),
            trace_limit: trace,
        };
        let mut sink = StreamSink::new(Box::new(buf.clone()), config, &mut pair.0, &mut pair.1)
            .expect("head write succeeds");
        for record in records {
            sink.on_record(record, true);
        }
        sink.finish(sections, packets_incomplete)
            .expect("stream closes")
    }

    /// [`stream`] with nothing to say at the close.
    fn stream_of(buf: &SharedBuf, records: &[TraceRecord]) -> StreamSummary {
        let none = JsonValue::Object(Vec::new());
        stream(buf, &mut collectors(), None, records, none, 0)
    }

    fn record(t_ps: u64, packet: u64, action: Action, site: Site) -> TraceRecord {
        TraceRecord {
            t_ps,
            packet,
            action,
            site,
            copies: u8::from(action == Action::Inject),
            ..TraceRecord::INJECT
        }
    }

    fn inject(t_ps: u64, packet: u64) -> TraceRecord {
        record(t_ps, packet, Action::Inject, Site::Source(0))
    }

    fn deliver(t_ps: u64, packet: u64, dest: usize) -> TraceRecord {
        record(t_ps, packet, Action::Deliver, Site::Sink(dest))
    }

    fn forward(t_ps: u64, packet: u64, node: usize, busy_ps: u64) -> TraceRecord {
        TraceRecord {
            copies: 1,
            busy_ps,
            ..record(t_ps, packet, Action::Forward, Site::Router(node))
        }
    }

    #[test]
    fn stream_folds_back_to_the_collectors_it_windows() {
        let buf = SharedBuf::default();
        let mut pair = collectors();
        let records: Vec<TraceRecord> = (0..6u64)
            .flat_map(|k| {
                let created_ps = 100 + k * 1_700;
                [
                    inject(created_ps, k),
                    forward(400 + k * 1_700, k, (k % 4) as usize, 80),
                    deliver(900 + k * 1_700, k, (k % 8) as usize),
                ]
                .map(|record| TraceRecord {
                    created_ps,
                    ..record
                })
            })
            .collect();
        let sections = JsonValue::Object(vec![
            ("waste".to_string(), JsonValue::Null),
            (
                "counters".to_string(),
                JsonValue::Object(vec![("delivered".to_string(), JsonValue::uint(6))]),
            ),
        ]);
        let summary = stream(&buf, &mut pair, None, &records, sections, 0);
        assert!(summary.windows >= 4, "several windows closed");
        assert_eq!(summary.watchpoints, 0, "clean run fires nothing");

        // The borrowed pair is what collectors fed the same records hold.
        let (mut latency, mut series) = collectors();
        for record in &records {
            latency.on_record(record, true);
            series.on_record(record, true);
        }
        assert_eq!(pair.0.overall().count(), 6);
        assert_eq!(pair.0.to_json().render(), latency.to_json().render());
        assert_eq!(pair.1.to_json().render(), series.to_json().render());

        let folded = fold_stream(&buf.text()).expect("stream folds");
        assert_eq!(
            folded.get("latency").unwrap().render(),
            latency.to_json().render(),
            "latency deltas merge back to the batch section"
        );
        assert_eq!(
            folded.get("timeseries").unwrap().render(),
            series.to_json().render(),
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
        let records = [inject(50, 1), deliver(2_500, 1, 2)];
        let none = JsonValue::Object(Vec::new());
        stream(&buf, &mut collectors(), Some(100), &records, none, 0);
        let text = buf.text();
        let first = text.lines().next().expect("head line");
        let head = JsonValue::parse(first).expect("head parses");
        assert_eq!(
            head.get("schema").and_then(JsonValue::as_str),
            Some(STREAM_SCHEMA)
        );
        assert_eq!(head.get("trace"), Some(&JsonValue::Bool(true)));
        // What the head says of the run is the collectors' own.
        assert_eq!(head.get("endpoints"), Some(&JsonValue::uint(8)));
        assert_eq!(head.get("bin_ps"), Some(&JsonValue::uint(1_000)));
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
        let summary = stream_of(
            &buf,
            &[
                inject(100, 7),
                forward(300, 7, 2, 50),
                // Nothing moves for many windows; the next record closes
                // them all at once and the stall fires during the gap.
                deliver(20_500, 7, 1),
            ],
        );
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
        let summary = stream_of(&buf, &[deliver(100, 3, 1)]);
        assert_eq!(summary.watchpoints, 1);
        assert!(buf.text().contains("\"kind\":\"token_conservation\""));
    }

    /// Closes a stream holding two flits in flight — packet 4, then
    /// packet 5, which a link stall touched iff `stalled` — and returns
    /// the packet its close-time record names, if one fired.
    fn close_time_record(packets_incomplete: usize, stalled: bool) -> Option<f64> {
        let buf = SharedBuf::default();
        let mut records = vec![inject(100, 4), inject(150, 5)];
        if stalled {
            let class = asynoc_kernel::FaultClass::LinkStall;
            records.push(TraceRecord {
                detail: Detail::Fault(class),
                ..record(200, 5, Action::Fault, Site::of_fault(class, 0))
            });
        }
        let none = JsonValue::Object(Vec::new());
        let summary = stream(
            &buf,
            &mut collectors(),
            None,
            &records,
            none,
            packets_incomplete,
        );
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
        // Pump the copy count up so drops cannot go negative.
        let mut records: Vec<TraceRecord> = (0..40).map(|k| inject(10 + k, 9)).collect();
        // Two nodes accumulate 1990 ps of busy inside a 2000 ps window.
        let mot_node = |tree, level| Site::Fanin {
            tree,
            level,
            index: 0,
        };
        for (at, site) in [(500, mot_node(1, 0)), (501, mot_node(0, 1))] {
            records.push(TraceRecord {
                site,
                ..forward(at, 9, 0, 1_990)
            });
        }
        // 32 forwards make the window's waste ratio meaningful; 28
        // throttles against them exceed the ceiling.
        records.extend((0..WASTE_MIN_FORWARDS).map(|k| forward(600 + k, 9, 1, 10)));
        records.extend((0..28).map(|k| TraceRecord {
            busy_ps: 5,
            ..record(700 + k, 9, Action::Throttle, Site::Router(1))
        }));
        // Drain the rest, crossing a boundary.
        records.extend((0..12).map(|k| deliver(2_600 + k, 9, 1)));
        let buf = SharedBuf::default();
        let summary = stream_of(&buf, &records);
        let text = buf.text();
        let kinds: Vec<(&str, Option<&str>)> = text
            .lines()
            .filter(|l| l.contains("\"type\":\"watchpoint\""))
            .map(|l| {
                let label = |key: &str| {
                    let rest = &l[l.find(key)? + key.len()..];
                    rest.strip_prefix('"')?.split('"').next()
                };
                (label("\"kind\":").expect("a kind"), label("\"site\":"))
            })
            .collect();
        // Each fires exactly once; the hot nodes in the substrates' own
        // numbering (tree by tree, level order), whichever fired first.
        assert_eq!(
            kinds,
            [
                ("busy_watermark", Some("fi[d0:1.0]")),
                ("busy_watermark", Some("fi[d1:0.0]")),
                ("waste_rate", None),
            ]
        );
        assert_eq!(summary.watchpoints, 3);
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
