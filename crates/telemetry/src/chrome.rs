//! Chrome trace-event export (Perfetto-loadable).
//!
//! The [trace-event format] is a JSON object with a `traceEvents` array;
//! timestamps are microseconds (fractional allowed — 1 ps = 1e-6 µs is
//! exact at six decimals). Each simulated site (source, node, sink) gets
//! its own thread track, named via `"M"` metadata events, so ui.perfetto.dev
//! shows one swim-lane per node with forward/throttle spans sized by the
//! node's busy time.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::JsonValue;
use crate::recorder::RecordSink;
use crate::site::Site;
use crate::trace::{Action, Detail, TraceRecord};

#[derive(Clone, Debug)]
struct ChromeEvent {
    track: usize,
    name: String,
    /// `'X'` (complete, with duration) or `'i'` (instant).
    phase: char,
    ts_ps: u64,
    dur_ps: u64,
}

/// An in-memory Chrome trace: named tracks plus timed events.
#[derive(Clone, Debug, Default)]
pub struct ChromeTrace {
    tracks: Vec<String>,
    events: Vec<ChromeEvent>,
}

impl ChromeTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    fn track_id(&mut self, label: &str) -> usize {
        if let Some(id) = self.tracks.iter().position(|t| t == label) {
            id
        } else {
            self.tracks.push(label.to_string());
            self.tracks.len() - 1
        }
    }

    /// Appends an instant event on `track`.
    pub fn instant(&mut self, track: &str, ts_ps: u64, name: &str) {
        let track = self.track_id(track);
        self.events.push(ChromeEvent {
            track,
            name: name.to_string(),
            phase: 'i',
            ts_ps,
            dur_ps: 0,
        });
    }

    /// Appends a complete (duration) event on `track`.
    pub fn span(&mut self, track: &str, ts_ps: u64, dur_ps: u64, name: &str) {
        let track = self.track_id(track);
        self.events.push(ChromeEvent {
            track,
            name: name.to_string(),
            phase: 'X',
            ts_ps,
            dur_ps,
        });
    }

    /// Number of timed events (excluding track metadata).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the full trace document.
    #[must_use]
    pub fn render(&self) -> String {
        let us = |ps: u64| JsonValue::Number(ps as f64 / 1e6);
        let mut events: Vec<JsonValue> = Vec::with_capacity(self.tracks.len() + self.events.len());
        for (tid, label) in self.tracks.iter().enumerate() {
            events.push(JsonValue::Object(vec![
                ("name".to_string(), JsonValue::str("thread_name")),
                ("ph".to_string(), JsonValue::str("M")),
                ("pid".to_string(), JsonValue::uint(0)),
                ("tid".to_string(), JsonValue::uint(tid as u64)),
                ("ts".to_string(), JsonValue::uint(0)),
                (
                    "args".to_string(),
                    JsonValue::Object(vec![("name".to_string(), JsonValue::str(label.clone()))]),
                ),
            ]));
        }
        for event in &self.events {
            let mut fields = vec![
                ("name".to_string(), JsonValue::str(event.name.clone())),
                ("ph".to_string(), JsonValue::str(event.phase.to_string())),
                ("pid".to_string(), JsonValue::uint(0)),
                ("tid".to_string(), JsonValue::uint(event.track as u64)),
                ("ts".to_string(), us(event.ts_ps)),
            ];
            if event.phase == 'X' {
                fields.push(("dur".to_string(), us(event.dur_ps)));
            } else {
                // Thread-scoped instant, per the trace-event spec.
                fields.push(("s".to_string(), JsonValue::str("t")));
            }
            events.push(JsonValue::Object(fields));
        }
        JsonValue::Object(vec![
            ("displayTimeUnit".to_string(), JsonValue::str("ns")),
            ("traceEvents".to_string(), JsonValue::Array(events)),
        ])
        .render_pretty()
    }
}

/// Validates a rendered document against the Chrome trace-event schema:
/// a `traceEvents` array whose members carry `name`/`ph`/`pid`/`tid`/`ts`,
/// with `ph` one of `X`/`i`/`M` and a non-negative `dur` on every `X`.
///
/// Returns the number of non-metadata events.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_chrome(text: &str) -> Result<usize, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;
    let mut timed = 0;
    for (i, event) in events.iter().enumerate() {
        for key in ["name", "ph", "pid", "tid", "ts"] {
            if event.get(key).is_none() {
                return Err(format!("event {i}: missing {key:?}"));
            }
        }
        let phase = event
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: ph is not a string"))?;
        match phase {
            "M" => {}
            "i" => timed += 1,
            "X" => {
                timed += 1;
                let dur = event
                    .get("dur")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("event {i}: X event without dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
        let ts = event
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: ts is not a number"))?;
        if ts < 0.0 {
            return Err(format!("event {i}: negative ts"));
        }
    }
    Ok(timed)
}

/// A bounded record sink rendering a run as a Chrome trace: spans for
/// node firings (sized by busy time), instants for injections,
/// deliveries and faults. An event is named from what its record
/// carries: `pkt{packet}[{flit}]`, with the forward's detail.
pub struct ChromeTraceObserver {
    limit: usize,
    trace: ChromeTrace,
}

impl ChromeTraceObserver {
    /// Records up to `limit` events, one track per site.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        ChromeTraceObserver {
            limit,
            trace: ChromeTrace::new(),
        }
    }

    /// The accumulated trace.
    #[must_use]
    pub fn trace(&self) -> &ChromeTrace {
        &self.trace
    }

    /// Consumes the observer, returning its trace.
    #[must_use]
    pub fn into_trace(self) -> ChromeTrace {
        self.trace
    }
}

impl RecordSink for ChromeTraceObserver {
    fn on_record(&mut self, record: &TraceRecord, _in_window: bool) {
        if self.trace.len() >= self.limit {
            return;
        }
        let flit = format!("pkt{}[{}]", record.packet, record.flit);
        // A fault gets a track of its own kind, not its site's.
        let track = match (record.action, record.site) {
            (Action::Fault, Site::Channel(n) | Site::Node(n) | Site::Source(n)) => {
                format!("fault{n}")
            }
            (_, site) => site.to_string(),
        };
        let (ts, trace) = (record.t_ps, &mut self.trace);
        match (record.action, record.detail) {
            (Action::Inject, _) => trace.instant(&track, ts, &format!("inject {flit}")),
            (Action::Forward, Detail::Input(input)) => {
                trace.span(
                    &track,
                    ts,
                    record.busy_ps,
                    &format!("{flit} (input {input})"),
                );
            }
            (Action::Forward, detail) => {
                trace.span(&track, ts, record.busy_ps, &format!("{flit} [{detail}]"));
            }
            (Action::Throttle, _) => {
                trace.span(&track, ts, record.busy_ps, &format!("THROTTLE {flit}"));
            }
            (Action::Deliver, _) => trace.instant(&track, ts, &format!("deliver {flit}")),
            (Action::Fault, detail) => trace.instant(&track, ts, &format!("{detail} {flit}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_trace_validates_and_counts_events() {
        let mut trace = ChromeTrace::new();
        trace.instant("src0", 100, "inject");
        trace.span("node1", 150, 52, "forward");
        trace.span("node1", 300, 80, "throttle");
        let text = trace.render();
        assert_eq!(validate_chrome(&text), Ok(3));
        assert!(text.contains("thread_name"));
        assert!(text.contains("displayTimeUnit"));
    }

    #[test]
    fn tracks_are_assigned_in_first_seen_order() {
        let mut trace = ChromeTrace::new();
        trace.instant("b", 1, "x");
        trace.instant("a", 2, "y");
        trace.instant("b", 3, "z");
        let doc = JsonValue::parse(&trace.render()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        // Two metadata events, then three instants.
        assert_eq!(events.len(), 5);
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(JsonValue::as_str),
            Some("b")
        );
        assert_eq!(events[2].get("tid").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(events[3].get("tid").and_then(JsonValue::as_f64), Some(1.0));
    }

    #[test]
    fn timestamps_convert_to_microseconds() {
        let mut trace = ChromeTrace::new();
        trace.span("n", 52, 1_000_000, "x");
        let doc = JsonValue::parse(&trace.render()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        let span = &events[1];
        assert_eq!(span.get("ts").and_then(JsonValue::as_f64), Some(0.000052));
        assert_eq!(span.get("dur").and_then(JsonValue::as_f64), Some(1.0));
    }

    #[test]
    fn observer_emits_spans_for_forwards_and_validates() {
        let mut observer = ChromeTraceObserver::new(10);
        let at = |t_ps, action, site| TraceRecord {
            t_ps,
            packet: 3,
            action,
            site,
            ..TraceRecord::INJECT
        };
        observer.on_record(&at(10, Action::Inject, Site::Source(0)), false);
        let firing = TraceRecord {
            detail: Detail::Input(0),
            busy_ps: 52,
            ..at(62, Action::Forward, Site::Router(4))
        };
        observer.on_record(&firing, true);
        observer.on_record(&at(130, Action::Deliver, Site::Sink(1)), true);
        let text = observer.into_trace().render();
        assert_eq!(validate_chrome(&text), Ok(3));
        for name in ["inject pkt3[0]", "pkt3[0] (input 0)", "deliver pkt3[0]"] {
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome("{}").is_err());
        assert!(validate_chrome(r#"{"traceEvents":[{"name":"x"}]}"#).is_err());
        assert!(
            validate_chrome(r#"{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":0,"ts":1}]}"#)
                .is_err(),
            "X without dur"
        );
        assert!(
            validate_chrome(r#"{"traceEvents":[{"name":"x","ph":"q","pid":0,"tid":0,"ts":1}]}"#)
                .is_err(),
            "unknown phase"
        );
    }
}
