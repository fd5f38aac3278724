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

use std::fmt::Write as _;
use std::io::{self, Write};

use asynoc_kernel::hash::HashMap;

use crate::json::{write_number, write_string, write_u64, JsonValue};
use crate::recorder::RecordSink;
use crate::site::Site;
use crate::trace::{Action, Detail, TraceRecord};
use crate::writer::{drain_full, drain_to};

/// Where an event is drawn: its site's track, or for a fault, a track of
/// the fault's own kind (`fault{N}`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Track {
    Site(Site),
    Fault(usize),
}

impl Track {
    fn of(record: &TraceRecord) -> Track {
        match (record.action, record.site) {
            (Action::Fault, Site::Channel(n) | Site::Node(n) | Site::Source(n)) => Track::Fault(n),
            (_, site) => Track::Site(site),
        }
    }

    fn label(self, out: &mut String) {
        let _ = match self {
            Track::Site(site) => write!(out, "{site}"),
            Track::Fault(n) => write!(out, "fault{n}"),
        };
    }
}

/// One recorded event: its track and the record fields its name and
/// timing are formed from when the document is written.
#[derive(Clone, Copy, Debug)]
struct Event {
    track: u32,
    action: Action,
    detail: Detail,
    packet: u64,
    flit: u8,
    ts_ps: u64,
    dur_ps: u64,
}

impl Event {
    /// `X` (complete, with duration) for node firings, `i` (instant)
    /// otherwise.
    fn is_span(&self) -> bool {
        matches!(self.action, Action::Forward | Action::Throttle)
    }

    /// `pkt{packet}[{flit}]`, with what the action and detail add.
    fn name(&self, out: &mut String) {
        let (packet, flit) = (self.packet, self.flit);
        let _ = match (self.action, self.detail) {
            (Action::Inject, _) => write!(out, "inject pkt{packet}[{flit}]"),
            (Action::Forward, Detail::Input(input)) => {
                write!(out, "pkt{packet}[{flit}] (input {input})")
            }
            (Action::Forward, detail) => write!(out, "pkt{packet}[{flit}] [{detail}]"),
            (Action::Throttle, _) => write!(out, "THROTTLE pkt{packet}[{flit}]"),
            (Action::Deliver, _) => write!(out, "deliver pkt{packet}[{flit}]"),
            (Action::Fault, detail) => write!(out, "{detail} pkt{packet}[{flit}]"),
        };
    }
}

/// A bounded record sink rendering a run as a Chrome trace: spans for
/// node firings (sized by busy time), instants for injections,
/// deliveries and faults, one track per site. It keeps one compact event
/// per record and forms the names only as
/// [`write_to`](Self::write_to) writes the document.
#[derive(Debug, Default)]
pub struct ChromeTraceObserver {
    limit: usize,
    /// Each track's id, numbered in first-seen order.
    ids: HashMap<Track, u32>,
    /// The tracks by id.
    tracks: Vec<Track>,
    events: Vec<Event>,
}

impl ChromeTraceObserver {
    /// Records up to `limit` events, one track per site.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        ChromeTraceObserver {
            limit,
            ..ChromeTraceObserver::default()
        }
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

    /// Writes the trace document to `out` — [`JsonValue::render_pretty`]'s
    /// layout, track metadata then events — holding at most 64 KiB of it.
    ///
    /// # Errors
    ///
    /// Returns the first write error.
    ///
    /// [`JsonValue::render_pretty`]: crate::JsonValue::render_pretty
    pub fn write_to(&self, mut out: impl Write) -> io::Result<()> {
        let mut text = String::from("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [");
        let (mut name, mut err) = (String::new(), None);
        for (tid, track) in self.tracks.iter().enumerate() {
            name.clear();
            track.label(&mut name);
            open(&mut text, tid > 0, "thread_name", "M", tid as u64);
            text.push_str("0,\n      \"args\": {\n        \"name\": ");
            write_string(&mut text, &name);
            text.push_str("\n      }\n    }");
            drain_full(&mut text, &mut out, &mut err);
        }
        let us = |text: &mut String, ps: u64| write_number(text, ps as f64 / 1e6);
        for event in &self.events {
            name.clear();
            event.name(&mut name);
            let ph = if event.is_span() { "X" } else { "i" };
            // Every event follows its track's metadata.
            open(&mut text, true, &name, ph, u64::from(event.track));
            us(&mut text, event.ts_ps);
            if event.is_span() {
                text.push_str(",\n      \"dur\": ");
                us(&mut text, event.dur_ps);
                text.push_str("\n    }");
            } else {
                // Thread-scoped instant, per the trace-event spec.
                text.push_str(",\n      \"s\": \"t\"\n    }");
            }
            drain_full(&mut text, &mut out, &mut err);
        }
        if !self.tracks.is_empty() {
            text.push_str("\n  ");
        }
        text.push_str("]\n}\n");
        drain_to(&mut text, &mut out, &mut err);
        err.map_or(Ok(()), Err)
    }
}

/// Opens one `traceEvents` member, after a comma unless it is the
/// first: its name, phase, pid and tid, up to the value of `ts`.
fn open(text: &mut String, comma: bool, name: &str, ph: &str, tid: u64) {
    if comma {
        text.push(',');
    }
    text.push_str("\n    {\n      \"name\": ");
    write_string(text, name);
    text.push_str(",\n      \"ph\": \"");
    text.push_str(ph);
    text.push_str("\",\n      \"pid\": 0,\n      \"tid\": ");
    write_u64(text, tid);
    text.push_str(",\n      \"ts\": ");
}

impl RecordSink for ChromeTraceObserver {
    fn on_record(&mut self, record: &TraceRecord, _in_window: bool) {
        if self.events.len() >= self.limit {
            return;
        }
        let key = Track::of(record);
        let next = self.tracks.len() as u32;
        let track = *self.ids.entry(key).or_insert(next);
        if track == next {
            self.tracks.push(key);
        }
        self.events.push(Event {
            track,
            action: record.action,
            detail: record.detail,
            packet: record.packet,
            flit: record.flit,
            ts_ps: record.t_ps,
            dur_ps: record.busy_ps,
        });
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

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_kernel::FaultClass;

    /// A record of `action` at `site`, `t_ps` into the run.
    fn at(t_ps: u64, action: Action, site: Site) -> TraceRecord {
        TraceRecord {
            t_ps,
            packet: 3,
            action,
            site,
            ..TraceRecord::INJECT
        }
    }

    fn observe(records: &[TraceRecord], limit: usize) -> ChromeTraceObserver {
        let mut observer = ChromeTraceObserver::new(limit);
        for record in records {
            observer.on_record(record, true);
        }
        observer
    }

    fn written(observer: &ChromeTraceObserver) -> String {
        let mut out = Vec::new();
        observer.write_to(&mut out).expect("a Vec takes every byte");
        String::from_utf8(out).expect("UTF-8")
    }

    fn events(text: &str) -> Vec<JsonValue> {
        let doc = JsonValue::parse(text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(JsonValue::as_array);
        events.expect("a traceEvents array").to_vec()
    }

    /// The document as one [`JsonValue`] tree, rendered whole: the
    /// layout [`ChromeTraceObserver::write_to`] must reproduce.
    fn tree_render(observer: &ChromeTraceObserver) -> String {
        let us = |ps: u64| JsonValue::Number(ps as f64 / 1e6);
        let mut members = Vec::new();
        for (tid, track) in observer.tracks.iter().enumerate() {
            let mut label = String::new();
            track.label(&mut label);
            members.push(JsonValue::Object(vec![
                ("name".to_string(), JsonValue::str("thread_name")),
                ("ph".to_string(), JsonValue::str("M")),
                ("pid".to_string(), JsonValue::uint(0)),
                ("tid".to_string(), JsonValue::uint(tid as u64)),
                ("ts".to_string(), JsonValue::uint(0)),
                (
                    "args".to_string(),
                    JsonValue::Object(vec![("name".to_string(), JsonValue::str(label))]),
                ),
            ]));
        }
        for event in &observer.events {
            let mut name = String::new();
            event.name(&mut name);
            let ph = if event.is_span() { "X" } else { "i" };
            let mut fields = vec![
                ("name".to_string(), JsonValue::str(name)),
                ("ph".to_string(), JsonValue::str(ph)),
                ("pid".to_string(), JsonValue::uint(0)),
                ("tid".to_string(), JsonValue::uint(u64::from(event.track))),
                ("ts".to_string(), us(event.ts_ps)),
            ];
            if event.is_span() {
                fields.push(("dur".to_string(), us(event.dur_ps)));
            } else {
                fields.push(("s".to_string(), JsonValue::str("t")));
            }
            members.push(JsonValue::Object(fields));
        }
        JsonValue::Object(vec![
            ("displayTimeUnit".to_string(), JsonValue::str("ns")),
            ("traceEvents".to_string(), JsonValue::Array(members)),
        ])
        .render_pretty()
    }

    #[test]
    fn rendered_trace_validates_and_counts_events() {
        let observer = observe(
            &[
                at(100, Action::Inject, Site::Source(0)),
                TraceRecord {
                    busy_ps: 52,
                    ..at(150, Action::Forward, Site::Router(1))
                },
                TraceRecord {
                    busy_ps: 80,
                    ..at(300, Action::Throttle, Site::Router(1))
                },
            ],
            10,
        );
        let text = written(&observer);
        assert_eq!(validate_chrome(&text), Ok(3));
        assert!(text.contains("thread_name"));
        assert!(text.contains("displayTimeUnit"));
    }

    #[test]
    fn tracks_are_assigned_in_first_seen_order() {
        let observer = observe(
            &[
                at(1, Action::Deliver, Site::Sink(1)),
                at(2, Action::Inject, Site::Source(0)),
                at(3, Action::Deliver, Site::Sink(1)),
            ],
            10,
        );
        let events = events(&written(&observer));
        // Two metadata events, then three instants.
        assert_eq!(events.len(), 5);
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(JsonValue::as_str),
            Some("D1")
        );
        let tid = |event: &JsonValue| event.get("tid").and_then(JsonValue::as_f64);
        assert_eq!(
            events[2..].iter().map(tid).collect::<Vec<_>>(),
            [Some(0.0), Some(1.0), Some(0.0)]
        );
    }

    #[test]
    fn timestamps_convert_to_microseconds() {
        let span = TraceRecord {
            busy_ps: 1_000_000,
            ..at(52, Action::Forward, Site::Router(0))
        };
        let events = events(&written(&observe(&[span], 10)));
        let span = &events[1];
        assert_eq!(span.get("ts").and_then(JsonValue::as_f64), Some(0.000052));
        assert_eq!(span.get("dur").and_then(JsonValue::as_f64), Some(1.0));
    }

    #[test]
    fn observer_emits_spans_for_forwards_and_validates() {
        let firing = TraceRecord {
            detail: Detail::Input(0),
            busy_ps: 52,
            ..at(62, Action::Forward, Site::Router(4))
        };
        let observer = observe(
            &[
                at(10, Action::Inject, Site::Source(0)),
                firing,
                at(130, Action::Deliver, Site::Sink(1)),
            ],
            10,
        );
        let text = written(&observer);
        assert_eq!(validate_chrome(&text), Ok(3));
        for name in ["inject pkt3[0]", "pkt3[0] (input 0)", "deliver pkt3[0]"] {
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }

    #[test]
    fn the_direct_writer_matches_the_tree_render() {
        let fault = |t_ps, class, site| TraceRecord {
            detail: Detail::Fault(class),
            ..at(t_ps, Action::Fault, site)
        };
        let records = [
            at(10, Action::Inject, Site::Source(0)),
            TraceRecord {
                detail: Detail::Input(1),
                busy_ps: 52,
                ..at(62, Action::Forward, Site::Router(4))
            },
            TraceRecord {
                busy_ps: 3_000_000,
                ..at(1_500_000, Action::Forward, Site::Router(4))
            },
            TraceRecord {
                busy_ps: 7,
                ..at(90, Action::Throttle, Site::Router(2))
            },
            // A stall on channel 4 and a drop at source 4 share one track.
            fault(95, FaultClass::LinkStall, Site::Channel(4)),
            fault(96, FaultClass::FlitDrop, Site::Source(4)),
            at(130, Action::Deliver, Site::Sink(1)),
        ];
        for limit in [0, 1, 4, records.len()] {
            let observer = observe(&records, limit);
            assert_eq!(observer.len(), limit);
            assert_eq!(written(&observer), tree_render(&observer), "limit {limit}");
        }
        assert_eq!(observe(&records, 10).tracks.len(), 5);
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
