//! `asynoc watch`: follow an `asynoc-stream-v1` NDJSON file (produced
//! by `--stream`) and render a live text dashboard — window rates,
//! in-flight flits, per-level busy fractions, watchpoint alerts — or
//! fold a finished stream back into the batch metrics document.
//!
//! The command is a pure consumer: it never touches the simulator. In
//! tail mode it polls the file for growth, reports each flushed window
//! as it lands, and exits when the `end` record arrives; `--once`
//! reads what is present and exits (an input that does not open with a
//! head record is refused, not summarised as an empty run).
//! Simulated-time stalls are the producer's online watchpoints; the
//! *host-time* stall ("the file stopped growing") is detected here,
//! since only the consumer can see wall-clock silence.

use std::io::{BufRead, BufReader, Read, Seek, Write};
use std::time::Instant;

use asynoc_telemetry::{JsonValue, StreamFolder, StreamLine, STREAM_SCHEMA};

use crate::commands::{create_optional, open_input, read_input, CliError};

/// A fully-resolved `watch` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct WatchRequest {
    /// The stream to follow (`-` = stdin).
    pub stream_in: String,
    /// Fold the finished stream into a batch metrics document here
    /// (`-` = stdout).
    pub fold: Option<String>,
    /// Single pass: read what is present, report, exit.
    pub once: bool,
    /// Poll interval while tailing, milliseconds.
    pub interval_ms: u64,
}

/// Polls without growth before the host-time stall note fires once.
const STALL_POLLS: u32 = 25;

/// Dashboard state accumulated from the records seen so far.
#[derive(Default)]
struct Dashboard {
    levels: Vec<String>,
    window_ps: u64,
    windows: u64,
    events: u64,
    injected: u64,
    delivered: u64,
    dropped: u64,
    in_flight: i64,
    last_t_ps: u64,
    traces: u64,
    watchpoints: u64,
    malformed: u64,
    ended: bool,
    /// `--fold`'s folder, fed every line the dashboard sees.
    folder: Option<StreamFolder>,
    /// `--fold`'s destination, unless that is the command's own output.
    fold_file: Option<std::fs::File>,
}

impl Dashboard {
    /// An empty dashboard; creates `--fold`'s file before a line is read.
    fn new(request: &WatchRequest) -> Result<Dashboard, CliError> {
        let fold_path = request.fold.as_ref().filter(|path| *path != "-");
        Ok(Dashboard {
            folder: request.fold.as_ref().map(|_| StreamFolder::default()),
            fold_file: create_optional("--fold", fold_path)?,
            ..Dashboard::default()
        })
    }

    /// Ingests one NDJSON line, writing any dashboard output for it. The
    /// line is parsed once, for the dashboard and the folder alike, so
    /// neither its text nor its tree outlives it. A line that is not
    /// JSON, has no known `type`, or carries a counter that is not a
    /// whole number is counted and skipped.
    fn ingest(&mut self, line: &str, out: &mut dyn Write) -> Result<(), CliError> {
        let line = StreamLine::parse(line);
        if let Some(folder) = &mut self.folder {
            folder.push(&line);
        }
        let value = match &line {
            Ok(StreamLine::Blank) => return Ok(()),
            Ok(StreamLine::Trace) => {
                self.traces += 1;
                return Ok(());
            }
            Ok(StreamLine::Record(value)) => value,
            Err(_) => {
                self.malformed += 1;
                return Ok(());
            }
        };
        if value.get("type").and_then(JsonValue::as_str) == Some("head")
            && value.get("schema").and_then(JsonValue::as_str) != Some(STREAM_SCHEMA)
        {
            return Err(CliError::Invalid(format!(
                "not an {STREAM_SCHEMA:?} stream (head record has a different schema)"
            )));
        }
        match self.report(value) {
            Some(text) => writeln!(out, "{text}")?,
            None => self.malformed += 1,
        }
        Ok(())
    }

    /// Applies one record and returns its dashboard line; `None` leaves
    /// the dashboard untouched.
    fn report(&mut self, value: &JsonValue) -> Option<String> {
        // An absent counter reads as zero; a present one must be exact.
        let uint = |key: &str| value.get(key).map_or(Some(0), JsonValue::as_u64);
        let text = |key: &str| value.get(key).and_then(JsonValue::as_str);
        match text("type")? {
            "head" => {
                self.window_ps = uint("window_ps")?;
                if let Some(levels) = value.get("levels").and_then(JsonValue::as_array) {
                    self.levels = levels
                        .iter()
                        .filter_map(|l| l.as_str().map(str::to_string))
                        .collect();
                }
                Some(format!(
                    "watching {} stream: window {} ps, {} level group(s)",
                    text("substrate").unwrap_or("?"),
                    self.window_ps,
                    self.levels.len()
                ))
            }
            "window" => {
                let (seq, t_ps) = (uint("seq")?, uint("t_ps")?);
                let (events, injected) = (uint("events")?, uint("injected")?);
                let (delivered, dropped) = (uint("delivered")?, uint("dropped")?);
                let in_flight = value.get("in_flight").map_or(Some(0), JsonValue::as_i64)?;
                self.windows += 1;
                self.events += events;
                self.injected += injected;
                self.delivered += delivered;
                self.dropped += dropped;
                self.in_flight = in_flight;
                self.last_t_ps = t_ps;
                Some(format!(
                    "window {seq:>4}  t={t_ps} ps  events {events:>8}  delivered {delivered:>6}  \
                     in-flight {in_flight:>5}{}",
                    self.busiest(value)
                        .map(|(label, busy)| format!("  busiest {label} {:.0}%", busy * 100.0))
                        .unwrap_or_default(),
                ))
            }
            "watchpoint" => {
                let t_ps = uint("t_ps")?;
                self.watchpoints += 1;
                Some(format!(
                    "WATCHPOINT {} at t={t_ps} ps: site {}, {}",
                    text("kind").unwrap_or("-"),
                    text("site").unwrap_or("-"),
                    text("detail").unwrap_or("-"),
                ))
            }
            "end" => {
                let (windows, watchpoints) = (uint("windows")?, uint("watchpoints")?);
                self.ended = true;
                Some(format!(
                    "stream ended: {windows} window(s), {watchpoints} watchpoint(s)"
                ))
            }
            _ => None,
        }
    }

    /// The busiest level of a window record's last bin, if any.
    fn busiest(&self, window: &JsonValue) -> Option<(String, f64)> {
        let bins = window.get("bins").and_then(JsonValue::as_array)?;
        let busy = bins
            .last()?
            .get("busy_fraction")
            .and_then(JsonValue::as_array)?;
        let (index, peak) = busy
            .iter()
            .filter_map(JsonValue::as_f64)
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        if peak <= 0.0 {
            return None;
        }
        let label = self
            .levels
            .get(index)
            .cloned()
            .unwrap_or_else(|| format!("level {index}"));
        Some((label, peak))
    }

    /// The closing summary (once the input is exhausted).
    fn summary(&self, out: &mut dyn Write, host_elapsed: Option<f64>) -> Result<(), CliError> {
        let rate = match host_elapsed {
            Some(seconds) if seconds > 0.0 => {
                format!(" ({:.0} events/s host)", self.events as f64 / seconds)
            }
            _ => String::new(),
        };
        writeln!(
            out,
            "{} window(s) to t={} ps: {} event(s){rate}, {} injected, {} delivered, \
             {} dropped, {} in flight, {} trace record(s), {} watchpoint(s){}",
            self.windows,
            self.last_t_ps,
            self.events,
            self.injected,
            self.delivered,
            self.dropped,
            self.in_flight,
            self.traces,
            self.watchpoints,
            if self.malformed > 0 {
                format!(", {} malformed line(s) skipped", self.malformed)
            } else {
                String::new()
            },
        )?;
        Ok(())
    }
}

/// Writes the closing summary, then the folded batch metrics document
/// to `--fold`'s destination.
fn finish(
    dashboard: Dashboard,
    request: &WatchRequest,
    out: &mut dyn Write,
    host_elapsed: Option<f64>,
) -> Result<(), CliError> {
    dashboard.summary(out, host_elapsed)?;
    let (Some(folder), Some(fold_out)) = (dashboard.folder, &request.fold) else {
        return Ok(());
    };
    let doc = folder
        .finish()
        .map_err(|e| CliError::Invalid(format!("--fold: {e}")))?;
    let rendered = doc.render_pretty();
    match dashboard.fold_file {
        Some(mut file) => {
            file.write_all(rendered.as_bytes())?;
            writeln!(out, "folded metrics report written to {fold_out}")?;
        }
        None => out.write_all(rendered.as_bytes())?,
    }
    Ok(())
}

/// Executes a `watch` command.
///
/// # Errors
///
/// Returns a [`CliError`] when the stream cannot be read, is not an
/// `asynoc-stream-v1` document, or `--fold` fails to decode it.
pub fn execute_watch(request: &WatchRequest, out: &mut dyn Write) -> Result<(), CliError> {
    if request.stream_in == "-" || request.once {
        // Single pass over a complete (or cut-off) stream text.
        let text = if request.stream_in == "-" {
            let mut text = String::new();
            std::io::stdin().read_to_string(&mut text)?;
            text
        } else {
            read_input("--stream-in", &request.stream_in)?
        };
        // A complete stream opens with its head; without one this is some
        // other file (or none), not a run that reported all zeroes.
        let opening = text
            .lines()
            .enumerate()
            .find(|(_, line)| !line.trim().is_empty());
        let is_head = |line| match StreamLine::parse(line) {
            Ok(StreamLine::Record(value)) => {
                value.get("type").and_then(JsonValue::as_str) == Some("head")
            }
            _ => false,
        };
        if !opening.is_some_and(|(_, line)| is_head(line)) {
            return Err(CliError::Invalid(format!(
                "line {}: expected a {STREAM_SCHEMA:?} head record",
                opening.map_or(1, |(index, _)| index + 1)
            )));
        }
        let mut dashboard = Dashboard::new(request)?;
        for line in text.lines() {
            dashboard.ingest(line, out)?;
        }
        return finish(dashboard, request, out, None);
    }
    let interval = std::time::Duration::from_millis(request.interval_ms);
    tail(request, out, || std::thread::sleep(interval))
}

/// Tails the file until its `end` record arrives, calling `idle` between
/// polls.
fn tail(
    request: &WatchRequest,
    out: &mut dyn Write,
    mut idle: impl FnMut(),
) -> Result<(), CliError> {
    let mut reader = BufReader::new(open_input("--stream-in", &request.stream_in)?);
    let mut dashboard = Dashboard::new(request)?;
    let mut carry = String::new();
    let started = Instant::now();
    let mut quiet_polls: u32 = 0;
    let mut stall_noted = false;
    loop {
        let mut grew = false;
        loop {
            carry.clear();
            // Stop at a partial trailing line: rewind so the next poll
            // re-reads it once the producer finishes writing it.
            let before = reader.stream_position()?;
            let n = reader.read_line(&mut carry)?;
            if n == 0 {
                break;
            }
            if !carry.ends_with('\n') {
                reader.seek(std::io::SeekFrom::Start(before))?;
                break;
            }
            grew = true;
            dashboard.ingest(&carry, out)?;
            if dashboard.ended {
                break;
            }
        }
        if dashboard.ended {
            break;
        }
        if grew {
            quiet_polls = 0;
            stall_noted = false;
        } else {
            quiet_polls += 1;
            if quiet_polls >= STALL_POLLS && !stall_noted {
                stall_noted = true;
                writeln!(
                    out,
                    "note: no stream growth for {:.1}s — producer gone or busy between \
                     windows (Ctrl-C to stop watching)",
                    f64::from(quiet_polls) * request.interval_ms as f64 / 1e3
                )?;
            }
        }
        idle();
    }
    finish(
        dashboard,
        request,
        out,
        Some(started.elapsed().as_secs_f64()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watch_once(text: &str, fold: Option<String>) -> (String, Result<(), CliError>) {
        let path = std::env::temp_dir().join(format!(
            "asynoc-watch-test-{}-{}.ndjson",
            std::process::id(),
            text.len()
        ));
        std::fs::write(&path, text).expect("stream fixture");
        let request = WatchRequest {
            stream_in: path.to_string_lossy().into_owned(),
            fold,
            once: true,
            interval_ms: 1,
        };
        let mut out = Vec::new();
        let result = execute_watch(&request, &mut out);
        let _ = std::fs::remove_file(&path);
        (String::from_utf8(out).expect("utf8"), result)
    }

    const HEAD: &str = r#"{"schema":"asynoc-stream-v1","type":"head","substrate":"mot","config":{"seed":42},"window_ps":2000,"bin_ps":1000,"levels":["fanout-L0"],"endpoints":8,"trace":false,"watch":{"stall_windows":8,"busy_ceiling":0.98,"waste_ceiling":0.75,"waste_min_forwards":32}}"#;

    #[test]
    fn dashboard_reports_windows_and_watchpoints() {
        let text = format!(
            "{HEAD}\n\
             {{\"type\":\"window\",\"seq\":0,\"t_ps\":0,\"events\":10,\"injected\":4,\"delivered\":2,\"dropped\":0,\"forwards\":4,\"in_flight\":2,\"latency\":null,\"bins\":[{{\"busy_fraction\":[0.5]}}]}}\n\
             {{\"type\":\"watchpoint\",\"kind\":\"no_progress\",\"seq\":1,\"t_ps\":2000,\"site\":\"n3\",\"packet\":7,\"flit\":0,\"value\":1,\"detail\":\"stalled\"}}\n\
             {{\"type\":\"end\",\"windows\":1,\"watchpoints\":1,\"sections\":{{}}}}\n"
        );
        let (out, result) = watch_once(&text, None);
        result.expect("watch succeeds");
        assert!(out.contains("watching mot stream"), "{out}");
        assert!(out.contains("window    0"), "{out}");
        assert!(out.contains("busiest fanout-L0 50%"), "{out}");
        assert!(out.contains("WATCHPOINT no_progress"), "{out}");
        assert!(out.contains("site n3"), "{out}");
        assert!(
            out.contains("stream ended: 1 window(s), 1 watchpoint(s)"),
            "{out}"
        );
    }

    #[test]
    fn non_stream_input_is_rejected() {
        let (_, result) = watch_once("{\"schema\":\"other\",\"type\":\"head\"}\n", None);
        let err = result.expect_err("wrong schema must fail");
        assert!(err.to_string().contains("asynoc-stream-v1"), "{err}");
    }

    #[test]
    fn a_single_pass_over_a_headless_input_is_a_located_error_not_an_empty_run() {
        let trace_line = r#"{"t_ps":10,"packet":1,"flit":0,"site":"src0","action":"inject","detail":"","copies":1}"#;
        for (text, line) in [
            ("", 1),
            ("\n\n", 1),
            (trace_line, 1),
            ("\n\n{\"type\":\"window\",\"seq\":0}\n", 3),
        ] {
            let (out, result) = watch_once(text, None);
            let err = result.expect_err("no head, no dashboard").to_string();
            let expected = format!("line {line}: expected a \"asynoc-stream-v1\" head record");
            assert_eq!(err, expected, "{text:?}");
            assert!(out.is_empty(), "{text:?}: {out}");
        }
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let text = format!("{HEAD}\nnot json at all\n");
        let (out, result) = watch_once(&text, None);
        result.expect("lenient dashboard");
        assert!(out.contains("1 malformed line(s) skipped"), "{out}");
    }

    #[test]
    fn counters_that_are_not_whole_numbers_mark_the_line_malformed() {
        let window = |events: &str| {
            format!(
                "{{\"type\":\"window\",\"seq\":0,\"t_ps\":0,\"events\":{events},\"injected\":4,\
                 \"delivered\":2,\"dropped\":0,\"forwards\":4,\"in_flight\":-2,\"latency\":null,\"bins\":[]}}"
            )
        };
        let text = format!(
            "{HEAD}\n{}\n{}\n{}\n",
            window("10"),
            window("-5"),
            window("1.5")
        );
        let (out, result) = watch_once(&text, None);
        result.expect("lenient dashboard");
        // The good window counts (a negative in-flight balance is a
        // legitimate reading); the other two used to add 0 and 1 events.
        assert!(out.contains("1 window(s)"), "{out}");
        assert!(out.contains(": 10 event(s)"), "{out}");
        assert!(out.contains("-2 in flight"), "{out}");
        assert!(out.contains("2 malformed line(s) skipped"), "{out}");
    }

    #[test]
    fn a_stream_delivered_in_two_halves_folds_like_the_whole() {
        use crate::args::parse;
        use crate::commands::execute;

        let path = |name: &str| {
            let file = format!("asynoc-watch-tail-{}-{name}", std::process::id());
            std::env::temp_dir()
                .join(file)
                .to_string_lossy()
                .into_owned()
        };
        let (batch, whole, live) = (
            path("batch.json"),
            path("whole.ndjson"),
            path("live.ndjson"),
        );
        let (folded_once, folded_tail) = (path("once.json"), path("tail.json"));
        let line = format!(
            "metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 \
             --warmup-ns 40 --measure-ns 400 --metrics-out {batch} --stream {whole} --stream-trace"
        );
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        execute(&parse(&args).expect("valid invocation"), &mut Vec::new()).expect("run succeeds");
        let stream = std::fs::read(&whole).expect("stream file");

        let request = |stream_in: &str, fold: &str, once: bool| WatchRequest {
            stream_in: stream_in.to_string(),
            fold: Some(fold.to_string()),
            once,
            interval_ms: 1,
        };
        execute_watch(&request(&whole, &folded_once, true), &mut Vec::new()).expect("--once");

        // The producer has written half the stream, cut mid-line, when the
        // tail starts; the rest lands during the first idle poll.
        let cut = stream.len() / 2;
        assert_ne!(stream[cut - 1], b'\n', "the cut must split a line");
        std::fs::write(&live, &stream[..cut]).expect("first half");
        let mut rest = Some(&stream[cut..]);
        let mut out = Vec::new();
        tail(&request(&live, &folded_tail, false), &mut out, || {
            if let Some(rest) = rest.take() {
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&live)
                    .expect("live stream");
                file.write_all(rest).expect("second half");
            }
        })
        .expect("tail follows the stream to its end record");
        assert!(rest.is_none(), "the tail went idle on the partial line");
        let out = String::from_utf8(out).expect("utf8");
        assert!(out.contains("stream ended"), "{out}");

        let read = |path: &str| std::fs::read_to_string(path).expect(path);
        assert_eq!(read(&folded_tail), read(&folded_once));
        assert_eq!(read(&folded_tail), read(&batch));
        for file in [batch, whole, live, folded_once, folded_tail] {
            let _ = std::fs::remove_file(file);
        }
    }

    #[test]
    fn fold_of_a_truncated_stream_fails_cleanly() {
        // A fold needs the window records to be a complete document;
        // a stream with a malformed line must fail with its line number.
        let text = format!("{HEAD}\n{{\"type\":\"window\",broken\n");
        let (_, result) = watch_once(&text, Some("-".to_string()));
        let err = result.expect_err("fold must reject malformed streams");
        assert!(err.to_string().contains("--fold"), "{err}");
    }
}
