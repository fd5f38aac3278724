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

use std::io::{self, BufRead, BufReader, Write};
use std::time::Instant;

use asynoc_telemetry::{JsonError, JsonValue, StreamFolder, StreamLine, STREAM_SCHEMA};

use crate::commands::{create_optional, named, open_input, CliError, INPUT_BUFFER};

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
    fn ingest(
        &mut self,
        line: &Result<StreamLine, JsonError>,
        out: &mut dyn Write,
    ) -> Result<(), CliError> {
        if let Some(folder) = &mut self.folder {
            folder.push(line);
        }
        let value = match line {
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
    if request.stream_in == "-" {
        let input = BufReader::with_capacity(INPUT_BUFFER, io::stdin().lock());
        return watch(input, request, out, None);
    }
    let input = open_input("--stream-in", &request.stream_in)?;
    if request.once {
        return watch(input, request, out, None);
    }
    let interval = std::time::Duration::from_millis(request.interval_ms);
    watch(
        input,
        request,
        out,
        Some(&mut || std::thread::sleep(interval)),
    )
}

/// Splits a stream into lines where they lie in the reader's buffer:
/// only a line that straddles a refill is copied, into `carry`.
struct Lines<R> {
    input: R,
    carry: Vec<u8>,
    /// The buffer's bytes the line handed out last took.
    used: usize,
    /// Whether the line handed out last was `carry`.
    carried: bool,
}

impl<R: BufRead> Lines<R> {
    /// The next line with its `\n`, or `None` at the end of the input. The
    /// input's last line needs no `\n`, unless `tail`: there a partial
    /// line waits in `carry` for the rest of its bytes.
    ///
    /// # Errors
    ///
    /// The input's, or [`io::ErrorKind::InvalidData`] for a line that is
    /// not UTF-8, in the words of `BufRead::read_line`.
    fn next(&mut self, tail: bool) -> io::Result<Option<&str>> {
        self.input.consume(std::mem::take(&mut self.used));
        if std::mem::take(&mut self.carried) {
            self.carry.clear();
        }
        self.carried = loop {
            let buf = self.input.fill_buf()?;
            match line_len(buf) {
                Some(len) => {
                    self.used = len;
                    if self.carry.is_empty() {
                        break false;
                    }
                    self.carry.extend_from_slice(&buf[..len]);
                    break true;
                }
                None if buf.is_empty() && (tail || self.carry.is_empty()) => return Ok(None),
                None if buf.is_empty() => break true,
                None => {
                    self.carry.extend_from_slice(buf);
                    let len = buf.len();
                    self.input.consume(len);
                }
            }
        };
        let line = match self.carried {
            true => &self.carry[..],
            false => &self.input.fill_buf()?[..self.used],
        };
        std::str::from_utf8(line).map(Some).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })
    }
}

/// The length of the first line of `bytes` through its `\n`, if it has
/// one (`skip_until` over a slice is the standard library's `memchr`).
fn line_len(bytes: &[u8]) -> Option<usize> {
    let mut rest = bytes;
    let len = rest.skip_until(b'\n').ok()?;
    bytes[..len].ends_with(b"\n").then_some(len)
}

/// The next line of `lines`, as [`Lines::next`]. An error names the
/// stream, unless it is stdin.
fn read_more<'a>(
    lines: &'a mut Lines<impl BufRead>,
    tail: bool,
    request: &WatchRequest,
) -> Result<Option<&'a str>, CliError> {
    match lines.next(tail) {
        Ok(line) => Ok(line),
        Err(e) if request.stream_in == "-" => Err(e.into()),
        Err(e) => Err(named("--stream-in", &request.stream_in)(e)),
    }
}

/// Feeds the dashboard every line of `input`, one at a time, then writes
/// the summary. A single pass (`idle` is `None`) refuses an input that
/// does not open with a head record and ends with the input, whose last
/// line needs no newline. A tail ends at the `end` record and calls
/// `idle` between polls; a partial last line waits for the rest of its
/// bytes.
fn watch(
    input: impl BufRead,
    request: &WatchRequest,
    out: &mut dyn Write,
    mut idle: Option<&mut dyn FnMut()>,
) -> Result<(), CliError> {
    let tailing = idle.is_some();
    let started = Instant::now();
    let mut lines = Lines {
        input,
        carry: Vec::new(),
        used: 0,
        carried: false,
    };
    let (mut head, mut blanks) = (None, 0);
    if !tailing {
        // A complete stream opens with its head; without one this is some
        // other file (or none), not a run that reported all zeroes.
        while let Some(text) = read_more(&mut lines, false, request)? {
            match StreamLine::parse(text) {
                Ok(StreamLine::Blank) => blanks += 1,
                line => {
                    head = Some(line);
                    break;
                }
            }
        }
        let is_head = match &head {
            Some(Ok(StreamLine::Record(value))) => {
                value.get("type").and_then(JsonValue::as_str) == Some("head")
            }
            _ => false,
        };
        if !is_head {
            let at = if head.is_none() { 1 } else { blanks + 1 };
            return Err(CliError::Invalid(format!(
                "line {at}: expected a {STREAM_SCHEMA:?} head record"
            )));
        }
    }
    let mut dashboard = Dashboard::new(request)?;
    for _ in 0..blanks {
        dashboard.ingest(&Ok(StreamLine::Blank), out)?;
    }
    if let Some(head) = head {
        dashboard.ingest(&head, out)?;
    }
    let mut quiet_polls: u32 = 0;
    let mut stall_noted = false;
    loop {
        let mut grew = false;
        while let Some(text) = read_more(&mut lines, tailing, request)? {
            grew = true;
            dashboard.ingest(&StreamLine::parse(text), out)?;
            if tailing && dashboard.ended {
                break;
            }
        }
        let Some(idle) = idle.as_mut().filter(|_| !dashboard.ended) else {
            break;
        };
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
    let host_elapsed = tailing.then(|| started.elapsed().as_secs_f64());
    finish(dashboard, request, out, host_elapsed)
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
    fn a_line_of_unicode_space_is_malformed_not_blank() {
        // Before the head it is the line that should have been the head.
        let (out, result) = watch_once(&format!("\n\u{a0}\n{HEAD}\n"), None);
        let err = result.expect_err("no head first").to_string();
        assert_eq!(err, "line 2: expected a \"asynoc-stream-v1\" head record");
        assert!(out.is_empty(), "{out}");
        // After it, a malformed line: counted, and the fold names it.
        let text = format!("{HEAD}\n \t\n\u{3000}\n");
        let (out, result) = watch_once(&text, None);
        result.expect("the dashboard carries on");
        assert!(out.contains("1 malformed line(s) skipped"), "{out}");
        let (_, result) = watch_once(&text, Some("-".to_string()));
        let err = result.expect_err("the fold stops").to_string();
        let expected = "--fold: line 3: JSON error at byte 0: expected a JSON value";
        assert_eq!(err, expected);
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
        // Through a buffer of a few bytes every line straddles refills.
        let tiny = BufReader::with_capacity(7, std::fs::File::open(&whole).expect("stream"));
        let folded_tiny = path("tiny.json");
        watch(
            tiny,
            &request(&whole, &folded_tiny, true),
            &mut Vec::new(),
            None,
        )
        .expect("tiny");

        // The producer has written half the stream, cut mid-line, when the
        // tail starts; the rest lands during the first idle poll.
        let cut = stream.len() / 2;
        assert_ne!(stream[cut - 1], b'\n', "the cut must split a line");
        std::fs::write(&live, &stream[..cut]).expect("first half");
        let mut rest = Some(&stream[cut..]);
        let mut out = Vec::new();
        let input = BufReader::with_capacity(7, std::fs::File::open(&live).expect("live stream"));
        let mut second_half = || {
            if let Some(rest) = rest.take() {
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&live)
                    .expect("live stream");
                file.write_all(rest).expect("second half");
            }
        };
        let request = request(&live, &folded_tail, false);
        watch(input, &request, &mut out, Some(&mut second_half))
            .expect("tail follows the stream to its end record");
        assert!(rest.is_none(), "the tail went idle on the partial line");
        let out = String::from_utf8(out).expect("utf8");
        assert!(out.contains("stream ended"), "{out}");

        let read = |path: &str| std::fs::read_to_string(path).expect(path);
        assert_eq!(read(&folded_tail), read(&folded_once));
        assert_eq!(read(&folded_tail), read(&batch));
        assert_eq!(read(&folded_tiny), read(&batch));
        for file in [batch, whole, live, folded_once, folded_tail, folded_tiny] {
            let _ = std::fs::remove_file(file);
        }
    }
}
