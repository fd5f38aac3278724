//! In-memory span recorder: one span around every pass, child process and
//! `bm-layers` call, written out as NDJSON when the benchmark ends.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub workload: String,
    pub pass: String,
}

/// Records nothing unless tracing is on, so untraced runs pay one branch.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: String,
    pass: String,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: String::new(),
            pass: String::new(),
        }
    }

    /// Labels stamped on every span recorded from now on.
    pub fn label(&mut self, workload: &str, pass: &str) {
        self.workload = workload.to_string();
        self.pass = pass.to_string();
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; everything recorded until `close` is its child.
    pub fn open(&mut self, name: &str) {
        if self.enabled {
            let index = self.push(name, Instant::now(), Instant::now());
            self.open.push(index);
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a finished span under the innermost open one and returns
    /// its index, or `None` when tracing is off.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) -> Option<usize> {
        self.enabled.then(|| self.push(name, start, end))
    }

    /// Records a span measured by another process: `start_ns..end_ns` are
    /// relative to the start of the already recorded span `parent`.
    pub fn record_within(&mut self, parent: usize, name: &str, start_ns: u64, end_ns: u64) {
        let base = self.spans[parent].start_ns;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: base + start_ns,
            end_ns: base + end_ns,
            parent: Some(parent),
            workload: self.workload.clone(),
            pass: self.pass.clone(),
        });
    }

    fn push(&mut self, name: &str, start: Instant, end: Instant) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
            pass: self.pass.clone(),
        });
        self.spans.len() - 1
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line; `id` is the line's index, `parent` an
    /// earlier `id` or null.
    pub fn write_ndjson(&self, out: &mut dyn Write) -> std::io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":{},\"pass\":{}}}",
                quote(&span.name),
                span.start_ns,
                span.end_ns,
                quote(&span.workload),
                quote(&span.pass),
            )?;
        }
        out.flush()
    }
}

/// `text` as a JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn parents_follow_the_open_stack() {
        let mut rec = Recorder::new(true);
        rec.label("w", "timed-1");
        rec.open("pass");
        let now = Instant::now();
        let child = rec.record("cmd", now, now).expect("tracing is on");
        rec.record_within(child, "call", 5, 9);
        rec.open("inner");
        rec.record("deep", now, now);
        rec.close();
        rec.close();
        rec.record("after", now, now);
        let parents: Vec<_> = rec
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            parents,
            [
                ("pass", None),
                ("cmd", Some(0)),
                ("call", Some(1)),
                ("inner", Some(0)),
                ("deep", Some(3)),
                ("after", None)
            ]
        );
        let (cmd, call) = (&rec.spans()[1], &rec.spans()[2]);
        assert_eq!(
            (call.start_ns, call.end_ns),
            (cmd.start_ns + 5, cmd.start_ns + 9)
        );
        assert!(rec.spans()[0].end_ns >= rec.spans()[3].end_ns);
    }

    #[test]
    fn disabled_recorder_stays_empty() {
        let mut rec = Recorder::new(false);
        rec.open("pass");
        assert_eq!(rec.record("cmd", Instant::now(), Instant::now()), None);
        rec.close();
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn ndjson_lines_parse_back() {
        let mut rec = Recorder::new(true);
        rec.label("mot-serial", "traced");
        rec.open("pass \"1\"\n");
        let now = Instant::now();
        rec.record("asynoc run", now, now);
        rec.close();
        let mut bytes = Vec::new();
        rec.write_ndjson(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<Value> = text.lines().map(|l| Value::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0].get("name").and_then(Value::as_str),
            Some("pass \"1\"\n")
        );
        assert_eq!(lines[0].get("parent"), Some(&Value::Null));
        assert_eq!(lines[1].num("parent"), Ok(0.0));
        assert_eq!(
            lines[1].get("workload").and_then(Value::as_str),
            Some("mot-serial")
        );
        assert_eq!(lines[1].get("pass").and_then(Value::as_str), Some("traced"));
        assert!(lines[1].num("end_ns").unwrap() >= lines[1].num("start_ns").unwrap());
    }
}
