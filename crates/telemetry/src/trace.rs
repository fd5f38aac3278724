//! Substrate-neutral trace records with NDJSON import/export.
//!
//! A [`TraceRecord`] is the flat, serializable form of one flit action.
//! Every substrate produces them the same way — a run's
//! [`Recorder`](crate::Recorder) builds one per engine event — so one
//! parser round-trips traces from any simulator. A
//! record is typed and `Copy`: where it happened is a [`Site`], what
//! happened an [`Action`], how a [`Detail`]; text exists only in
//! [`TraceRecord::write_ndjson`] and in the line reader.
//!
//! Beyond the original identity fields (time, packet, flit, site, action),
//! a record carries the causal context offline analysis needs: the
//! packet's creation time and logical id (for exact latency
//! reconstruction), its source and destination count, the number of
//! copies the event created, and how long the node stayed busy servicing
//! it. A trace file may open with one [`TraceMeta`] line (tagged
//! [`TRACE_SCHEMA`]) describing the run that produced it — window bounds
//! and energy constants — so `asynoc analyze` can reconcile its findings
//! with the metrics report of the same run.

use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::str::FromStr;

use asynoc_kernel::FaultClass;
use asynoc_packet::RouteSymbol;

use crate::json::{exact_u64, write_digits, write_u64, JsonError, JsonValue, Scanner};
use crate::recorder::RecordSink;
use crate::site::{coordinate, Site};
use crate::writer::WriterThread;

/// Schema tag carried by a trace file's leading meta line.
pub const TRACE_SCHEMA: &str = "asynoc-trace-v2";

/// What happened to a flit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// A source launched it into the network (`inject`).
    Inject,
    /// A node forwarded or replicated it (`forward`).
    Forward,
    /// A node killed a redundant speculative copy (`throttle`).
    Throttle,
    /// A sink consumed it (`deliver`).
    Deliver,
    /// A fault-injection hook fired on it (`fault`; the record's detail
    /// is the class). Token-neutral: faults annotate a flit's tree, they
    /// never create or consume copies.
    Fault,
}

impl Action {
    /// Every action, in lifecycle order.
    pub const ALL: [Action; 5] = [
        Action::Inject,
        Action::Forward,
        Action::Throttle,
        Action::Deliver,
        Action::Fault,
    ];

    /// The name trace records carry (also the `Display` form).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Action::Inject => "inject",
            Action::Forward => "forward",
            Action::Throttle => "throttle",
            Action::Deliver => "deliver",
            Action::Fault => "fault",
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Action {
    type Err = String;

    fn from_str(label: &str) -> Result<Action, String> {
        Action::ALL
            .into_iter()
            .find(|action| action.label() == label)
            .ok_or_else(|| {
                format!("{label:?} is not an action (inject, forward, throttle, deliver or fault)")
            })
    }
}

/// How an action went: the vocabulary the engine's `ForwardInfo` and
/// fault events close.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Detail {
    /// Nothing to add (the empty string).
    None,
    /// The symbol a routing node followed (`drop`, `top`, `bottom`, `both`).
    Routed(RouteSymbol),
    /// The input an arbitrating node granted (`input{N}`).
    Input(usize),
    /// The class of an injected fault (`link-stall`, …).
    Fault(FaultClass),
}

impl Detail {
    fn write_to<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        match self {
            Detail::None => Ok(()),
            Detail::Routed(symbol) => out.write_str(symbol.label()),
            Detail::Input(input) => {
                out.write_str("input")?;
                write_digits(out, input as u64)
            }
            Detail::Fault(class) => out.write_str(class.label()),
        }
    }
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl FromStr for Detail {
    type Err = String;

    fn from_str(label: &str) -> Result<Detail, String> {
        if label.is_empty() {
            return Ok(Detail::None);
        }
        let input = label.strip_prefix("input").and_then(coordinate);
        let symbol = RouteSymbol::ALL.into_iter().find(|s| s.label() == label);
        input
            .map(Detail::Input)
            .or_else(|| symbol.map(Detail::Routed))
            .or_else(|| FaultClass::parse(label).map(Detail::Fault))
            .ok_or_else(|| {
                format!(
                    "{label:?} is not a detail (empty, a route symbol, input{{N}} or a fault class)"
                )
            })
    }
}

/// One flit action in substrate-neutral form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time, picoseconds.
    pub t_ps: u64,
    /// Raw packet identifier.
    pub packet: u64,
    /// The logical packet this one belongs to (serial-multicast clones
    /// share it; otherwise equal to `packet`).
    pub logical: u64,
    /// Flit index within the packet (0 = header).
    pub flit: u8,
    /// The packet's injecting source.
    pub src: u64,
    /// Number of destinations the packet targets.
    pub dests: u64,
    /// The packet's creation time (entry into the source queue), ps.
    pub created_ps: u64,
    /// Where it happened.
    pub site: Site,
    /// What happened.
    pub action: Action,
    /// Action detail: route symbol, winning arbitration input, fault
    /// class.
    pub detail: Detail,
    /// Copies the event put in flight: 1 for an injection, the fanout
    /// width for a forward (2 at replication/speculation points), 0 for
    /// a throttle or delivery (both consume without creating).
    pub copies: u8,
    /// How long the site stayed occupied servicing this event, ps (0
    /// where the substrate reports none, e.g. injections/deliveries).
    pub busy_ps: u64,
}

impl TraceRecord {
    /// Renders the record as one NDJSON line (no trailing newline).
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut line = String::new();
        self.write_ndjson(&mut line);
        line
    }

    /// Appends the record's JSON object to `out`: the only spelling of a
    /// trace record, whether it ends up a line of a trace file or the
    /// `record` member of a stream's `trace` line. Member names are
    /// literals and every integer is written digit by digit, so ids and
    /// times past 2^53 keep every bit, as [`from_ndjson`] reads them; no
    /// label of the grammar holds a byte JSON escapes.
    ///
    /// [`from_ndjson`]: TraceRecord::from_ndjson
    pub fn write_ndjson(&self, out: &mut String) {
        let uint = |out: &mut String, member: &str, value: u64| {
            out.push_str(member);
            write_u64(out, value);
        };
        uint(out, "{\"t_ps\":", self.t_ps);
        uint(out, ",\"packet\":", self.packet);
        uint(out, ",\"logical\":", self.logical);
        uint(out, ",\"flit\":", u64::from(self.flit));
        uint(out, ",\"src\":", self.src);
        uint(out, ",\"dests\":", self.dests);
        uint(out, ",\"created_ps\":", self.created_ps);
        out.push_str(",\"site\":\"");
        // Writing to a `String` cannot fail.
        let _ = self.site.write_to(out);
        out.push_str("\",\"action\":\"");
        out.push_str(self.action.label());
        out.push_str("\",\"detail\":\"");
        let _ = self.detail.write_to(out);
        uint(out, "\",\"copies\":", u64::from(self.copies));
        uint(out, ",\"busy_ps\":", self.busy_ps);
        out.push('}');
    }

    /// Parses one NDJSON line back into a record.
    ///
    /// The causal fields introduced by [`TRACE_SCHEMA`] (`logical`, `src`,
    /// `dests`, `created_ps`, `copies`, `busy_ps`) are optional, so v1
    /// traces still parse: `logical` defaults to `packet` and the rest
    /// to zero. Integer fields are read exactly: a negative, fractional
    /// or too-large value is an error, never a silently clamped number —
    /// and so is a `site`, `action` or `detail` outside its grammar.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the offending field if the line is
    /// not a JSON object with the expected fields.
    pub fn from_ndjson(line: &str) -> Result<TraceRecord, JsonError> {
        Fields::scan(line)?.record.record().map_err(field_error)
    }
}

/// The run context a trace file's leading meta line records: enough for
/// an offline analyzer to reproduce the measurement window gating and
/// price speculation waste with the run's own energy constants.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceMeta {
    /// Which fabric produced the trace (`"mot"` or `"mesh"`).
    pub substrate: String,
    /// Network architecture (MoT only).
    pub arch: Option<String>,
    /// Network size (endpoints per side).
    pub size: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Flits per packet.
    pub flits: u8,
    /// Offered load, flits/ns per source.
    pub rate: f64,
    /// Warmup window, ps.
    pub warmup_ps: u64,
    /// Measurement window, ps.
    pub measure_ps: u64,
    /// Wire launch energy, fJ (MoT only).
    pub wire_fj: Option<f64>,
    /// Drop-acknowledge energy, fJ (MoT only).
    pub drop_fj: Option<f64>,
    /// Events the collector could not record because its limit was hit;
    /// nonzero means span trees may be truncated.
    pub dropped_events: u64,
}

impl TraceMeta {
    /// Returns `true` when `created_ps` falls inside the measurement
    /// window `[warmup, warmup + measure)` — the same gate the latency
    /// and waste collectors apply.
    #[must_use]
    pub fn in_measurement(&self, t_ps: u64) -> bool {
        t_ps >= self.warmup_ps && t_ps < self.warmup_ps + self.measure_ps
    }

    /// Renders the meta line (no trailing newline).
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let opt_num = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Number);
        JsonValue::Object(vec![
            ("schema".to_string(), JsonValue::str(TRACE_SCHEMA)),
            (
                "substrate".to_string(),
                JsonValue::str(self.substrate.clone()),
            ),
            (
                "arch".to_string(),
                self.arch
                    .as_ref()
                    .map_or(JsonValue::Null, |a| JsonValue::str(a.clone())),
            ),
            ("size".to_string(), JsonValue::uint(self.size)),
            ("seed".to_string(), JsonValue::uint(self.seed)),
            ("flits".to_string(), JsonValue::uint(u64::from(self.flits))),
            ("rate_gfs".to_string(), JsonValue::Number(self.rate)),
            ("warmup_ps".to_string(), JsonValue::uint(self.warmup_ps)),
            ("measure_ps".to_string(), JsonValue::uint(self.measure_ps)),
            ("wire_fj".to_string(), opt_num(self.wire_fj)),
            ("drop_fj".to_string(), opt_num(self.drop_fj)),
            (
                "dropped_events".to_string(),
                JsonValue::uint(self.dropped_events),
            ),
        ])
        .render()
    }

    /// Parses a meta line (an object whose `schema` field is
    /// [`TRACE_SCHEMA`]).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the offending field on mismatch.
    pub fn from_ndjson(line: &str) -> Result<TraceMeta, JsonError> {
        let meta = Fields::scan(line)?.meta.unwrap_or_default();
        meta.meta().map_err(field_error)
    }
}

/// A field-level complaint about a line that was well-formed JSON.
fn field_error(message: String) -> JsonError {
    JsonError { at: 0, message }
}

/// What a line held under one key the readers know. Numbers stay tokens
/// until the line is known to be a record or a meta line, and with it
/// the width each one must fit.
#[derive(Default)]
enum Slot<'a> {
    #[default]
    Missing,
    Number(&'a str),
    Text(Cow<'a, str>),
    /// Neither a number nor a string.
    Other,
}

impl<'a> Slot<'a> {
    /// Takes the member's value. Only the first occurrence of a key
    /// counts, as in [`JsonValue::get`]; later ones are validated only.
    fn fill(&mut self, scanner: &mut Scanner<'a>) -> Result<(), JsonError> {
        *self = match (&*self, scanner.peek()) {
            (Slot::Missing, Some(b'-' | b'0'..=b'9')) => Slot::Number(scanner.number()?),
            (Slot::Missing, Some(b'"')) => Slot::Text(scanner.string()?),
            (Slot::Missing, _) => {
                scanner.skip_value()?;
                Slot::Other
            }
            _ => return scanner.skip_value(),
        };
        Ok(())
    }

    /// The field as an exact unsigned integer of width `T`; `default`
    /// stands in for an absent optional field.
    fn uint<T: TryFrom<u64>>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match *self {
            Slot::Missing => default.ok_or_else(|| format!("missing field {key:?}")),
            Slot::Number(token) => exact_u64(token)
                .and_then(|v| T::try_from(v).ok())
                .ok_or_else(|| {
                    let width = std::any::type_name::<T>();
                    format!("field {key:?}: {token} does not fit {width}")
                }),
            _ => Err(format!("field {key:?} is not a number")),
        }
    }

    fn float(&self, key: &str) -> Result<f64, String> {
        match *self {
            Slot::Missing => return Err(format!("missing field {key:?}")),
            Slot::Number(token) => token.parse().ok(),
            _ => None,
        }
        .ok_or_else(|| format!("field {key:?} is not a number"))
    }

    fn text(self, key: &str) -> Result<String, String> {
        self.label(key, |text| Ok(text.to_string()))
    }

    /// The field as a label of one of the record's closed grammars.
    fn label<T>(
        self,
        key: &str,
        read: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        match self {
            Slot::Missing => Err(format!("missing field {key:?}")),
            Slot::Text(text) => read(&text).map_err(|reason| format!("field {key:?}: {reason}")),
            _ => Err(format!("field {key:?} is not a string")),
        }
    }
}

/// Declares a struct of one [`Slot`] per key, found by the key's name.
macro_rules! fields {
    ($name:ident: $($key:ident)*) => {
        #[derive(Default)]
        struct $name<'a> {
            $($key: Slot<'a>,)*
        }

        impl<'a> $name<'a> {
            fn slot(&mut self, key: &str) -> Option<&mut Slot<'a>> {
                match key {
                    $(stringify!($key) => Some(&mut self.$key),)*
                    _ => None,
                }
            }
        }
    };
}

fields! {
    RecordFields:
    t_ps packet logical flit src dests created_ps site action detail copies busy_ps
}
fields! {
    MetaFields:
    schema substrate arch size seed flits rate_gfs warmup_ps measure_ps wire_fj drop_fj
    dropped_events
}

/// Every member of one trace line that a record or a meta line can
/// carry, filled in a single pass over the line. The two key sets are
/// disjoint, and a meta line is any object with a `schema` member, so
/// which of the two the line is falls out of the same pass. Meta lines
/// are one in a file: their slots exist only once a key that is not a
/// record's turns up.
#[derive(Default)]
struct Fields<'a> {
    record: RecordFields<'a>,
    meta: Option<Box<MetaFields<'a>>>,
}

impl<'a> Fields<'a> {
    /// Scans one non-blank line: any JSON value is accepted here, and
    /// one that is not an object simply has no fields.
    fn scan(line: &'a str) -> Result<Fields<'a>, JsonError> {
        let mut scanner = Scanner::new(line);
        let mut fields = Fields::default();
        if scanner.peek() != Some(b'{') {
            scanner.skip_value()?;
        } else {
            let mut more = scanner.open(b'{', b'}')?;
            while more {
                let key = scanner.key()?;
                let slot = match fields.record.slot(&key) {
                    Some(slot) => Some(slot),
                    None => fields.meta.get_or_insert_with(Box::default).slot(&key),
                };
                match slot {
                    Some(slot) => slot.fill(&mut scanner)?,
                    None => scanner.skip_value()?,
                }
                more = scanner.more(b'}')?;
            }
        }
        scanner.end()?;
        Ok(fields)
    }
}

impl RecordFields<'_> {
    fn record(self) -> Result<TraceRecord, String> {
        let packet = self.packet.uint("packet", None)?;
        Ok(TraceRecord {
            t_ps: self.t_ps.uint("t_ps", None)?,
            packet,
            logical: self.logical.uint("logical", Some(packet))?,
            flit: self.flit.uint("flit", None)?,
            src: self.src.uint("src", Some(0))?,
            dests: self.dests.uint("dests", Some(0))?,
            created_ps: self.created_ps.uint("created_ps", Some(0))?,
            site: self.site.label("site", str::parse)?,
            action: self.action.label("action", str::parse)?,
            detail: self.detail.label("detail", str::parse)?,
            copies: self.copies.uint("copies", Some(0))?,
            busy_ps: self.busy_ps.uint("busy_ps", Some(0))?,
        })
    }
}

impl MetaFields<'_> {
    fn meta(self) -> Result<TraceMeta, String> {
        match &self.schema {
            Slot::Text(schema) if schema == TRACE_SCHEMA => {}
            Slot::Text(schema) => {
                return Err(format!(
                    "field \"schema\" is {schema:?}, expected {TRACE_SCHEMA:?}"
                ))
            }
            _ => return Err("missing field \"schema\"".to_string()),
        }
        // A null or mistyped optional member reads as absent.
        let dropped_events = match self.dropped_events {
            Slot::Missing | Slot::Number(_) => {
                self.dropped_events.uint("dropped_events", Some(0))?
            }
            _ => 0,
        };
        Ok(TraceMeta {
            substrate: self.substrate.text("substrate")?,
            arch: self.arch.text("arch").ok(),
            size: self.size.uint("size", None)?,
            seed: self.seed.uint("seed", None)?,
            flits: self.flits.uint("flits", None)?,
            rate: self.rate_gfs.float("rate_gfs")?,
            warmup_ps: self.warmup_ps.uint("warmup_ps", None)?,
            measure_ps: self.measure_ps.uint("measure_ps", None)?,
            wire_fj: self.wire_fj.float("wire_fj").ok(),
            drop_fj: self.drop_fj.float("drop_fj").ok(),
            dropped_events,
        })
    }
}

/// A malformed NDJSON trace line: the 1-based line number and a message
/// naming the offending field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the malformed line.
    pub line: usize,
    /// What was wrong (includes the offending field's name when known).
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// One well-formed line of a trace document.
#[derive(Debug, PartialEq)]
pub enum TraceLine {
    /// A blank line.
    Blank,
    /// The meta line.
    Meta(TraceMeta),
    /// A record.
    Record(TraceRecord),
}

/// A reader of exactly what [`TraceRecord::write_ndjson`] writes (ASCII:
/// member names in its order, digits, labels without escapes). Any other
/// byte is `None`, no verdict: the line goes to the general reader, the
/// one definition of what a line may hold and what is wrong with one.
struct Exact<'a>(&'a [u8]);

impl Exact<'_> {
    fn eat(&mut self, literal: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(literal.as_bytes())?;
        Some(())
    }

    /// `member`, then digits: their value, if it fits.
    fn uint(&mut self, member: &str) -> Option<u64> {
        self.eat(member)?;
        let digits = self.0.iter().take_while(|b| b.is_ascii_digit()).count();
        let (number, rest) = self.0.split_at(digits);
        self.0 = rest;
        let value = |v: u64, d: &u8| v.checked_mul(10)?.checked_add(u64::from(d - b'0'));
        number.iter().try_fold(0, value).filter(|_| digits > 0)
    }

    /// `member`, then a label read in its grammar, which holds no `\`.
    fn label<T: FromStr>(&mut self, member: &str) -> Option<T> {
        self.eat(member)?;
        let end = self.0.iter().position(|&b| b == b'"')?;
        let label = std::str::from_utf8(&self.0[..end]).ok()?;
        self.0 = &self.0[end + 1..];
        label.parse().ok()
    }

    fn record(&mut self) -> Option<TraceRecord> {
        let record = TraceRecord {
            t_ps: self.uint("{\"t_ps\":")?,
            packet: self.uint(",\"packet\":")?,
            logical: self.uint(",\"logical\":")?,
            flit: self.uint(",\"flit\":")?.try_into().ok()?,
            src: self.uint(",\"src\":")?,
            dests: self.uint(",\"dests\":")?,
            created_ps: self.uint(",\"created_ps\":")?,
            site: self.label(",\"site\":\"")?,
            action: self.label(",\"action\":\"")?,
            detail: self.label(",\"detail\":\"")?,
            copies: self.uint(",\"copies\":")?.try_into().ok()?,
            busy_ps: self.uint(",\"busy_ps\":")?,
        };
        self.eat("}").map(|()| record)
    }

    /// Whether only a line end is left: `\n`, `\r\n` or none, never a
    /// Unicode space (JSON whitespace is these, `' '` and `\t`).
    fn at_line_end(&self) -> bool {
        matches!(self.0, b"" | b"\n" | b"\r\n")
    }
}

/// The record of a `line` spelled as [`TraceRecord::write_ndjson`] spells it.
fn exact_record(line: &[u8]) -> Option<TraceRecord> {
    let mut exact = Exact(line);
    exact.record().filter(|_| exact.at_line_end())
}

/// Whether `line` is a stream's `trace` line as its writer spells one:
/// `{"type":"trace","seq":N,"record":R}`, `R` as [`exact_record`] reads it.
pub(crate) fn exact_trace_line(line: &[u8]) -> bool {
    let mut exact = Exact(line);
    let wrapped = exact.uint("{\"type\":\"trace\",\"seq\":").is_some()
        && exact.eat(",\"record\":").is_some()
        && exact.record().is_some()
        && exact.eat("}").is_some();
    wrapped && exact.at_line_end()
}

/// Reads one line: what our writer wrote in one pass over its bytes,
/// anything else with [`general_line`].
pub(crate) fn parse_line(line: &str) -> Result<TraceLine, String> {
    match exact_record(line.as_bytes()) {
        Some(record) => Ok(TraceLine::Record(record)),
        None => general_line(line),
    }
}

/// Reads one line with the general scanner. A syntax error keeps its byte
/// offset in the message; a field error names the field. A blank line
/// holds nothing but JSON whitespace.
fn general_line(line: &str) -> Result<TraceLine, String> {
    if Scanner::new(line).peek().is_none() {
        return Ok(TraceLine::Blank);
    }
    let fields = Fields::scan(line).map_err(|e| e.to_string())?;
    match fields.meta {
        Some(meta) if !matches!(meta.schema, Slot::Missing) => meta.meta().map(TraceLine::Meta),
        _ => fields.record.record().map(TraceLine::Record),
    }
}

/// Parses an NDJSON trace document held in memory: an optional leading
/// [`TraceMeta`] line, then one record per line (blank lines ignored).
///
/// # Errors
///
/// Returns a [`TraceParseError`] carrying the 1-based line number and the
/// offending field (or, for malformed JSON, the byte offset) of the first
/// malformed line.
pub fn parse_trace(text: &str) -> Result<(Option<TraceMeta>, Vec<TraceRecord>), TraceParseError> {
    let (meta, records, mut errors) = match read_trace(text.as_bytes(), false) {
        Ok(read) => read,
        // A `&str` is UTF-8 and reading it cannot fail.
        Err(e) => unreachable!("reading a string failed: {e}"),
    };
    errors.pop().map_or(Ok((meta, records)), Err)
}

/// Reads an NDJSON trace document from `input` one line at a time, as
/// [`parse_trace`] reads one in memory: returns the meta (if any), the
/// records, and the malformed lines. The first malformed line ends the
/// read and is the one error returned, unless `lenient`, which skips
/// every malformed line and reads on (`asynoc analyze --lenient`).
///
/// # Errors
///
/// Returns the I/O error of `input`, or [`io::ErrorKind::InvalidData`]
/// for a line that is not UTF-8, whether `lenient` or not.
pub fn read_trace(
    input: impl BufRead,
    lenient: bool,
) -> io::Result<(Option<TraceMeta>, Vec<TraceRecord>, Vec<TraceParseError>)> {
    let (mut meta, mut records) = (None, Vec::new());
    let errors = visit_trace(input, lenient, |line| match line {
        TraceLine::Blank => {}
        TraceLine::Meta(m) => meta = Some(m),
        TraceLine::Record(record) => records.push(record),
    })?;
    Ok((meta, records, errors))
}

/// [`read_trace`], handing each well-formed line to `visit` as it is read
/// instead of keeping the records: beside `input`'s buffer it holds a line
/// that straddles a refill. Returns the malformed lines.
///
/// # Errors
///
/// As [`read_trace`].
pub fn visit_trace(
    mut input: impl BufRead,
    lenient: bool,
    mut visit: impl FnMut(TraceLine),
) -> io::Result<Vec<TraceParseError>> {
    let (mut errors, mut line, mut carry) = (Vec::new(), 0, Vec::new());
    loop {
        let buf = input.fill_buf()?;
        let (text, used) = match line_len(buf) {
            Some(len) if carry.is_empty() => (&buf[..len], len),
            Some(len) => {
                carry.extend_from_slice(&buf[..len]);
                (&carry[..], len)
            }
            None if !buf.is_empty() => {
                carry.extend_from_slice(buf);
                let len = buf.len();
                input.consume(len);
                continue;
            }
            // The input's last line, without a `\n`.
            None if !carry.is_empty() => (&carry[..], 0),
            None => break,
        };
        line += 1;
        // Lines end as `str::lines` ends them: at `\n`, or at `\r\n`.
        let body = text
            .strip_suffix(b"\n")
            .map_or(text, |b| b.strip_suffix(b"\r").unwrap_or(b));
        let parsed = match exact_record(text) {
            Some(record) => Ok(TraceLine::Record(record)),
            // In the words of `BufRead::read_line`.
            None => parse_line(std::str::from_utf8(body).map_err(|_| {
                io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
            })?),
        };
        input.consume(used);
        carry.clear();
        if let Err(message) = parsed.map(&mut visit) {
            errors.push(TraceParseError { line, message });
            if !lenient {
                break;
            }
        }
    }
    Ok(errors)
}

/// The length of the first line of `bytes` through its `\n`, if it has
/// one (`skip_until` over a slice is the standard library's `memchr`).
fn line_len(bytes: &[u8]) -> Option<usize> {
    let mut rest = bytes;
    let len = rest.skip_until(b'\n').ok()?;
    bytes[..len].ends_with(b"\n").then_some(len)
}

/// A bounded record sink keeping the [`TraceRecord`]s of every phase of
/// a run.
pub struct TraceCollector {
    limit: usize,
    records: Vec<TraceRecord>,
    dropped: u64,
}

impl TraceCollector {
    /// Collects up to `limit` records.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        TraceCollector {
            limit,
            records: Vec::with_capacity(limit.min(4096)),
            dropped: 0,
        }
    }

    /// The records collected so far.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Events not recorded because the limit was reached; nonzero means
    /// downstream span-tree analysis will see truncated trees.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the collector, returning its records.
    #[must_use]
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl RecordSink for TraceCollector {
    fn on_record(&mut self, record: &TraceRecord, _in_window: bool) {
        if self.records.len() >= self.limit {
            self.dropped += 1;
            return;
        }
        self.records.push(*record);
    }
}

/// The bytes a capped [`TraceFile`] moves per read and write when it
/// makes room for its final meta line.
const SHIFT_CHUNK: usize = 64 * 1024;

/// A record sink writing a trace file as the run goes (`--trace-out`):
/// the meta line first, then every record's line, written by the file's
/// own thread (`src/writer.rs`), which drains into the file whenever
/// its text passes 64 KiB. The run's thread keeps the limit and hands the
/// records over in batches; neither holds the trace.
///
/// Every meta field but `dropped_events` is known before the run, so the
/// meta line goes first with a count of 0, and an uncapped trace is
/// written front to back. A capped one learns its count at the end:
/// [`finish`](TraceFile::finish) then moves the body right by the
/// count's extra digits, in place and tail first, and rewrites the meta
/// line at offset 0. The bytes are those of the final meta line followed
/// by each record's [`TraceRecord::write_ndjson`] line.
///
/// As in a [`StreamSink`](crate::StreamSink), the record path cannot
/// fail: the first write error is held for `finish`.
pub struct TraceFile {
    writer: WriterThread<BufWriter<File>>,
    meta: TraceMeta,
    /// Where the body starts: the length of the meta line as written.
    body: u64,
}

impl TraceFile {
    /// Writes `meta`'s line, with `dropped_events` 0, to `file` and
    /// returns the sink, ready to write up to `limit` records.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the meta line cannot be written or the
    /// writer thread cannot be started.
    pub fn new(file: File, meta: TraceMeta, limit: usize) -> io::Result<TraceFile> {
        let meta = TraceMeta {
            dropped_events: 0,
            ..meta
        };
        let line = meta.to_ndjson() + "\n";
        let mut out = BufWriter::new(file);
        out.write_all(line.as_bytes())?;
        Ok(TraceFile {
            writer: WriterThread::spawn(out, limit)?,
            meta,
            body: line.len() as u64,
        })
    }

    /// Writes the rest of the trace and, when the limit dropped events,
    /// has the meta line say how many.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error of the run or of this last write. A
    /// capped trace whose file is not a regular one (a pipe, a terminal)
    /// cannot have its meta line rewritten: that is an
    /// [`io::ErrorKind::Unsupported`] error.
    pub fn finish(self) -> io::Result<()> {
        let dropped = self.writer.dropped();
        let mut file = self
            .writer
            .finish()?
            .into_inner()
            .map_err(io::IntoInnerError::into_error)?;
        if dropped == 0 {
            return Ok(());
        }
        if !file.metadata()?.is_file() {
            return Err(io::Error::new(
                ErrorKind::Unsupported,
                format!(
                    "the limit dropped {dropped} event(s), and only a regular file can have its \
                     meta line rewritten to say so"
                ),
            ));
        }
        let line = TraceMeta {
            dropped_events: dropped,
            ..self.meta
        }
        .to_ndjson()
            + "\n";
        shift_right(&mut file, self.body, line.len() as u64 - self.body)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(line.as_bytes())
    }
}

impl RecordSink for TraceFile {
    fn on_record(&mut self, record: &TraceRecord, _in_window: bool) {
        self.writer.record(record, None);
    }
}

/// Moves the bytes of `file` from offset `from` to its end `by` bytes
/// right, a chunk at a time from the tail, so no chunk is overwritten
/// before it is read.
fn shift_right(file: &mut File, from: u64, by: u64) -> io::Result<()> {
    if by == 0 {
        return Ok(());
    }
    let mut chunk = vec![0; SHIFT_CHUNK];
    let mut end = file.metadata()?.len();
    while end > from {
        let start = end.saturating_sub(SHIFT_CHUNK as u64).max(from);
        let bytes = &mut chunk[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(bytes)?;
        file.seek(SeekFrom::Start(start + by))?;
        file.write_all(bytes)?;
        end = start;
    }
    Ok(())
}

#[cfg(test)]
impl TraceRecord {
    /// The header of single-flit unicast packet 0 injected at source 0 at
    /// time zero: the literal collector tests vary.
    pub(crate) const INJECT: TraceRecord = TraceRecord {
        t_ps: 0,
        packet: 0,
        logical: 0,
        flit: 0,
        src: 0,
        dests: 1,
        created_ps: 0,
        site: Site::Source(0),
        action: Action::Inject,
        detail: Detail::None,
        copies: 1,
        busy_ps: 0,
    };

    /// Record lines at the edges of what our writer spells, bare or (`wrap`)
    /// as a stream's `trace` lines: numbers it never writes, a member out of
    /// its place, twice or missing, an escaped label, a raw tab in one, and
    /// after the closing brace a line end, JSON whitespace, junk or a Unicode
    /// space (alone on a line, too).
    pub(crate) fn edge_lines(wrap: bool) -> Vec<String> {
        let record = TraceRecord {
            t_ps: 1407,
            flit: 2,
            site: Site::Fanout {
                tree: 2,
                level: 0,
                index: 1,
            },
            action: Action::Forward,
            detail: Detail::Routed(RouteSymbol::Both),
            copies: 2,
            busy_ps: 52,
            ..TraceRecord::INJECT
        }
        .to_ndjson();
        let t_ps = |value: &str| record.replacen("1407", value, 1);
        let mut bodies = vec![
            record.clone(),
            t_ps("01407"),
            t_ps("18446744073709551615"),
            t_ps("18446744073709551616"),
            t_ps("-0"),
            t_ps("1.0"),
            t_ps("1e3"),
            t_ps(""),
            record.replacen("\"flit\":2", "\"flit\":300", 1),
            record.replacen("\"copies\":2", "\"copies\":256", 1),
            record.replacen("\"both\"", "\"bo\tth\"", 1),
            record.replacen("\"fo[s2:0.1]\"", "\"\\u0066o[s2:0.1]\"", 1),
            record.replacen("\"fo[s2:0.1]\"", "\"fo[s2:0.1\\\"]\"", 1),
            record.replacen("\"forward\"", "\"forw\u{e4}rd\"", 1),
            record.replacen(
                "\"t_ps\":1407,\"packet\":0",
                "\"packet\":0,\"t_ps\":1407",
                1,
            ),
            record.replacen('}', ",\"t_ps\":9}", 1),
            record.replacen(",\"busy_ps\":52", "", 1),
            record.replacen(',', " ,", 1),
            record.replacen(':', " :", 1),
        ];
        if wrap {
            let wrapped = |seq: &str, record: &str| {
                format!("{{\"type\":\"trace\",\"seq\":{seq},\"record\":{record}}}")
            };
            bodies = bodies.iter().map(|body| wrapped("7", body)).collect();
            for seq in ["07", "-1", "1.0", "18446744073709551616", ""] {
                bodies.push(wrapped(seq, &record));
            }
            let line = bodies[0].clone();
            bodies.push(line.replacen("\"seq\":7,", "", 1));
            bodies.push(line.replacen("{\"type\":\"trace\",", "{\"type\" : \"trace\",", 1));
            bodies.push(line.replacen(
                "{\"type\":\"trace\",\"seq\":7,",
                "{\"seq\":7,\"type\":\"trace\",",
                1,
            ));
            bodies.push(format!("{}{}", &line[..line.len() - 1], ",\"x\":1}"));
        }
        let mut lines = bodies.clone();
        let tails = [
            "\n", "\r\n", "\r", " ", "\t", " x", "}", "\0", "\u{a0}", "\u{85}", "\u{2028}",
            "\u{3000}",
        ];
        for tail in tails {
            lines.push(format!("{}{tail}", bodies[0]));
            lines.push(tail.to_string());
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    use asynoc_kernel::SimRng;

    fn record() -> TraceRecord {
        TraceRecord {
            t_ps: 1_500,
            packet: 7,
            logical: 7,
            flit: 0,
            src: 2,
            dests: 3,
            created_ps: 1_200,
            site: Site::Fanout {
                tree: 2,
                level: 0,
                index: 0,
            },
            action: Action::Forward,
            detail: Detail::Routed(RouteSymbol::Both),
            copies: 2,
            busy_ps: 52,
        }
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            substrate: "mot".to_string(),
            arch: Some("BasicHybridSpeculative".to_string()),
            size: 8,
            seed: 42,
            flits: 5,
            rate: 0.3,
            warmup_ps: 40_000,
            measure_ps: 400_000,
            wire_fj: Some(204.0),
            drop_fj: Some(76.0),
            dropped_events: 0,
        }
    }

    #[test]
    fn v1_records_parse_with_defaults() {
        let line = "{\"t_ps\":1500,\"packet\":7,\"flit\":0,\"site\":\"src2\",\
                    \"action\":\"inject\",\"detail\":\"\"}";
        let record = TraceRecord::from_ndjson(line).expect("v1 line parses");
        assert_eq!(record.logical, 7, "logical defaults to packet");
        assert_eq!(record.created_ps, 0);
        assert_eq!(record.copies, 0);
    }

    #[test]
    fn member_order_and_spacing_do_not_matter() {
        // The reader reads the writer's member order in one pass; any
        // other order or spacing goes to the scanner and must cost
        // nothing but time.
        let line = record().to_ndjson();
        let mut members: Vec<&str> = line[1..line.len() - 1].split(',').collect();
        for rotation in 0..members.len() {
            members.rotate_left(1);
            let shuffled = format!("{{{}}}", members.join(","));
            assert_eq!(
                TraceRecord::from_ndjson(&shuffled),
                Ok(record()),
                "{rotation}"
            );
        }
        let spaced = line.replace(',', " , ").replace("\":", "\" : ");
        assert_eq!(TraceRecord::from_ndjson(&spaced), Ok(record()));
        let meta_line = meta().to_ndjson().replace(',', ", ");
        assert_eq!(parse_line(&meta_line), Ok(TraceLine::Meta(meta())));
    }

    #[test]
    fn meta_line_round_trips() {
        let original = meta();
        let line = original.to_ndjson();
        assert_eq!(TraceMeta::from_ndjson(&line), Ok(original.clone()));
        let throttle = TraceRecord {
            action: Action::Throttle,
            detail: Detail::None,
            copies: 0,
            ..record()
        };
        let document = format!(
            "{}\n{}\n{}\n",
            original.to_ndjson(),
            record().to_ndjson(),
            throttle.to_ndjson()
        );
        let (parsed_meta, records) = parse_trace(&document).expect("document parses");
        assert_eq!(parsed_meta, Some(original));
        assert_eq!(records, vec![record(), throttle]);
    }

    #[test]
    fn malformed_lines_report_line_number_and_field() {
        let bad_field = "{\"t_ps\":\"late\",\"packet\":1,\"flit\":0,\
                         \"site\":\"src0\",\"action\":\"inject\",\"detail\":\"\"}";
        for (text, line, field) in [
            (
                format!("{}\n{{\"t_ps\":1}}\n", record().to_ndjson()),
                2,
                "packet",
            ),
            ("not json".to_string(), 1, ""),
            (bad_field.to_string(), 1, "t_ps"),
            (
                "{\"schema\":\"asynoc-trace-v99\"}\n".to_string(),
                1,
                "schema",
            ),
        ] {
            let err = parse_trace(&text).unwrap_err();
            assert_eq!(err.line, line, "{err}");
            assert!(err.message.contains(field), "names the field: {err}");
            assert!(err.to_string().starts_with(&format!("line {line}:")));
        }
    }

    #[test]
    fn lenient_parse_skips_and_counts() {
        let text = format!(
            "{}\nnot json\n{}\n{{\"t_ps\":1}}\n",
            meta().to_ndjson(),
            record().to_ndjson()
        );
        let (parsed_meta, records, errors) = read_trace(text.as_bytes(), true).unwrap();
        assert_eq!(parsed_meta, Some(meta()));
        assert_eq!(records, vec![record()]);
        assert_eq!(errors.len(), 2);
        assert_eq!(errors[0].line, 2);
        assert_eq!(errors[1].line, 4);
    }

    #[test]
    fn out_of_range_integers_are_located_errors() {
        let with = |field: &str| {
            format!(
                "{{\"t_ps\":1,\"packet\":2,{field},\"site\":\"src0\",\
                 \"action\":\"inject\",\"detail\":\"\"}}"
            )
        };
        // Each of these used to come back as a plausible number (255, 0, 1).
        for (members, width) in [
            ("\"flit\":300", "u8"),
            ("\"flit\":0,\"copies\":256", "u8"),
            ("\"flit\":0,\"busy_ps\":-5", "u64"),
            ("\"flit\":0,\"created_ps\":1.7", "u64"),
            ("\"flit\":0,\"src\":1e300", "u64"),
        ] {
            let (name, value) = members
                .rsplit(',')
                .next()
                .and_then(|m| m.split_once(':'))
                .unwrap();
            let text = format!("{}\n{}\n", record().to_ndjson(), with(members));
            let err = parse_trace(&text).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("line 2: field {name}: {value} does not fit {width}")
            );
            assert!(
                reference::record_from_ndjson(&with(members)).is_ok(),
                "{members}"
            );
            // `--lenient` counts the line as skipped.
            let (_, records, errors) = read_trace(text.as_bytes(), true).unwrap();
            assert_eq!((records.len(), errors.len()), (1, 1), "{members}");
        }
        // Ids past 2^53 keep every bit; the cast used to round them.
        let wide = with("\"flit\":0,\"logical\":9007199254740993");
        let exact = TraceRecord::from_ndjson(&wide).expect("wide ids parse");
        assert_eq!(exact.logical, 9_007_199_254_740_993);
        let rounded = reference::record_from_ndjson(&wide).expect("the oracle parses it too");
        assert_eq!(rounded.logical, 9_007_199_254_740_992);
        // Integral values written the long way are still integers.
        let long = TraceRecord::from_ndjson(&with("\"flit\":2.0,\"dests\":1e3"));
        assert_eq!(long.map(|r| (r.flit, r.dests)), Ok((2, 1_000)));
        // The meta line gets the same treatment.
        let bad_meta = meta().to_ndjson().replace("\"flits\":5", "\"flits\":300");
        let err = parse_trace(&bad_meta).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 1: field \"flits\": 300 does not fit u8"
        );
    }

    /// Holds the scanner-based reader to the tree-based one on `line`.
    /// Returns whether the line is one of the intended divergences: the
    /// oracle's casts misread an integer the scanner refuses.
    fn agrees_with_the_oracle(line: &str) -> bool {
        match (reference::trace_line(line), parse_line(line)) {
            (Ok(expected), Ok(got)) if expected == got => false,
            (Err(_), Err(_)) => false,
            (Ok(_), Err(message)) if reference::misreads_an_integer(line) => {
                assert!(message.contains("does not fit"), "{line}: {message}");
                true
            }
            // Exact where the oracle rounded: both are `Ok`, values differ.
            (Ok(_), Ok(_)) if reference::misreads_an_integer(line) => true,
            (expected, got) => panic!("{line}\n oracle: {expected:?}\nscanner: {got:?}"),
        }
    }

    #[test]
    fn scanner_agrees_with_the_tree_reader_on_real_traces() {
        for run in reference::real_runs() {
            let mut lines = 0;
            for line in run.trace.lines() {
                assert!(!agrees_with_the_oracle(line), "{}: {line}", run.name);
                lines += 1;
            }
            // The stream embeds the same records (the faulted run's only
            // copy of them); our writer's rendering is canonical.
            for line in run
                .stream
                .lines()
                .filter(|l| l.contains("\"type\":\"trace\""))
            {
                let value = JsonValue::parse(line).expect("stream lines parse");
                let record = value.get("record").expect("trace lines carry a record");
                assert!(!agrees_with_the_oracle(&record.render()), "{}", run.name);
                lines += 1;
            }
            assert!(lines > 1_000, "{}: only {lines} lines compared", run.name);
            // And the document readers agree with their own line reader.
            let (meta, records) = parse_trace(&run.trace).expect("real traces parse");
            assert_eq!(meta.is_some(), !run.trace.is_empty(), "{}", run.name);
            assert_eq!(records.len(), run.trace.lines().count().saturating_sub(1));
        }
        let faulted = &reference::real_runs()[3].stream;
        assert!(
            faulted.contains("\"action\":\"fault\""),
            "fault records present"
        );
    }

    #[test]
    fn scanner_agrees_with_the_tree_reader_on_a_mutated_corpus() {
        let runs = reference::real_runs();
        let seeds: Vec<&str> = runs
            .iter()
            .flat_map(|run| run.trace.lines().take(40))
            .chain(runs[3].stream.lines().filter(|l| l.contains("fault")))
            .collect();
        let mutants = reference::mutants(&seeds, 12_000, 0x5ca9);
        let (mut lines, mut accepted, mut divergences) = (0, 0, 0);
        // A flipped byte can be a newline: compare line by line, as the
        // document readers will see the mutant.
        for line in mutants.iter().flat_map(|mutant| mutant.lines()) {
            lines += 1;
            divergences += usize::from(agrees_with_the_oracle(line));
            accepted += usize::from(parse_line(line).is_ok());
        }
        assert!(lines >= 10_000, "{lines} lines");
        // The corpus must exercise both verdicts and the intended divergence.
        assert!(accepted > lines / 10, "{accepted} of {lines} accepted");
        assert!(accepted < lines * 9 / 10, "{accepted} of {lines} accepted");
        assert!(divergences > 100, "{divergences} misread integers");
    }

    /// Holds `parse_line` to the general reader alone on `line`: the same
    /// verdict, value and error text. Returns whether the one pass over
    /// our writer's spelling read the line.
    fn exact_agrees_with_general(line: &str) -> bool {
        assert_eq!(parse_line(line), general_line(line), "{line:?}");
        exact_record(line.as_bytes()).is_some()
    }

    #[test]
    fn the_exact_reader_agrees_with_the_general_one() {
        // Every record our writer wrote is read in one pass, the records a
        // stream wraps (the faulted run's only copy) too; the meta line is
        // the scanner's.
        for run in reference::real_runs() {
            let wrapped = run.stream.lines().filter_map(|line| {
                let rest = line.strip_prefix("{\"type\":\"trace\",\"seq\":")?;
                rest.split_once(",\"record\":")?.1.strip_suffix('}')
            });
            let lines: Vec<&str> = run.trace.lines().chain(wrapped).collect();
            let exact = lines.iter().filter(|l| exact_agrees_with_general(l));
            let metas = usize::from(!run.trace.is_empty());
            assert_eq!(exact.count(), lines.len() - metas, "{}", run.name);
        }
        // The scanner's mutated corpus: both readers must have work.
        let runs = reference::real_runs();
        let seeds: Vec<&str> = runs
            .iter()
            .flat_map(|run| run.trace.lines().take(40))
            .chain(runs[3].stream.lines().filter(|l| l.contains("fault")))
            .collect();
        let mutants = reference::mutants(&seeds, 12_000, 0x5ca9);
        let (mut lines, mut exact) = (0, 0);
        for line in mutants.iter().flat_map(|mutant| mutant.lines()) {
            lines += 1;
            exact += usize::from(exact_agrees_with_general(line));
        }
        assert!(
            exact > lines / 50 && exact < lines / 2,
            "{exact} of {lines}"
        );
        // At the edges the one pass reads the writer's own spelling, a
        // leading zero, the widest `u64` and a line end, and nothing else.
        let edges = TraceRecord::edge_lines(false);
        let exact: Vec<usize> = (0..edges.len())
            .filter(|&at| exact_agrees_with_general(&edges[at]))
            .collect();
        assert_eq!(exact, [0, 1, 2, 19, 21], "{edges:#?}");
    }

    #[test]
    fn a_line_of_unicode_space_is_malformed_not_blank() {
        for blank in ["", " \t\r", "\n"] {
            assert_eq!(parse_line(blank), Ok(TraceLine::Blank), "{blank:?}");
        }
        let r = record().to_ndjson();
        for space in ["\u{a0}", "\u{85}", "\u{2028}", "\u{3000}"] {
            let expected = "JSON error at byte 0: expected a JSON value";
            assert_eq!(parse_line(space), Err(expected.to_string()), "{space:?}");
            let text = format!("{r}\n{space}\n{r}\n");
            let err = parse_trace(&text).expect_err(space);
            assert_eq!(err.line, 2, "{space:?}");
            let (_, records, errors) = read_trace(text.as_bytes(), true).unwrap();
            assert_eq!((records.len(), errors.len()), (2, 1), "{space:?}");
        }
    }

    /// Holds the direct serialiser to the tree it replaced on `record`.
    fn writes_like_the_tree(record: &TraceRecord) -> String {
        let line = record.to_ndjson();
        assert_eq!(line, reference::record_tree(record).render());
        line
    }

    #[test]
    fn integers_past_2_53_are_written_exactly() {
        for wide in [(1u64 << 53) + 1, u64::MAX] {
            let original = TraceRecord {
                t_ps: wide,
                packet: wide,
                logical: wide,
                src: wide,
                dests: wide,
                created_ps: wide,
                busy_ps: wide,
                ..record()
            };
            let line = original.to_ndjson();
            assert_eq!(line.matches(&wide.to_string()).count(), 7, "{line}");
            assert_eq!(TraceRecord::from_ndjson(&line), Ok(original));
            // The tree went through an `f64` and rounded every one of them.
            let rounded = reference::record_tree(&original).render();
            assert_ne!(TraceRecord::from_ndjson(&rounded), Ok(original));
        }
    }

    #[test]
    fn writer_agrees_with_the_tree_on_real_traces() {
        for run in reference::real_runs() {
            let file: Vec<&str> = run.trace.lines().skip(1).collect();
            for line in &file {
                let record = TraceRecord::from_ndjson(line).expect("real records parse");
                assert_eq!(&writes_like_the_tree(&record), line, "{}", run.name);
            }
            // A stream's `trace` line is the same record in a wrapper.
            let mut embedded = Vec::new();
            for line in run.stream.lines() {
                let Some(rest) = line.strip_prefix("{\"type\":\"trace\",\"seq\":") else {
                    continue;
                };
                let (seq, rest) = rest.split_once(",\"record\":").expect("a record member");
                let text = rest.strip_suffix('}').expect("the wrapper closes");
                let record = TraceRecord::from_ndjson(text).expect("embedded records parse");
                assert_eq!(writes_like_the_tree(&record), text, "{}", run.name);
                let wrapper = JsonValue::Object(vec![
                    ("type".to_string(), JsonValue::str("trace")),
                    (
                        "seq".to_string(),
                        JsonValue::uint(seq.parse().expect("a sequence number")),
                    ),
                    ("record".to_string(), reference::record_tree(&record)),
                ]);
                assert_eq!(wrapper.render(), line, "{}", run.name);
                embedded.push(text);
            }
            assert!(embedded.len() > 1_000, "{}: {}", run.name, embedded.len());
            // The two sinks saw the same events: record for record, the
            // same bytes (`faults` has no `--trace-out` to compare).
            assert!(file.is_empty() || file == embedded, "{}", run.name);
        }
        let faulted = &reference::real_runs()[3].stream;
        assert!(faulted.contains("\"action\":\"fault\""), "fault records");
    }

    /// A record drawn over the whole typed vocabulary: every site form,
    /// action and detail, coordinates and integers of every width.
    fn drawn_record(rng: &mut SimRng) -> TraceRecord {
        let wide = |rng: &mut SimRng| match rng.index(4) {
            0 => rng.index(10) as u64,
            1 => rng.index(1 << 20) as u64,
            2 => (1 << 53) + rng.index(1 << 20) as u64,
            _ => u64::MAX - rng.index(3) as u64,
        };
        let (tree, level, index) = (wide(rng) as usize, wide(rng) as u32, wide(rng) as usize);
        let site = match rng.index(7) {
            0 => Site::Source(index),
            1 => Site::Fanout { tree, level, index },
            2 => Site::Fanin { tree, level, index },
            3 => Site::Sink(index),
            4 => Site::Router(index),
            5 => Site::Channel(index),
            _ => Site::Node(index),
        };
        let detail = match rng.index(4) {
            0 => Detail::None,
            1 => Detail::Routed(RouteSymbol::ALL[rng.index(4)]),
            2 => Detail::Input(wide(rng) as usize),
            _ => Detail::Fault(FaultClass::ALL[rng.index(5)]),
        };
        TraceRecord {
            t_ps: wide(rng),
            packet: wide(rng),
            logical: wide(rng),
            flit: wide(rng) as u8,
            src: wide(rng),
            dests: wide(rng),
            created_ps: wide(rng),
            site,
            action: Action::ALL[rng.index(5)],
            detail,
            copies: wide(rng) as u8,
            busy_ps: wide(rng),
        }
    }

    #[test]
    fn drawn_records_round_trip_and_never_need_escaping() {
        let mut rng = SimRng::seed_from(0x1abe1);
        for _ in 0..10_000 {
            let record = drawn_record(&mut rng);
            let line = record.to_ndjson();
            assert!(!line.contains('\\') && line.is_ascii(), "{line}");
            assert_eq!(TraceRecord::from_ndjson(&line), Ok(record), "{line}");
            // The three labels are what their `Display` says, quoted.
            for label in [
                record.site.to_string(),
                record.action.to_string(),
                record.detail.to_string(),
            ] {
                assert!(line.contains(&format!("\"{label}\"")), "{label} in {line}");
            }
            // Below 2^53 the tree it replaced renders the same bytes.
            let narrow = TraceRecord {
                t_ps: record.t_ps >> 12,
                packet: record.packet >> 12,
                logical: record.logical >> 12,
                src: record.src >> 12,
                dests: record.dests >> 12,
                created_ps: record.created_ps >> 12,
                busy_ps: record.busy_ps >> 12,
                ..record
            };
            writes_like_the_tree(&narrow);
        }
    }

    #[test]
    fn labels_outside_the_grammar_are_located_errors() {
        let line = |site: &str, action: &str, detail: &str| {
            format!(
                "{{\"t_ps\":1,\"packet\":2,\"flit\":0,\"site\":\"{site}\",\
                 \"action\":\"{action}\",\"detail\":\"{detail}\"}}"
            )
        };
        assert!(TraceRecord::from_ndjson(&line("src0", "inject", "")).is_ok());
        for (field, label) in [
            ("site", "fo[s2:nope]"),
            ("site", "fo[s2:1.]"),
            ("site", "fi[d18446744073709551616:0.0]"),
            ("site", "r-1"),
            ("site", "D"),
            ("site", ""),
            ("site", "?"),
            ("action", "explode"),
            ("action", "Inject"),
            ("action", ""),
            ("detail", "sideways"),
            ("detail", "input"),
            ("detail", "input18446744073709551616"),
        ] {
            let [site, action, detail] = match field {
                "site" => [label, "forward", ""],
                "action" => ["src0", label, ""],
                _ => ["r1", "forward", label],
            };
            let noun = match field {
                "site" => "a site",
                "action" => "an action",
                _ => "a detail",
            };
            let complaint = format!("field \"{field}\": \"{label}\" is not {noun}");
            let text = format!("{}\n{}\n", record().to_ndjson(), line(site, action, detail));
            let err = parse_trace(&text).unwrap_err();
            assert_eq!(err.line, 2, "{err}");
            assert!(err.message.contains(&complaint), "{err}");
            // `--lenient` counts the line as skipped.
            let (_, records, errors) = read_trace(text.as_bytes(), true).unwrap();
            assert_eq!((records.len(), errors.len()), (1, 1), "{field} {label}");
        }
        // A label that is not a string at all names the field too.
        let err = TraceRecord::from_ndjson(&line("src0", "inject", "").replace("\"src0\"", "7"));
        assert_eq!(err.unwrap_err().message, "field \"site\" is not a string");
    }

    #[test]
    fn a_record_is_copy_and_small() {
        fn assert_copy<T: Copy>() {}
        // `Copy` means no heap behind a record: it was 136 B inline plus
        // three heap labels.
        assert_copy::<TraceRecord>();
        assert!(
            std::mem::size_of::<TraceRecord>() <= 112,
            "{} B",
            std::mem::size_of::<TraceRecord>()
        );
    }

    #[test]
    fn written_files_are_byte_for_byte_what_the_tree_wrote() {
        // FNV-1a of the whole `--trace-out` and `--stream --stream-trace`
        // texts of `reference::real_runs`, computed at the last commit
        // whose writers rendered every record through a `JsonValue` tree.
        // (The stream column is that commit's files less the close-time
        // `no_progress` record every clean run then ended with, and its
        // count in `end`: the record now means work left undone; less
        // the `shards` / `shard_events` counters its `end` record carried;
        // and with `end`'s `events_processed` counting a channel free only
        // when a sender waited on it.)
        const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;
        const PINNED: [(&str, u64, u64); 4] = [
            ("mot", 0xa3d2_ebf9_7695_08ee, 0x7d8e_a72e_8fde_032f),
            ("mesh", 0x7d44_5f18_2072_1d19, 0x5faa_9a9d_1b06_805b),
            ("vcmesh", 0xd776_23d5_8d68_f914, 0x516d_caf7_15ac_ebdb),
            ("mot-faulted", EMPTY, 0x9433_b1a4_248d_bb5d),
        ];
        let written: Vec<_> = reference::real_runs()
            .iter()
            .map(|run| {
                let (trace, stream) = (reference::fnv1a(&run.trace), reference::fnv1a(&run.stream));
                (run.name, trace, stream)
            })
            .collect();
        assert_eq!(written, PINNED, "{written:#x?}");
    }

    #[test]
    fn analysis_documents_are_byte_for_byte_pinned() {
        // FNV-1a of the `asynoc-analysis-v1` document `analyze --top 5` and
        // `analyze` (the default `--top`) print over five traces: a MoT
        // multicast, a wormhole mesh whose multicasts are serial clones, a
        // VC mesh under DPM, a faulted MoT run with lost packets (its
        // stream's records under a meta line of its window and energy
        // constants), and a trace capped at 500 records.
        const PINNED: [(&str, u64, u64); 5] = [
            ("mot", 0x6dfc_9113_e9c1_11c7, 0x6a4d_ce17_cad7_8e78),
            ("mesh", 0x3787_200d_55d1_3f8a, 0xcabd_b63e_71e9_e080),
            ("vcmesh", 0x4924_d31a_d381_d052, 0x82aa_a592_c9a1_2ae7),
            ("mot-faulted", 0x5e84_f3ec_45b1_87cc, 0x0e08_ec57_0b50_cd27),
            ("mot-capped", 0x0e9d_c204_9c93_a6e8, 0x3558_b27d_bd2b_7388),
        ];
        let cli = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            let command = asynoc_cli::parse(&args).expect("valid invocation");
            let mut out = Vec::new();
            asynoc_cli::execute(&command, &mut out).expect("the command succeeds");
            String::from_utf8(out).expect("utf8 output")
        };
        let window = "--warmup-ns 40 --measure-ns 400";
        let traced = "--trace-limit 200000 --trace-out";
        let faulted = "faults --arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2 \
             --plan lose:0:0;lose:3:1;stall:3:2:500;drop:1:0:1:500 --warmup-ns 20 --measure-ns 150";
        let pinned: Vec<_> = [
            ("mot", format!("metrics --arch OptHybridSpeculative --benchmark Multicast10 --rate 0.4 {window} {traced}")),
            ("mesh", format!("metrics --substrate mesh --benchmark Multicast10 --rate 0.05 --size 4 {window} {traced}")),
            ("vcmesh", format!("metrics --substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1 --size 4 {window} {traced}")),
            ("mot-faulted", format!("{faulted} --stream-trace --stream")),
            ("mot-capped", format!("metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 {window} --trace-limit 500 --trace-out")),
        ]
        .into_iter()
        .map(|(name, command)| {
            let path = temp_path(&format!("analysis-{name}.ndjson"));
            let path = path.to_string_lossy();
            cli(&format!("{command} {path}"));
            if name == "mot-faulted" {
                let stream = std::fs::read_to_string(&*path).expect("the stream");
                let faulted_meta = TraceMeta {
                    flits: 5,
                    rate: 0.2,
                    warmup_ps: 20_000,
                    measure_ps: 150_000,
                    wire_fj: Some(200.0),
                    drop_fj: Some(400.0),
                    ..meta()
                };
                let mut trace = faulted_meta.to_ndjson() + "\n";
                for line in stream.lines().filter(|l| l.starts_with("{\"type\":\"trace\"")) {
                    let (_, record) = line.split_once("\"record\":").expect("a trace line");
                    trace.push_str(record.strip_suffix('}').expect("a wrapped record"));
                    trace.push('\n');
                }
                std::fs::write(&*path, trace).expect("the trace file");
            }
            let documents = [
                cli(&format!("analyze --trace-in {path} --top 5")),
                cli(&format!("analyze --trace-in {path}")),
            ];
            let _ = std::fs::remove_file(&*path);
            let ingest = JsonValue::parse(&documents[0]).expect("a document");
            let count = |key: &str| ingest.get("ingest").and_then(|i| i.get(key)).cloned();
            match name {
                "mot-faulted" => assert_ne!(count("broken_with_cause"), Some(JsonValue::uint(0))),
                "mot-capped" => assert_eq!(count("records"), Some(JsonValue::uint(500))),
                _ => assert!(count("open_trees").is_some()),
            }
            let [top5, default] = documents.map(|document| reference::fnv1a(&document));
            (name, top5, default)
        })
        .collect();
        assert_eq!(pinned, PINNED, "{pinned:#x?}");
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let file = format!("asynoc-trace-test-{}-{name}", std::process::id());
        std::env::temp_dir().join(file)
    }

    #[test]
    fn trace_file_writes_what_the_buffered_writer_held() {
        let mut rng = SimRng::seed_from(0xf11e);
        // A body inside one shift chunk and one of several chunks (and
        // several drains); caps whose counts cross digit boundaries; no
        // record, one, and one writer-thread batch and one past it.
        let batch = crate::writer::BATCH;
        for kept in [0, 1, 16, batch, batch + 1, 2_000] {
            let records: Vec<TraceRecord> =
                (0..kept + 100).map(|_| drawn_record(&mut rng)).collect();
            for dropped in [0, 1, 9, 10, 99, 100] {
                let path = temp_path(&format!("{kept}-{dropped}.ndjson"));
                let file = File::options()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&path)
                    .expect("temp file");
                let mut sink = TraceFile::new(file, meta(), kept).expect("meta line");
                for record in &records[..kept + dropped] {
                    sink.on_record(record, true);
                }
                sink.finish().expect("the trace closes");
                let mut in_memory = TraceMeta {
                    dropped_events: dropped as u64,
                    ..meta()
                }
                .to_ndjson()
                    + "\n";
                for record in &records[..kept] {
                    record.write_ndjson(&mut in_memory);
                    in_memory.push('\n');
                }
                let written = std::fs::read_to_string(&path).expect("trace file");
                let _ = std::fs::remove_file(&path);
                let case = format!("{kept} kept, {dropped} dropped");
                assert_eq!(written.len(), in_memory.len(), "{case}");
                assert!(written == in_memory, "{case}: the files differ");
                let chunks = in_memory.len().div_ceil(SHIFT_CHUNK);
                assert_eq!(chunks > 2, kept == 2_000, "{case}: {chunks} chunk(s)");
            }
        }
    }

    /// What the document readers returned when they split a `&str` with
    /// [`str::lines`].
    fn read_by_str_lines(
        text: &str,
        lenient: bool,
    ) -> (Option<TraceMeta>, Vec<TraceRecord>, Vec<TraceParseError>) {
        let (mut meta, mut records, mut errors) = (None, Vec::new(), Vec::new());
        for (index, line) in text.lines().enumerate() {
            match parse_line(line) {
                Ok(TraceLine::Blank) => {}
                Ok(TraceLine::Meta(m)) => meta = Some(m),
                Ok(TraceLine::Record(r)) => records.push(r),
                Err(message) => {
                    errors.push(TraceParseError {
                        line: index + 1,
                        message,
                    });
                    if !lenient {
                        break;
                    }
                }
            }
        }
        (meta, records, errors)
    }

    #[test]
    fn the_line_reader_splits_lines_as_str_lines_does() {
        let (m, r) = (meta().to_ndjson(), record().to_ndjson());
        let bad = "{\"t_ps\":1}";
        let documents = [
            format!("{m}\n{r}\n{r}\n"),
            // CRLF endings, and a mix of both.
            format!("{m}\r\n{r}\r\n{r}\r\n"),
            format!("{m}\r\n{r}\n\r\n{r}\r\n"),
            // A last line without a newline, or with a bare carriage return.
            format!("{m}\n{r}\n{r}"),
            format!("{m}\n{r}\n{r}\r"),
            format!("{m}\r\n{r}\r\n{bad}"),
            // Malformed lines after blank and CRLF lines keep their numbers.
            format!("\r\n{m}\r\n \r\n{bad}\r\n{r}\r\nnot json\r\n{r}"),
            format!("{r}\rnot json\n{r}\n"),
            String::new(),
            "\n\n".to_string(),
        ];
        for text in &documents {
            let path = temp_path("lines.ndjson");
            std::fs::write(&path, text).expect("fixture");
            for lenient in [false, true] {
                let expected = read_by_str_lines(text, lenient);
                let from_bytes = read_trace(text.as_bytes(), lenient).expect("bytes read");
                let file = io::BufReader::new(File::open(&path).expect("fixture"));
                let from_file = read_trace(file, lenient).expect("file reads");
                // A buffer of a few bytes: every line straddles refills.
                let tiny = io::BufReader::with_capacity(3, File::open(&path).expect("fixture"));
                let from_tiny = read_trace(tiny, lenient).expect("file reads");
                assert_eq!(from_bytes, expected, "{text:?}, lenient {lenient}");
                assert_eq!(from_file, expected, "{text:?}, lenient {lenient}");
                assert_eq!(from_tiny, expected, "{text:?}, lenient {lenient}");
            }
            let strict = read_by_str_lines(text, false);
            let parsed = parse_trace(text).map_err(|e| vec![e]);
            assert_eq!(
                parsed,
                match strict.2.is_empty() {
                    true => Ok((strict.0, strict.1)),
                    false => Err(strict.2),
                }
            );
            let _ = std::fs::remove_file(&path);
        }
        // A line that is not UTF-8 is an I/O error, lenient or not, in one
        // buffer or across refills, with or without its `\n`.
        let mut bytes = format!("{r}\n").into_bytes();
        bytes.extend_from_slice(b"{\"t_ps\":\xff}\n");
        for lenient in [false, true] {
            for input in [&bytes[..], &bytes[..bytes.len() - 1]] {
                for capacity in [3, 8192] {
                    let reader = io::BufReader::with_capacity(capacity, input);
                    let err = read_trace(reader, lenient).unwrap_err();
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
                    assert_eq!(err.to_string(), "stream did not contain valid UTF-8");
                }
            }
        }
    }

    #[test]
    fn the_collector_keeps_records_up_to_its_limit() {
        let mut rng = SimRng::seed_from(0xc011);
        let records: Vec<TraceRecord> = (0..64).map(|_| drawn_record(&mut rng)).collect();
        let mut collector = TraceCollector::new(records.len());
        for record in &records {
            collector.on_record(record, true);
        }
        assert_eq!(collector.records(), records);
        // Past the limit records are counted, not kept.
        collector.on_record(&records[0], false);
        assert_eq!((collector.dropped(), collector.records().len()), (1, 64));
    }
}
