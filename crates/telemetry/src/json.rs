//! A minimal JSON value tree, writer, and parser.
//!
//! The workspace is dependency-free, so the telemetry layer carries its own
//! JSON support: enough to render the metrics report and trace exports, and
//! to parse them back in tests (NDJSON round-trips, Chrome-trace validation,
//! golden schema diffs). Object keys keep insertion order so every render is
//! deterministic.

use std::borrow::Cow;
use std::error::Error;
use std::fmt::{self, Write as _};

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are rendered without a decimal point).
    Number(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object, keys in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Wraps a string slice.
    #[must_use]
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// Wraps an unsigned integer.
    #[must_use]
    pub fn uint(v: u64) -> JsonValue {
        JsonValue::Number(v as f64)
    }

    /// Wraps a signed integer.
    #[must_use]
    pub fn int(v: i64) -> JsonValue {
        JsonValue::Number(v as f64)
    }

    /// Object member lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: `None` for a negative or
    /// fractional number, or one of 2^53 and above, where an `f64` no
    /// longer holds every integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| n.fract() == 0.0 && (0.0..MAX_EXACT).contains(n))
            .map(|n| n as u64)
    }

    /// The value as an exact signed integer (see [`JsonValue::as_u64`]).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64()
            .filter(|n| n.fract() == 0.0 && n.abs() < MAX_EXACT)
            .map(|n| n as i64)
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Renders compact single-line JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders indented multi-line JSON (two-space indent).
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    pub(crate) fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::Str(s) => write_string(out, s),
            JsonValue::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            JsonValue::Object(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i, d| {
                    let (key, value) = &members[i];
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, d);
                });
            }
        }
    }

    /// Reduces the value to its *schema skeleton*: leaves become their type
    /// name, arrays keep only their first element's schema. Two reports with
    /// identical structure (but different measurements) have identical
    /// skeletons — the basis of the golden schema check in `scripts/check.sh`.
    #[must_use]
    pub fn schema(&self) -> JsonValue {
        match self {
            JsonValue::Null => JsonValue::str("null"),
            JsonValue::Bool(_) => JsonValue::str("bool"),
            JsonValue::Number(_) => JsonValue::str("number"),
            JsonValue::Str(_) => JsonValue::str("string"),
            JsonValue::Array(items) => {
                JsonValue::Array(items.first().map(JsonValue::schema).into_iter().collect())
            }
            JsonValue::Object(members) => JsonValue::Object(
                members
                    .iter()
                    .map(|(k, v)| (k.clone(), v.schema()))
                    .collect(),
            ),
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input,
    /// trailing garbage, or containers nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut scanner = Scanner::new(text);
        let value = scanner.value()?;
        scanner.end()?;
        Ok(value)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    let break_line = |out: &mut String, depth: usize| {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
    };
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        break_line(out, depth + 1);
        item(out, i, depth + 1);
    }
    if len > 0 {
        break_line(out, depth);
    }
    out.push(close);
}

/// Appends `n` as a JSON number: the one spelling of a float.
pub(crate) fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        if n < 0.0 {
            out.push('-');
        }
        write_u64(out, n.abs() as u64);
    } else {
        // Rust's shortest round-trip Display never uses exponent notation
        // in this range, so the output is always valid JSON.
        let _ = write!(out, "{n}");
    }
}

/// Appends `v` in decimal, every digit exact: the one spelling of an
/// integer, under [`JsonValue::render`] and the record writers alike.
/// Digits are slices of a constant pair table; nothing is allocated.
pub fn write_u64(out: &mut String, v: u64) {
    // Writing to a `String` cannot fail.
    let _ = write_digits(out, v);
}

/// Every two-digit number, `00` to `99`, one after another.
const PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// [`write_u64`] into any text sink (a `Display` impl's formatter): two
/// digits per division, each pair a slice of [`PAIRS`], so no digit is
/// checked as text at run time.
pub(crate) fn write_digits<W: fmt::Write>(out: &mut W, v: u64) -> fmt::Result {
    let pair = |n: u64| &PAIRS[2 * n as usize..2 * n as usize + 2];
    // The pairs below the leading one or two digits, least significant first.
    let mut low = [0u8; 10];
    let mut count = 0;
    let mut lead = v;
    while lead >= 100 {
        low[count] = (lead % 100) as u8;
        lead /= 100;
        count += 1;
    }
    // A lone lead digit is the second of its pair.
    let skip = usize::from(lead < 10);
    out.write_str(&pair(lead)[skip..])?;
    for &n in low[..count].iter().rev() {
        out.write_str(pair(u64::from(n)))?;
    }
    Ok(())
}

/// Appends `s` as a JSON string: the one spelling of a string. Runs
/// that hold nothing to escape — all of a typical label — are copied
/// whole.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..0x20) {
            continue;
        }
        out.push_str(&s[run..at]);
        run = at + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A JSON parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl Error for JsonError {}

/// Deepest container nesting the scanner accepts. The tree builder and
/// `skip_value` recurse once per level, so the limit is what keeps a line
/// of two million `[` from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// 2^53, where an `f64` stops telling neighbouring integers apart: the
/// bound on integers read through a [`JsonValue::Number`] or written with
/// a fraction or an exponent.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

/// The value of a number token as an exact unsigned integer: plain digit
/// strings are read digit by digit (so ids above 2^53 keep every bit),
/// anything else must name an integral, non-negative value an `f64`
/// holds exactly.
pub(crate) fn exact_u64(token: &str) -> Option<u64> {
    let mut value = 0u64;
    for byte in token.bytes() {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            return JsonValue::Number(token.parse().ok()?).as_u64();
        }
        value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
    }
    Some(value)
}

/// A pull scanner over one JSON text: the only JSON grammar in the
/// workspace. [`JsonValue::parse`] builds its tree on it; the trace and
/// stream readers pull keys and scalars straight into their own fields
/// and [`skip_value`](Scanner::skip_value) over the rest.
///
/// Every method that starts a token skips leading whitespace itself.
pub(crate) struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Scanner {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    /// The first byte of the next token, if any.
    pub(crate) fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    /// Succeeds only when nothing but whitespace is left.
    pub(crate) fn end(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters after JSON value")),
        }
    }

    /// Enters a container; `true` when it has a first element to read.
    pub(crate) fn open(&mut self, open: u8, close: u8) -> Result<bool, JsonError> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            self.pos -= 1;
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an element: `true` past a comma, `false` past `close`.
    pub(crate) fn more(&mut self, close: u8) -> Result<bool, JsonError> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(byte) if byte == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.error(format!("expected ',' or '{}'", close as char))),
        }
    }

    /// An object member's key and its colon.
    pub(crate) fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let key = self.string()?;
        self.expect(b':')?;
        Ok(key)
    }

    /// A string, borrowed from the input unless it holds an escape.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let end = self.run_end();
        if self.text.as_bytes().get(end) == Some(&b'"') {
            let plain = &self.text[self.pos..end];
            self.pos = end + 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut out = String::new();
        self.string_tail(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Validates a string and moves past it without allocating.
    fn skip_string(&mut self) -> Result<(), JsonError> {
        self.expect(b'"')?;
        self.string_tail(None)
    }

    /// Where the next `"` or `\` (or the end of the text) is. Both are
    /// ASCII, so the place is a character boundary.
    fn run_end(&self) -> usize {
        let bytes = self.text.as_bytes();
        let mut end = self.pos;
        while end < bytes.len() && bytes[end] != b'"' && bytes[end] != b'\\' {
            end += 1;
        }
        end
    }

    /// The rest of a string after its opening quote, decoded into `out`
    /// (or only validated, without allocating, when there is none).
    fn string_tail(&mut self, mut out: Option<&mut String>) -> Result<(), JsonError> {
        loop {
            let end = self.run_end();
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.text[self.pos..end]);
            }
            self.pos = end;
            let bytes = self.text.as_bytes();
            match bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => self.pos += 1,
            }
            let c = match bytes.get(self.pos) {
                Some(b'u') => {
                    self.pos += 1;
                    self.unicode_escape()?
                }
                Some(&escape) => {
                    let c = match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        _ => return Err(self.error("bad escape sequence")),
                    };
                    self.pos += 1;
                    c
                }
                None => return Err(self.error("bad escape sequence")),
            };
            if let Some(out) = out.as_deref_mut() {
                out.push(c);
            }
        }
    }

    /// The scalar a `\uXXXX` escape names, `pos` just past the `u`. A
    /// high surrogate followed by a `\uXXXX` low surrogate is one scalar;
    /// an unpaired surrogate is replaced, not rejected — our own writer
    /// never emits one.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            let after_high = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xdc00..0xe000).contains(&low) {
                let scalar = 0x1_0000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                return Ok(char::from_u32(scalar).unwrap_or('\u{fffd}'));
            }
            self.pos = after_high;
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .text
                .as_bytes()
                .get(self.pos)
                .and_then(|&b| (b as char).to_digit(16))
                .ok_or_else(|| self.error("expected 4 hex digits"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Lexes a number token; the flag says it is nothing but an optional
    /// sign and digits, which is always a valid number.
    fn number_token(&mut self) -> (&'a str, bool) {
        self.peek();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut plain = true;
        while let Some(byte) = bytes.get(self.pos) {
            match byte {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => plain = false,
                _ => break,
            }
            self.pos += 1;
        }
        (&self.text[start..self.pos], plain && self.pos > digits)
    }

    /// A number token, validated; the caller decides how to read it.
    pub(crate) fn number(&mut self) -> Result<&'a str, JsonError> {
        let (token, plain) = self.number_token();
        if plain || token.parse::<f64>().is_ok() {
            Ok(token)
        } else {
            Err(self.error(format!("invalid number {token:?}")))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(format!("expected {word:?}")))
        }
    }

    /// The next value as a tree.
    pub(crate) fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.walk::<true>()
    }

    /// Validates the next value and moves past it without allocating.
    pub(crate) fn skip_value(&mut self) -> Result<(), JsonError> {
        self.walk::<false>().map(drop)
    }

    /// One walk serves both: with `BUILD` off every value comes back as
    /// an empty placeholder and nothing is pushed.
    fn walk<const BUILD: bool>(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'"') if BUILD => Ok(JsonValue::Str(self.string()?.into_owned())),
            Some(b'"') => self.skip_string().map(|()| JsonValue::Null),
            Some(b'[') => {
                let mut items = Vec::new();
                let mut more = self.open(b'[', b']')?;
                while more {
                    let item = self.walk::<BUILD>()?;
                    if BUILD {
                        items.push(item);
                    }
                    more = self.more(b']')?;
                }
                Ok(JsonValue::Array(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                let mut more = self.open(b'{', b'}')?;
                while more {
                    let key = if BUILD {
                        self.key()?.into_owned()
                    } else {
                        self.skip_string()?;
                        self.expect(b':')?;
                        String::new()
                    };
                    let value = self.walk::<BUILD>()?;
                    if BUILD {
                        members.push((key, value));
                    }
                    more = self.more(b'}')?;
                }
                Ok(JsonValue::Object(members))
            }
            Some(b'-' | b'0'..=b'9') if BUILD => {
                let (token, _) = self.number_token();
                token
                    .parse()
                    .map(JsonValue::Number)
                    .map_err(|_| self.error(format!("invalid number {token:?}")))
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(|_| JsonValue::Null),
            _ => Err(self.error("expected a JSON value")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_ordered_and_pretty_and_parses_back() {
        let value = JsonValue::Object(vec![
            ("b".to_string(), JsonValue::uint(2)),
            ("a".to_string(), JsonValue::Array(vec![JsonValue::Null])),
        ]);
        assert_eq!(value.render(), r#"{"b":2,"a":[null]}"#);
        let pretty = value.render_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(JsonValue::parse(&pretty), Ok(value));
        let text = r#"{"a":[1,2.5,-3],"b":{"c":true,"d":null},"e":"x"}"#;
        let value = JsonValue::parse(text).expect("parses");
        assert_eq!(value.render(), text);
        let get = |key| value.get("b").and_then(|b| b.get(key));
        assert_eq!(
            (get("c"), get("d")),
            (Some(&JsonValue::Bool(true)), Some(&JsonValue::Null))
        );
    }

    /// How numbers and strings were spelled before the allocation-free
    /// primitives: one `format!` per number, one `char` at a time.
    fn spelled_the_old_way(value: &JsonValue) -> String {
        match value {
            JsonValue::Number(n) if !n.is_finite() => "null".to_string(),
            JsonValue::Number(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => {
                format!("{}", *n as i64)
            }
            JsonValue::Number(n) => format!("{n}"),
            JsonValue::Str(s) => {
                let mut out = String::from("\"");
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out + "\""
            }
            _ => unreachable!("scalars only"),
        }
    }

    #[test]
    fn primitives_spell_what_format_spelled() {
        let mut rng = asynoc_kernel::SimRng::seed_from(0x5be11);
        let edges = [
            0,
            9,
            10,
            99,
            100,
            8_999_999_999_999_999,
            9_000_000_000_000_000,
        ];
        for n in 0..20_000u64 {
            // Every digit count, both signs, and the fractions that follow.
            let magnitude = edges
                .get(n as usize)
                .copied()
                .unwrap_or_else(|| (rng.index(1 << 30) as u64) << rng.index(34) >> rng.index(30));
            let mut direct = String::new();
            write_u64(&mut direct, magnitude);
            assert_eq!(direct, magnitude.to_string());
            for number in [
                magnitude as f64,
                -(magnitude as f64),
                magnitude as f64 / 7.0,
            ] {
                let value = JsonValue::Number(number);
                assert_eq!(value.render(), spelled_the_old_way(&value), "{number:e}");
            }
        }
        let mut widest = String::new();
        write_u64(&mut widest, u64::MAX);
        assert_eq!(widest, "18446744073709551615");
        for special in [-0.0, f64::INFINITY, f64::MIN_POSITIVE, 1e300, -2.5e-7] {
            let value = JsonValue::Number(special);
            assert_eq!(value.render(), spelled_the_old_way(&value), "{special:e}");
        }
        let pieces = crate::reference::HOSTILE_PIECES;
        for _ in 0..20_000 {
            let text: String = (0..rng.index(6))
                .map(|_| pieces[rng.index(pieces.len())])
                .collect();
            let value = JsonValue::Str(text);
            assert_eq!(value.render(), spelled_the_old_way(&value));
            assert_eq!(JsonValue::parse(&value.render()), Ok(value));
        }
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for bad in ["{", "[1,", "\"open", "tru", "{\"a\" 1}", "1 2"] {
            let err = JsonValue::parse(bad).expect_err(bad);
            assert!(err.at <= bad.len(), "{bad}: {err}");
        }
    }

    #[test]
    fn nesting_is_limited_and_located() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err.at, MAX_DEPTH, "{err}");
        assert!(err.message.contains("nesting deeper than 128"), "{err}");
        // What used to overflow the stack: objects and arrays, closed or not,
        // through the tree builder and through `skip_value` alike.
        for hostile in ["[".repeat(2_000_000), "{\"a\":".repeat(1_000_000)] {
            let err = JsonValue::parse(&hostile).expect_err("hostile nesting");
            assert!(err.message.contains("nesting"), "{err}");
            let mut scanner = Scanner::new(&hostile);
            assert_eq!(scanner.skip_value(), Err(err));
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_their_scalar() {
        let parsed = |text: &str| JsonValue::parse(text).expect(text);
        assert_eq!(parsed(r#""\ud83d\ude00""#), JsonValue::str("\u{1f600}"));
        assert_eq!(parsed(r#""a\uD834\uDD1Eb""#), JsonValue::str("a\u{1d11e}b"));
        // Unpaired halves are replaced, and what follows a lone high half
        // is still read for what it is.
        assert_eq!(parsed(r#""\ud83d""#), JsonValue::str("\u{fffd}"));
        assert_eq!(parsed(r#""\ude00x""#), JsonValue::str("\u{fffd}x"));
        assert_eq!(parsed(r#""\ud83d\u0041""#), JsonValue::str("\u{fffd}A"));
        assert_eq!(parsed(r#""\ud83d\n""#), JsonValue::str("\u{fffd}\n"));
        assert!(JsonValue::parse(r#""\ud83d\uzz""#).is_err());
        // The scalar survives our own writer, which emits it raw.
        let smile = JsonValue::str("\u{1f600}");
        assert_eq!(JsonValue::parse(&smile.render()), Ok(smile));
    }

    #[test]
    fn skipping_accepts_exactly_what_the_tree_builder_accepts() {
        let cases = [
            r#"{"a":[1,2.5,-3e2,{"b":"x\ny\u00e9"}],"c":null,"d":true,"e":false}"#,
            "  [ 1 , \"two\" ,\t{ } , [ ] ]  ",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "\"open",
            "\"bad \\q escape\"",
            "\"short \\u12\"",
            "1-2",
            "-",
            "1.",
            "nul",
            "tru",
            "",
            "[1 2]",
            "é",
        ];
        for text in cases {
            let mut building = Scanner::new(text);
            let mut skipping = Scanner::new(text);
            let built = building.value().map(drop);
            assert_eq!(built, skipping.skip_value(), "{text:?}");
            assert_eq!(building.pos, skipping.pos, "{text:?}");
        }
    }

    #[test]
    fn integers_are_read_exactly_or_not_at_all() {
        assert_eq!(exact_u64("0"), Some(0));
        assert_eq!(exact_u64("007"), Some(7));
        assert_eq!(exact_u64("9007199254740993"), Some(9_007_199_254_740_993));
        assert_eq!(exact_u64("18446744073709551615"), Some(u64::MAX));
        assert_eq!(exact_u64("18446744073709551616"), None);
        assert_eq!(exact_u64("1e3"), Some(1_000));
        assert_eq!(exact_u64("5.0"), Some(5));
        assert_eq!(exact_u64("-0"), Some(0));
        for inexact in ["-5", "1.7", "1e300", "9007199254740993.0"] {
            assert_eq!(exact_u64(inexact), None, "{inexact}");
        }
        assert_eq!(JsonValue::Number(-3.0).as_i64(), Some(-3));
        assert_eq!(JsonValue::Number(-3.0).as_u64(), None);
        assert_eq!(JsonValue::Number(0.5).as_i64(), None);
        assert_eq!(JsonValue::str("7").as_u64(), None);
    }

    #[test]
    fn schema_skeleton_reduces_leaves_and_arrays() {
        let text = r#"{"n":3,"s":"x","xs":[{"a":1},{"a":2}],"empty":[]}"#;
        let schema = JsonValue::parse(text).expect("parses").schema();
        assert_eq!(
            schema.render(),
            r#"{"n":"number","s":"string","xs":[{"a":"number"}],"empty":[]}"#
        );
        // Same structure, different values: identical skeleton.
        let other = r#"{"n":99,"s":"y","xs":[{"a":7}],"empty":[]}"#;
        assert_eq!(JsonValue::parse(other).expect("parses").schema(), schema);
    }
}
