//! `sim_digest`: FNV-1a over a workload's simulated results with every
//! host-time field removed, so two commits compare exactly: a speed change
//! must leave it identical, a model change legitimately moves it.

use crate::json::Value;

/// Members that carry host time or host facts in the `asynoc-*-v1`
/// documents. They are dropped, with everything below them, before hashing.
const HOST_KEYS: [&str; 6] = [
    "wall_ms",
    "wall_s",
    "wall_ns",
    "events_per_sec",
    "allocations",
    "host",
];

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    /// Hashes one output: a JSON document structurally (whitespace and
    /// host fields do not count), anything else as host-stripped text.
    pub fn output(&mut self, text: &str) {
        match Value::parse(text) {
            Ok(doc) => self.json(&doc),
            Err(_) => self.bytes(strip_host_text(text).as_bytes()),
        }
    }

    fn json(&mut self, value: &Value) {
        match value {
            Value::Null => self.bytes(b"n"),
            Value::Bool(b) => self.bytes(if *b { b"t" } else { b"f" }),
            Value::Num(text) => {
                self.bytes(b"#");
                self.bytes(text.as_bytes());
            }
            Value::Str(text) => {
                self.bytes(b"\"");
                self.bytes(text.as_bytes());
                self.bytes(b"\"");
            }
            Value::Arr(items) => {
                self.bytes(b"[");
                items.iter().for_each(|item| self.json(item));
                self.bytes(b"]");
            }
            Value::Obj(members) => {
                self.bytes(b"{");
                for (key, member) in members {
                    if !HOST_KEYS.contains(&key.as_str()) {
                        self.bytes(key.as_bytes());
                        self.bytes(b":");
                        self.json(member);
                    }
                }
                self.bytes(b"}");
            }
        }
    }
}

/// Removes every ` (… host)` parenthetical — the form in which the CLI
/// prints host-time rates inside otherwise simulated summaries.
pub fn strip_host_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(open) = rest.find(" (") {
        let tail = &rest[open..];
        match tail.find(')') {
            Some(close) if tail[..close].ends_with(" host") => {
                out.push_str(&rest[..open]);
                rest = &tail[close + 1..];
            }
            _ => {
                out.push_str(&rest[..open + 2]);
                rest = &rest[open + 2..];
            }
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(text: &str) -> u64 {
        let mut fnv = Fnv::new();
        fnv.output(text);
        fnv.value()
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut fnv = Fnv::new();
        assert_eq!(fnv.value(), 0xcbf2_9ce4_8422_2325);
        fnv.bytes(b"a");
        assert_eq!(fnv.value(), 0xaf63_dc4c_8601_ec8c);
        let mut fnv = Fnv::new();
        fnv.bytes(b"foobar");
        assert_eq!(fnv.value(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn host_fields_and_layout_do_not_move_the_digest() {
        let a = r#"{"events": 10, "wall_ms": 1.5, "host": {"threads": 2}, "runs": [{"events_per_sec": 9.0, "p50_ps": 1458}]}"#;
        let b = "{\"events\":10,\n \"wall_ms\": 99, \"host\": {\"threads\": 64},\n \"runs\": [{\"events_per_sec\": 1.0, \"p50_ps\": 1458}]}";
        assert_eq!(digest(a), digest(b));
        let moved = a.replace("1458", "1459");
        assert_ne!(digest(a), digest(&moved));
        let renamed = a.replace("\"events\"", "\"event\"");
        assert_ne!(digest(a), digest(&renamed));
    }

    #[test]
    fn host_parentheticals_are_stripped_from_text() {
        let line = "11 window(s) to t=10 ps: 338049 event(s) (125000 events/s host), 3 in flight\n";
        let bare = "11 window(s) to t=10 ps: 338049 event(s), 3 in flight\n";
        assert_eq!(strip_host_text(line), bare);
        assert_eq!(strip_host_text(bare), bare);
        assert_eq!(strip_host_text("a (b) c (d host) e ("), "a (b) c e (");
        assert_eq!(digest(line), digest(bare));
        assert_ne!(digest(bare), digest(&bare.replace("338049", "338050")));
    }
}
