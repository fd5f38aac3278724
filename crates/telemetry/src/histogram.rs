//! The JSON spelling of [`LogHistogram`], the workspace's one latency
//! statistic.
//!
//! The arithmetic — recording, merging, the nearest-rank quantile that
//! reports its bucket's upper edge (never below the exact sample, at most
//! 1/32 above it, never above the exact maximum) — lives in
//! `asynoc_stats::histogram`, where the engine's own per-packet report
//! uses it too. This module writes a histogram as the percentile summary
//! of a metrics document and as the lossless sparse delta of a stream's
//! `window` record, and reads the delta back.

use asynoc_kernel::Duration;
pub use asynoc_stats::LogHistogram;

use crate::json::JsonValue;

/// The lossless sparse form used by streamed window deltas: exact
/// `n`/`min`/`max`, the sum as a decimal string (it is a `u128`, which
/// JSON numbers cannot carry exactly), and only the non-zero buckets as
/// `[bucket, count]` pairs. Round-tripping through [`from_delta_json`] and
/// [`LogHistogram::merge`] reproduces the batch histogram bit-for-bit —
/// the foundation of the stream fold's byte-identity guarantee.
#[must_use]
pub fn to_delta_json(h: &LogHistogram) -> JsonValue {
    let ps = |d: Option<Duration>| JsonValue::uint(d.map_or(0, |d| d.as_ps()));
    let buckets = h
        .buckets()
        .map(|(bucket, n)| {
            JsonValue::Array(vec![JsonValue::uint(bucket as u64), JsonValue::uint(n)])
        })
        .collect();
    JsonValue::Object(vec![
        ("n".to_string(), JsonValue::uint(h.count())),
        ("min".to_string(), ps(h.min())),
        ("max".to_string(), ps(h.max())),
        ("sum".to_string(), JsonValue::str(h.sum_ps().to_string())),
        ("b".to_string(), JsonValue::Array(buckets)),
    ])
}

/// Parses the sparse delta form back into a histogram. The line comes
/// from a file, so every integer is read exactly and the parts must be
/// ones recording produces ([`LogHistogram::from_parts`]): `None` for a
/// bucket past the closed domain, buckets out of order, counts that do
/// not sum to `n`, or extremes outside the first and last bucket.
#[must_use]
pub fn from_delta_json(json: &JsonValue) -> Option<LogHistogram> {
    let uint = |key: &str| json.get(key).and_then(JsonValue::as_u64);
    let sum: u128 = json.get("sum").and_then(JsonValue::as_str)?.parse().ok()?;
    let mut buckets = Vec::new();
    for pair in json.get("b").and_then(JsonValue::as_array)? {
        let [bucket, n] = pair.as_array()? else {
            return None;
        };
        buckets.push((bucket.as_u64()?, n.as_u64()?));
    }
    LogHistogram::from_parts(uint("n")?, sum, uint("min")?, uint("max")?, buckets)
}

/// The standard percentile summary, as the members of a JSON object
/// (`count`, `mean_ps`, `min_ps`, `p50_ps`, `p90_ps`, `p99_ps`, `p999_ps`,
/// `max_ps`).
#[must_use]
pub fn summary_members(h: &LogHistogram) -> Vec<(String, JsonValue)> {
    let ps = |d: Option<Duration>| d.map_or(JsonValue::Null, |d| JsonValue::uint(d.as_ps()));
    let mean = if h.is_empty() {
        JsonValue::Null
    } else {
        JsonValue::Number(h.sum_ps() as f64 / h.count() as f64)
    };
    vec![
        ("count".to_string(), JsonValue::uint(h.count())),
        ("mean_ps".to_string(), mean),
        ("min_ps".to_string(), ps(h.min())),
        ("p50_ps".to_string(), ps(h.quantile(0.50))),
        ("p90_ps".to_string(), ps(h.quantile(0.90))),
        ("p99_ps".to_string(), ps(h.quantile(0.99))),
        ("p999_ps".to_string(), ps(h.quantile(0.999))),
        ("max_ps".to_string(), ps(h.max())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(ps: &[u64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &p in ps {
            h.record(Duration::from_ps(p));
        }
        h
    }

    #[test]
    fn delta_json_round_trips_bit_for_bit() {
        for h in [
            histogram(&[3, 700, 700, 52_000, u64::from(u32::MAX) * 8]),
            LogHistogram::new(),
        ] {
            let parsed = JsonValue::parse(&to_delta_json(&h).render()).expect("valid JSON");
            assert_eq!(from_delta_json(&parsed), Some(h));
        }
    }

    #[test]
    fn delta_json_rejects_malformed_and_inconsistent_documents() {
        assert!(from_delta_json(&JsonValue::Null).is_none());
        let good = to_delta_json(&histogram(&[40, 700, 700])).render();
        assert_eq!(
            good,
            r#"{"n":3,"min":40,"max":700,"sum":"1440","b":[[40,1],[171,2]]}"#
        );
        // What `LogHistogram::from_parts` refuses has its own test; these
        // are the spellings that never reach it, and one that does.
        for (from, to) in [
            (r#","sum":"1440""#, ""),
            (r#""n":3"#, r#""n":3.5"#),
            (r#""max":700"#, r#""max":18446744073709551616"#),
            ("[171,2]", "[171,2,0]"),
            ("[171,2]", "[171]"),
            ("[171,2]", "[4000000000000000,2]"),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "{from}");
            let parsed = JsonValue::parse(&bad).expect("still JSON");
            assert_eq!(from_delta_json(&parsed), None, "{bad}");
        }
    }

    #[test]
    fn the_summary_has_the_schema_fields_and_nulls_when_empty() {
        let json = JsonValue::Object(summary_members(&histogram(&[52])));
        for key in [
            "count", "mean_ps", "min_ps", "p50_ps", "p90_ps", "p99_ps", "p999_ps", "max_ps",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        assert_eq!(json.get("p99_ps").and_then(JsonValue::as_f64), Some(52.0));
        let empty = JsonValue::Object(summary_members(&LogHistogram::new()));
        assert_eq!(empty.get("p50_ps"), Some(&JsonValue::Null));
        assert_eq!(empty.get("mean_ps"), Some(&JsonValue::Null));
        assert_eq!(empty.get("count"), Some(&JsonValue::Number(0.0)));
    }
}
