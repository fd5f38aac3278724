//! The fault ledger.
//!
//! The conformance oracle's first guarantee is that nothing injected is
//! ever *silent*: every fault hook the engine fires lands in this
//! ledger, and every packet discarded at a source is recorded by
//! logical id so the destination-multiset comparison and the span-tree
//! analysis can reconcile exactly with it. The ledger mirrors
//! [`SpeculationWaste`](crate::SpeculationWaste) in shape (per-site
//! counters, JSON report section) but is *ungated* by the measurement
//! window — a fault during warmup still corrupts state, so it must
//! still be accounted.

use std::collections::BTreeMap;

use asynoc_kernel::FaultClass;

use crate::json::JsonValue;
use crate::recorder::RecordSink;
use crate::trace::{Action, Detail, TraceRecord};

/// Counts every fault event of a run, by class and by site.
///
/// Substrate-agnostic: a fault record's site is placed by
/// [`Site::of_fault`](crate::Site::of_fault) (`ch*` for stalls, `node*`
/// for symbol overrides, `src*` for source drops), so ledger rows join
/// against trace records.
#[derive(Clone, Debug, Default)]
pub struct FaultLedger {
    by_class: [u64; FaultClass::ALL.len()],
    per_site: BTreeMap<String, u64>,
    lost_packets: Vec<u64>,
}

impl FaultLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        FaultLedger::default()
    }

    /// Events recorded for one class.
    #[must_use]
    pub fn count(&self, class: FaultClass) -> u64 {
        let index = FaultClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class is in ALL");
        self.by_class[index]
    }

    /// Total fault events recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.by_class.iter().sum()
    }

    /// Packets discarded at a source ([`FaultClass::PacketLost`]).
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.count(FaultClass::PacketLost)
    }

    /// Logical ids of the discarded packets, in event order.
    #[must_use]
    pub fn lost_packets(&self) -> &[u64] {
        &self.lost_packets
    }

    /// Per-site event counts, keyed `"<site>:<class>"` (e.g.
    /// `"ch12:link-stall"`), ordered by key.
    #[must_use]
    pub fn per_site(&self) -> &BTreeMap<String, u64> {
        &self.per_site
    }

    /// The ledger as a report section.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let by_class: Vec<(String, JsonValue)> = FaultClass::ALL
            .iter()
            .map(|&class| {
                (
                    class.label().to_string(),
                    JsonValue::uint(self.count(class)),
                )
            })
            .collect();
        let per_site: Vec<JsonValue> = self
            .per_site
            .iter()
            .map(|(key, &count)| {
                JsonValue::Object(vec![
                    ("site".to_string(), JsonValue::str(key.clone())),
                    ("count".to_string(), JsonValue::uint(count)),
                ])
            })
            .collect();
        let lost: Vec<JsonValue> = self
            .lost_packets
            .iter()
            .map(|&p| JsonValue::uint(p))
            .collect();
        JsonValue::Object(vec![
            ("total".to_string(), JsonValue::uint(self.total())),
            ("by_class".to_string(), JsonValue::Object(by_class)),
            ("lost_packets".to_string(), JsonValue::Array(lost)),
            ("per_site".to_string(), JsonValue::Array(per_site)),
        ])
    }
}

impl RecordSink for FaultLedger {
    fn on_record(&mut self, record: &TraceRecord, _in_window: bool) {
        let (Action::Fault, Detail::Fault(class)) = (record.action, record.detail) else {
            return;
        };
        let index = FaultClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class is in ALL");
        self.by_class[index] += 1;
        let key = format!("{}:{}", record.site, class.label());
        *self.per_site.entry(key).or_default() += 1;
        if class == FaultClass::PacketLost {
            self.lost_packets.push(record.logical);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;

    fn fault(class: FaultClass, index: usize, logical: u64) -> TraceRecord {
        TraceRecord {
            logical,
            site: Site::of_fault(class, index),
            action: Action::Fault,
            detail: Detail::Fault(class),
            copies: 0,
            ..TraceRecord::INJECT
        }
    }

    #[test]
    fn counts_by_class_and_site() {
        let mut ledger = FaultLedger::new();
        for record in [
            fault(FaultClass::LinkStall, 4, 7),
            fault(FaultClass::LinkStall, 4, 7),
            fault(FaultClass::SymbolCorrupt, 9, 7),
        ] {
            ledger.on_record(&record, false);
        }
        // Ungated: all three were outside the window yet counted.
        assert_eq!(ledger.total(), 3);
        assert_eq!(ledger.count(FaultClass::LinkStall), 2);
        assert_eq!(ledger.per_site().get("ch4:link-stall"), Some(&2));
        assert_eq!(ledger.per_site().get("node9:symbol-corrupt"), Some(&1));
        assert_eq!(ledger.lost(), 0);
    }

    #[test]
    fn lost_packets_are_recorded_by_logical_id() {
        let mut ledger = FaultLedger::new();
        ledger.on_record(&fault(FaultClass::PacketLost, 0, 42), true);
        assert_eq!(ledger.lost(), 1);
        assert_eq!(ledger.lost_packets(), &[42]);
        let json = ledger.to_json().render();
        assert!(json.contains("packet-lost"));
        assert!(json.contains("src0:packet-lost"));
    }

    #[test]
    fn non_fault_records_are_ignored() {
        let mut ledger = FaultLedger::new();
        ledger.on_record(&TraceRecord::INJECT, true);
        assert_eq!(ledger.total(), 0);
    }
}
