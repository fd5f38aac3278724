//! The speculation-waste ledger.
//!
//! The paper's defense of local speculation is that its waste — redundant
//! copies a speculative node broadcasts and a non-speculative neighbor
//! throttles — is "confined to small local regions". This ledger turns
//! that claim into a checkable report: for every node it counts the
//! throttles it absorbed and the redundant copies it created, and prices
//! them in femtojoules with the same constants the power model uses, so
//! the ledger's drop total reconciles exactly with the power report's
//! `Dropped` category, which prices the engine's count of the same
//! throttles.

use asynoc_kernel::hash::HashMap;

use crate::json::JsonValue;
use crate::recorder::RecordSink;
use crate::site::Site;
use crate::trace::{Action, TraceRecord};

/// Per-node waste counters.
#[derive(Clone, Debug, Default)]
pub struct NodeWaste {
    /// Redundant copies this node throttled (absorbed).
    pub throttles: u64,
    /// Redundant copies this node created (its speculative broadcasts
    /// that a downstream neighbor threw away).
    pub redundant_created: u64,
    /// Drop-acknowledge energy spent at this node, fJ.
    pub drop_fj: f64,
    /// Wire energy of the launches that carried doomed copies here, fJ.
    pub wasted_wire_fj: f64,
}

/// The speculation-waste ledger.
///
/// Gated on the measurement window (like the power counts), so its
/// totals are comparable with the run's `PowerReport`.
pub struct SpeculationWaste {
    wire_fj: f64,
    drop_fj: f64,
    per_node: HashMap<Site, NodeWaste>,
    injected: u64,
    forward_copies: u64,
}

impl SpeculationWaste {
    /// Creates a ledger pricing drops at `drop_fj` and wire launches at
    /// `wire_fj` (use the substrate's `TimingModel` constants so totals
    /// reconcile with its power report). A throttled copy is attributed
    /// to the site that created it ([`Site::creator`]).
    #[must_use]
    pub fn new(wire_fj: f64, drop_fj: f64) -> Self {
        SpeculationWaste {
            wire_fj,
            drop_fj,
            per_node: HashMap::default(),
            injected: 0,
            forward_copies: 0,
        }
    }

    /// Per-node records, ordered by label — the order the report lists
    /// them in.
    #[must_use]
    pub fn per_node(&self) -> Vec<(String, &NodeWaste)> {
        let mut rows: Vec<(String, &NodeWaste)> = self
            .per_node
            .iter()
            .map(|(site, waste)| (site.to_string(), waste))
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Total copies throttled in the window.
    #[must_use]
    pub fn total_throttles(&self) -> u64 {
        self.per_node.values().map(|w| w.throttles).sum()
    }

    /// Total drop-acknowledge energy, fJ. Reconciles with the energy
    /// ledger's `Dropped` category over the same window.
    #[must_use]
    pub fn total_drop_fj(&self) -> f64 {
        self.sum(|w| w.drop_fj)
    }

    /// Total wire energy spent carrying copies that were then thrown
    /// away, fJ.
    #[must_use]
    pub fn total_wasted_wire_fj(&self) -> f64 {
        self.sum(|w| w.wasted_wire_fj)
    }

    /// A float total, added up in the report's row order: a sum in the
    /// map's own order would differ in its last bits from run to run.
    fn sum(&self, field: impl Fn(&NodeWaste) -> f64) -> f64 {
        self.per_node().into_iter().map(|(_, w)| field(w)).sum()
    }

    /// Total wire energy of every launch in the window (injections plus
    /// forwarded copies), fJ — a denominator for waste fractions.
    #[must_use]
    pub fn total_wire_fj(&self) -> f64 {
        (self.injected + self.forward_copies) as f64 * self.wire_fj
    }

    /// The waste section of the metrics report. `total_dynamic_fj` is the
    /// run's dynamic energy over the same window (from its power report);
    /// the headline `waste_fraction_of_dynamic` is wasted wire + drop
    /// energy over that total.
    #[must_use]
    pub fn to_json(&self, total_dynamic_fj: f64) -> JsonValue {
        let (drop_fj, wasted_wire_fj) = (self.total_drop_fj(), self.total_wasted_wire_fj());
        let fraction = if total_dynamic_fj > 0.0 {
            (drop_fj + wasted_wire_fj) / total_dynamic_fj
        } else {
            0.0
        };
        let per_node: Vec<JsonValue> = self
            .per_node()
            .into_iter()
            .map(|(label, w)| {
                JsonValue::Object(vec![
                    ("node".to_string(), JsonValue::str(label)),
                    ("throttles".to_string(), JsonValue::uint(w.throttles)),
                    (
                        "redundant_copies_created".to_string(),
                        JsonValue::uint(w.redundant_created),
                    ),
                    ("drop_fj".to_string(), JsonValue::Number(w.drop_fj)),
                    (
                        "wasted_wire_fj".to_string(),
                        JsonValue::Number(w.wasted_wire_fj),
                    ),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            (
                "total_throttles".to_string(),
                JsonValue::uint(self.total_throttles()),
            ),
            ("total_drop_fj".to_string(), JsonValue::Number(drop_fj)),
            (
                "total_wasted_wire_fj".to_string(),
                JsonValue::Number(wasted_wire_fj),
            ),
            (
                "total_wire_fj".to_string(),
                JsonValue::Number(self.total_wire_fj()),
            ),
            (
                "waste_fraction_of_dynamic".to_string(),
                JsonValue::Number(fraction),
            ),
            ("per_node".to_string(), JsonValue::Array(per_node)),
        ])
    }
}

impl RecordSink for SpeculationWaste {
    fn on_record(&mut self, record: &TraceRecord, in_window: bool) {
        if !in_window {
            return;
        }
        match record.action {
            Action::Inject => self.injected += 1,
            Action::Forward => self.forward_copies += u64::from(record.copies),
            Action::Throttle => {
                let waste = self.per_node.entry(record.site).or_default();
                waste.throttles += 1;
                waste.drop_fj += self.drop_fj;
                waste.wasted_wire_fj += self.wire_fj;
                self.per_node
                    .entry(record.site.creator())
                    .or_default()
                    .redundant_created += 1;
            }
            Action::Deliver | Action::Fault => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> SpeculationWaste {
        SpeculationWaste::new(200.0, 400.0)
    }

    /// A throttle at fanout node `level.index` of source tree 0.
    fn throttle(level: u32, index: usize) -> TraceRecord {
        TraceRecord {
            site: Site::Fanout {
                tree: 0,
                level,
                index,
            },
            action: Action::Throttle,
            copies: 0,
            busy_ps: 80,
            ..TraceRecord::INJECT
        }
    }

    #[test]
    fn drops_price_and_attribute_to_the_parent() {
        let mut ledger = ledger();
        for _ in 0..3 {
            ledger.on_record(&throttle(2, 2), true);
        }
        assert_eq!(ledger.total_throttles(), 3);
        let rows = ledger.per_node();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "fo[s0:1.1]");
        assert_eq!(
            (rows[0].1.throttles, rows[0].1.redundant_created),
            (0, 3),
            "the parent created what its child threw away"
        );
        assert_eq!(rows[1].0, "fo[s0:2.2]");
        assert_eq!((rows[1].1.throttles, rows[1].1.redundant_created), (3, 0));
        assert!((ledger.total_drop_fj() - 1200.0).abs() < 1e-9);
        assert!((ledger.total_wasted_wire_fj() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn warmup_events_are_ignored() {
        let mut ledger = ledger();
        ledger.on_record(&throttle(1, 0), false);
        assert_eq!(ledger.total_throttles(), 0);
        assert!(ledger.per_node().is_empty());
    }

    #[test]
    fn wire_total_counts_injections_and_copies() {
        let mut ledger = ledger();
        ledger.on_record(&TraceRecord::INJECT, true);
        let fork = TraceRecord {
            action: Action::Forward,
            copies: 2,
            ..throttle(0, 0)
        };
        ledger.on_record(&fork, true);
        assert!((ledger.total_wire_fj() - 3.0 * 200.0).abs() < 1e-9);
    }

    #[test]
    fn json_totals_match_accessors() {
        let mut ledger = ledger();
        ledger.on_record(&throttle(2, 0), true);
        let json = ledger.to_json(6000.0);
        assert_eq!(
            json.get("total_drop_fj").and_then(JsonValue::as_f64),
            Some(400.0)
        );
        // (400 drop + 200 wasted wire) / 6000 dynamic.
        assert!(
            (json
                .get("waste_fraction_of_dynamic")
                .and_then(JsonValue::as_f64)
                .unwrap()
                - 0.1)
                .abs()
                < 1e-12
        );
        // The throttler and, one level up, the creator.
        let per_node = json.get("per_node").and_then(JsonValue::as_array).unwrap();
        assert_eq!(per_node.len(), 2);
        assert_eq!(
            per_node[1].get("node").and_then(JsonValue::as_str),
            Some("fo[s0:2.0]")
        );
    }
}
