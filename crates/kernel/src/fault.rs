//! Fault-event tagging shared by the engine and the telemetry layer.
//!
//! Fault injection lives in `asynoc-engine` (the hooks) and
//! `asynoc::faults` (the plans); the *classification* of what was injected
//! lives here so that kernel-adjacent consumers (trace records, ledgers,
//! offline analysis) agree on one closed taxonomy without depending on
//! the injection machinery.

/// What kind of fault an injection hook fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A channel handshake was stalled: the flit's flight time was
    /// extended by a bounded extra delay. Always recoverable.
    LinkStall,
    /// A routing node read a corrupted symbol instead of the encoded
    /// one. Recoverable when the corruption widens the route (`both` —
    /// downstream non-speculative nodes throttle the spurious copies);
    /// unrecoverable when it narrows it (`drop` — the train starves its
    /// destinations).
    SymbolCorrupt,
    /// A node was stuck in speculative-broadcast mode for whole trains,
    /// regardless of its encoded symbol. Recoverable wherever local
    /// speculation itself is (downstream throttling).
    StuckBroadcast,
    /// A flit was dropped on the source's injection link; the source
    /// times out and re-sends (recoverable) unless the plan marks the
    /// packet lethal.
    FlitDrop,
    /// A whole packet was discarded at the source after its drop budget
    /// was exhausted. Unrecoverable, but never silent: the engine emits
    /// this event and releases the packet's latency bookkeeping.
    PacketLost,
}

impl FaultClass {
    /// All classes, in declaration order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::LinkStall,
        FaultClass::SymbolCorrupt,
        FaultClass::StuckBroadcast,
        FaultClass::FlitDrop,
        FaultClass::PacketLost,
    ];

    /// The stable kebab-case label carried by trace records and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::LinkStall => "link-stall",
            FaultClass::SymbolCorrupt => "symbol-corrupt",
            FaultClass::StuckBroadcast => "stuck-broadcast",
            FaultClass::FlitDrop => "flit-drop",
            FaultClass::PacketLost => "packet-lost",
        }
    }

    /// Parses a [`label`](FaultClass::label) back into its class.
    #[must_use]
    pub fn parse(label: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.label() == label)
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for class in FaultClass::ALL {
            assert_eq!(FaultClass::parse(class.label()), Some(class));
            assert_eq!(class.to_string(), class.label());
        }
        assert_eq!(FaultClass::parse("meteor-strike"), None);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = FaultClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FaultClass::ALL.len());
    }
}
