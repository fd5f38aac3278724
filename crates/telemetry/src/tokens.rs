//! Token conservation per flit, online.
//!
//! Every flit's journey is a tree of copies: one injection, a fork
//! wherever a node replicated it, one consumption per copy. A
//! [`TokenLedger`] keeps that balance for every `(packet, flit)` while
//! the run executes and forgets a flit the moment its tree closes clean,
//! so it holds what is in flight and what a fault touched, never what
//! has been — the accounting the span forest of `asynoc-analysis` does
//! offline over a whole trace (`FlitTree::settle`), without the trace.
//! The stream's `token_conservation` and `no_progress` watchpoints read
//! it event by event; the fault oracle reads its [`TokenTally`] when the
//! run ends.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::recorder::RecordSink;
use crate::site::Site;
use crate::trace::{Action, TraceRecord};

/// The copies of one flit of one packet, as counted so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlitTokens {
    /// Whether the flit's injection was seen.
    pub injected: bool,
    /// Copies in flight: created (one injection plus each forward's
    /// fan-out) less consumed (every forward, throttle and delivery takes
    /// one). Negative when more were consumed than created.
    pub in_flight: i64,
    /// Whether a fault record names the flit (a token-neutral annotation).
    pub faulted: bool,
}

impl FlitTokens {
    /// Token conservation holds and nothing is left in flight.
    #[must_use]
    pub fn closed(&self) -> bool {
        self.injected && self.in_flight == 0
    }

    /// An *impossible* tree: more copies consumed than created, or
    /// events without an injection. A run that merely stopped mid-flight
    /// never produces this; a packet discarded at its source does, with
    /// cause — it leaves fault records and nothing else.
    #[must_use]
    pub fn broken(&self) -> bool {
        self.in_flight < 0 || !self.injected
    }
}

/// What a run's flit trees amounted to, for the fault oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TokenTally {
    /// Trees carrying at least one fault record.
    pub fault_affected: usize,
    /// Trees that are [`FlitTokens::broken`].
    pub broken: usize,
    /// Broken trees that carry fault records: breakage *explained* by
    /// injection.
    pub broken_with_cause: usize,
}

struct Open<T> {
    tokens: FlitTokens,
    first_seen_ps: u64,
    note: T,
}

/// The flit trees of a run that are not closed clean, each with the
/// `note` of the last record that moved it (the stream keeps the record's
/// site there, for causal labels in its watchpoints).
///
/// A tree is forgotten when it closes without a fault record. One that a
/// fault touched is kept to the end — a fault can name a flit after its
/// last copy was consumed (a stalled credit return), and must find the
/// tree it annotates — so the ledger's size is bounded by the traffic in
/// flight plus the fault events fired, whatever the run's length.
pub struct TokenLedger<T = ()> {
    open: HashMap<(u64, u8), Open<T>>,
}

impl<T> Default for TokenLedger<T> {
    fn default() -> Self {
        TokenLedger {
            open: HashMap::new(),
        }
    }
}

impl<T: Copy> TokenLedger<T> {
    /// Moves `record`'s tokens on its flit's tree and returns the flit's
    /// `(packet, flit)` key with the tree as the record left it.
    pub fn apply(&mut self, record: &TraceRecord, note: T) -> ((u64, u8), FlitTokens) {
        let key = (record.packet, record.flit);
        let open = match self.open.entry(key) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(unknown) => {
                // A tree begins at its source: with the injection, or with
                // a fault on the injection link before it. Any other record
                // of a flit the ledger does not hold comes after its tree
                // closed and was forgotten; the tree is taken up again as
                // it was left — injected, balanced, clean.
                let begins = match record.action {
                    Action::Inject => true,
                    Action::Fault => matches!(record.site, Site::Source(_)),
                    _ => false,
                };
                unknown.insert(Open {
                    tokens: FlitTokens {
                        injected: !begins,
                        ..FlitTokens::default()
                    },
                    first_seen_ps: record.t_ps,
                    note,
                })
            }
        };
        let tokens = &mut open.tokens;
        match record.action {
            Action::Inject => {
                tokens.injected = true;
                tokens.in_flight += 1;
                // In flight since now, even if a fault record came first.
                open.first_seen_ps = record.t_ps;
            }
            // One input copy consumed, `copies` output copies launched.
            Action::Forward => tokens.in_flight += i64::from(record.copies) - 1,
            Action::Throttle | Action::Deliver => tokens.in_flight -= 1,
            Action::Fault => tokens.faulted = true,
        }
        // A fault record annotates: the note stays where the flit last moved.
        if record.action != Action::Fault {
            open.note = note;
        }
        let tokens = *tokens;
        if tokens.closed() && !tokens.faulted {
            self.open.remove(&key);
        }
        (key, tokens)
    }

    /// The flit in flight for longest — among those a fault touched, if
    /// `faulted_only` — its `(packet, flit)` key and the note of the last
    /// event on it. Ties on first sight break on the key, so the answer
    /// is deterministic despite the hash map.
    #[must_use]
    pub fn oldest_in_flight(&self, faulted_only: bool) -> Option<((u64, u8), T)> {
        self.open
            .iter()
            .filter(|(_, open)| open.tokens.in_flight > 0 && (open.tokens.faulted || !faulted_only))
            .min_by_key(|(key, open)| (open.first_seen_ps, **key))
            .map(|(key, open)| (*key, open.note))
    }

    /// The run's trees, counted: every tree a fault touched or that is
    /// broken is still held, and a forgotten one is neither.
    #[must_use]
    pub fn tally(&self) -> TokenTally {
        let mut tally = TokenTally::default();
        for Open { tokens, .. } in self.open.values() {
            tally.fault_affected += usize::from(tokens.faulted);
            tally.broken += usize::from(tokens.broken());
            tally.broken_with_cause += usize::from(tokens.broken() && tokens.faulted);
        }
        tally
    }
}

impl RecordSink for TokenLedger {
    fn on_record(&mut self, record: &TraceRecord, _in_window: bool) {
        self.apply(record, ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Detail;

    use asynoc_kernel::FaultClass;

    fn record(packet: u64, action: Action, copies: u8) -> TraceRecord {
        TraceRecord {
            packet,
            action,
            copies,
            ..TraceRecord::INJECT
        }
    }

    fn inject(packet: u64) -> TraceRecord {
        record(packet, Action::Inject, 1)
    }

    fn deliver(packet: u64) -> TraceRecord {
        record(packet, Action::Deliver, 0)
    }

    fn fault(packet: u64, class: FaultClass) -> TraceRecord {
        TraceRecord {
            site: Site::of_fault(class, 0),
            detail: Detail::Fault(class),
            ..record(packet, Action::Fault, 0)
        }
    }

    #[test]
    fn a_tree_retires_when_its_last_copy_is_consumed() {
        let mut ledger: TokenLedger<&str> = TokenLedger::default();
        let at = |t_ps: u64, record: TraceRecord| TraceRecord { t_ps, ..record };
        ledger.apply(&at(30, inject(8)), "g");
        ledger.apply(&at(10, inject(7)), "src");
        let (key, forked) = ledger.apply(&at(20, record(7, Action::Forward, 2)), "fork");
        assert_eq!(key, (7, 0));
        assert_eq!(forked.in_flight, 2);
        // The flit first seen earliest, with its latest note.
        assert_eq!(ledger.oldest_in_flight(false), Some(((7, 0), "fork")));
        ledger.apply(&at(40, record(7, Action::Throttle, 0)), "x");
        let (_, last) = ledger.apply(&at(50, deliver(7)), "sink");
        assert!(last.closed() && !last.broken());
        assert_eq!(ledger.oldest_in_flight(false), Some(((8, 0), "g")));
        // An open tree is not a broken one.
        assert_eq!(ledger.tally(), TokenTally::default());
        assert_eq!(ledger.open.len(), 1);
    }

    #[test]
    fn a_fault_record_after_the_last_copy_finds_its_tree() {
        // The VC mesh stalls a credit return after the delivery it pays
        // for: the record names a flit whose tree has closed.
        let mut ledger = TokenLedger::default();
        let records = [
            inject(1),
            deliver(1),
            fault(1, FaultClass::LinkStall),
            fault(1, FaultClass::LinkStall),
            inject(2),
            fault(2, FaultClass::LinkStall),
            deliver(2),
            fault(2, FaultClass::LinkStall),
        ];
        for record in &records {
            ledger.on_record(record, true);
        }
        let affected = TokenTally {
            fault_affected: 2,
            ..TokenTally::default()
        };
        assert_eq!(
            ledger.tally(),
            affected,
            "two trees, each counted once, none broken"
        );
    }

    #[test]
    fn faults_annotate_and_a_lost_packet_is_broken_with_cause() {
        let mut ledger = TokenLedger::default();
        let records = [
            // A header dropped on the injection link, re-sent, stalled once.
            fault(1, FaultClass::FlitDrop),
            inject(1),
            fault(1, FaultClass::LinkStall),
            deliver(1),
            // A packet discarded at its source: fault records only.
            fault(2, FaultClass::FlitDrop),
            fault(2, FaultClass::PacketLost),
            // One delivery too many on a tree that closed clean and was
            // forgotten: broken without a cause.
            inject(3),
            deliver(3),
            deliver(3),
        ];
        for record in &records {
            ledger.on_record(record, true);
        }
        assert_eq!(
            ledger.tally(),
            TokenTally {
                fault_affected: 2,
                broken: 2,
                broken_with_cause: 1,
            }
        );
        // Every tree a fault touched is kept; nothing counts as in flight.
        assert_eq!(ledger.open.len(), 3);
        assert_eq!(ledger.oldest_in_flight(false), None);
    }
}
