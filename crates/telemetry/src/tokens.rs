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

use asynoc_engine::{Observer, SimEvent};
use asynoc_kernel::Time;

use crate::site::Site;

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
    first_seen: Time,
    note: T,
}

/// The flit trees of a run that are not closed clean, each with the
/// `note` of the last event that moved it (the stream keeps the event's
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
    /// Moves `event`'s tokens on its flit's tree and returns the flit's
    /// `(packet, flit)` key with the tree as the event left it.
    pub fn apply<N>(
        &mut self,
        at: Time,
        event: &SimEvent<'_, N>,
        note: T,
    ) -> ((u64, u8), FlitTokens) {
        let (SimEvent::Inject { flit, .. }
        | SimEvent::Forward { flit, .. }
        | SimEvent::Drop { flit, .. }
        | SimEvent::Deliver { flit, .. }
        | SimEvent::Fault { flit, .. }) = event;
        let key = (flit.descriptor().id().as_u64(), flit.index());
        let open = match self.open.entry(key) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(unknown) => {
                // A tree begins at its source: with the injection, or with
                // a fault on the injection link before it. Any other event
                // on a flit the ledger does not hold comes after its tree
                // closed and was forgotten; the tree is taken up again as
                // it was left — injected, balanced, clean.
                let begins = match *event {
                    SimEvent::Inject { .. } => true,
                    SimEvent::Fault { class, site, .. } => {
                        matches!(Site::of_fault(class, site), Site::Source(_))
                    }
                    _ => false,
                };
                unknown.insert(Open {
                    tokens: FlitTokens {
                        injected: !begins,
                        ..FlitTokens::default()
                    },
                    first_seen: at,
                    note,
                })
            }
        };
        let tokens = &mut open.tokens;
        match event {
            SimEvent::Inject { .. } => {
                tokens.injected = true;
                tokens.in_flight += 1;
                // In flight since now, even if a fault record came first.
                open.first_seen = at;
            }
            // One input copy consumed, `copies` output copies launched.
            SimEvent::Forward { copies, .. } => tokens.in_flight += i64::from(*copies) - 1,
            SimEvent::Drop { .. } | SimEvent::Deliver { .. } => tokens.in_flight -= 1,
            SimEvent::Fault { .. } => tokens.faulted = true,
        }
        // A fault record annotates: the note stays where the flit last moved.
        if !matches!(event, SimEvent::Fault { .. }) {
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
            .min_by_key(|(key, open)| (open.first_seen, **key))
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

impl<N> Observer<N> for TokenLedger {
    fn on_event(&mut self, at: Time, _in_window: bool, event: &SimEvent<'_, N>) {
        self.apply(at, event, ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use asynoc_engine::ForwardInfo;
    use asynoc_kernel::{Duration, FaultClass};
    use asynoc_packet::{DestSet, Flit, PacketDescriptor, PacketId, RouteHeader};

    fn flit(id: u64) -> Flit {
        Flit::new(
            Arc::new(PacketDescriptor::new(
                PacketId::new(id),
                0,
                DestSet::unicast(1),
                RouteHeader::for_tree(8),
                1,
                Time::ZERO,
            )),
            0,
        )
    }

    fn inject(flit: &Flit) -> SimEvent<'_, usize> {
        SimEvent::Inject { source: 0, flit }
    }

    fn deliver(flit: &Flit) -> SimEvent<'_, usize> {
        SimEvent::Deliver { dest: 1, flit }
    }

    fn forward(flit: &Flit, copies: u8) -> SimEvent<'_, usize> {
        SimEvent::Forward {
            node: 0,
            flit,
            info: ForwardInfo::Arbitrated { input: 0 },
            copies,
            busy: Duration::ZERO,
        }
    }

    fn fault(flit: &Flit, class: FaultClass) -> SimEvent<'_, usize> {
        SimEvent::Fault {
            class,
            site: 0,
            flit,
        }
    }

    #[test]
    fn a_tree_retires_when_its_last_copy_is_consumed() {
        let (f, g) = (flit(7), flit(8));
        let mut ledger: TokenLedger<&str> = TokenLedger::default();
        let at = Time::from_ps;
        ledger.apply(at(30), &inject(&g), "g");
        ledger.apply(at(10), &inject(&f), "src");
        let (key, forked) = ledger.apply(at(20), &forward(&f, 2), "fork");
        assert_eq!(key, (7, 0));
        assert_eq!(forked.in_flight, 2);
        // The flit first seen earliest, with its latest note.
        assert_eq!(ledger.oldest_in_flight(false), Some(((7, 0), "fork")));
        let throttle = SimEvent::Drop {
            node: 1usize,
            flit: &f,
            busy: Duration::ZERO,
        };
        ledger.apply(at(40), &throttle, "x");
        let (_, last) = ledger.apply(at(50), &deliver(&f), "sink");
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
        let (clean, stalled) = (flit(1), flit(2));
        let mut ledger = TokenLedger::default();
        let events = [
            inject(&clean),
            deliver(&clean),
            fault(&clean, FaultClass::LinkStall),
            fault(&clean, FaultClass::LinkStall),
            inject(&stalled),
            fault(&stalled, FaultClass::LinkStall),
            deliver(&stalled),
            fault(&stalled, FaultClass::LinkStall),
        ];
        for event in &events {
            ledger.on_event(Time::ZERO, true, event);
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
        let (stalled, lost, ghost) = (flit(1), flit(2), flit(3));
        let mut ledger = TokenLedger::default();
        let events = [
            // A header dropped on the injection link, re-sent, stalled once.
            fault(&stalled, FaultClass::FlitDrop),
            inject(&stalled),
            fault(&stalled, FaultClass::LinkStall),
            deliver(&stalled),
            // A packet discarded at its source: fault records only.
            fault(&lost, FaultClass::FlitDrop),
            fault(&lost, FaultClass::PacketLost),
            // One delivery too many on a tree that closed clean and was
            // forgotten: broken without a cause.
            inject(&ghost),
            deliver(&ghost),
            deliver(&ghost),
        ];
        for event in &events {
            ledger.on_event(Time::ZERO, true, event);
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
