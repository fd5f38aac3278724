//! Fanin node behavior: per-flit two-input arbitration.
//!
//! Fanin nodes are reused unchanged from the baseline network (paper §2):
//! every flit that enters a fanin tree is destined for that tree's root, so
//! the arbitration tree only ever merges — it never routes or throttles,
//! and body flits need no addressing inside it. Arbitration is therefore
//! **per flit**, not per packet: the mutex arbiter grants whichever input
//! has a pending flit (alternating under sustained contention), and flits
//! of different packets may interleave on the way to the root. Per-source
//! flit order is still preserved end-to-end because each source's flits
//! follow a unique path and every stage is FIFO.
//!
//! Per-flit arbitration is also what makes parallel multicast
//! deadlock-free. If fanin nodes held packet-granular wormhole locks, two
//! multicasts could each hold a fanin tree while stalled on the other's —
//! the classic circular wait — because a multicast branch point couples its
//! output branches (flit *i + 1* cannot replicate until every branch took
//! flit *i*). With per-flit grants no node ever waits on a flit that has
//! not arrived, every dependency chain ends at an always-consuming sink,
//! and the network cannot deadlock at any load.

use asynoc_packet::FlitKind;

/// Arbitration state of one fanin node.
///
/// # Examples
///
/// ```
/// use asynoc_nodes::FaninState;
/// use asynoc_packet::FlitKind;
///
/// let mut arb = FaninState::new();
/// // Both inputs present a flit; one wins, then preference alternates.
/// let first = arb.select(true, true).expect("someone must win");
/// arb.advance(first, FlitKind::Header);
/// assert_eq!(arb.select(true, true), Some(1 - first));
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaninState {
    /// Input favored at the next contested arbitration (the loser of the
    /// last one — round-robin fairness, like a mutex arbiter's alternating
    /// grants under sustained contention).
    prefer: usize,
}

impl FaninState {
    /// Creates an idle arbiter.
    #[must_use]
    pub fn new() -> Self {
        FaninState::default()
    }

    /// Returns the input whose flit may be forwarded, given which inputs
    /// currently present a flit, or `None` if neither does.
    ///
    /// Does not change state: call [`advance`](Self::advance) once the flit
    /// is actually forwarded.
    #[must_use]
    pub fn select(&self, present0: bool, present1: bool) -> Option<usize> {
        match (present0, present1) {
            (false, false) => None,
            (true, false) => Some(0),
            (false, true) => Some(1),
            (true, true) => Some(self.prefer),
        }
    }

    /// Records that `input`'s flit was forwarded, flipping the round-robin
    /// preference to the other input.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not 0 or 1.
    pub fn advance(&mut self, input: usize, _kind: FlitKind) {
        assert!(input < 2, "fanin input {input} out of range");
        self.prefer = 1 - input;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_kernel::SimRng;

    #[test]
    fn idle_node_grants_sole_requester() {
        let arb = FaninState::new();
        assert_eq!(arb.select(true, false), Some(0));
        assert_eq!(arb.select(false, true), Some(1));
        assert_eq!(arb.select(false, false), None);
    }

    #[test]
    fn contested_arbitration_alternates() {
        let mut arb = FaninState::new();
        let mut winners = Vec::new();
        for _ in 0..6 {
            let w = arb.select(true, true).unwrap();
            arb.advance(w, FlitKind::Body);
            winners.push(w);
        }
        assert_eq!(winners, [0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn preference_flips_even_for_uncontested_grants() {
        let mut arb = FaninState::new();
        arb.advance(0, FlitKind::Header);
        assert_eq!(arb.select(true, true), Some(1));
        arb.advance(1, FlitKind::Tail);
        assert_eq!(arb.select(true, true), Some(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn input_index_checked() {
        FaninState::new().advance(2, FlitKind::Header);
    }

    /// No input starves: under any availability pattern in which an
    /// input stays ready, it is granted within two selections.
    #[test]
    fn no_starvation() {
        let mut rng = SimRng::seed_from(3);
        for _case in 0..64 {
            let len = rng.range_inclusive(1, 63);
            let mut arb = FaninState::new();
            for _ in 0..len {
                // Input 0 is always ready; input 1 sometimes.
                let other = rng.chance(0.5);
                let w1 = arb.select(true, other).unwrap();
                arb.advance(w1, FlitKind::Body);
                let w2 = arb.select(true, other).unwrap();
                arb.advance(w2, FlitKind::Body);
                assert!(w1 == 0 || w2 == 0, "input 0 starved");
            }
        }
    }

    /// Under sustained contention the grant ratio is exactly fair.
    #[test]
    fn fair_split() {
        for rounds in 1usize..100 {
            let mut arb = FaninState::new();
            let mut counts = [0usize; 2];
            for _ in 0..2 * rounds {
                let w = arb.select(true, true).unwrap();
                arb.advance(w, FlitKind::Body);
                counts[w] += 1;
            }
            assert_eq!(counts[0], counts[1]);
        }
    }
}
