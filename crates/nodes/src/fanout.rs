//! Fanout node behavior: routing, replication, throttling, speculation.
//!
//! The decision a fanout node takes for one flit is summarized by a
//! [`FanoutDecision`]: the set of output ports demanded (expressed as a
//! [`RouteSymbol`], where `Drop` means the flit is throttled and only
//! acknowledged). All ports demanded by a decision must be free before the
//! node fires — this models the parallel `Reqout` generation of the
//! non-speculative node and the C-element acknowledge of the speculative
//! node (§4(a)/(b)), and is exactly where speculation's congestion penalty
//! comes from: a speculative node cannot accept a new flit while *either*
//! output is stalled.
//!
//! Per-kind semantics (paper section in parentheses):
//!
//! | kind | header | body | tail |
//! |---|---|---|---|
//! | `Baseline` (§2) | own symbol | same | same |
//! | `NonSpeculative` (§4(b)) | own symbol (incl. `Drop` ⇒ throttle) | same | same |
//! | `Speculative` (§4(a)) | broadcast | broadcast | broadcast |
//! | `OptSpeculative` (§4(c)) | broadcast, latch own symbol | latched symbol | broadcast, release |
//! | `OptNonSpeculative` (§4(d)) | own symbol, latch (pre-allocate) | latched | latched, release |

use asynoc_packet::{FlitKind, RouteSymbol};
use asynoc_topology::FanoutKind;

/// What a fanout node does with one flit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FanoutDecision {
    /// Output ports demanded; [`RouteSymbol::Drop`] means the flit is
    /// throttled (acknowledged upstream, never forwarded).
    pub forward: RouteSymbol,
    /// `true` if body/tail flits ride a pre-allocated channel and skip
    /// route computation (the §4(d) fast path) — the simulator charges the
    /// reduced body-forward latency only when this is set.
    pub fast_path: bool,
}

impl FanoutDecision {
    /// Returns `true` if the flit is throttled at this node.
    #[must_use]
    pub fn is_drop(self) -> bool {
        self.forward.is_drop()
    }
}

/// Mutable per-node routing state.
///
/// Only the two optimized kinds hold state between flits (the latched route
/// of §4(c)/(d)); the unoptimized kinds re-evaluate every flit, exactly as
/// their hardware recomputes routes per flit.
///
/// # Examples
///
/// ```
/// use asynoc_nodes::FanoutState;
/// use asynoc_packet::{FlitKind, RouteSymbol};
/// use asynoc_topology::FanoutKind;
///
/// let mut state = FanoutState::new(FanoutKind::OptSpeculative);
/// // Header speculatively broadcasts but latches the true route...
/// let header = state.decide(FlitKind::Header, RouteSymbol::Top);
/// assert_eq!(header.forward, RouteSymbol::Both);
/// // ...so body flits only use the correct output (power optimization).
/// let body = state.decide(FlitKind::Body, RouteSymbol::Top);
/// assert_eq!(body.forward, RouteSymbol::Top);
/// // The tail returns the node to its default broadcast state.
/// let tail = state.decide(FlitKind::Tail, RouteSymbol::Top);
/// assert_eq!(tail.forward, RouteSymbol::Both);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FanoutState {
    kind: FanoutKind,
    latched: Option<RouteSymbol>,
}

impl FanoutState {
    /// Creates the initial (idle) state for a node of the given kind.
    #[must_use]
    pub fn new(kind: FanoutKind) -> Self {
        FanoutState {
            kind,
            latched: None,
        }
    }

    /// The node's kind.
    #[must_use]
    pub fn kind(&self) -> FanoutKind {
        self.kind
    }

    /// Returns `true` if a packet currently holds latched channel state.
    #[must_use]
    pub fn has_allocation(&self) -> bool {
        self.latched.is_some()
    }

    /// Decides what to do with a flit whose 2-bit routing symbol *for this
    /// node* is `symbol`, updating latched state.
    ///
    /// Flits of one packet must be presented in order (header first, tail
    /// last); the single-input channel of a fanout node guarantees packets
    /// arrive contiguously, so no interleaving can occur.
    ///
    /// # Panics
    ///
    /// Panics if a baseline node is asked to replicate (`Both`) or throttle
    /// (`Drop`) — the baseline network is unicast-only, so its traffic
    /// generator must serialize multicasts before injection.
    pub fn decide(&mut self, flit: FlitKind, symbol: RouteSymbol) -> FanoutDecision {
        match self.kind {
            FanoutKind::Baseline => {
                assert!(
                    matches!(symbol, RouteSymbol::Top | RouteSymbol::Bottom),
                    "baseline fanout node received non-unicast symbol {symbol}"
                );
                FanoutDecision {
                    forward: symbol,
                    fast_path: false,
                }
            }
            FanoutKind::NonSpeculative => FanoutDecision {
                forward: symbol,
                fast_path: false,
            },
            FanoutKind::Speculative => FanoutDecision {
                forward: RouteSymbol::Both,
                fast_path: false,
            },
            FanoutKind::OptSpeculative => self.decide_opt_speculative(flit, symbol),
            FanoutKind::OptNonSpeculative => self.decide_opt_non_speculative(flit, symbol),
        }
    }

    fn decide_opt_speculative(&mut self, flit: FlitKind, symbol: RouteSymbol) -> FanoutDecision {
        match flit {
            FlitKind::Header => {
                // Speculate on the header, remember the real route for the
                // body flits (§4(c)).
                self.latched = Some(symbol);
                FanoutDecision {
                    forward: RouteSymbol::Both,
                    fast_path: false,
                }
            }
            FlitKind::Body => {
                let latched = self
                    .latched
                    .expect("body flit reached an opt-speculative node with no latched header");
                FanoutDecision {
                    forward: latched,
                    fast_path: true,
                }
            }
            FlitKind::Tail => {
                // The output modules return to normally-transparent after
                // the tail, so the tail itself is still broadcast (§4(c)).
                self.latched = None;
                FanoutDecision {
                    forward: RouteSymbol::Both,
                    fast_path: false,
                }
            }
            FlitKind::HeaderTail => FanoutDecision {
                forward: RouteSymbol::Both,
                fast_path: false,
            },
        }
    }

    fn decide_opt_non_speculative(
        &mut self,
        flit: FlitKind,
        symbol: RouteSymbol,
    ) -> FanoutDecision {
        match flit {
            FlitKind::Header => {
                // Header pays full route computation and pre-allocates the
                // channel(s) (§4(d)).
                self.latched = Some(symbol);
                FanoutDecision {
                    forward: symbol,
                    fast_path: false,
                }
            }
            FlitKind::Body | FlitKind::Tail => {
                let latched = self.latched.expect(
                    "body/tail flit reached an opt-non-speculative node with no allocation",
                );
                if flit.is_tail() {
                    // Routing of the tail releases the channel (§4(d)).
                    self.latched = None;
                }
                FanoutDecision {
                    forward: latched,
                    fast_path: true,
                }
            }
            FlitKind::HeaderTail => FanoutDecision {
                forward: symbol,
                fast_path: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `kind symbol => what the node forwards of each flit` (`*`: the flit
    /// rides the pre-allocated fast path). A row's length is its packet's:
    /// one entry is a single header-tail flit, more are a header, bodies
    /// and a tail. Every kind meets every symbol it can read.
    const DECISIONS: &[&str] = &[
        "base top => top top top top top",
        "base bottom => bottom bottom bottom bottom bottom",
        // Non-speculative: its own symbol, a Drop included (§4(b)).
        "ns drop => drop drop drop drop drop",
        "ns top => top top top top top",
        "ns bottom => bottom bottom bottom bottom bottom",
        "ns both => both both both both both",
        // Speculative: broadcast, whatever the symbol (§4(a)).
        "sp drop => both both both both both",
        "sp top => both both both both both",
        "sp bottom => both both both both both",
        "sp both => both both both both both",
        // Optimized speculative: broadcast the header and the tail; bodies
        // follow the latched symbol, so a redundant copy's die here (§4(c)).
        "osp drop => both drop* drop* drop* both",
        "osp top => both top* top* top* both",
        "osp bottom => both bottom* bottom* bottom* both",
        "osp both => both both* both* both* both",
        "osp drop => both both",
        "osp top => both both",
        "osp bottom => both both",
        "osp both => both both",
        "osp top => both",
        // Optimized non-speculative: route the header, fast-path the rest
        // (§4(d)).
        "ons drop => drop drop* drop* drop* drop*",
        "ons top => top top* top* top* top*",
        "ons bottom => bottom bottom* bottom* bottom* bottom*",
        "ons both => both both* both* both* both*",
        "ons drop => drop drop*",
        "ons top => top top*",
        "ons bottom => bottom bottom*",
        "ons both => both both*",
        "ons top => top",
    ];

    #[test]
    fn every_kind_decides_each_flit_as_the_paper_says() {
        let symbol = |label| {
            *RouteSymbol::ALL
                .iter()
                .find(|s| s.label() == label)
                .unwrap()
        };
        for row in DECISIONS {
            let (node, decisions) = row.split_once(" => ").expect(row);
            let (kind, read) = node.split_once(' ').expect(row);
            let (kind, read) = (FanoutKind::parse_token(kind).expect(row), symbol(read));
            let expected: Vec<&str> = decisions.split(' ').collect();
            let flits: Vec<FlitKind> = (0..expected.len())
                .map(|i| match (i, expected.len()) {
                    (_, 1) => FlitKind::HeaderTail,
                    (0, _) => FlitKind::Header,
                    (i, n) if i + 1 == n => FlitKind::Tail,
                    _ => FlitKind::Body,
                })
                .collect();
            let mut state = FanoutState::new(kind);
            // Twice over: the tail leaves nothing latched for the next packet.
            for _ in 0..2 {
                for (&flit, want) in flits.iter().zip(&expected) {
                    let decision = state.decide(flit, read);
                    let fast = if decision.fast_path { "*" } else { "" };
                    assert_eq!(
                        format!("{}{fast}", decision.forward),
                        *want,
                        "{row}: {flit}"
                    );
                    if flit == FlitKind::Header {
                        assert_eq!(state.has_allocation(), kind.is_optimized(), "{row}");
                    }
                }
                assert!(!state.has_allocation(), "{row}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-unicast symbol")]
    fn baseline_rejects_multicast() {
        let _ = FanoutState::new(FanoutKind::Baseline).decide(FlitKind::Header, RouteSymbol::Both);
    }

    #[test]
    #[should_panic(expected = "non-unicast symbol")]
    fn baseline_rejects_drop() {
        let _ = FanoutState::new(FanoutKind::Baseline).decide(FlitKind::Header, RouteSymbol::Drop);
    }

    #[test]
    #[should_panic(expected = "no latched header")]
    fn opt_speculative_body_without_header_is_a_protocol_violation() {
        let _ =
            FanoutState::new(FanoutKind::OptSpeculative).decide(FlitKind::Body, RouteSymbol::Top);
    }

    #[test]
    #[should_panic(expected = "no allocation")]
    fn opt_non_speculative_body_without_header_is_a_protocol_violation() {
        let _ = FanoutState::new(FanoutKind::OptNonSpeculative)
            .decide(FlitKind::Body, RouteSymbol::Top);
    }
}
