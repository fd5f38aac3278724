//! Armed fault state the run loop consults.
//!
//! [`ArmedFaults`] is the compiled, mutable form of a fault plan: tables
//! the engine's hot paths probe at channel launches, source header
//! firings, and (via the model) routing-symbol reads. When no entry is
//! armed every probe is one `Option` branch, so the hooks are free for
//! clean runs — [`run`](crate::run) threads a table in only when given
//! one.
//!
//! The struct is substrate-agnostic: channels, sources, and symbol sites
//! are plain indices; the substrate's fault domain decides which indices
//! are legal targets.

use asynoc_kernel::{Duration, FaultClass};
use asynoc_packet::RouteSymbol;

/// A transient extra delay on a channel's next `hits` launches.
#[derive(Clone, Debug)]
struct StallFault {
    channel: usize,
    hits_left: u32,
    extra: Duration,
}

/// A corrupted (or stuck) routing symbol at a fanout site, applied to
/// whole trains so headers and bodies stay coherent.
#[derive(Clone, Debug)]
struct SymbolFault {
    site: usize,
    hits_left: u32,
    symbol: RouteSymbol,
    class: FaultClass,
}

/// Per-train override state once a symbol fault latched onto a packet.
#[derive(Clone, Debug)]
struct ActiveOverride {
    site: usize,
    packet: u64,
    symbol: RouteSymbol,
}

/// A drop fault on one source's nth generated header.
#[derive(Clone, Debug)]
struct SourceFault {
    source: usize,
    /// Which header (0-based, in generation order) this entry targets.
    nth: u64,
    /// Times the header is dropped before going through (ignored when
    /// `lethal`).
    drops: u32,
    /// Source timeout before each re-send.
    retry_delay: Duration,
    /// `true` → the packet is discarded outright (unrecoverable).
    lethal: bool,
    consumed: bool,
}

/// Live drop state for one in-progress header.
#[derive(Clone, Debug)]
struct ActiveDrop {
    source: usize,
    packet: u64,
    drops_left: u32,
    retry_delay: Duration,
}

/// The legal fault-injection targets of one elaborated substrate.
///
/// Substrates expose this so plan generators draw targets only where a
/// fault is meaningful (and, for symbol corruption, provably
/// recoverable): arbitrary indices would either miss or violate the
/// delivery audit rather than model a physical fault.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultDomain {
    /// Total channel count; stall targets are `0..channels`.
    pub channels: usize,
    /// Endpoint count; drop/lose targets are `0..endpoints`.
    pub endpoints: usize,
    /// Routing nodes that read a symbol a plan can override; corrupt/stuck
    /// targets are `0..symbol_sites` (none on a mesh).
    pub symbol_sites: usize,
    /// Symbol-read sites where a widened (`Both`) override is
    /// recoverable: every spurious copy is guaranteed to throttle at a
    /// non-speculative stage before reaching arbitration. Empty on
    /// substrates without tree routing (the mesh).
    pub corrupt_sites: Vec<usize>,
}

/// What the source must do about a header the fault layer intercepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceFaultAction {
    /// Drop the flit on the link; re-send after the timeout.
    Resend {
        /// Source timeout before the re-send.
        delay: Duration,
    },
    /// Discard the whole packet (drop budget exhausted by plan).
    Lose,
}

/// Counters of every fault the armed state actually fired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Channel launches stalled.
    pub stalls: u64,
    /// Trains whose routing symbol was corrupted.
    pub corrupted: u64,
    /// Trains forced into speculative broadcast.
    pub stuck: u64,
    /// Header flits dropped at a source (each followed by a re-send
    /// unless the packet was lethal).
    pub drops: u64,
    /// Packets discarded at the source.
    pub lost: u64,
}

impl FaultSummary {
    /// Total individual fault events fired.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.stalls + self.corrupted + self.stuck + self.drops + self.lost
    }
}

/// The armed fault tables one run consults. Build with the `add_*`
/// methods (typically from a decoded `asynoc::faults` plan), pass to
/// [`run`](crate::run), then read back the
/// [`summary`](ArmedFaults::summary).
#[derive(Clone, Debug, Default)]
pub struct ArmedFaults {
    stalls: Vec<StallFault>,
    symbols: Vec<SymbolFault>,
    sources: Vec<SourceFault>,
    active_overrides: Vec<ActiveOverride>,
    active_drops: Vec<ActiveDrop>,
    /// Headers generated per source so far (indexes `SourceFault::nth`).
    header_seq: Vec<u64>,
    summary: FaultSummary,
}

impl ArmedFaults {
    /// An empty (disarmed) table.
    #[must_use]
    pub fn new() -> Self {
        ArmedFaults::default()
    }

    /// Whether any fault entry is armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        !(self.stalls.is_empty() && self.symbols.is_empty() && self.sources.is_empty())
    }

    /// Arms `hits` extra-delay stalls on `channel`.
    pub fn add_stall(&mut self, channel: usize, hits: u32, extra: Duration) {
        self.stalls.push(StallFault {
            channel,
            hits_left: hits,
            extra,
        });
    }

    /// Arms `hits` whole-train symbol overrides at fanout site `site`.
    /// `class` distinguishes a corrupted read ([`FaultClass::SymbolCorrupt`])
    /// from a stuck broadcast ([`FaultClass::StuckBroadcast`]).
    pub fn add_symbol(&mut self, site: usize, hits: u32, symbol: RouteSymbol, class: FaultClass) {
        self.symbols.push(SymbolFault {
            site,
            hits_left: hits,
            symbol,
            class,
        });
    }

    /// Arms a recoverable drop: `source`'s `nth` header is dropped
    /// `drops` times, re-sent after `retry_delay` each time.
    pub fn add_drop(&mut self, source: usize, nth: u64, drops: u32, retry_delay: Duration) {
        self.sources.push(SourceFault {
            source,
            nth,
            drops,
            retry_delay,
            lethal: false,
            consumed: false,
        });
    }

    /// Arms an unrecoverable loss: `source`'s `nth` header — and its
    /// whole train — is discarded at the source.
    pub fn add_lose(&mut self, source: usize, nth: u64) {
        self.sources.push(SourceFault {
            source,
            nth,
            drops: 0,
            retry_delay: Duration::ZERO,
            lethal: true,
            consumed: false,
        });
    }

    /// What this table actually fired so far.
    #[must_use]
    pub fn summary(&self) -> FaultSummary {
        self.summary
    }

    // The three hooks below run on every launch, fanout fire and source
    // header of a run given a table, and are inlined into the substrate's
    // crate: `benches/ratios.rs` holds a disarmed table to ≤ 1.05× none.

    /// Consumes one stall hit for a launch on `channel`, if armed.
    #[inline]
    pub(crate) fn stall_for(&mut self, channel: usize) -> Option<Duration> {
        let entry = self
            .stalls
            .iter_mut()
            .find(|s| s.channel == channel && s.hits_left > 0)?;
        entry.hits_left -= 1;
        self.summary.stalls += 1;
        Some(entry.extra)
    }

    /// The symbol `site` reads for a flit of `packet` — `None` when no
    /// override applies. The boolean is `true` exactly once per train,
    /// when the override first latches (the caller emits the fault event
    /// then). Overrides latch on headers and persist for the train so
    /// body flits follow their header.
    #[inline]
    pub(crate) fn symbol_override(
        &mut self,
        site: usize,
        packet: u64,
        is_header: bool,
    ) -> Option<(RouteSymbol, FaultClass, bool)> {
        if let Some(active) = self
            .active_overrides
            .iter()
            .find(|a| a.site == site && a.packet == packet)
        {
            let class = self
                .symbols
                .iter()
                .find(|s| s.site == site)
                .map_or(FaultClass::SymbolCorrupt, |s| s.class);
            return Some((active.symbol, class, false));
        }
        if !is_header {
            return None;
        }
        let entry = self
            .symbols
            .iter_mut()
            .find(|s| s.site == site && s.hits_left > 0)?;
        entry.hits_left -= 1;
        match entry.class {
            FaultClass::StuckBroadcast => self.summary.stuck += 1,
            _ => self.summary.corrupted += 1,
        }
        let (symbol, class) = (entry.symbol, entry.class);
        self.active_overrides.push(ActiveOverride {
            site,
            packet,
            symbol,
        });
        Some((symbol, class, true))
    }

    /// Called once per header the source pops for launch; returns the
    /// action the fault layer demands, if any. Retried headers (same
    /// packet) resume their live drop state instead of matching new
    /// entries, so `nth` counts *generated* headers, not attempts.
    #[inline]
    pub(crate) fn on_source_header(
        &mut self,
        source: usize,
        packet: u64,
    ) -> Option<SourceFaultAction> {
        if let Some(pos) = self
            .active_drops
            .iter()
            .position(|a| a.source == source && a.packet == packet)
        {
            let active = &mut self.active_drops[pos];
            if active.drops_left > 0 {
                active.drops_left -= 1;
                self.summary.drops += 1;
                return Some(SourceFaultAction::Resend {
                    delay: active.retry_delay,
                });
            }
            self.active_drops.remove(pos);
            return None;
        }
        if self.header_seq.len() <= source {
            self.header_seq.resize(source + 1, 0);
        }
        let seq = self.header_seq[source];
        self.header_seq[source] += 1;
        let entry = self
            .sources
            .iter_mut()
            .find(|s| s.source == source && s.nth == seq && !s.consumed)?;
        entry.consumed = true;
        if entry.lethal {
            self.summary.drops += 1;
            self.summary.lost += 1;
            return Some(SourceFaultAction::Lose);
        }
        if entry.drops == 0 {
            return None;
        }
        self.summary.drops += 1;
        self.active_drops.push(ActiveDrop {
            source,
            packet,
            drops_left: entry.drops - 1,
            retry_delay: entry.retry_delay,
        });
        Some(SourceFaultAction::Resend {
            delay: entry.retry_delay,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_probes_are_inert() {
        let mut faults = ArmedFaults::new();
        assert!(!faults.is_armed());
        assert_eq!(faults.stall_for(3), None);
        assert_eq!(faults.symbol_override(1, 7, true), None);
        assert_eq!(faults.on_source_header(0, 7), None);
        assert_eq!(faults.summary(), FaultSummary::default());
    }

    #[test]
    fn stalls_consume_hits() {
        let mut faults = ArmedFaults::new();
        faults.add_stall(5, 2, Duration::from_ps(300));
        assert!(faults.is_armed());
        assert_eq!(faults.stall_for(4), None, "other channels untouched");
        assert_eq!(faults.stall_for(5), Some(Duration::from_ps(300)));
        assert_eq!(faults.stall_for(5), Some(Duration::from_ps(300)));
        assert_eq!(faults.stall_for(5), None, "budget exhausted");
        assert_eq!(faults.summary().stalls, 2);
    }

    #[test]
    fn symbol_overrides_latch_per_train() {
        let mut faults = ArmedFaults::new();
        faults.add_symbol(9, 1, RouteSymbol::Both, FaultClass::SymbolCorrupt);
        // Body flits of an unlatched train pass through unharmed.
        assert_eq!(faults.symbol_override(9, 40, false), None);
        let (sym, class, fresh) = faults.symbol_override(9, 41, true).expect("latches");
        assert_eq!(sym, RouteSymbol::Both);
        assert_eq!(class, FaultClass::SymbolCorrupt);
        assert!(fresh);
        // Re-reads (retries, body flits) keep the override, not fresh.
        let (sym, _, fresh) = faults.symbol_override(9, 41, false).expect("still latched");
        assert_eq!(sym, RouteSymbol::Both);
        assert!(!fresh);
        let (_, _, fresh) = faults.symbol_override(9, 41, true).expect("header retry");
        assert!(!fresh);
        // The single hit is spent; the next train is clean.
        assert_eq!(faults.symbol_override(9, 42, true), None);
        assert_eq!(faults.summary().corrupted, 1);
    }

    #[test]
    fn drops_resend_then_clear() {
        let mut faults = ArmedFaults::new();
        faults.add_drop(2, 1, 2, Duration::from_ps(500));
        // Header 0 passes, header 1 matches.
        assert_eq!(faults.on_source_header(2, 100), None);
        assert_eq!(
            faults.on_source_header(2, 101),
            Some(SourceFaultAction::Resend {
                delay: Duration::from_ps(500)
            })
        );
        // The retried header resumes the live state, not a new match.
        assert_eq!(
            faults.on_source_header(2, 101),
            Some(SourceFaultAction::Resend {
                delay: Duration::from_ps(500)
            })
        );
        assert_eq!(faults.on_source_header(2, 101), None, "finally goes out");
        assert_eq!(faults.on_source_header(2, 102), None, "later headers clean");
        assert_eq!(faults.summary().drops, 2);
        assert_eq!(faults.summary().lost, 0);
    }
}
