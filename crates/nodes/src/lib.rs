//! Node behavior and cost models for the `asynoc` simulator.
//!
//! The paper's §4 defines four new fanout node designs plus the baseline of
//! §2; the fanin (arbitration) node is reused unchanged from the baseline
//! network. This crate captures each design twice:
//!
//! - **behavior** ([`fanout::FanoutState`], [`fanin::FaninState`]): pure,
//!   synchronously-testable state machines deciding, per flit, which output
//!   ports are demanded, whether the flit is throttled, and what channel
//!   state is latched or released — the semantics of speculation, throttling,
//!   channel pre-allocation, and packet-granular arbitration;
//! - **cost** ([`timing::TimingModel`]): forward latencies, acknowledge
//!   round-trip contributions, areas, and per-traversal energies. Node-level
//!   numbers published in the paper (§5.2(a)) seed the model; the remaining
//!   parameters are calibrated against Table 1 anchors (see `DESIGN.md`).
//!
//! The simulator in the `asynoc` core crate drives these models; nothing
//! here schedules events, which is what keeps every protocol rule unit- and
//! property-testable in isolation.

#![deny(missing_docs)]
pub mod fanin;
pub mod fanout;
pub mod timing;

pub use fanin::FaninState;
pub use fanout::{FanoutDecision, FanoutState};
pub use timing::{FlitClass, KindEnergy, KindTiming, NodeCostRow, TimingModel};
