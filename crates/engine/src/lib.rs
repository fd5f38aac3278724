//! Substrate-agnostic discrete-event simulation engine.
//!
//! The MoT simulator (`asynoc`) and the mesh simulators (`asynoc-mesh`,
//! `asynoc-vcmesh`) share one execution discipline: single-flit bundled-data channels,
//! fire-when-ready entities, stall-and-notify wakeups (no polling), FIFO
//! tie breaking on the kernel event queue, and the paper's §5.1
//! measurement protocol (offered/injected/delivered flits in a window,
//! per-logical-packet latency to the last header arrival, bounded drain).
//! This crate owns that discipline once:
//!
//! - [`Netlist`] is a network's static wiring — every channel's two
//!   ends, each source's channel, the source and sink timing — built once
//!   per network and borrowed by every run.
//! - [`SimModel`] is what a substrate implements — its node firing rules
//!   (routing included: a node routes from the destination set its flit
//!   carries).
//! - [`Ctx`] is the engine state a firing node may touch.
//! - [`Observer`] receives the engine's event stream (injections,
//!   forwards, drops, deliveries) so statistics, power accounting, and
//!   tracing compose per run instead of being hard-wired into the loop.
//! - [`run`] is the one way to execute a simulation — one event loop on
//!   the calling thread, over a borrowed netlist — with an
//!   [`ArmedFaults`] table threaded into its hooks when given
//!   (deterministic stalls, symbol corruption, source drops/losses; free
//!   when absent). It returns an [`EngineReport`] plus the model, whose
//!   accumulated state the caller may harvest.
//! - [`Substrate`] is what a ready-to-run *network* implements on top of
//!   its model — its netlist, traffic parameters, symbol-corruption
//!   sites, and its own report section — so that [`drive`] turns one
//!   [`RunConfig`] into a run on any fabric, and the fault oracle and the
//!   CLI dispatch on the fabric once.
//! - [`parallel_map`] fans independent work items (seeds, configs,
//!   saturation probe points) across OS threads with deterministic
//!   result ordering — the experiment layer's multi-core runner.
//!
//! # Performance discipline
//!
//! The run loop is the hot path of every experiment, so it holds two
//! standing guarantees, both enforced by tests:
//!
//! - **Scheduler-independent results.** Events are totally ordered by
//!   `(time, canonical key, insertion seq)` — the key ranks simultaneous
//!   events by kind and entity index; the kernel's timing wheel realizes
//!   that order exactly (the kernel tests it against the binary heap), so
//!   a seeded run is bit-identical on every host.
//! - **Zero-allocation steady state.** All run state is pre-sized at
//!   construction, a flit carries its packet descriptor by value (nothing
//!   per packet is on the heap), and an event is queued as its ordering
//!   key alone — after warm-up, a clean run performs no heap allocation
//!   (see `tests/zero_alloc.rs`).

#![deny(missing_docs)]

mod fault;
mod netlist;
mod observer;
mod pending;
mod session;
mod substrate;

pub use asynoc_kernel::parallel_map;
/// The profiling vocabulary [`EngineReport::profile`] is expressed in
/// (re-exported so downstream crates need no direct `asynoc-probe`
/// dependency just to read a profile).
pub use asynoc_probe as probe;
pub use fault::{ArmedFaults, FaultDomain, FaultSummary, SourceFaultAction};
pub use netlist::{ChannelEnds, Netlist, NodeRef};
pub use observer::{ForwardInfo, Observer, SimEvent};
pub use session::{run, Ctx, EngineReport, NodeKey, RunSpec, SimModel};
pub use substrate::{drive, RunConfig, Substrate};
