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
//! - [`SimModel`] is what a substrate implements — its channel wiring,
//!   timing constants, routing, and node firing rules.
//! - [`Observer`] receives the engine's event stream (injections,
//!   forwards, drops, deliveries) so statistics, power accounting, and
//!   tracing compose per run instead of being hard-wired into the loop.
//! - [`Session`] is one prepared simulation; [`run`] wraps it and
//!   returns an [`EngineReport`] plus the model (whose accumulated state
//!   the caller may harvest).
//! - [`run_with_faults`] is the same loop with an [`ArmedFaults`] table
//!   threaded into its hooks — deterministic fault injection (stalls,
//!   symbol corruption, source drops/losses) with zero cost when
//!   disarmed.
//! - [`Substrate`] is what a ready-to-run *network* implements on top of
//!   its model — endpoint count, traffic parameters, fault domain, and
//!   its own report section — so that [`drive`] turns one [`RunConfig`]
//!   into a run on any fabric, and the fault oracle and the CLI dispatch
//!   on the fabric once.
//! - [`parallel_map`] fans independent work items (seeds, configs,
//!   saturation probe points) across OS threads with deterministic
//!   result ordering — the experiment layer's multi-core runner.
//! - [`run_sharded`] / [`run_sharded_with_faults`] split *one* run
//!   across OS threads: a [`ShardModel`] partitions its entities into
//!   shards ([`Partition`]) synchronised in conservative lookahead-bound
//!   windows, and a deterministic fold makes the observable results —
//!   observer streams, reports, audits — bit-identical to the serial
//!   runner's for every shard count.
//!
//! # Performance discipline
//!
//! The run loop is the hot path of every experiment, so it holds two
//! standing guarantees, both enforced by tests:
//!
//! - **Scheduler-independent results.** Events are totally ordered by
//!   `(time, canonical key, insertion seq)` — the key ranks simultaneous
//!   events by kind and entity index; the calendar queue realizes that
//!   order exactly (the kernel tests it against the binary heap), so a
//!   seeded run is bit-identical under any shard count (see
//!   [`run_sharded`]).
//! - **Zero-allocation steady state.** All run state is pre-sized at
//!   construction, packet descriptors are recycled through an internal
//!   free-list once their tails deliver, and event payloads are small
//!   `Copy` values stored inline in the queue — after warm-up, a clean
//!   run performs no heap allocation (see `tests/zero_alloc.rs`).

#![deny(missing_docs)]

mod fault;
mod observer;
mod pending;
mod pool;
mod session;
mod shard;
mod substrate;

pub use asynoc_kernel::parallel_map;
/// The profiling vocabulary [`EngineReport::profile`] is expressed in
/// (re-exported so downstream crates need no direct `asynoc-probe`
/// dependency just to read a profile).
pub use asynoc_probe as probe;
pub use fault::{ArmedFaults, FaultDomain, FaultSummary, SourceFaultAction};
pub use observer::{ForwardInfo, Observer, SimEvent};
pub use session::{
    run, run_with_faults, ChannelEnds, Ctx, EngineReport, NodeKey, NodeRef, RunSpec, Session,
    SimModel,
};
pub use shard::{run_sharded, run_sharded_with_faults, Partition, ShardModel};
pub use substrate::{drive, RunConfig, Substrate};
