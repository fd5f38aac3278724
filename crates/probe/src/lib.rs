//! `asynoc-probe` — runtime self-profiling for the simulator's own
//! execution.
//!
//! Everything else in the workspace measures the *simulated* network;
//! this crate measures the *simulator*: where the host's time goes and
//! how the event queue behaves. It sits below `asynoc-kernel` so every
//! layer (kernel queues, the engine's run loop, the CLI) can record into
//! the same vocabulary:
//!
//! - [`QueueStats`] / [`EventKindCounts`] — cheap monotonic counters
//!   embedded in the hot structures. They are plain `u64` adds, always
//!   on: a single increment disappears next to the 40–55 ns a simulated
//!   event costs, so there is nothing to toggle.
//! - [`EngineProfile`] — what every run reports about itself, and one
//!   run's section of the pinned `asynoc-profile-v1` report the CLI
//!   emits: those counters plus the run's wall clock, split across its
//!   simulated phases ([`PhaseWall`]).
//! - [`ProgressMeter`] — the `--progress` heartbeat: one `\r`-refreshed
//!   stderr line, rate-limited by wall-clock, TTY-gated.
//! - [`CountingAlloc`] — the counting global allocator (grown out of
//!   the zero-alloc test's harness) a binary may install to report how
//!   often the process touched the heap.
//!
//! The crate is dependency-free and deals exclusively in host-side
//! quantities (`std::time`), never simulated time.

#![deny(missing_docs)]

pub mod alloc;
pub mod progress;
pub mod stats;

pub use alloc::{allocations, current_bytes, peak_bytes, reset_peak_bytes, CountingAlloc};
pub use progress::ProgressMeter;
pub use stats::{EngineProfile, EventKindCounts, PhaseWall, QueueStats};

/// The profile report's schema identifier (`schema` field of the JSON
/// document `--profile` emits). Bump when the report shape changes.
pub const PROFILE_SCHEMA: &str = "asynoc-profile-v1";
