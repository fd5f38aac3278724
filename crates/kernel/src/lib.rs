//! Discrete-event simulation kernel for the `asynoc` workspace.
//!
//! Asynchronous (clockless) circuits are not discretized to clock cycles, so
//! the simulator models the network at *handshake-event* granularity: every
//! flit launch, arrival, and acknowledge is an event stamped with a
//! picosecond-resolution [`Time`]. This crate provides the substrate
//! pieces every higher layer builds on:
//!
//! - [`Time`] / [`Duration`]: picosecond time arithmetic with checked
//!   semantics and human-readable formatting,
//! - [`CalendarQueue`]: the picosecond timing wheel every run schedules
//!   on (`O(1)` operations within 4 096 ps of the present, an overflow
//!   heap beyond; ties broken in FIFO insertion order, so identical seeds
//!   reproduce identical simulations),
//! - [`EventQueue`]: a binary-heap priority queue with the same
//!   `(time, key, seq)` order — the reference the calendar queue is
//!   tested against, not a run-time choice,
//! - [`hash`]: the one hasher of every map on a per-event or per-record
//!   path (a multiply per word, a SplitMix64 finish),
//! - [`rng`]: a seeded random-number layer with the exponential
//!   inter-arrival sampling used by the paper's traffic generators,
//! - [`parallel_map`]: a multi-core fan-out with deterministic result
//!   ordering, used by the experiment layer to spread independent runs
//!   (seeds, sweep points, saturation probes) across OS threads — the
//!   only parallelism there is: one simulation runs on one thread.
//!
//! # Examples
//!
//! ```
//! use asynoc_kernel::{Duration, EventQueue, Time};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(Time::ZERO + Duration::from_ps(250), "arrive");
//! queue.schedule(Time::ZERO + Duration::from_ps(100), "launch");
//! let (time, event) = queue.pop().expect("two events queued");
//! assert_eq!(event, "launch");
//! assert_eq!(time, Time::from_ps(100));
//! ```

#![deny(missing_docs)]

mod barrier;
pub mod calendar;
pub mod fault;
pub mod hash;
pub mod parallel;
pub mod queue;
pub mod rng;
pub mod time;

/// Read by `benchmark/layers` (its barrier round-trip layer) and nothing else.
pub use barrier::WindowBarrier;
pub use calendar::CalendarQueue;
pub use fault::FaultClass;
pub use parallel::{default_parallelism, parallel_map};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{Duration, Time, WindowClock};
