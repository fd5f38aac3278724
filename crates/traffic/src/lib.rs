//! Synthetic benchmark traffic for the `asynoc` simulator.
//!
//! The paper evaluates six benchmarks (§5.1): three unicast patterns from
//! Dally & Towles — *Uniform random*, *Bit permutation: shuffle*, and
//! *Hotspot* — and three multicast patterns — *Multicast5* / *Multicast10*
//! (all sources inject 5 % / 10 % multicast to random destination subsets,
//! uniform-random unicast otherwise) and *Multicast_static* (three fixed
//! sources inject only random multicast, the rest only uniform-random
//! unicast).
//!
//! Injection is a Poisson process per source: packet headers arrive with
//! exponentially distributed gaps whose mean realizes a requested rate in
//! **flits per nanosecond per source** (the paper's GF/s axis).
//!
//! # Examples
//!
//! ```
//! use asynoc_traffic::{Benchmark, SourceTraffic};
//!
//! // Source 2 of an 8x8 network injecting 0.4 GF/s of Multicast10 traffic.
//! let mut source = SourceTraffic::new(Benchmark::Multicast10, 8, 2, 0.4, 5, 42)?;
//! let gap = source.next_gap();
//! let dests = source.next_dests();
//! assert!(!dests.is_empty());
//! assert!(!gap.is_zero());
//! # Ok::<(), asynoc_traffic::TrafficError>(())
//! ```

#![deny(missing_docs)]
pub mod benchmark;
pub mod source;

pub use benchmark::Benchmark;
pub use source::{SourceTraffic, TrafficError};
