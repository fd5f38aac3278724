//! `asynoc` — an asynchronous Mesh-of-Trees NoC simulator with
//! local-speculation multicast.
//!
//! This crate is the core of a full reproduction of **Bhardwaj & Nowick,
//! "Achieving Lightweight Multicast in Asynchronous Networks-on-Chip Using
//! Local Speculation" (DAC 2016)**. It wires the workspace substrates —
//! topology, node behavior/timing, traffic, power, statistics — into a
//! runnable network model and an experiment harness that regenerates every
//! table and figure of the paper's evaluation.
//!
//! # The system in one paragraph
//!
//! An N×N variant Mesh-of-Trees connects N sources to N destinations via
//! private binary *fanout* (routing) trees and shared binary *fanin*
//! (arbitration) trees. Multicast packets are replicated at fanout branch
//! points driven by 2-bit source-routing symbols. Under **local
//! speculation**, a fixed subset of fanout nodes always *broadcasts* every
//! flit — these nodes need no route computation, so they are tiny and fast —
//! while neighboring non-speculative nodes *throttle* the redundant copies
//! (their routing symbol reads `Drop`), confining the waste to small local
//! regions. Protocol optimizations let speculative nodes stop replicating
//! body flits and non-speculative nodes pre-allocate channels, recovering
//! most of speculation's power cost while keeping its speed.
//!
//! # Quick start
//!
//! ```
//! use asynoc::{Architecture, Benchmark, Network, NetworkConfig, RunConfig};
//!
//! // An 8x8 hybrid-speculative network, as in the paper's headline result.
//! let config = NetworkConfig::eight_by_eight(Architecture::OptHybridSpeculative);
//! let network = Network::new(config)?;
//!
//! // Run Multicast10 at 0.3 GF/s per source with short windows.
//! let run = RunConfig::quick(Benchmark::Multicast10, 0.3);
//! let report = network.run(&run)?;
//! assert!(report.latency.count() > 0);
//! println!("mean latency: {}", report.latency.mean().unwrap());
//! # Ok::<(), asynoc::SimError>(())
//! ```
//!
//! # Reproducing the paper
//!
//! The [`harness`] module has one entry point per table/figure; the
//! `asynoc-bench` crate wraps them in runnable binaries. See
//! `EXPERIMENTS.md` at the workspace root for paper-vs-measured results.

#![deny(missing_docs)]
pub mod config;
pub mod error;
pub mod explore;
pub mod fabric;
pub mod faults;
pub mod harness;
pub mod report;
pub mod sim;

pub use config::{NetworkConfig, RunConfig};
pub use error::SimError;
pub use report::RunReport;
pub use sim::{MotNode, Network};

// Re-export the vocabulary types users need to drive the API.
pub use asynoc_engine::probe;
pub use asynoc_engine::{
    drive, parallel_map, EngineReport, NodeKey, Observer, SimEvent, Substrate,
};
pub use asynoc_kernel::default_parallelism;
pub use asynoc_kernel::{Duration, Time};
pub use asynoc_nodes::TimingModel;
pub use asynoc_packet::DestSet;
pub use asynoc_stats::Phases;
pub use asynoc_telemetry as telemetry;
pub use asynoc_topology::{
    Architecture, FanoutKind, FanoutNodeId, MotSize, SpecMap, TopologyError,
};
pub use asynoc_traffic::Benchmark;
