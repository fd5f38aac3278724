//! Gate-level asynchronous-circuit substrate.
//!
//! The paper's node micro-architectures (Figures 2 and 5) are built from a
//! small set of asynchronous control primitives: Muller **C-elements**
//! (the speculative node's acknowledge join), **XOR** completion detectors
//! (the baseline's acknowledge), and **normally-transparent latches** (the
//! speculative node's output port modules). This crate rebuilds that layer
//! from scratch:
//!
//! - [`netlist`] — gate netlists (INV/BUF/AND/OR/XOR/XNOR, C-element,
//!   transparent D-latch) with per-gate delays,
//! - [`sim`] — an event-driven transport-delay simulator over a netlist,
//!   deterministic and glitch-aware, with a full waveform log,
//! - [`mousetrap`] — two-phase (transition-signaling) bundled-data pipeline
//!   stages in the MOUSETRAP style the paper's single-rail bundled-data
//!   switches follow, and the **speculative broadcast fork** whose
//!   acknowledge is a C-element over both branches (§4(a)),
//! - [`vcd`] — VCD waveform export for inspection in GTKWave et al.
//!
//! The network-level simulator (`asynoc` core) abstracts nodes to
//! forward-latency/acknowledge parameters; this crate justifies that
//! abstraction by demonstrating the handshake sequencing those parameters
//! summarize.
//!
//! # Examples
//!
//! ```
//! use asynoc_gates::netlist::{GateKind, Netlist};
//! use asynoc_gates::sim::GateSim;
//! use asynoc_kernel::{Duration, Time};
//!
//! // A C-element: the output goes high only when both inputs are high,
//! // low only when both are low, and holds otherwise.
//! let mut netlist = Netlist::new();
//! let a = netlist.input("a");
//! let b = netlist.input("b");
//! let c = netlist.gate(GateKind::C2, &[a, b], Duration::from_ps(20), "c");
//! let mut sim = GateSim::new(&netlist);
//! sim.set_at(Time::from_ps(0), a, true);
//! sim.set_at(Time::from_ps(100), b, true);
//! sim.run_until_quiet();
//! assert!(sim.level(c)); // fired at 120 ps, after *both* inputs rose
//! ```

#![deny(missing_docs)]
pub mod mousetrap;
pub mod netlist;
pub mod sim;
pub mod vcd;

pub use mousetrap::{Pipeline, SpeculativeFork};
pub use netlist::{GateKind, NetId, Netlist};
pub use sim::GateSim;
