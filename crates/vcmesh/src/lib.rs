//! A credit-based virtual-channel 2-D mesh NoC with in-network
//! multicast — the modern synchronous baseline the paper's speculative
//! MoT competes against.
//!
//! This crate is a *router* for `asynoc-mesh`'s fabric, not a fabric of
//! its own: the grid, channel table, config / report / network skeleton
//! and fault domain are the mesh's, shared with the wormhole
//! router. Where that baseline serializes every multicast into unicast
//! clones over single-flit handshaken links, this router models the
//! reference microarchitecture used by synchronous multicast studies:
//! per-VC input FIFOs, credit-based flow control with
//! credit return as first-class sim events, VC and switch allocation,
//! and two competing in-network multicast schemes — tree-based XY
//! (fork at divergence points) and Dynamic Partition Merging (Tiwari et
//! al., arXiv 2108.00566), which merges partitions whose paths overlap.
//!
//! It runs on the same `asynoc-engine` event loop as the other two
//! substrates, so every command, observer, fault plan and stream schema
//! applies unchanged. `VcMeshConfig` holds what is static about the
//! fabric (size, packet length, seed, multicast scheme); profiling,
//! observers and fault tables are per-run —
//! build a [`RunConfig`] and hand the network to [`drive`]:
//!
//! ```
//! use asynoc_traffic::Benchmark;
//! use asynoc_vcmesh::{drive, McastScheme, MeshSize, RunConfig, VcMeshConfig, VcMeshNetwork};
//!
//! let config = VcMeshConfig::new(MeshSize::new(4, 4)?).with_mcast(McastScheme::Dpm);
//! let network = VcMeshNetwork::new(config)?;
//! let run = RunConfig::quick(Benchmark::Multicast5, 0.1);
//! let report = drive(&network, &run, &mut [], None)?;
//! assert_eq!(report.packets_incomplete, 0);
//! assert!(report.router.link_traversals > 0);
//! # Ok::<(), asynoc_vcmesh::MeshError>(())
//! ```

#![deny(missing_docs)]
pub mod scheme;
pub mod sim;

pub use asynoc_engine::{drive, RunConfig, Substrate};
pub use asynoc_mesh::{MeshError, MeshSize};
pub use scheme::{DpmPlanner, McastScheme};
pub use sim::{VcMeshConfig, VcMeshNetwork, VcMeshReport, VcRouter, VcSection, VC_COUNT, VC_DEPTH};
