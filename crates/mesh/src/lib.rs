//! 2D-mesh wormhole NoC simulator.
//!
//! The paper's future work names "alternative topologies (e.g. 2D-mesh)";
//! its related work compares against mesh-based multicast schemes and cites
//! evidence that a Mesh-of-Trees outperforms meshes for some applications.
//! This crate provides the comparison substrate: a `cols × rows` mesh of
//! five-port routers with deterministic XY (dimension-order) routing and
//! wormhole flow control, driven by the same benchmarks, timing style, and
//! statistics machinery as the MoT simulator.
//!
//! Multicast on the mesh is **serial** (one unicast clone per destination,
//! like the paper's Baseline network): tree-based multicast on a wormhole
//! mesh without virtual channels can deadlock (a multicast branch point
//! couples its outputs, closing dependency cycles XY ordering does not
//! break), and the paper's own contribution is precisely that the MoT makes
//! lightweight parallel multicast safe. The comparison therefore shows
//! parallel-MoT-multicast vs the best a plain mesh does without extra
//! machinery.
//!
//! # Examples
//!
//! ```
//! use asynoc_mesh::{MeshConfig, MeshNetwork, MeshSize};
//! use asynoc_stats::Phases;
//! use asynoc_kernel::Duration;
//! use asynoc_traffic::Benchmark;
//!
//! let network = MeshNetwork::new(MeshConfig::new(MeshSize::new(4, 4)?))?;
//! let phases = Phases::new(Duration::from_ns(80), Duration::from_ns(800));
//! let report = network.run(Benchmark::UniformRandom, 0.2, phases)?;
//! assert!(report.packets_measured > 0);
//! # Ok::<(), asynoc_mesh::MeshError>(())
//! ```
//!
//! `MeshConfig` holds what is static about the fabric (size, packet
//! length, seed). Shards, profiling, observers and fault tables are
//! per-run: build a [`RunConfig`] and hand the network to [`drive`], the
//! engine's one driver under every [`Substrate`].
//!
//! ```
//! use asynoc_mesh::{drive, MeshConfig, MeshNetwork, MeshSize, RunConfig};
//! use asynoc_traffic::Benchmark;
//!
//! let network = MeshNetwork::new(MeshConfig::new(MeshSize::new(4, 4)?).with_seed(7))?;
//! let run = RunConfig::quick(Benchmark::UniformRandom, 0.2).with_shards(2);
//! let report = drive(&network, &run, &mut [], None)?;
//! assert_eq!(report.shards, 2);
//! # Ok::<(), asynoc_mesh::MeshError>(())
//! ```
//!
//! The mesh is one fabric ([`fabric`]: grid, channel table, config,
//! report, network, sharding) parameterised by its [`Router`]. This crate
//! carries the wormhole router; `asynoc-vcmesh` supplies the credit-based
//! VC router with in-network multicast on the same fabric.

pub mod fabric;
pub mod router;
pub mod size;
pub mod wormhole;

pub use asynoc_engine::{drive, RunConfig, Substrate};
pub use fabric::{Config, Grid, MeshTiming, Network, Report, Router};
pub use router::{route_port, Port, RouterId};
pub use size::{MeshError, MeshSize};
pub use wormhole::{MeshConfig, MeshNetwork, MeshReport, Wormhole};
