//! Variant Mesh-of-Trees (MoT) topology and architecture descriptions.
//!
//! An N×N variant MoT (Balkan et al., reused by Horak et al. and by the
//! DAC'16 paper this workspace reproduces) connects N sources to N
//! destinations through:
//!
//! - N private binary **fanout trees**, one rooted at each source, whose
//!   nodes route/replicate packets toward destination subtrees, and
//! - N shared binary **fanin trees**, one rooted at each destination, whose
//!   nodes arbitrate among sources.
//!
//! Each source–destination pair has exactly one path, so all contention
//! lives in the fanin trees — and all multicast machinery lives in the
//! fanout trees, which is why the paper (and this workspace) only redesigns
//! fanout nodes.
//!
//! This crate answers the structural questions:
//!
//! - [`MotSize`]: validated network sizes and node counting,
//! - [`FanoutNodeId`] / [`FaninNodeId`]: node coordinates and flat indices,
//! - [`Architecture`] / [`FanoutKind`]: the paper's six network
//!   configurations and the five node kinds they are built from,
//! - [`SpecMap`]: the one speculation-placement type — which [`FanoutKind`]
//!   every fanout node gets, validated, with its node counts and header
//!   address bits,
//! - [`route`]: multicast route-symbol computation (the source-routing
//!   encoder).
//!
//! # Examples
//!
//! ```
//! use asynoc_topology::{Architecture, MotSize, SpecMap};
//!
//! let size = MotSize::new(8)?;
//! let map = SpecMap::preset(Architecture::OptHybridSpeculative, size);
//! assert_eq!(map.address_bits(), 12);
//! # Ok::<(), asynoc_topology::TopologyError>(())
//! ```

#![deny(missing_docs)]

pub mod arch;
pub mod error;
pub mod ids;
pub mod route;
pub mod size;
pub mod spec;

pub use arch::{Architecture, FanoutKind};
pub use error::TopologyError;
pub use ids::{FaninNodeId, FaninParent, FanoutChild, FanoutNodeId, OutputPort};
pub use route::{multicast_route, multicast_route_into, unicast_route};
pub use size::MotSize;
pub use spec::SpecMap;
