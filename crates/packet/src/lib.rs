//! Packet, flit, destination-set and route-symbol model for the `asynoc`
//! workspace.
//!
//! The DAC'16 network moves fixed-length multi-flit packets (the paper uses
//! five flits). A packet is described once, in a small `Copy`
//! [`PacketDescriptor`] that each [`Flit`] carries by value — nothing per
//! packet lives on the heap. As in the hardware, only the header's routing
//! state steers a node; body/tail flits follow the path the header opened.
//!
//! A non-speculative fanout node steers a header by a 2-bit [`RouteSymbol`]
//! (`Drop`/`Top`/`Bottom`/`Both`) that it reads from the packet's
//! [`DestSet`]; speculative nodes always broadcast and read none, which is
//! where the paper's header-size savings come from.
//!
//! # Examples
//!
//! ```
//! use asynoc_packet::{DestSet, RouteSymbol};
//!
//! let dests: DestSet = [1usize, 2, 3].into_iter().collect();
//! assert_eq!(dests.len(), 3);
//! assert!(!dests.is_unicast());
//! assert!(RouteSymbol::Both.wants_top() && RouteSymbol::Both.wants_bottom());
//! ```

#![deny(missing_docs)]
pub mod address;
pub mod destset;
pub mod flit;
pub mod packet;

pub use address::RouteSymbol;
pub use destset::DestSet;
pub use flit::{Flit, FlitKind};
pub use packet::{PacketDescriptor, PacketId};
