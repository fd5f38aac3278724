//! Packet, flit, and source-routing-header model for the `asynoc` workspace.
//!
//! The DAC'16 network moves fixed-length multi-flit packets (the paper uses
//! five flits). A packet is described once, in a shared
//! [`PacketDescriptor`], and each [`Flit`] carries a cheap handle to it —
//! mirroring the hardware, where only the header carries routing state and
//! body/tail flits follow the path the header opened.
//!
//! Source routing comes in two flavors:
//!
//! - the unicast **baseline** encodes one bit per fanout level
//!   ([`BaselinePath`]),
//! - the parallel-multicast networks encode a 2-bit [`RouteSymbol`]
//!   (`Drop`/`Top`/`Bottom`/`Both`) per *non-speculative* fanout node
//!   ([`RouteHeader`]); speculative nodes always broadcast and need no
//!   address field, which is where the paper's header-size savings come from
//!   (see [`coding`]).
//!
//! # Examples
//!
//! ```
//! use asynoc_packet::{DestSet, RouteSymbol};
//!
//! let dests: DestSet = [1usize, 2, 3].into_iter().collect();
//! assert_eq!(dests.len(), 3);
//! assert!(!dests.is_unicast());
//! assert_eq!(RouteSymbol::Both.to_bits(), 0b11);
//! ```

#![deny(missing_docs)]
pub mod address;
pub mod coding;
pub mod destset;
pub mod flit;
pub mod packet;

pub use address::{BaselinePath, RouteHeader, RouteSymbol};
pub use destset::DestSet;
pub use flit::{Flit, FlitKind};
pub use packet::{PacketDescriptor, PacketId};
