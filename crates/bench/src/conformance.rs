//! Fixtures of the cross-substrate conformance tests (`tests/`): the MoT
//! every test runs on.

use asynoc::{Architecture, Network, NetworkConfig};

/// The 8x8 MoT the conformance tests run on.
///
/// # Panics
///
/// Never: 8x8 with a preset architecture always builds.
#[must_use]
pub fn mot(architecture: Architecture, seed: u64) -> Network {
    Network::new(NetworkConfig::eight_by_eight(architecture).with_seed(seed))
        .expect("8x8 network builds")
}
