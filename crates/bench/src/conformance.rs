//! Fixtures of the cross-substrate conformance tests (`tests/`): the
//! event-stream fingerprint and the MoT every test runs on.

use std::fmt::Write as _;

use asynoc::{Architecture, Network, NetworkConfig, Observer, SimEvent, Time};

/// Streaming FNV-1a fingerprint over the debug rendering of every
/// `(time, in_window, event)` triple, so any divergence — an extra event,
/// a reordered arbitration, a shifted timestamp — changes the hash.
pub struct Fingerprint {
    /// The running hash.
    pub hash: u64,
    /// Events absorbed so far.
    pub events: u64,
    line: String,
}

impl Fingerprint {
    /// An empty fingerprint.
    #[must_use]
    pub fn new() -> Self {
        Fingerprint {
            hash: 0xcbf2_9ce4_8422_2325,
            events: 0,
            line: String::new(),
        }
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl<N: std::fmt::Debug> Observer<N> for Fingerprint {
    fn on_event(&mut self, at: Time, in_window: bool, event: &SimEvent<'_, N>) {
        self.line.clear();
        write!(self.line, "{at:?}|{in_window}|{event:?}").expect("String write is infallible");
        for byte in self.line.as_bytes() {
            self.hash ^= u64::from(*byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.events += 1;
    }
}

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
