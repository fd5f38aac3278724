//! The pending-packet table: completion accounting and the delivery audit.
//!
//! A serial session applies each transition as its event executes; a
//! sharded run logs them per shard and shard 0 applies them in the serial
//! loop's order. Either way this is the one place a logical packet
//! completes, and so the one line that records a latency.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use asynoc_kernel::Time;
use asynoc_packet::DestSet;
use asynoc_stats::LogHistogram;

/// One transition of the pending-packet table.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PendOp {
    /// A logical packet entered the network.
    Insert {
        logical: u64,
        awaiting: DestSet,
        measured: bool,
    },
    /// A header reached `dest`.
    Deliver { logical: u64, dest: usize },
    /// A packet was discarded at its source (lethal fault): its
    /// destinations no longer await delivery.
    Lose { logical: u64, dests: DestSet },
}

/// Latency bookkeeping for one logical packet.
#[derive(Clone, Copy, Debug)]
struct Pending {
    created_at: Time,
    /// Destinations that must still receive the header.
    awaiting: DestSet,
    measured: bool,
}

/// Deterministic hash state for the pending-packet map.
///
/// The std `RandomState` seeds itself per process, which makes hashmap
/// growth and tombstone layout — and therefore the run loop's exact
/// allocation behavior — vary between processes. Packet ids are
/// sequential `u64`s, so a SplitMix64 finalizer gives full avalanche
/// with one multiply chain and the same layout on every run.
#[derive(Clone, Copy, Debug, Default)]
struct DetHashState;

impl BuildHasher for DetHashState {
    type Hasher = DetHasher;

    fn build_hasher(&self) -> DetHasher {
        DetHasher(0)
    }
}

/// See [`DetHashState`].
#[derive(Clone, Copy, Debug)]
struct DetHasher(u64);

impl Hasher for DetHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback; the pending map only hashes u64 keys.
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = n.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

/// Every logical packet in flight, and the latency of every measured one
/// that completed (creation → last header arrival).
#[derive(Debug)]
pub(crate) struct PendingTable {
    pending: HashMap<u64, Pending, DetHashState>,
    measured_in_flight: usize,
    latency: LogHistogram,
}

impl PendingTable {
    /// A table pre-sized for a network of `endpoints`, so that a run's
    /// steady state allocates nothing here.
    pub(crate) fn new(endpoints: usize) -> Self {
        PendingTable {
            pending: HashMap::with_capacity_and_hasher(endpoints * 16 + 256, DetHashState),
            measured_in_flight: 0,
            latency: LogHistogram::preallocated(),
        }
    }

    /// Measured packets not yet completed or lost.
    pub(crate) fn measured_in_flight(&self) -> usize {
        self.measured_in_flight
    }

    /// What a run reports of the table: the latency of every completed
    /// measured packet, and how many measured packets never completed.
    pub(crate) fn finish(self) -> (LogHistogram, usize) {
        (self.latency, self.measured_in_flight)
    }

    /// Applies the transition `op` of an event executing at `time`.
    ///
    /// # Panics
    ///
    /// Panics on a delivery the packet does not await — the delivery
    /// audit: a header may reach each destination in its set exactly once.
    /// A duplicate means a redundant speculative copy escaped throttling; a
    /// miss would show up as a never-completing packet.
    pub(crate) fn apply(&mut self, time: Time, op: &PendOp) {
        match *op {
            PendOp::Insert {
                logical,
                awaiting,
                measured,
            } => {
                let entry = Pending {
                    created_at: time,
                    awaiting,
                    measured,
                };
                self.pending.insert(logical, entry);
                self.measured_in_flight += usize::from(measured);
            }
            PendOp::Deliver { logical, dest } => {
                let Some(entry) = self.pending.get_mut(&logical) else {
                    panic!(
                        "packet {logical}: header delivered at destination {dest} after \
                         completion — a redundant speculative copy escaped throttling"
                    );
                };
                assert!(
                    entry.awaiting.contains(dest),
                    "packet {logical}: duplicate or misrouted header at destination {dest}"
                );
                entry.awaiting.remove(dest);
                if entry.awaiting.is_empty() {
                    if let Some(created_at) = self.retire(logical) {
                        self.latency.record(time.saturating_since(created_at));
                    }
                }
            }
            PendOp::Lose { logical, dests } => {
                if let Some(entry) = self.pending.get_mut(&logical) {
                    for dest in dests.iter() {
                        entry.awaiting.remove(dest);
                    }
                    if entry.awaiting.is_empty() {
                        // Starved of its last destinations: counted by the
                        // fault summary, not given a latency.
                        self.retire(logical);
                    }
                }
            }
        }
    }

    /// Removes `logical`, which awaits nothing more; its creation time if
    /// it was measured.
    fn retire(&mut self, logical: u64) -> Option<Time> {
        let done = self.pending.remove(&logical).expect("entry present");
        self.measured_in_flight -= usize::from(done.measured);
        done.measured.then_some(done.created_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table holding measured packet 7, created at 100 ps.
    fn table_with_packet_7(awaiting: &[usize]) -> PendingTable {
        let mut table = PendingTable::new(4);
        let insert = PendOp::Insert {
            logical: 7,
            awaiting: awaiting.iter().copied().collect(),
            measured: true,
        };
        table.apply(Time::from_ps(100), &insert);
        table
    }

    fn deliver(dest: usize) -> PendOp {
        PendOp::Deliver { logical: 7, dest }
    }

    #[test]
    #[should_panic(expected = "packet 7: duplicate or misrouted header at destination 2")]
    fn a_second_delivery_to_one_destination_fails_the_audit() {
        let mut table = table_with_packet_7(&[1, 2]);
        table.apply(Time::from_ps(300), &deliver(2));
        table.apply(Time::from_ps(310), &deliver(2));
    }

    #[test]
    #[should_panic(expected = "packet 7: header delivered at destination 1 after completion")]
    fn a_delivery_after_completion_fails_the_audit() {
        let mut table = table_with_packet_7(&[1]);
        table.apply(Time::from_ps(300), &deliver(1));
        table.apply(Time::from_ps(310), &deliver(1));
    }

    #[test]
    fn losing_the_last_awaited_destinations_retires_the_packet_without_a_latency() {
        let mut table = table_with_packet_7(&[1, 2, 3]);
        table.apply(Time::from_ps(300), &deliver(2));
        let lose = PendOp::Lose {
            logical: 7,
            dests: [1, 3].into_iter().collect(),
        };
        table.apply(Time::from_ps(400), &lose);
        assert_eq!(table.measured_in_flight(), 0);
        // Losing it again, as a later clone of the same packet would, is a no-op.
        table.apply(Time::from_ps(500), &lose);
        assert!(table.finish().0.is_empty());
    }
}
