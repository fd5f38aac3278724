//! The pending-packet table: completion accounting and the delivery audit.
//!
//! The session applies each transition as its event executes. This is the
//! one place a logical packet completes, and so the one line that records
//! a latency.

use std::collections::hash_map::Entry;

use asynoc_kernel::hash::{HashMap, WordState};
use asynoc_kernel::Time;
use asynoc_packet::DestSet;
use asynoc_stats::LogHistogram;

/// Latency bookkeeping for one logical packet.
#[derive(Clone, Copy, Debug)]
struct Pending {
    created_at: Time,
    /// Destinations that must still receive the header.
    awaiting: DestSet,
    measured: bool,
}

/// The pending map's hash state. Its seed is fixed, not drawn per
/// process: packet ids come from the traffic generator, never from a
/// user's file, and a fixed seed gives the table the same growth and
/// tombstone layout — so the run loop the same allocation behavior — in
/// every process.
const PENDING_HASH: WordState = WordState::with_seed(0x9E37_79B9_7F4A_7C15);

/// Every logical packet in flight, and the latency of every measured one
/// that completed (creation → last header arrival).
#[derive(Debug)]
pub(crate) struct PendingTable {
    pending: HashMap<u64, Pending>,
    measured_in_flight: usize,
    latency: LogHistogram,
}

impl PendingTable {
    /// A table pre-sized for a network of `endpoints`, so that a run's
    /// steady state allocates nothing here.
    pub(crate) fn new(endpoints: usize) -> Self {
        PendingTable {
            pending: HashMap::with_capacity_and_hasher(endpoints * 16 + 256, PENDING_HASH),
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

    /// A logical packet entered the network at `time`, awaiting its
    /// header at every destination of `awaiting`.
    pub(crate) fn insert(&mut self, time: Time, logical: u64, awaiting: DestSet, measured: bool) {
        let entry = Pending {
            created_at: time,
            awaiting,
            measured,
        };
        self.pending.insert(logical, entry);
        self.measured_in_flight += usize::from(measured);
    }

    /// A header of `logical` reached `dest` at `time`.
    ///
    /// # Panics
    ///
    /// Panics on a delivery the packet does not await — the delivery
    /// audit: a header may reach each destination in its set exactly once.
    /// A duplicate means a redundant speculative copy escaped throttling; a
    /// miss would show up as a never-completing packet.
    pub(crate) fn deliver(&mut self, time: Time, logical: u64, dest: usize) {
        let Entry::Occupied(mut entry) = self.pending.entry(logical) else {
            panic!(
                "packet {logical}: header delivered at destination {dest} after \
                 completion — a redundant speculative copy escaped throttling"
            );
        };
        let awaiting = &mut entry.get_mut().awaiting;
        assert!(
            awaiting.contains(dest),
            "packet {logical}: duplicate or misrouted header at destination {dest}"
        );
        awaiting.remove(dest);
        if awaiting.is_empty() {
            let done = entry.remove();
            self.measured_in_flight -= usize::from(done.measured);
            if done.measured {
                self.latency.record(time.saturating_since(done.created_at));
            }
        }
    }

    /// `logical` was discarded at its source (lethal fault): `dests` no
    /// longer await delivery.
    pub(crate) fn lose(&mut self, logical: u64, dests: DestSet) {
        if let Entry::Occupied(mut entry) = self.pending.entry(logical) {
            let awaiting = &mut entry.get_mut().awaiting;
            for dest in dests.iter() {
                awaiting.remove(dest);
            }
            if awaiting.is_empty() {
                // Starved of its last destinations: counted by the fault
                // summary, not given a latency.
                self.measured_in_flight -= usize::from(entry.remove().measured);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table holding measured packet 7, created at 100 ps.
    fn table_with_packet_7(awaiting: &[usize]) -> PendingTable {
        let mut table = PendingTable::new(4);
        let awaiting = awaiting.iter().copied().collect();
        table.insert(Time::from_ps(100), 7, awaiting, true);
        table
    }

    #[test]
    #[should_panic(expected = "packet 7: duplicate or misrouted header at destination 2")]
    fn a_second_delivery_to_one_destination_fails_the_audit() {
        let mut table = table_with_packet_7(&[1, 2]);
        table.deliver(Time::from_ps(300), 7, 2);
        table.deliver(Time::from_ps(310), 7, 2);
    }

    #[test]
    #[should_panic(expected = "packet 7: header delivered at destination 1 after completion")]
    fn a_delivery_after_completion_fails_the_audit() {
        let mut table = table_with_packet_7(&[1]);
        table.deliver(Time::from_ps(300), 7, 1);
        table.deliver(Time::from_ps(310), 7, 1);
    }

    #[test]
    fn losing_the_last_awaited_destinations_retires_the_packet_without_a_latency() {
        let mut table = table_with_packet_7(&[1, 2, 3]);
        table.deliver(Time::from_ps(300), 7, 2);
        let lost = [1, 3].into_iter().collect();
        table.lose(7, lost);
        assert_eq!(table.measured_in_flight(), 0);
        // Losing it again, as a later clone of the same packet would, is a no-op.
        table.lose(7, lost);
        assert!(table.finish().0.is_empty());
    }
}
