//! The counter vocabulary of the `asynoc-profile-v1` report.
//!
//! Plain data: every field is public. Counts are monotonic `u64`s; a
//! single add on the simulator's hot path is free next to the tens of
//! nanoseconds an event costs, so these stay on even when no profile is
//! requested.

/// Event-queue behavior counters (embedded in both scheduler kinds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events inserted (`schedule`/`schedule_keyed` calls).
    pub inserts: u64,
    /// Events popped.
    pub pops: u64,
    /// Always 0: the timing wheel never resizes. Kept because the
    /// `asynoc-profile-v1` document still carries `queue/resizes`.
    pub resizes: u64,
    /// Pops that found the timing wheel empty and were served by moving
    /// its window to the overflow heap's earliest event (0 for the heap).
    pub fallback_scans: u64,
    /// Most events pending at once.
    pub depth_high_water: u64,
}

/// Descriptor-pool behavior counters (the engine's `FlitPool`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Descriptor requests (one per created physical packet).
    pub takes: u64,
    /// Requests satisfied by a recycled descriptor (no allocation).
    pub hits: u64,
    /// Descriptors returned to the pool.
    pub recycled: u64,
    /// Returns the pool refused (still shared, or at capacity).
    pub rejected: u64,
    /// Most descriptors parked in the pool at once.
    pub occupancy_high_water: u64,
}

impl PoolStats {
    /// Fraction of descriptor requests served without allocating
    /// (1.0 when nothing was requested — an empty pool wasted nothing).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.takes == 0 {
            1.0
        } else {
            self.hits as f64 / self.takes as f64
        }
    }
}

/// How many events of each kind a run executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventKindCounts {
    /// Source-injection events.
    pub inject: u64,
    /// Channel-arrival events.
    pub arrive: u64,
    /// Channel-free (handshake completion) events.
    pub free: u64,
    /// Cycle-floor retry events.
    pub retry: u64,
}

/// Host wall-clock split across the run's simulated phases: how long
/// the host spent executing events whose simulated time fell in the
/// warmup window, the measurement window, and the drain tail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseWall {
    /// Host nanoseconds until the first measurement-window event.
    pub warmup_ns: u64,
    /// Host nanoseconds from there until injection ended.
    pub measure_ns: u64,
    /// Host nanoseconds spent draining after injection ended.
    pub drain_ns: u64,
}

/// The engine-level profile of one run.
#[derive(Clone, Debug, Default)]
pub struct EngineProfile {
    /// Host nanoseconds the whole run took.
    pub wall_ns: u64,
    /// Events the run executed.
    pub events: u64,
    /// Per-kind breakdown of the executed events.
    pub kinds: EventKindCounts,
    /// The event-queue counters.
    pub queue: QueueStats,
    /// The descriptor-pool counters.
    pub pool: PoolStats,
    /// Host wall-clock split across the simulated phases.
    pub phase: PhaseWall,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_hit_rate_handles_empty_and_partial() {
        assert_eq!(PoolStats::default().hit_rate(), 1.0);
        let stats = PoolStats {
            takes: 4,
            hits: 3,
            ..PoolStats::default()
        };
        assert_eq!(stats.hit_rate(), 0.75);
    }
}
