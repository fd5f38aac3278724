//! The counter vocabulary of the `asynoc-profile-v1` report.
//!
//! Plain data: every field is public. Counts are monotonic `u64`s; a
//! single add on the simulator's hot path is free next to the tens of
//! nanoseconds an event costs, so every run keeps them.

/// Event-queue behavior counters (embedded in both scheduler kinds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events inserted (`schedule`/`schedule_keyed` calls).
    pub inserts: u64,
    /// Events popped.
    pub pops: u64,
    /// Pops that found the timing wheel empty and were served by moving
    /// its window to the overflow heap's earliest event (0 for the heap).
    pub fallback_scans: u64,
    /// Most events pending at once.
    pub depth_high_water: u64,
}

/// How many events of each kind a run executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventKindCounts {
    /// Source-injection events.
    pub inject: u64,
    /// Channel-arrival events.
    pub arrive: u64,
    /// Channel-free (handshake completion) events: only the completions
    /// a sender waited on are events.
    pub free: u64,
    /// Cycle-floor retry events.
    pub retry: u64,
}

impl EventKindCounts {
    /// Events of every kind: all the events the run executed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.inject + self.arrive + self.free + self.retry
    }
}

/// Host wall-clock split across the run's simulated phases: how long
/// the host spent executing the events of the warmup window, of the
/// measurement window, and of the drain tail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseWall {
    /// Host nanoseconds until the first measurement-window event.
    pub warmup_ns: u64,
    /// Host nanoseconds from there until injection ended.
    pub measure_ns: u64,
    /// Host nanoseconds spent draining after injection ended (0 for a
    /// run without a drain).
    pub drain_ns: u64,
}

/// The engine-level profile of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineProfile {
    /// Host nanoseconds the whole run took.
    pub wall_ns: u64,
    /// Per-kind breakdown of the executed events.
    pub kinds: EventKindCounts,
    /// The event-queue counters.
    pub queue: QueueStats,
    /// Physical packets created (serialized clones counted one by one).
    pub packets: u64,
    /// Host wall-clock split across the simulated phases.
    pub phase: PhaseWall,
}
