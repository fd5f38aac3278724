//! Event-driven simulation of a gate netlist.
//!
//! Transport-delay semantics: an input change propagates to a gate's
//! output exactly `delay` later. Equal-valued updates are suppressed via a
//! per-net *projected* value (the level the net will have once all
//! in-flight updates land), so stable logic quiesces. Ties pop in schedule
//! order (the kernel queue is FIFO for simultaneous events), making runs
//! deterministic.

use asynoc_kernel::{Duration, EventQueue, Time};

use crate::netlist::{NetId, Netlist};

/// One recorded level change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Change {
    /// When the net switched.
    pub time: Time,
    /// The net that switched.
    pub net: NetId,
    /// The new level.
    pub level: bool,
}

/// An event-driven simulator over a [`Netlist`].
///
/// # Examples
///
/// ```
/// use asynoc_gates::netlist::{GateKind, Netlist};
/// use asynoc_gates::GateSim;
/// use asynoc_kernel::{Duration, Time};
///
/// let mut netlist = Netlist::new();
/// let a = netlist.input("a");
/// let y = netlist.gate(GateKind::Inv, &[a], Duration::from_ps(10), "y");
/// let mut sim = GateSim::new(&netlist);
/// sim.settle(); // propagate initial levels: y rises at t=10
/// assert!(sim.level(y));
/// sim.set_at(Time::from_ps(100), a, true);
/// sim.run_until_quiet();
/// assert!(!sim.level(y)); // fell at 110 ps
/// ```
#[derive(Debug)]
pub struct GateSim<'a> {
    netlist: &'a Netlist,
    levels: Vec<bool>,
    projected: Vec<bool>,
    queue: EventQueue<(NetId, bool)>,
    now: Time,
    log: Vec<Change>,
    events_processed: u64,
}

impl<'a> GateSim<'a> {
    /// Creates a simulator with every net at its initial level and all
    /// gates scheduled for initial evaluation.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        let levels: Vec<bool> = (0..netlist.net_count())
            .map(|n| netlist.initial_level(n))
            .collect();
        let mut sim = GateSim {
            netlist,
            projected: levels.clone(),
            levels,
            queue: EventQueue::new(),
            now: Time::ZERO,
            log: Vec::new(),
            events_processed: 0,
        };
        // Evaluate every gate against the initial levels so inconsistent
        // initial states resolve.
        for gate_index in 0..netlist.gate_count() {
            sim.evaluate_gate(gate_index);
        }
        sim
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The current level of `net`.
    #[must_use]
    pub fn level(&self, net: NetId) -> bool {
        self.levels[net]
    }

    /// The full waveform log so far (every applied level change, in time
    /// order).
    #[must_use]
    pub fn log(&self) -> &[Change] {
        &self.log
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedules a testbench drive of a primary input.
    ///
    /// # Panics
    ///
    /// Panics if `net` is gate-driven or `at` is in the simulator's past.
    pub fn set_at(&mut self, at: Time, net: NetId, level: bool) {
        assert!(
            self.netlist.is_input(net),
            "net {} is gate-driven; only primary inputs can be forced",
            self.netlist.net_name(net)
        );
        assert!(at >= self.now, "cannot schedule a drive in the past");
        self.projected[net] = level;
        self.queue.schedule(at, (net, level));
    }

    /// Toggles a primary input (two-phase transition signaling).
    ///
    /// # Panics
    ///
    /// Same as [`set_at`](Self::set_at).
    pub fn toggle_at(&mut self, at: Time, net: NetId) {
        let level = !self.projected[net];
        self.set_at(at, net, level);
    }

    fn evaluate_gate(&mut self, gate_index: usize) {
        let gate = &self.netlist.gates()[gate_index];
        let inputs: Vec<bool> = gate.inputs.iter().map(|&n| self.levels[n]).collect();
        let next = gate.kind.eval(&inputs, self.levels[gate.output]);
        if next != self.projected[gate.output] {
            self.projected[gate.output] = next;
            self.queue
                .schedule(self.now + gate.delay, (gate.output, next));
        }
    }

    /// Processes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((time, (net, level))) = self.queue.pop() else {
            return false;
        };
        self.now = time;
        self.events_processed += 1;
        if self.levels[net] != level {
            self.levels[net] = level;
            self.log.push(Change { time, net, level });
            for &gate_index in self.netlist.fanout_of(net) {
                self.evaluate_gate(gate_index);
            }
        }
        true
    }

    /// Runs until no events remain or `limit` events were processed.
    ///
    /// # Panics
    ///
    /// Panics if the limit is hit — an unstable circuit (e.g. a ring
    /// oscillator) never quiesces, and hitting the limit almost always
    /// means a combinational loop was built by mistake.
    pub fn run_until_quiet(&mut self) {
        self.run_until_quiet_with_limit(1_000_000);
    }

    /// [`run_until_quiet`](Self::run_until_quiet) with an explicit event
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics if the budget is exhausted.
    pub fn run_until_quiet_with_limit(&mut self, limit: u64) {
        let start = self.events_processed;
        while self.step() {
            assert!(
                self.events_processed - start < limit,
                "circuit did not quiesce within {limit} events (oscillation?)"
            );
        }
    }

    /// Runs until simulation time reaches `deadline` (events at the
    /// deadline itself are processed).
    pub fn run_until(&mut self, deadline: Time) {
        while let Some(t) = self.queue_peek() {
            if t > deadline {
                break;
            }
            let _ = self.step();
        }
        self.now = self.now.max(deadline);
    }

    fn queue_peek(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Times (ascending) at which `net` switched.
    #[must_use]
    pub fn transitions_of(&self, net: NetId) -> Vec<Time> {
        self.log
            .iter()
            .filter(|c| c.net == net)
            .map(|c| c.time)
            .collect()
    }

    /// The interval between the last two transitions of `net`, if any —
    /// the measured cycle time of a periodically toggling signal.
    #[must_use]
    pub fn last_period_of(&self, net: NetId) -> Option<Duration> {
        let times = self.transitions_of(net);
        match times.len() {
            0 | 1 => None,
            n => Some(times[n - 1] - times[n - 2]),
        }
    }
}

impl GateSim<'_> {
    /// Convenience alias: run the initial-evaluation events to quiescence.
    pub fn settle(&mut self) {
        self.run_until_quiet();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GateKind;

    #[test]
    fn inverter_chain_accumulates_delay() {
        let mut netlist = Netlist::new();
        let a = netlist.input("a");
        let b = netlist.gate(GateKind::Inv, &[a], Duration::from_ps(10), "b");
        let c = netlist.gate(GateKind::Inv, &[b], Duration::from_ps(10), "c");
        let mut sim = GateSim::new(&netlist);
        sim.run_until_quiet(); // settle: b=1 at 10, c=0 at 20
        assert!(sim.level(b));
        assert!(!sim.level(c));
        sim.set_at(Time::from_ps(100), a, true);
        sim.run_until_quiet();
        assert_eq!(
            sim.transitions_of(c).last().copied(),
            Some(Time::from_ps(120))
        );
        assert!(sim.level(c));
    }

    #[test]
    fn c_element_waits_for_both_inputs() {
        let mut netlist = Netlist::new();
        let a = netlist.input("a");
        let b = netlist.input("b");
        let c = netlist.gate(GateKind::C2, &[a, b], Duration::from_ps(25), "c");
        let mut sim = GateSim::new(&netlist);
        sim.set_at(Time::from_ps(10), a, true);
        sim.run_until_quiet();
        assert!(!sim.level(c), "one input high must not fire the C-element");
        sim.set_at(Time::from_ps(200), b, true);
        sim.run_until_quiet();
        assert!(sim.level(c));
        assert_eq!(sim.transitions_of(c), vec![Time::from_ps(225)]);
    }

    #[test]
    fn latch_captures_on_enable_fall() {
        let mut netlist = Netlist::new();
        let d = netlist.input("d");
        let en = netlist.input("en");
        netlist.set_initial(en, true);
        let q = netlist.gate(GateKind::Latch, &[d, en], Duration::from_ps(15), "q");
        let mut sim = GateSim::new(&netlist);
        sim.set_at(Time::from_ps(50), d, true);
        sim.run_until_quiet();
        assert!(sim.level(q), "transparent latch follows data");
        sim.set_at(Time::from_ps(100), en, false);
        sim.set_at(Time::from_ps(150), d, false);
        sim.run_until_quiet();
        assert!(sim.level(q), "opaque latch must hold the captured value");
    }

    #[test]
    fn equal_value_updates_are_suppressed() {
        let mut netlist = Netlist::new();
        let a = netlist.input("a");
        let b = netlist.input("b");
        let y = netlist.gate(GateKind::Or2, &[a, b], Duration::from_ps(10), "y");
        let mut sim = GateSim::new(&netlist);
        sim.set_at(Time::from_ps(10), a, true);
        sim.set_at(Time::from_ps(20), b, true); // y already projected high
        sim.run_until_quiet();
        assert_eq!(sim.transitions_of(y).len(), 1, "no duplicate rise");
        assert!(sim.level(y));
    }

    #[test]
    fn glitch_propagates_through_xor() {
        // a -> xor(a, buf(a)): the delayed copy creates a pulse of the
        // buffer's delay on every input edge — transport semantics keep it.
        let mut netlist = Netlist::new();
        let a = netlist.input("a");
        let slow = netlist.gate(GateKind::Buf, &[a], Duration::from_ps(30), "slow");
        let y = netlist.gate(GateKind::Xor2, &[a, slow], Duration::from_ps(5), "y");
        let mut sim = GateSim::new(&netlist);
        sim.set_at(Time::from_ps(100), a, true);
        sim.run_until_quiet();
        let times = sim.transitions_of(y);
        assert_eq!(times, vec![Time::from_ps(105), Time::from_ps(135)]);
        assert!(!sim.level(y));
    }

    #[test]
    fn toggle_alternates_levels() {
        let mut netlist = Netlist::new();
        let a = netlist.input("a");
        let y = netlist.gate(GateKind::Buf, &[a], Duration::from_ps(1), "y");
        let mut sim = GateSim::new(&netlist);
        for k in 0..4 {
            sim.toggle_at(Time::from_ps(10 * (k + 1)), a);
        }
        sim.run_until_quiet();
        assert_eq!(sim.transitions_of(y).len(), 4);
        assert!(!sim.level(y));
        assert_eq!(sim.last_period_of(y), Some(Duration::from_ps(10)));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut netlist = Netlist::new();
        let a = netlist.input("a");
        let y = netlist.gate(GateKind::Buf, &[a], Duration::from_ps(50), "y");
        let mut sim = GateSim::new(&netlist);
        sim.set_at(Time::from_ps(100), a, true);
        sim.run_until(Time::from_ps(120));
        assert!(!sim.level(y), "y switches at 150, after the deadline");
        assert_eq!(sim.now(), Time::from_ps(120));
        sim.run_until_quiet();
        assert!(sim.level(y));
    }

    #[test]
    #[should_panic(expected = "gate-driven")]
    fn cannot_force_gate_outputs() {
        let mut netlist = Netlist::new();
        let a = netlist.input("a");
        let y = netlist.gate(GateKind::Inv, &[a], Duration::from_ps(1), "y");
        GateSim::new(&netlist).set_at(Time::from_ps(1), y, true);
    }

    #[test]
    #[should_panic(expected = "did not quiesce")]
    fn ring_oscillator_detected() {
        // A genuine ring oscillator through a feedback placeholder: the
        // event budget must catch it instead of looping forever.
        let mut netlist = Netlist::new();
        let y = netlist.placeholder("y");
        netlist.gate_into(GateKind::Inv, &[y], Duration::from_ps(10), y);
        let mut sim = GateSim::new(&netlist);
        sim.run_until_quiet_with_limit(100);
    }

    #[test]
    fn feedback_loop_through_placeholder_stabilizes() {
        // An SR-ish hold loop: or(a, y) -> y latches high once `a` pulses.
        let mut netlist = Netlist::new();
        let a = netlist.input("a");
        let y = netlist.placeholder("y");
        netlist.gate_into(GateKind::Or2, &[a, y], Duration::from_ps(10), y);
        let mut sim = GateSim::new(&netlist);
        sim.settle();
        assert!(!sim.level(y));
        sim.set_at(Time::from_ps(100), a, true);
        sim.set_at(Time::from_ps(120), a, false);
        sim.run_until_quiet();
        assert!(sim.level(y), "the feedback loop must hold the pulse");
    }
}
