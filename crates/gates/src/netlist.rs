//! Gate netlists.
//!
//! A [`Netlist`] is a flat list of nets (single-bit wires) and gates. Nets
//! are created as primary inputs ([`Netlist::input`]) or as gate outputs
//! ([`Netlist::gate`]); every net carries a name for debugging and VCD
//! export. Gates have a transport delay — an input change propagates to
//! the output after exactly that delay.

use asynoc_kernel::Duration;

/// Index of one net (wire) in a netlist.
pub type NetId = usize;

/// The supported gate primitives.
///
/// `C2` is the two-input Muller C-element — *the* asynchronous primitive:
/// its output follows the inputs when they agree and holds when they
/// disagree. `Latch` is a transparent D-latch (`inputs[0]` = data,
/// `inputs[1]` = enable, transparent while enable is high) — the paper's
/// "normally transparent" output port registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer (used to model wire/driver delays).
    Buf,
    /// Two-input AND.
    And2,
    /// Two-input OR.
    Or2,
    /// Two-input XOR (the baseline node's acknowledge merge).
    Xor2,
    /// Two-input XNOR (MOUSETRAP latch-enable function).
    Xnor2,
    /// Two-input Muller C-element (the speculative node's acknowledge
    /// join).
    C2,
    /// Transparent D-latch: data, enable.
    Latch,
}

impl GateKind {
    /// Number of input nets the gate requires.
    #[must_use]
    pub const fn arity(self) -> usize {
        match self {
            GateKind::Inv | GateKind::Buf => 1,
            _ => 2,
        }
    }

    /// Returns `true` for gates whose next output depends on their current
    /// output (state-holding elements).
    #[must_use]
    pub const fn is_sequential(self) -> bool {
        matches!(self, GateKind::C2 | GateKind::Latch)
    }

    /// Evaluates the gate function.
    ///
    /// `current` is the present output value (meaningful only for
    /// sequential gates).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the gate's arity.
    #[must_use]
    pub fn eval(self, inputs: &[bool], current: bool) -> bool {
        assert_eq!(inputs.len(), self.arity(), "wrong input count for {self:?}");
        match self {
            GateKind::Inv => !inputs[0],
            GateKind::Buf => inputs[0],
            GateKind::And2 => inputs[0] && inputs[1],
            GateKind::Or2 => inputs[0] || inputs[1],
            GateKind::Xor2 => inputs[0] ^ inputs[1],
            GateKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            GateKind::C2 => {
                if inputs[0] == inputs[1] {
                    inputs[0]
                } else {
                    current
                }
            }
            GateKind::Latch => {
                if inputs[1] {
                    inputs[0]
                } else {
                    current
                }
            }
        }
    }
}

/// One gate instance.
#[derive(Clone, Debug)]
pub struct Gate {
    /// The gate function.
    pub kind: GateKind,
    /// Input nets, in [`GateKind`] order.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
    /// Transport delay from any input change to the output change.
    pub delay: Duration,
}

/// A flat gate netlist.
///
/// # Examples
///
/// ```
/// use asynoc_gates::netlist::{GateKind, Netlist};
/// use asynoc_kernel::Duration;
///
/// let mut netlist = Netlist::new();
/// let a = netlist.input("a");
/// let not_a = netlist.gate(GateKind::Inv, &[a], Duration::from_ps(10), "not_a");
/// assert_eq!(netlist.net_name(not_a), "not_a");
/// assert_eq!(netlist.net_count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    names: Vec<String>,
    gates: Vec<Gate>,
    /// `driver[net]` = index of the gate driving it, if any.
    driver: Vec<Option<usize>>,
    /// `fanout[net]` = gates reading it.
    fanout: Vec<Vec<usize>>,
    /// Initial levels for nets (default low).
    initial: Vec<bool>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Netlist::default()
    }

    fn add_net(&mut self, name: &str) -> NetId {
        let id = self.names.len();
        self.names.push(name.to_string());
        self.driver.push(None);
        self.fanout.push(Vec::new());
        self.initial.push(false);
        id
    }

    /// Creates a primary-input net (driven by the testbench).
    pub fn input(&mut self, name: &str) -> NetId {
        self.add_net(name)
    }

    /// Creates an undriven placeholder net, to be driven later with
    /// [`gate_into`](Self::gate_into) — the way feedback loops (latch
    /// enables, C-element acknowledge joins) are closed.
    pub fn placeholder(&mut self, name: &str) -> NetId {
        self.add_net(name)
    }

    /// Instantiates a gate driving an *existing* net (closing a feedback
    /// loop through a [`placeholder`](Self::placeholder)).
    ///
    /// # Panics
    ///
    /// Panics if the input count mismatches, any net does not exist, or
    /// `output` already has a driver.
    pub fn gate_into(&mut self, kind: GateKind, inputs: &[NetId], delay: Duration, output: NetId) {
        assert_eq!(
            inputs.len(),
            kind.arity(),
            "{kind:?} needs {} inputs",
            kind.arity()
        );
        assert!(
            output < self.names.len(),
            "output net {output} does not exist"
        );
        assert!(
            self.driver[output].is_none(),
            "net {} already has a driver",
            self.names[output]
        );
        for &input in inputs {
            assert!(input < self.names.len(), "input net {input} does not exist");
        }
        let gate_index = self.gates.len();
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
            delay,
        });
        self.driver[output] = Some(gate_index);
        for &input in inputs {
            self.fanout[input].push(gate_index);
        }
    }

    /// Sets a net's initial level (the default is low). For sequential
    /// gates this also seeds their held state.
    pub fn set_initial(&mut self, net: NetId, level: bool) {
        self.initial[net] = level;
    }

    /// Instantiates a gate, returning its output net.
    ///
    /// # Panics
    ///
    /// Panics if the input count does not match the gate's arity or an
    /// input net does not exist.
    pub fn gate(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        delay: Duration,
        output_name: &str,
    ) -> NetId {
        assert_eq!(
            inputs.len(),
            kind.arity(),
            "{kind:?} needs {} inputs",
            kind.arity()
        );
        for &input in inputs {
            assert!(input < self.names.len(), "input net {input} does not exist");
        }
        let output = self.add_net(output_name);
        let gate_index = self.gates.len();
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
            delay,
        });
        self.driver[output] = Some(gate_index);
        for &input in inputs {
            self.fanout[input].push(gate_index);
        }
        output
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.names.len()
    }

    /// Number of gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// A net's name.
    ///
    /// # Panics
    ///
    /// Panics if the net does not exist.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> &str {
        &self.names[net]
    }

    /// All gates.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Gates reading `net`.
    #[must_use]
    pub fn fanout_of(&self, net: NetId) -> &[usize] {
        &self.fanout[net]
    }

    /// The gate driving `net`, if any (`None` for primary inputs).
    #[must_use]
    pub fn driver_of(&self, net: NetId) -> Option<usize> {
        self.driver[net]
    }

    /// Initial level of `net`.
    #[must_use]
    pub fn initial_level(&self, net: NetId) -> bool {
        self.initial[net]
    }

    /// Returns `true` if `net` is a primary input.
    #[must_use]
    pub fn is_input(&self, net: NetId) -> bool {
        self.driver[net].is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_kernel::SimRng;

    #[test]
    fn gate_truth_tables() {
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(GateKind::And2.eval(&[a, b], false), a && b);
            assert_eq!(GateKind::Or2.eval(&[a, b], false), a || b);
            assert_eq!(GateKind::Xor2.eval(&[a, b], false), a ^ b);
            assert_eq!(GateKind::Xnor2.eval(&[a, b], false), !(a ^ b));
        }
        assert!(GateKind::Inv.eval(&[false], false));
        assert!(!GateKind::Inv.eval(&[true], false));
        assert!(GateKind::Buf.eval(&[true], false));
        assert_eq!((GateKind::Inv.arity(), GateKind::C2.arity()), (1, 2));
        assert!(GateKind::C2.is_sequential() && GateKind::Latch.is_sequential());
        assert!(!GateKind::Xor2.is_sequential());
    }

    #[test]
    fn c_element_holds_on_disagreement() {
        // Agreement drives, disagreement holds.
        assert!(GateKind::C2.eval(&[true, true], false));
        assert!(!GateKind::C2.eval(&[false, false], true));
        assert!(GateKind::C2.eval(&[true, false], true));
        assert!(!GateKind::C2.eval(&[true, false], false));
        assert!(GateKind::C2.eval(&[false, true], true));
    }

    #[test]
    fn latch_transparent_and_opaque() {
        // Enable high: follows data. Enable low: holds.
        assert!(GateKind::Latch.eval(&[true, true], false));
        assert!(!GateKind::Latch.eval(&[false, true], true));
        assert!(GateKind::Latch.eval(&[false, false], true));
        assert!(!GateKind::Latch.eval(&[true, false], false));
    }

    #[test]
    fn netlist_wiring_bookkeeping() {
        let mut netlist = Netlist::new();
        let a = netlist.input("a");
        let b = netlist.input("b");
        let y = netlist.gate(GateKind::And2, &[a, b], Duration::from_ps(15), "y");
        let z = netlist.gate(GateKind::Inv, &[y], Duration::from_ps(5), "z");
        assert_eq!(netlist.net_count(), 4);
        assert_eq!(netlist.gate_count(), 2);
        assert!(netlist.is_input(a));
        assert!(!netlist.is_input(y));
        assert_eq!(netlist.driver_of(y), Some(0));
        assert_eq!(netlist.fanout_of(y), &[1]);
        assert_eq!(netlist.fanout_of(a), &[0]);
        assert_eq!(netlist.net_name(z), "z");
    }

    #[test]
    #[should_panic(expected = "needs 2 inputs")]
    fn gate_arity_checked() {
        let mut netlist = Netlist::new();
        let a = netlist.input("a");
        let _ = netlist.gate(GateKind::And2, &[a], Duration::from_ps(1), "y");
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn gate_inputs_must_exist() {
        let mut netlist = Netlist::new();
        let _ = netlist.gate(GateKind::Inv, &[5], Duration::from_ps(1), "y");
    }

    /// The C-element is monotone between stable states: for any input
    /// sequence, its output only changes when both inputs agree on the
    /// new value.
    #[test]
    fn c_element_only_moves_on_agreement() {
        let mut rng = SimRng::seed_from(11);
        for _case in 0..64 {
            let len = rng.range_inclusive(1, 49);
            let mut out = false;
            for _ in 0..len {
                let (a, b) = (rng.chance(0.5), rng.chance(0.5));
                let next = GateKind::C2.eval(&[a, b], out);
                if next != out {
                    assert_eq!(a, b);
                    assert_eq!(next, a);
                }
                out = next;
            }
        }
    }
}
