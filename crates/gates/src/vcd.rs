//! VCD (Value Change Dump) export of gate-level waveforms.
//!
//! Writes the standard IEEE 1364 VCD text format, viewable in GTKWave and
//! every commercial waveform browser — the lingua franca of EDA debugging.

use std::fmt::Write as _;

use crate::netlist::Netlist;
use crate::sim::{Change, GateSim};

/// Renders a simulation's waveform log as a VCD document.
///
/// All nets appear under a single scope named `module_name`, with a 1 ps
/// timescale (the kernel's native resolution).
///
/// # Examples
///
/// ```
/// use asynoc_gates::netlist::{GateKind, Netlist};
/// use asynoc_gates::{vcd, GateSim};
/// use asynoc_kernel::{Duration, Time};
///
/// let mut netlist = Netlist::new();
/// let a = netlist.input("a");
/// let _y = netlist.gate(GateKind::Inv, &[a], Duration::from_ps(10), "y");
/// let mut sim = GateSim::new(&netlist);
/// sim.set_at(Time::from_ps(100), a, true);
/// sim.run_until_quiet();
/// let dump = vcd::render(&netlist, &sim, "demo");
/// assert!(dump.contains("$timescale 1ps $end"));
/// assert!(dump.contains("$var wire 1"));
/// ```
#[must_use]
pub fn render(netlist: &Netlist, sim: &GateSim<'_>, module_name: &str) -> String {
    render_changes(netlist, sim.log(), module_name)
}

/// [`render`] over an explicit change log (initial values are taken to be
/// low, matching the simulator's reset state unless the first change says
/// otherwise).
#[must_use]
pub fn render_changes(netlist: &Netlist, log: &[Change], module_name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$date asynoc-gates $end");
    let _ = writeln!(out, "$version asynoc-gates 0.1.0 $end");
    let _ = writeln!(out, "$timescale 1ps $end");
    let _ = writeln!(out, "$scope module {module_name} $end");
    for net in 0..netlist.net_count() {
        let _ = writeln!(
            out,
            "$var wire 1 {} {} $end",
            identifier(net),
            sanitize(netlist.net_name(net))
        );
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // Initial values.
    let _ = writeln!(out, "$dumpvars");
    for net in 0..netlist.net_count() {
        let level = netlist.initial_level(net);
        let _ = writeln!(out, "{}{}", if level { '1' } else { '0' }, identifier(net));
    }
    let _ = writeln!(out, "$end");

    let mut last_time = None;
    for change in log {
        let t = change.time.as_ps();
        if last_time != Some(t) {
            let _ = writeln!(out, "#{t}");
            last_time = Some(t);
        }
        let _ = writeln!(
            out,
            "{}{}",
            if change.level { '1' } else { '0' },
            identifier(change.net)
        );
    }
    out
}

/// Maps a net index to a short printable VCD identifier (base-94 over the
/// printable ASCII range `!`..=`~`).
fn identifier(mut net: usize) -> String {
    let mut id = String::new();
    loop {
        let digit = (net % 94) as u8;
        id.push((b'!' + digit) as char);
        net /= 94;
        if net == 0 {
            break;
        }
        net -= 1;
    }
    id
}

/// VCD identifiers in `$var` names must not contain whitespace.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GateKind;
    use asynoc_kernel::{Duration, Time};

    #[test]
    fn identifiers_are_printable_and_unique() {
        let ids: Vec<String> = (0..500).map(identifier).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert!(ids
            .iter()
            .all(|id| id.chars().all(|c| ('!'..='~').contains(&c))));
        assert_eq!(identifier(0), "!");
        assert_eq!(identifier(93), "~");
        assert_eq!(identifier(94), "!!");
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize("my net"), "my_net");
        assert_eq!(sanitize("clean"), "clean");
    }

    #[test]
    fn render_matches_render_changes() {
        let mut netlist = Netlist::new();
        let a = netlist.input("a");
        let _ = netlist.gate(GateKind::Buf, &[a], Duration::from_ps(5), "y");
        let mut sim = GateSim::new(&netlist);
        sim.set_at(Time::from_ps(50), a, true);
        sim.run_until_quiet();
        let via_sim = render(&netlist, &sim, "m");
        let via_log = render_changes(&netlist, sim.log(), "m");
        assert_eq!(via_sim, via_log);
    }
}
