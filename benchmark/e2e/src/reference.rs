//! The reference kernel: a fixed amount of simulator-like work (a binary-heap
//! event loop over node state) whose wall time says how fast the host is
//! running right now.
//!
//! A shared host does not hold still: on the box this was sized on, the same
//! serial command takes 2.3 s for a minute and 3.3 s for the next. The
//! harness runs this kernel before and after everything it times and scales
//! each wall and CPU time by `NOMINAL_S` ÷ the mean of the two neighbouring
//! kernel walls (README.md, "Host-speed scaling"). The kernel belongs to the
//! benchmark, not to the program under test, so no change to the simulator
//! can move it; a unit test pins its checksums so that no edit here changes
//! the work unnoticed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Wall of the kernel on the host the scaled seconds refer to: this box in
/// its fast state. Scaled times are "seconds on a host that runs the
/// reference kernel in a quarter of a second".
pub const NOMINAL_S: f64 = 0.25;

/// The two phases, about equal in time: (events, nodes). The first keeps
/// its 64 KiB of node state in cache and follows the core's speed; the
/// second misses on most touches of its 16 MiB and follows the memory's.
/// The simulator's commands slow down with either (parsing with the first,
/// the sharded and the 100 MiB runs more with the second).
const PHASES: [(u64, usize); 2] = [(2_400_000, 1 << 12), (900_000, 1 << 20)];

/// One run of the reference kernel; returns a checksum.
pub fn run() -> u64 {
    PHASES
        .iter()
        .fold(0, |sum, &(events, nodes)| sum ^ kernel(events, nodes))
}

/// Pops `events` events; each touches its node and either retries later or
/// hands over to a pseudo-random other of the `nodes` (a power of two).
fn kernel(events: u64, nodes: usize) -> u64 {
    let mut state = vec![(0u64, 0u64); nodes];
    let mut heap = BinaryHeap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..4096 {
        heap.push(Reverse((next() % 1000, i * 251 % nodes)));
    }
    let mut delivered = 0u64;
    for _ in 0..events {
        let Reverse((time, at)) = heap.pop().expect("every pop is followed by a push");
        let r = next();
        let node = &mut state[at];
        node.0 = node.0.wrapping_add(time);
        node.1 ^= r;
        let gap = 50 + (r & 1023);
        if node.1 & 3 == 0 {
            heap.push(Reverse((time + gap + 300, at)));
        } else {
            let to = (r >> 20) as usize & (nodes - 1);
            state[to].0 = state[to].0.wrapping_add(1);
            delivered += 1;
            heap.push(Reverse((time + gap, to)));
        }
    }
    state
        .iter()
        .fold(delivered, |sum, node| sum.wrapping_add(node.0 ^ node.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_frozen() {
        assert_eq!(kernel(100_000, 1 << 12), 11_024_784_125_985_295_180);
        assert_eq!(kernel(100_000, 1 << 20), 7_839_250_137_107_071_652);
    }
}
