//! Dynamic Figure 4: traces an *actual simulated* multicast packet through
//! the hybrid network, showing the speculative broadcast, the throttling of
//! the redundant copy, and the deliveries — with real timestamps.
//!
//! Usage: `cargo run --release -p asynoc-bench --bin packet_trace [--seed N]`

use asynoc::telemetry::{Action, Detail, Recorder, TraceCollector, TraceRecord};
use asynoc::{drive, Architecture, Benchmark, Network, NetworkConfig, RunConfig, Time};

/// One journey line: when, which flit, where, and what the node did.
fn journey_line(record: &TraceRecord) -> String {
    let action = match (record.action, record.detail) {
        (Action::Inject, _) => "injected".to_string(),
        (Action::Forward, Detail::Input(input)) => format!("arbitrated (input {input})"),
        (Action::Forward, detail) => format!("forwarded [{detail}]"),
        (Action::Throttle, _) => "THROTTLED".to_string(),
        (Action::Deliver, _) => "delivered".to_string(),
        (Action::Fault, _) => "fault".to_string(),
    };
    format!(
        "{:>12}  pkt{}[{}]  {:<12} {}",
        Time::from_ps(record.t_ps).to_string(),
        record.packet,
        record.flit,
        record.site.to_string(),
        action
    )
}

fn main() {
    let seed = std::env::args()
        .skip_while(|a| a != "--seed")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(42u64);

    let network = Network::new(
        NetworkConfig::eight_by_eight(Architecture::OptHybridSpeculative).with_seed(seed),
    )
    .expect("valid config");
    let run = RunConfig::quick(Benchmark::Multicast10, 0.2);
    let mut collector = TraceCollector::new(40_000);
    let mut recorder = Recorder::new(network.site_of(), vec![&mut collector]);
    drive(&network, &run, &mut [&mut recorder], None).expect("run succeeds");
    let trace = collector.into_records();

    // Prefer a multicast packet whose journey also shows a throttled
    // redundant copy (one whose destinations all sit in one half, so the
    // speculative root's broadcast creates waste); fall back to any
    // multicast packet.
    let count = |packet: u64, action: Action| {
        trace
            .iter()
            .filter(|e| e.packet == packet && e.action == action)
            .count()
    };
    let mut candidates: Vec<_> = trace
        .iter()
        .filter(|e| e.action == Action::Deliver)
        .map(|e| e.packet)
        .filter(|&p| count(p, Action::Deliver) > 5) // 5-flit packet, >1 destination
        .collect();
    candidates.dedup();
    let Some(&packet) = candidates
        .iter()
        .find(|&&p| count(p, Action::Throttle) > 0)
        .or_else(|| candidates.first())
    else {
        println!("no multicast packet found in the trace window; try another --seed");
        return;
    };

    println!("Journey of multicast packet {packet} through OptHybridSpeculative (8x8):");
    println!();
    for record in trace.iter().filter(|e| e.packet == packet) {
        println!("  {}", journey_line(record));
    }
    println!();
    println!(
        "Read the header's (flit 0) path: the speculative root forwards [both] \
         unconditionally; the non-speculative node off the multicast tree reports \
         THROTTLED; every destination in the set reports one delivery."
    );
}
