//! Bottleneck analysis from telemetry: where does the traffic — and the
//! speculation waste — actually go?
//!
//! Runs Multicast10 and Hotspot on the hybrid network with a telemetry
//! `Recorder` over `Network::site_of()`, and prints fanin-tree loads,
//! fanout-level throttle counts (the `SpeculationWaste` ledger grouped by
//! `Site::stage()`), and the busiest nodes: the kind of bottleneck hunting
//! a NoC architect does daily. Any other per-node question is one more
//! `RecordSink`.
//!
//! Run with: `cargo run --release --example hotspot_analysis`

use std::collections::HashMap;

use asynoc::{drive, Architecture, Benchmark, Network, NetworkConfig, RunConfig, SimError};
use asynoc_telemetry::{Action, RecordSink, Recorder, Site, SpeculationWaste, Stage, TraceRecord};

/// Fires (forwards and throttles) and busy picoseconds per node over the
/// measurement window.
#[derive(Default)]
struct NodeLoad(HashMap<Site, (u64, u64)>);

impl RecordSink for NodeLoad {
    fn on_record(&mut self, record: &TraceRecord, in_window: bool) {
        if in_window && matches!(record.action, Action::Forward | Action::Throttle) {
            let (fires, busy_ps) = self.0.entry(record.site).or_default();
            *fires += 1;
            *busy_ps += record.busy_ps;
        }
    }
}

impl NodeLoad {
    /// The busiest node `pick` accepts and its busy picoseconds.
    fn busiest(&self, pick: impl Fn(&Site) -> bool) -> Option<(Site, u64)> {
        self.0
            .iter()
            .filter(|(site, _)| pick(site))
            .map(|(&site, &(_, busy_ps))| (site, busy_ps))
            .max_by_key(|&(site, busy_ps)| (busy_ps, site.to_string()))
    }
}

fn analyze(network: &Network, benchmark: Benchmark, rate: f64) -> Result<(), SimError> {
    let run = RunConfig::new(benchmark, rate)?;
    let timing = network.config().timing();
    let mut waste = SpeculationWaste::new(timing.wire_fj, timing.drop_fj);
    let mut load = NodeLoad::default();
    let mut recorder = Recorder::new(network.site_of(), vec![&mut waste, &mut load]);
    let report = drive(network, &run, &mut [&mut recorder], None)?;
    println!("{benchmark} at {rate} GF/s per source:");
    println!(
        "  accepted {:.0}% of offered load, mean latency {}",
        100.0 * report.acceptance(),
        report.latency.mean().expect("packets measured"),
    );

    let size = network.config().size();
    let mut per_tree = vec![0u64; size.n()];
    for (site, &(fires, _)) in &load.0 {
        if let Site::Fanin { tree, .. } = *site {
            per_tree[tree] += fires;
        }
    }
    let total: u64 = per_tree.iter().sum();
    print!("  fanin load by destination tree:");
    for (dest, fires) in per_tree.iter().enumerate() {
        print!(
            " D{dest}:{:.0}%",
            100.0 * *fires as f64 / total.max(1) as f64
        );
    }
    println!();

    let mut throttles = vec![0u64; size.levels() as usize];
    for (label, node) in waste.per_node() {
        let site: Site = label.parse().expect("a ledger label reads back");
        if let Stage::Fanout(level) = site.stage() {
            throttles[level as usize] += node.throttles;
        }
    }
    println!(
        "  speculation waste by fanout level: {:?} (total {} throttled flits)",
        throttles, report.flits_throttled
    );

    let window_ps = run.phases().measure().as_ps() as f64;
    let fanin = load.busiest(|site| matches!(site, Site::Fanin { .. }));
    let fanout = load.busiest(|site| matches!(site, Site::Fanout { .. }));
    for (kind, busiest) in [("fanin", fanin), ("fanout", fanout)] {
        if let Some((node, busy_ps)) = busiest {
            println!(
                "  busiest {kind} node: {node} at {:.0}% utilization",
                100.0 * busy_ps as f64 / window_ps
            );
        }
    }
    println!();
    Ok(())
}

fn main() -> Result<(), SimError> {
    let network = Network::new(
        NetworkConfig::eight_by_eight(Architecture::OptHybridSpeculative).with_seed(3),
    )?;
    println!("Per-node activity analysis, 8x8 OptHybridSpeculative\n");

    // Uniform multicast load: every fanin tree shares the work; waste is
    // confined to the level below the speculative root.
    analyze(&network, Benchmark::Multicast10, 0.35)?;

    // Hotspot: destination 0's fanin tree takes 100% of the load and its
    // root is the bottleneck the whole network saturates on.
    analyze(&network, Benchmark::Hotspot, 0.25)?;
    Ok(())
}
