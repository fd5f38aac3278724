//! The exploration-engine guard: scoring a placement through
//! [`asynoc::explore::evaluate`] must cost what the underlying run costs
//! (the scoring layer adds only a config build and a handful of scalar
//! reads), and the exhaustive per-level sweep must stay an honest
//! serial-sum of its constituent runs plus front bookkeeping.
//!
//! Two cases over the deterministic 4x4 smoke configuration:
//!
//! - `evaluate_hybrid` — one placement (the paper's headline hybrid)
//!   scored end to end
//! - `explore_level_4x4` — the full 9-point exhaustive per-level sweep
//!
//! `--smoke` shrinks the sample count for CI. With `--json <path>` each
//! case's *fastest* sample, normalized to ns per simulated event, is
//! checked against the stored baseline record (seeded on first run,
//! refreshed with `--update-baseline`).

use asynoc::explore::{evaluate, explore, level_space, ExploreSpec};
use asynoc::{Architecture, MotSize, Network, NetworkConfig, RunConfig, SpecMap};
use asynoc_bench::baseline::{guard, parse_bench_args, BenchCase};
use asynoc_bench::timing::Harness;

/// The deterministic event count of one placement's run under `spec`.
fn events_of(spec: &ExploreSpec, map: &SpecMap) -> u64 {
    let config = NetworkConfig::with_spec_map(map.clone())
        .with_seed(spec.seed)
        .with_flits_per_packet(spec.flits_per_packet);
    let network = Network::new(config).expect("valid config");
    let run = RunConfig::new(spec.benchmark, spec.rate_gfs)
        .expect("positive rate")
        .with_phases(spec.phases);
    network.run(&run).expect("run succeeds").events_processed
}

fn main() {
    let args = parse_bench_args();
    let samples = if args.smoke { 3 } else { 10 };
    let harness = Harness::new(samples);

    let size = MotSize::new(4).expect("4x4 is a valid size");
    let spec = ExploreSpec::smoke(size);
    let hybrid = SpecMap::preset(Architecture::OptHybridSpeculative, size);

    // Every constituent run is deterministic, so untimed passes fix the
    // event counts the timed cases are normalized by.
    let hybrid_events = events_of(&spec, &hybrid);
    let sweep_events: u64 = level_space(size).iter().map(|m| events_of(&spec, m)).sum();

    let group = harness.group("explore_smoke_4x4");
    let evaluate_hybrid = group
        .bench_stats("evaluate_hybrid", || {
            evaluate(&spec, &hybrid).expect("evaluation succeeds")
        })
        .min;
    let explore_level = group
        .bench_stats("explore_level_4x4", || {
            explore(&spec).expect("exploration succeeds")
        })
        .min;

    if let Some(path) = args.json {
        let cases = [
            ("evaluate_hybrid", evaluate_hybrid, hybrid_events),
            ("explore_level_4x4", explore_level, sweep_events),
        ]
        .map(|(id, fastest, events)| BenchCase {
            id: id.to_string(),
            median: fastest,
            events,
        });
        if let Err(message) = guard("explore", &path, &cases, args.update) {
            eprintln!("{message}");
            std::process::exit(1);
        }
    }
}
