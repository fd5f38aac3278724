//! One adapter per public function of the workspace crates that the
//! benchmark times. When a crate's API changes, this file — and nothing
//! else under `benchmark/` — is what has to follow.

use asynoc::{
    Architecture, Benchmark, Duration, MotSize, Network, NetworkConfig, Phases, RunConfig,
    RunReport,
};
use asynoc_analysis::Analysis;
use asynoc_kernel::{
    default_parallelism, parallel_map, CalendarQueue, SimRng, Time, WindowBarrier,
};
use asynoc_telemetry::{fold_stream, parse_trace, JsonValue, TraceMeta, TraceRecord};
use asynoc_vcmesh::{McastScheme, MeshSize, VcMeshConfig, VcMeshNetwork, VcMeshReport};

/// The CLI's defaults, which the in-process calls must share to time the
/// same work: five flits per packet, the paper's 320 ns warm-up, the ten
/// entries `analyze` ranks.
const FLITS: u8 = 5;
const WARMUP_NS: u64 = 320;
const ANALYZE_TOP: usize = 10;

/// `CalendarQueue` under the hold model: filled to `depth`, then `ops`
/// pop-and-reschedule steps at about one pending event per picosecond, the
/// density simulator runs occupy. Returns a checksum so nothing is elided.
pub fn queue_hold(depth: usize, ops: u64) -> u64 {
    let gap_max = depth.max(1_024);
    let mut rng = SimRng::seed_from(depth as u64);
    let mut queue: CalendarQueue<u64> = CalendarQueue::with_capacity(depth);
    for i in 0..depth {
        queue.schedule(
            Time::from_ps(rng.range_inclusive(0, 2 * gap_max) as u64),
            i as u64,
        );
    }
    let mut checksum = 0u64;
    for _ in 0..ops {
        let (time, payload) = queue.pop().expect("hold keeps the queue full");
        checksum = checksum.wrapping_add(time.as_ps()).wrapping_add(payload);
        queue.schedule(
            time + Duration::from_ps(rng.range_inclusive(50, gap_max) as u64),
            payload,
        );
    }
    checksum
}

/// The `--jobs`/`--shards` default: every hardware thread.
pub fn threads() -> usize {
    default_parallelism()
}

/// `rounds` window-barrier round trips (`flush_done` + `publish_and_sync`,
/// what a sharded run pays per window) on `threads` threads.
pub fn barrier_round_trips(threads: usize, rounds: u64) {
    let barrier = WindowBarrier::new(threads);
    std::thread::scope(|scope| {
        for shard in 0..threads {
            let barrier = &barrier;
            scope.spawn(move || {
                for round in 0..rounds {
                    barrier.flush_done();
                    std::hint::black_box(
                        barrier.publish_and_sync(shard, Some(Time::from_ps(round))),
                    );
                }
            });
        }
    });
}

/// `parallel_map` over `tasks` empty tasks: pure dispatch cost.
pub fn parallel_map_empty(jobs: usize, tasks: u64) -> u64 {
    parallel_map(jobs, (0..tasks).collect(), std::hint::black_box::<u64>).len() as u64
}

/// `Network::new` for an OptHybridSpeculative `size`×`size` MoT.
pub fn build_network(size: usize, seed: u64) -> Network {
    let size = MotSize::new(size).expect("benchmark sizes are valid");
    let config = NetworkConfig::new(size, Architecture::OptHybridSpeculative)
        .with_seed(seed)
        .with_flits_per_packet(FLITS);
    Network::new(config).expect("a preset architecture always builds")
}

/// `Network::run`: Multicast10 at 0.4 flits/ns, serial, as `mot-serial`'s
/// first command runs it.
pub fn run_network(network: &Network, measure_ns: u64) -> RunReport {
    let phases = Phases::new(Duration::from_ns(WARMUP_NS), Duration::from_ns(measure_ns));
    let run = RunConfig::new(Benchmark::Multicast10, 0.4)
        .expect("0.4 is a valid rate")
        .with_phases(phases);
    network.run(&run).expect("the run completes")
}

/// `VcMeshNetwork::run`: Multicast5 at 0.1 flits/ns on the 8×8 xy-tree
/// mesh, serial, as `vcmesh-serial`'s first command runs it.
pub fn run_vcmesh(seed: u64, measure_ns: u64) -> VcMeshReport {
    let size = MeshSize::new(8, 8).expect("8x8 is a valid mesh");
    let config = VcMeshConfig::new(size)
        .with_seed(seed)
        .with_flits_per_packet(FLITS)
        .with_mcast(McastScheme::XyTree);
    let phases = Phases::new(Duration::from_ns(WARMUP_NS), Duration::from_ns(measure_ns));
    let network = VcMeshNetwork::new(config).expect("the mesh builds");
    network
        .run(Benchmark::Multicast5, 0.1, phases)
        .expect("the run completes")
}

/// `parse_trace` over a whole NDJSON trace.
pub fn parse_trace_text(text: &str) -> (Option<TraceMeta>, Vec<TraceRecord>) {
    parse_trace(text).expect("the workload's own trace parses")
}

/// `fold_stream` over a whole NDJSON stream.
pub fn fold_stream_text(text: &str) -> JsonValue {
    fold_stream(text).expect("the workload's own stream folds")
}

/// `JsonValue::parse` over one document.
pub fn parse_json(text: &str) -> JsonValue {
    JsonValue::parse(text).expect("the workload's own document parses")
}

/// `Analysis::build` over parsed records.
pub fn build_analysis(meta: Option<TraceMeta>, records: Vec<TraceRecord>) -> Analysis {
    Analysis::build(meta, records, ANALYZE_TOP)
}

/// `Analysis::to_json` plus the pretty rendering `analyze` writes.
pub fn analysis_to_json(analysis: &Analysis) -> String {
    analysis.to_json(0).render_pretty()
}
