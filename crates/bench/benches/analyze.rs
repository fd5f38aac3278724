//! Analysis-pipeline throughput: the offline `asynoc analyze` stages
//! priced per trace event, so a slowdown in ingest or span
//! reconstruction is caught before it makes post-run analysis painful
//! on long traces.
//!
//! One 8x8 hybrid-speculative run is traced in-memory, then each stage
//! is timed over the same record stream:
//!
//! - `parse_trace` — NDJSON text back into meta + records
//! - `fold_stream` — the same run's `--stream --stream-trace` document
//!   folded back into the metrics report (one `trace` line per event,
//!   validated and skipped, plus the few records that carry the fold)
//! - `span_forest` — causal span-tree reconstruction alone
//! - `full_analysis` — the complete report build (spans, critical
//!   paths, attribution, heatmaps, scorecard)
//!
//! `--smoke` shrinks the window and sample count for CI; `--json <path>`
//! guards the stored ns/event baseline as in `observer_overhead` —
//! recording each case's *fastest* sample, since on a shared machine
//! external load only ever adds time.

use asynoc::{
    Architecture, Benchmark, Duration, MotNode, Network, NetworkConfig, Observer, Phases, RunConfig,
};
use asynoc_analysis::{Analysis, SpanForest};
use asynoc_bench::baseline::{guard, parse_bench_args, BenchCase};
use asynoc_bench::timing::Harness;
use asynoc_telemetry::{fold_stream, parse_trace, render_trace, TraceCollector, TraceMeta};

fn main() {
    let args = parse_bench_args();
    let (samples, measure_ns) = if args.smoke { (3, 200) } else { (20, 800) };
    let harness = Harness::new(samples);

    let network = Network::new(
        NetworkConfig::eight_by_eight(Architecture::BasicHybridSpeculative).with_seed(3),
    )
    .expect("valid config");
    let timing = network.config().timing();
    let phases = Phases::new(Duration::from_ns(40), Duration::from_ns(measure_ns));
    let run = RunConfig::new(Benchmark::Multicast10, 0.3)
        .expect("positive rate")
        .with_phases(phases);

    let mut collector: TraceCollector<MotNode> =
        TraceCollector::new(1_000_000, network.site_label());
    let mut extra: Vec<&mut dyn Observer<MotNode>> = vec![&mut collector];
    network
        .run_with_observers(&run, &mut extra)
        .expect("run succeeds");
    let meta = TraceMeta {
        substrate: "mot".to_string(),
        arch: Some(Architecture::BasicHybridSpeculative.to_string()),
        size: 8,
        seed: 3,
        flits: 1,
        rate: 0.3,
        warmup_ps: phases.warmup().as_ps(),
        measure_ps: phases.measure().as_ps(),
        wire_fj: Some(timing.wire_fj),
        drop_fj: Some(timing.drop_fj),
        dropped_events: collector.dropped(),
    };
    let text = render_trace(&meta, collector.records());
    let records = collector.records().to_vec();
    let events = records.len() as u64;

    let stream = traced_stream(measure_ns);
    let stream_events = stream.matches("\"type\":\"trace\"").count() as u64;

    let group = harness.group(&format!("analyze_{measure_ns}ns ({events} events)"));
    let parse = group
        .bench_stats("parse_trace", || {
            parse_trace(&text).expect("well-formed trace")
        })
        .min;
    let fold = group
        .bench_stats("fold_stream", || {
            fold_stream(&stream).expect("well-formed stream")
        })
        .min;
    let spans = group
        .bench_stats("span_forest", || SpanForest::build(&records))
        .min;
    let full = group
        .bench_stats("full_analysis", || {
            Analysis::build(Some(meta.clone()), records.clone(), 10)
        })
        .min;

    if let Some(path) = args.json {
        let cases = [
            ("parse_trace", parse, events),
            ("fold_stream", fold, stream_events),
            ("span_forest", spans, events),
            ("full_analysis", full, events),
        ]
        .map(|(id, fastest, events)| BenchCase {
            id: id.to_string(),
            median: fastest,
            events,
        });
        if let Err(message) = guard("analyze", &path, &cases, args.update) {
            eprintln!("{message}");
            std::process::exit(1);
        }
    }
}

/// The stream `asynoc metrics --stream --stream-trace` writes for the
/// run the other cases trace in memory.
fn traced_stream(measure_ns: u64) -> String {
    let path = std::env::temp_dir().join(format!(
        "asynoc-bench-analyze-{}.stream.ndjson",
        std::process::id()
    ));
    let line = format!(
        "metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 --seed 3 \
         --flits 1 --warmup-ns 40 --measure-ns {measure_ns} --trace-limit 1000000 \
         --stream {} --stream-trace",
        path.display()
    );
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    let command = asynoc_cli::parse(&args).expect("valid invocation");
    asynoc_cli::execute(&command, &mut Vec::new()).expect("the streamed run succeeds");
    let stream = std::fs::read_to_string(&path).expect("stream file");
    let _ = std::fs::remove_file(&path);
    stream
}
