//! `asynoc faults`: one deterministic fault-injection run emitting the
//! JSON fault report — and, with `--oracle`, the differential
//! conformance verdict against a clean twin under the same seed.
//!
//! The command is the CLI surface of `asynoc-faults`: a plan either
//! replays from its compact text encoding (`--plan`) or is drawn,
//! recoverable-only, from the substrate's certified fault domain
//! (`--seed` x `--fault-rate`). A failing oracle exits non-zero with
//! the violated checks and the exact replay line, so CI gates on it
//! directly.

use std::io::Write;

use asynoc::{Architecture, Benchmark};
use asynoc_faults::{
    judge, run_outcome, FaultDomain, FaultPlan, OracleVerdict, RunOutcome, FAULTS_SCHEMA,
};
use asynoc_mesh::Wormhole;
use asynoc_telemetry::{JsonValue, RecordSink};
use asynoc_vcmesh::{McastScheme, VcRouter};

use crate::args::{CommonOptions, Substrate};
use crate::commands::{
    create_optional, network_for, phases_for, placement_id, resolve_spec_map, run_config, CliError,
};
use crate::fabric::{self, Fabric};

/// A fully-resolved `faults` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultsRequest {
    /// Network architecture preset (MoT substrate; exclusive with `spec_map`).
    pub arch: Option<Architecture>,
    /// Speculation-placement map (MoT substrate; exclusive with `arch`).
    pub spec_map: Option<String>,
    /// Traffic benchmark.
    pub benchmark: Benchmark,
    /// Offered load, flits/ns per source.
    pub rate: f64,
    /// Which fabric to inject into.
    pub substrate: Substrate,
    /// Multicast scheme on the vcmesh substrate (unused elsewhere).
    pub mcast: McastScheme,
    /// Encoded plan to replay (`None` = draw from seed and rate).
    pub plan: Option<String>,
    /// Random-plan density over the fault domain.
    pub fault_rate: f64,
    /// Pair with a clean twin and judge the oracle.
    pub oracle: bool,
    /// JSON report destination (`None` = the command's output stream).
    pub report_out: Option<String>,
    /// Shared options.
    pub common: CommonOptions,
}

/// The `asynoc faults` line that re-runs `request`'s differential pair on
/// `plan`, made explicit: every identity key of the report's `config`,
/// the window where the request set one, the multicast scheme where it is
/// not the default. What selects no result (`--jobs`, `--shards`, output
/// paths, the `--fault-rate` an explicit plan makes moot) is left out.
#[must_use]
pub fn replay_line(request: &FaultsRequest, plan: &FaultPlan) -> String {
    let quoted = |text: &str| format!("'{}'", text.replace('\'', "'\\''"));
    let common = &request.common;
    let mut line = format!("asynoc faults --substrate {}", request.substrate);
    let mut flag = |name: &str, value: String| {
        line.push_str(" --");
        line.push_str(name);
        line.push(' ');
        line.push_str(&value);
    };
    if let Some(arch) = request.arch {
        flag("arch", arch.to_string());
    } else if let Some(map) = &request.spec_map {
        flag("spec-map", quoted(map));
    }
    flag("benchmark", request.benchmark.to_string());
    flag("rate", request.rate.to_string());
    flag("size", common.size.to_string());
    flag("seed", common.seed.to_string());
    flag("flits", common.flits.to_string());
    if let Some(warmup) = common.warmup_ns {
        flag("warmup-ns", warmup.to_string());
    }
    if let Some(measure) = common.measure_ns {
        flag("measure-ns", measure.to_string());
    }
    if request.mcast != McastScheme::default() {
        flag("mcast", request.mcast.to_string());
    }
    flag("plan", quoted(&plan.encode()));
    line + " --oracle"
}

fn plan_json(plan: &FaultPlan, domain: &FaultDomain) -> JsonValue {
    JsonValue::Object(vec![
        ("encoded".to_string(), JsonValue::str(plan.encode())),
        (
            "entries".to_string(),
            JsonValue::uint(plan.entries.len() as u64),
        ),
        (
            "recoverable".to_string(),
            JsonValue::Bool(plan.recoverable(domain)),
        ),
        (
            "delay_budget_ps".to_string(),
            JsonValue::uint(plan.delay_budget_ps()),
        ),
    ])
}

fn outcome_json(outcome: &RunOutcome) -> JsonValue {
    let summary = &outcome.summary;
    JsonValue::Object(vec![
        (
            "summary".to_string(),
            JsonValue::Object(vec![
                ("stalls".to_string(), JsonValue::uint(summary.stalls)),
                ("corrupted".to_string(), JsonValue::uint(summary.corrupted)),
                ("stuck".to_string(), JsonValue::uint(summary.stuck)),
                ("drops".to_string(), JsonValue::uint(summary.drops)),
                ("lost".to_string(), JsonValue::uint(summary.lost)),
            ]),
        ),
        ("ledger".to_string(), outcome.ledger.to_json()),
        (
            "deliveries".to_string(),
            JsonValue::uint(outcome.deliveries.values().sum::<u64>()),
        ),
        (
            "mean_latency_ps".to_string(),
            outcome
                .mean_latency_ps
                .map_or(JsonValue::Null, JsonValue::uint),
        ),
        (
            "packets_incomplete".to_string(),
            JsonValue::uint(outcome.packets_incomplete as u64),
        ),
        (
            "analysis".to_string(),
            JsonValue::Object(vec![
                (
                    "fault_affected_trees".to_string(),
                    JsonValue::uint(outcome.fault_affected_trees as u64),
                ),
                (
                    "broken_trees".to_string(),
                    JsonValue::uint(outcome.broken_trees as u64),
                ),
                (
                    "broken_with_cause".to_string(),
                    JsonValue::uint(outcome.broken_with_cause as u64),
                ),
            ]),
        ),
    ])
}

/// Runs the faulted simulation on `net` and, under `--oracle`, its clean
/// twin; returns the pair with the plan, its domain, and the number of
/// watchpoint records the stream fired.
fn run_pair<F: Fabric>(
    net: &F,
    config: &JsonValue,
    request: &FaultsRequest,
) -> Result<(FaultDomain, FaultPlan, RunOutcome, Option<RunOutcome>, u64), CliError> {
    let common = &request.common;
    let domain = net.fault_domain();
    let plan = resolve_plan(request, &domain, net.symbol_sites())?;
    let run = run_config(request.benchmark, request.rate, common)?;
    // Only the faulted run is streamed: the clean twin stays
    // unobserved so the oracle's reference is untouched.
    let outcome = |plan, sinks: &mut [&mut dyn RecordSink]| {
        run_outcome(net, &run, plan, net.site_of(), sinks)
    };
    let (faulted, watchpoints) = match &common.stream {
        Some(path) => {
            let window = crate::stream::window(common, None);
            let phases = phases_for(request.benchmark, common);
            let (mut latency, mut series) = net.collectors(phases, window);
            let mut sink = crate::stream::sink::<F>(
                path,
                common,
                config.clone(),
                window,
                crate::stream::DEFAULT_TRACE_LIMIT,
                &mut latency,
                &mut series,
            )?;
            let faulted = outcome(Some(&plan), &mut [&mut sink])?;
            let watchpoints = sink
                .finish(JsonValue::Object(vec![]), faulted.packets_incomplete)?
                .watchpoints;
            (faulted, watchpoints)
        }
        None => (outcome(Some(&plan), &mut [])?, 0),
    };
    let clean = request.oracle.then(|| outcome(None, &mut [])).transpose()?;
    Ok((domain, plan, faulted, clean, watchpoints))
}

/// The plan `request` names: `--plan` text, every entry of which must be
/// aimed inside the fabric (`domain` and its `symbol_sites`), or one drawn
/// from `domain`.
fn resolve_plan(
    request: &FaultsRequest,
    domain: &FaultDomain,
    symbol_sites: usize,
) -> Result<FaultPlan, CliError> {
    match &request.plan {
        Some(text) => FaultPlan::parse(text)
            .and_then(|plan| plan.validate(domain, symbol_sites).map(|()| plan))
            .map_err(|e| CliError::Invalid(format!("--plan: {e}"))),
        None => Ok(FaultPlan::random(
            request.common.seed,
            request.fault_rate,
            domain,
        )),
    }
}

/// Executes a `faults` command: runs the (pair of) simulations, writes
/// the JSON report, and fails with the violated checks when the oracle
/// rejects the pair.
///
/// # Errors
///
/// Returns a [`CliError`] on simulation, plan, I/O, or oracle failure.
pub fn execute_faults(request: &FaultsRequest, out: &mut dyn Write) -> Result<(), CliError> {
    let common = &request.common;
    match request.substrate {
        Substrate::Mot => {
            let map = resolve_spec_map(request.arch, request.spec_map.as_ref(), common)?;
            faults_on(
                &network_for(&map, common)?,
                Some(placement_id(request.arch, &map)),
                request,
                out,
            )
        }
        Substrate::Mesh => faults_on(
            &fabric::mesh::<Wormhole>(common.size, common.size, (), common)?,
            None,
            request,
            out,
        ),
        Substrate::Vcmesh => faults_on(
            &fabric::mesh::<VcRouter>(common.size, common.size, request.mcast, common)?,
            None,
            request,
            out,
        ),
    }
}

/// [`execute_faults`] on the fabric `--substrate` named. `placement` is
/// the faulted run's placement identity string (preset name or canonical
/// map form) — `None` off the MoT substrate.
fn faults_on<F: Fabric>(
    net: &F,
    placement: Option<String>,
    request: &FaultsRequest,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let common = &request.common;
    let config = crate::metrics::config_json(
        placement.as_deref(),
        request.benchmark,
        request.rate,
        common.size,
        common,
    );
    let mut profiler = crate::profile::ProfileWriter::when(common.profile.as_ref(), "faults")?;
    let mut report_file = create_optional("--report-out", request.report_out.as_ref())?;
    let (domain, plan, faulted, clean, watchpoints) = run_pair(net, &config, request)?;
    if let Some(profiler) = profiler.as_mut() {
        // One `runs[]` entry per simulation: the faulted run first, then
        // (under --oracle) its clean twin with the same identity keys.
        for outcome in std::iter::once(&faulted).chain(clean.as_ref()) {
            if let Some(profile) = &outcome.profile {
                profiler.add_run(config.clone(), profile);
            }
        }
    }
    let verdict: Option<OracleVerdict> = clean
        .as_ref()
        .map(|clean| judge(clean, &faulted, &plan, &domain));

    let doc = JsonValue::Object(vec![
        ("schema".to_string(), JsonValue::str(FAULTS_SCHEMA)),
        ("substrate".to_string(), JsonValue::str(F::TAG)),
        ("config".to_string(), config),
        ("plan".to_string(), plan_json(&plan, &domain)),
        ("faulted".to_string(), outcome_json(&faulted)),
        (
            "clean".to_string(),
            clean.as_ref().map_or(JsonValue::Null, outcome_json),
        ),
        (
            "oracle".to_string(),
            verdict
                .as_ref()
                .map_or(JsonValue::Null, OracleVerdict::to_json),
        ),
    ]);
    let rendered = doc.render_pretty();
    match request.report_out.as_ref().zip(report_file.as_mut()) {
        Some((path, file)) => {
            file.write_all(rendered.as_bytes())?;
            writeln!(out, "fault report written to {path}")?;
        }
        // Bare stdout stays pure JSON so pipelines can parse it.
        None => out.write_all(rendered.as_bytes())?,
    }
    if let Some(profiler) = profiler {
        profiler.finish()?;
    }

    if let Some(verdict) = &verdict {
        if !verdict.pass() {
            let failing: Vec<String> = verdict
                .failures()
                .iter()
                .map(|c| format!("{}: {}", c.name, c.detail))
                .collect();
            return Err(CliError::Invalid(format!(
                "fault oracle violated:\n  {}\nreplay: {}",
                failing.join("\n  "),
                replay_line(request, &plan)
            )));
        }
    }
    crate::stream::fatal_check(watchpoints, common)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::tests::{documented_lines, gate_lines, words};
    use crate::args::{parse, Command};
    use crate::commands::execute;
    use asynoc_analysis::SpanForest;
    use asynoc_telemetry::TraceCollector;

    /// The faulted run and the clean twin of `request` on `net`, each with
    /// a test-side collector beside the oracle's own observers: the three
    /// counters the online token ledger reported must be the ones the
    /// span forest derives from the whole trace.
    fn ledger_matches_forest_on<F: Fabric>(net: &F, request: &FaultsRequest) -> usize {
        let plan =
            resolve_plan(request, &net.fault_domain(), net.symbol_sites()).expect("a valid plan");
        let run = run_config(request.benchmark, request.rate, &request.common).expect("a run");
        let mut records = 0;
        for plan in [Some(&plan), None] {
            let mut collector = TraceCollector::new(usize::MAX);
            let outcome = run_outcome(net, &run, plan, net.site_of(), &mut [&mut collector])
                .expect("it runs");
            let forest = SpanForest::build(collector.records());
            assert_eq!(
                (
                    outcome.fault_affected_trees,
                    outcome.broken_trees,
                    outcome.broken_with_cause
                ),
                (
                    forest.fault_affected,
                    forest.broken_trees,
                    forest.broken_with_cause
                ),
                "ledger vs forest over {} records of {request:?}",
                collector.records().len()
            );
            assert_eq!(plan.is_none(), forest.fault_affected == 0);
            records = records.max(collector.records().len());
        }
        records
    }

    /// [`ledger_matches_forest_on`] the fabric an `asynoc faults` line
    /// names; returns the longer twin's record count.
    fn ledger_matches_forest(line: &[String]) -> usize {
        let Ok(Command::Faults(request)) = parse(line) else {
            panic!("{line:?} is not a faults invocation");
        };
        let common = &request.common;
        match request.substrate {
            Substrate::Mot => {
                let map = resolve_spec_map(request.arch, request.spec_map.as_ref(), common)
                    .expect("a placement");
                let net = network_for(&map, common).expect("a network");
                ledger_matches_forest_on(&net, &request)
            }
            Substrate::Mesh => ledger_matches_forest_on(
                &fabric::mesh::<Wormhole>(common.size, common.size, (), common).expect("a mesh"),
                &request,
            ),
            Substrate::Vcmesh => ledger_matches_forest_on(
                &fabric::mesh::<VcRouter>(common.size, common.size, request.mcast, common)
                    .expect("a VC mesh"),
                &request,
            ),
        }
    }

    #[test]
    fn the_token_ledger_counts_what_the_span_forest_counts() {
        // Every faults line the README and the gate run...
        let readme = documented_lines(include_str!("../../../README.md"));
        let check = gate_lines(include_str!("../../../scripts/check.sh"));
        let documented: Vec<&Vec<String>> = readme
            .iter()
            .chain(&check)
            .filter(|line| line[0] == "faults")
            .collect();
        assert!(documented.len() >= 8, "{} faults lines", documented.len());
        let longest = documented
            .iter()
            .map(|line| ledger_matches_forest(line))
            .max();
        // ... one of which outruns the 500 000 records the oracle once kept.
        assert!(longest > Some(500_000), "{longest:?} records");

        // ... and drawn (seed, density) pairs on every substrate.
        let mut rng = asynoc_kernel::SimRng::seed_from(0x0070_CE15);
        for fabric in [
            "--arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2",
            "--substrate mesh --benchmark Uniform-random --rate 0.1 --size 4",
            "--substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1 --size 4",
            "--substrate vcmesh --benchmark Multicast10 --rate 0.1 --size 4",
        ] {
            for _ in 0..20 {
                let (seed, density) = (rng.index(1_000), (5 + rng.index(96)) as f64 / 100.0);
                ledger_matches_forest(&words(&format!(
                    "faults {fabric} --seed {seed} --fault-rate {density} \
                     --warmup-ns 20 --measure-ns 150"
                )));
            }
        }
    }

    #[test]
    fn the_replay_line_parses_back_to_the_request_it_replays() {
        for line in [
            "faults --arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 \
             --plan lose:0:2000 --oracle --measure-ns 60000",
            "faults --arch Baseline --benchmark Shuffle --rate 0.25 --size 16 --seed 7",
            "faults --spec-map levels:sp,ns,ns;node:0.1.0=ons --benchmark Multicast5 \
             --rate 0.2 --flits 3 --warmup-ns 20 --measure-ns 150",
            "faults --substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 \
             --warmup-ns 20",
            "faults --substrate vcmesh --benchmark Multicast5 --rate 0.1 --size 4 \
             --measure-ns 150 --plan stall:3:2:500;drop:1:0:1:500",
            "faults --substrate vcmesh --mcast dpm --benchmark Multicast10 --rate 0.1 \
             --size 4 --flits 3 --seed 9 --warmup-ns 20 --measure-ns 150",
        ] {
            let Ok(Command::Faults(request)) = parse(&words(line)) else {
                panic!("{line:?} is not a faults invocation");
            };
            // The plan the run would draw, made explicit as the replay makes it.
            let domain = FaultDomain {
                channels: 64,
                endpoints: 4,
                corrupt_sites: vec![],
            };
            let plan = resolve_plan(&request, &domain, 0).expect("a valid plan");
            let replay = replay_line(&request, &plan);
            let rest = replay.strip_prefix("asynoc ").expect(&replay);
            let expected = FaultsRequest {
                plan: Some(plan.encode()),
                oracle: true,
                ..request
            };
            assert_eq!(
                parse(&words(rest)),
                Ok(Command::Faults(expected)),
                "{replay}"
            );
        }
        // The line names the window: without it `lose:0:2000` never fires.
        let Ok(Command::Faults(request)) = parse(&words(
            "faults --arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 \
             --plan lose:0:2000 --oracle --measure-ns 60000",
        )) else {
            panic!("a faults invocation");
        };
        assert_eq!(
            replay_line(&request, &FaultPlan::parse("lose:0:2000").expect("valid")),
            "asynoc faults --substrate mot --arch OptHybridSpeculative --benchmark Multicast5 \
             --rate 0.2 --size 8 --seed 42 --flits 5 --measure-ns 60000 \
             --plan 'lose:0:2000' --oracle"
        );
    }

    fn run_cli(line: &str) -> String {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let command = parse(&args).expect("valid invocation");
        let mut out = Vec::new();
        execute(&command, &mut out).expect("command succeeds");
        String::from_utf8(out).expect("utf8 output")
    }

    #[test]
    fn a_plan_aimed_outside_the_fabric_is_refused_before_any_run() {
        // 8x8 MoT: 176 channels, 8 sources, 56 fanout nodes. 4x4 meshes:
        // 16 sources, no symbol site, a channel table each.
        let fabrics = [
            ("--arch OptHybridSpeculative", [176, 56, 56, 8, 8]),
            ("--substrate mesh --size 4", [80, 0, 0, 16, 16]),
            ("--substrate vcmesh --size 4", [224, 0, 0, 16, 16]),
        ];
        for (fabric, counts) in fabrics {
            let kinds = [
                "stall:{}:1:10",
                "corrupt:{}:1:both",
                "stuck:{}:1",
                "drop:{}:0:1:5",
            ];
            for (kind, count) in kinds.into_iter().chain(["lose:{}:0"]).zip(counts) {
                let run = |target: usize| {
                    let entry = kind.replace("{}", &target.to_string());
                    let line = format!(
                        "faults {fabric} --benchmark Multicast5 --rate 0.1 --warmup-ns 20 \
                         --measure-ns 100 --oracle --plan stall:0:1:10;{entry}"
                    );
                    let command = parse(&words(&line)).expect("valid invocation");
                    let mut out = Vec::new();
                    let result = execute(&command, &mut out).map_err(|e| e.to_string());
                    (entry, result, out)
                };
                let (entry, refused, out) = run(count);
                let what = entry.split(':').next().expect("a kind");
                let complaint = refused.expect_err(&entry);
                assert!(
                    complaint.starts_with(&format!("--plan: entry 2 {entry:?}: "))
                        && complaint.ends_with(&format!(" is outside this fabric's 0..{count}")),
                    "{fabric} {what}: {complaint}"
                );
                assert!(out.is_empty(), "{fabric} {what}: no report, no simulation");
                // The last target inside the fabric is taken.
                if count > 0 {
                    let (entry, taken, _) = run(count - 1);
                    assert_eq!(taken, Ok(()), "{fabric} {entry}");
                }
            }
        }
    }

    #[test]
    fn mot_oracle_run_emits_a_passing_report() {
        let doc = JsonValue::parse(&run_cli(
            "faults --arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2 \
             --size 8 --warmup-ns 20 --measure-ns 150 --oracle",
        ))
        .expect("fault report is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(FAULTS_SCHEMA)
        );
        let oracle = doc.get("oracle").expect("oracle section");
        assert_eq!(oracle.get("pass"), Some(&JsonValue::Bool(true)));
        assert_eq!(oracle.get("recoverable"), Some(&JsonValue::Bool(true)));
        // The random plan actually armed something.
        let entries = doc
            .get("plan")
            .and_then(|p| p.get("entries"))
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!(entries >= 1.0);
    }

    #[test]
    fn mesh_substrate_judges_the_same_contract() {
        let doc = JsonValue::parse(&run_cli(
            "faults --substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 \
             --warmup-ns 20 --measure-ns 150 --oracle",
        ))
        .expect("fault report is valid JSON");
        assert_eq!(
            doc.get("substrate").and_then(JsonValue::as_str),
            Some("mesh")
        );
        assert_eq!(
            doc.get("oracle").and_then(|o| o.get("pass")),
            Some(&JsonValue::Bool(true))
        );
    }

    #[test]
    fn vcmesh_substrate_judges_the_same_contract() {
        for mcast in ["xy-tree", "dpm"] {
            let doc = JsonValue::parse(&run_cli(&format!(
                "faults --substrate vcmesh --mcast {mcast} --benchmark Multicast5 --rate 0.1 \
                 --size 4 --warmup-ns 20 --measure-ns 150 --oracle"
            )))
            .expect("fault report is valid JSON");
            assert_eq!(
                doc.get("substrate").and_then(JsonValue::as_str),
                Some("vcmesh")
            );
            assert_eq!(
                doc.get("oracle").and_then(|o| o.get("pass")),
                Some(&JsonValue::Bool(true)),
                "vcmesh ({mcast}) oracle must pass"
            );
        }
    }

    #[test]
    fn lethal_plan_degrades_gracefully_and_reconciles() {
        // A lethal loss is unrecoverable, but the oracle still *passes*:
        // the degradation contract demands the loss be fully accounted
        // (ledger, absent deliveries, explained broken tree), not that
        // nothing was lost.
        let doc = JsonValue::parse(&run_cli(
            "faults --arch Baseline --benchmark Shuffle --rate 0.2 --size 8 \
             --warmup-ns 20 --measure-ns 150 --oracle --plan lose:0:0",
        ))
        .expect("fault report is valid JSON");
        let oracle = doc.get("oracle").expect("oracle section");
        assert_eq!(oracle.get("recoverable"), Some(&JsonValue::Bool(false)));
        assert_eq!(oracle.get("pass"), Some(&JsonValue::Bool(true)));
        let faulted = doc.get("faulted").expect("faulted outcome");
        assert_eq!(
            faulted.get("summary").and_then(|s| s.get("lost")),
            Some(&JsonValue::uint(1))
        );
        assert_eq!(
            faulted
                .get("analysis")
                .and_then(|a| a.get("broken_with_cause")),
            Some(&JsonValue::uint(1)),
            "the lost packet's tree is broken-with-cause"
        );
    }

    #[test]
    fn seeded_stall_trips_the_no_progress_watchpoint() {
        // A 100 us link stall parks a flit far past the horizon of a
        // 150 ns run: measured packets stay incomplete, so the stream's
        // close-time record must fire and name the site where the flit
        // was last seen. A 10 ps stall on the same flit is over long
        // before the end, and must not.
        let stream_path = std::env::temp_dir().join(format!(
            "asynoc-faults-stall-stream-{}.ndjson",
            std::process::id()
        ));
        let stream_path = stream_path.to_string_lossy().into_owned();
        let report_path = std::env::temp_dir().join(format!(
            "asynoc-faults-stall-report-{}.json",
            std::process::id()
        ));
        let report_path = report_path.to_string_lossy().into_owned();
        let line = |stall_ps: u64| {
            format!(
                "faults --arch Baseline --benchmark Shuffle --rate 0.2 --size 8 \
                 --warmup-ns 20 --measure-ns 150 --plan stall:0:1:{stall_ps} \
                 --report-out {report_path} --stream {stream_path} --watch-fatal"
            )
        };

        // --watch-fatal turns the tripped invariant into a non-zero exit
        // *after* the report is written.
        let args: Vec<String> = line(100_000_000)
            .split_whitespace()
            .map(String::from)
            .collect();
        let command = parse(&args).expect("valid invocation");
        let mut out = Vec::new();
        let err = execute(&command, &mut out).expect_err("--watch-fatal must abort");
        assert!(err.to_string().contains("--watch-fatal"), "{err}");
        assert!(
            std::fs::read_to_string(&report_path).is_ok(),
            "report written before the fatal exit"
        );
        let stream = std::fs::read_to_string(&stream_path).expect("stream file");
        let alert = stream
            .lines()
            .find(|l| l.contains("\"kind\":\"no_progress\""))
            .expect("stall must trip the no-progress watchpoint");
        let record = JsonValue::parse(alert).expect("watchpoint record parses");
        assert_eq!(
            record.get("site").and_then(JsonValue::as_str),
            Some("src0"),
            "watchpoint names the causal site: {alert}"
        );
        assert_eq!(
            record.get("packet").and_then(JsonValue::as_f64),
            Some(0.0),
            "watchpoint names the stalled packet: {alert}"
        );

        run_cli(&line(10));
        let stream = std::fs::read_to_string(&stream_path).expect("stream file");
        let end = stream.lines().last().expect("end record");
        assert!(end.contains("\"watchpoints\":0"), "recovered stall: {end}");
        let _ = std::fs::remove_file(&stream_path);
        let _ = std::fs::remove_file(&report_path);
    }

    #[test]
    fn starved_subtree_is_judged_under_the_degradation_contract() {
        // Corrupt-to-`Drop` at a root fanout throttles a whole train:
        // destinations go underdelivered, which the recoverable contract
        // would reject but the degradation contract tolerates as long as
        // nothing breaks unexplained.
        let text = run_cli(
            "faults --arch BasicNonSpeculative --benchmark Multicast5 --rate 0.2 --size 8 \
             --warmup-ns 20 --measure-ns 150 --oracle --plan corrupt:0:1:drop",
        );
        let doc = JsonValue::parse(&text).expect("fault report is valid JSON");
        let oracle = doc.get("oracle").expect("oracle section");
        assert_eq!(oracle.get("recoverable"), Some(&JsonValue::Bool(false)));
    }
}
