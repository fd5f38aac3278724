//! Credit-protocol property tests for the VC mesh substrate.
//!
//! Three invariants, each checked across ten seeds and both multicast
//! schemes:
//!
//! 1. **Credits never go negative and are conserved.** The router's
//!    serial-mode ledger audits every credit decrement against the
//!    receiver's free-slot count; `credit_checks` counts the audits and
//!    `credit_violations` the failures. (Debug builds also back this
//!    with `debug_assert!`s inside the switch-allocation path, so a
//!    violation aborts the test binary outright.)
//! 2. **No VC deadlock under random multicast traffic.** Every injected
//!    packet must finish draining before the engine's hard cap — a
//!    cyclic VC dependency would strand flits and show up as
//!    `packets_incomplete > 0`.
//! 3. **Bounded progress.** A run observed through the streaming
//!    telemetry watchdog fires no watchpoint at all: neither the mid-run
//!    `no_progress` (consecutive delivery-free windows with copies still
//!    in flight) nor the close-time one (a measured packet incomplete).
//!    The engine ends its drain once every measured header has landed,
//!    so tail flits of the youngest worms are still under way at the
//!    close; that is how every run ends, and no record reports it.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use asynoc_kernel::Duration;
use asynoc_mesh::MeshSize;
use asynoc_stats::Phases;
use asynoc_telemetry::{
    JsonValue, LatencyHistograms, LevelSpec, Recorder, Site, Stage, StreamConfig, StreamSink,
    TimeSeries,
};
use asynoc_traffic::Benchmark;
use asynoc_vcmesh::{drive, McastScheme, RunConfig, VcMeshConfig, VcMeshNetwork, VcMeshReport};

/// Ten fixed seeds; Fibonacci so the spacing is irregular.
const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];

const SCHEMES: [McastScheme; 2] = [McastScheme::XyTree, McastScheme::Dpm];

fn phases() -> Phases {
    Phases::new(Duration::from_ns(80), Duration::from_ns(800))
}

fn network(seed: u64, mcast: McastScheme) -> VcMeshNetwork {
    let size = MeshSize::new(4, 4).expect("4x4 is a valid mesh size");
    VcMeshNetwork::new(VcMeshConfig::new(size).with_seed(seed).with_mcast(mcast))
        .expect("config is valid")
}

/// A serial run (the credit ledger only arms when one shard sees the
/// whole fabric).
fn run(seed: u64, mcast: McastScheme) -> VcMeshReport {
    network(seed, mcast)
        .run(Benchmark::Multicast10, 0.1, phases())
        .expect("run succeeds")
}

/// Credits are audited on every grant in serial mode, and the audit
/// never finds a negative or over-returned credit counter.
#[test]
fn credits_are_conserved_and_never_negative_across_seeds() {
    for seed in SEEDS {
        for mcast in SCHEMES {
            let report = run(seed, mcast);
            assert!(
                report.router.credit_checks > 0,
                "seed {seed} {mcast}: the credit ledger never armed"
            );
            assert_eq!(
                report.router.credit_violations, 0,
                "seed {seed} {mcast}: {} credit conservation violation(s)",
                report.router.credit_violations
            );
        }
    }
}

/// Random multicast traffic drains completely under both schemes: no
/// packet is stranded by a cyclic VC dependency.
#[test]
fn no_vc_deadlock_under_random_multicast_traffic() {
    for seed in SEEDS {
        for mcast in SCHEMES {
            let report = run(seed, mcast);
            assert!(
                report.packets_measured > 0,
                "seed {seed} {mcast}: no packets measured — traffic never started"
            );
            assert_eq!(
                report.packets_incomplete, 0,
                "seed {seed} {mcast}: {} packet(s) stranded (VC deadlock?)",
                report.packets_incomplete
            );
        }
    }
}

/// Shared byte sink so the test can own the stream the sink writes.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The streaming watchdog sees bounded progress: no watchpoint fires,
/// mid-run or at the close.
#[test]
fn progress_watchdog_stays_quiet_on_clean_multicast_runs() {
    for seed in SEEDS {
        let buf = SharedBuf::default();
        let net = network(seed, McastScheme::Dpm);
        let endpoints = net.config().size().endpoints();
        let mut latency = LatencyHistograms::new(phases(), endpoints);
        let routers = LevelSpec {
            stage: Stage::Router,
            nodes: endpoints,
        };
        let mut series = TimeSeries::new(Duration::from_ns(100), vec![routers]);
        let mut sink = StreamSink::new(
            Box::new(buf.clone()),
            StreamConfig {
                substrate: "vcmesh".to_string(),
                config: JsonValue::Object(vec![]),
                window: Duration::from_ns(100),
                trace_limit: None,
            },
            &mut latency,
            &mut series,
        )
        .expect("sink construction succeeds");
        let run = RunConfig::quick(Benchmark::Multicast10, 0.1);
        let mut recorder = Recorder::new(Rc::new(Site::Router), vec![&mut sink]);
        let report = drive(&net, &run, &mut [&mut recorder], None).expect("run succeeds");
        assert_eq!(
            report.packets_incomplete, 0,
            "seed {seed}: run did not drain"
        );
        let summary = sink
            .finish(JsonValue::Object(vec![]), report.packets_incomplete)
            .expect("finish succeeds");
        let text = String::from_utf8(buf.0.borrow().clone()).expect("stream is UTF-8");
        assert_eq!(summary.watchpoints, 0, "seed {seed}: a watchpoint fired");
        assert!(
            !text.contains("\"type\":\"watchpoint\""),
            "seed {seed}: a watchpoint record was written"
        );
    }
}
