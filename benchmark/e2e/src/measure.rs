//! The measurement protocol for one workload: set-up (inputs + one untimed
//! warm-up pass, repeated so `setup_s` is a median), timed passes with
//! tracing off until the time budget is spent, then — in a traced run —
//! one pass with `--profile` on every simulating command plus the extras
//! and the `bm-layers` calls the per-layer rows need. The reference kernel
//! runs between any two set-ups or timed passes, and the end-to-end times
//! are scaled by it (see `reference.rs`).

use crate::affinity;
use crate::child::{self, Usage};
use crate::digest::Fnv;
use crate::reference::NOMINAL_S;
use crate::rows::{self, LayerRows};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{Cmd, Reference, Stage, Workload};
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant, SystemTime};

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

pub struct Options {
    pub asynoc: PathBuf,
    /// The per-layer tier's binary; `None` when it did not build.
    pub layers: Option<PathBuf>,
    pub scratch: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One pass: the workload's commands run in order, one at a time.
pub struct Pass {
    pub stages: Vec<Stage>,
    pub usages: Vec<Usage>,
    /// First spawn to last exit, harness time between commands included.
    pub elapsed_s: f64,
    /// What a timed pass's wall and CPU time are multiplied by to give
    /// seconds at the reference kernel's nominal speed.
    pub host_scale: f64,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.usages.iter().map(|u| u.wall_s).sum()
    }

    pub fn cpu_s(&self) -> f64 {
        self.usages.iter().map(|u| u.cpu_s).sum()
    }

    pub fn peak_rss_mib(&self) -> f64 {
        self.usages
            .iter()
            .map(|u| u.peak_rss_mib)
            .fold(0.0, f64::max)
    }
}

/// Everything one workload's run produced.
pub struct Outcome {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    /// `sim_digest` of the last warm-up pass.
    pub digest: u64,
    /// Whether every later pass reproduced that digest.
    pub digest_stable: bool,
    /// Host-speed-scaled, like `cpu_s` and `setup_s`.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Medians of the same three times as the clock read them.
    pub unscaled: Unscaled,
    /// Median over the run's reference-kernel walls of nominal ÷ measured.
    pub host_speed: f64,
    /// Median over the timed passes of the share of a pass (first spawn to
    /// last exit) spent outside its children: the closure of stage walls.
    pub harness_gap_share: f64,
    /// Per-layer rows, in `metrics::PER_LAYER` order; `None` = missing.
    pub layers: Option<LayerRows>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.digest_stable
    }

    /// Samples of the end-to-end metric `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        match name {
            "wall_s" => &self.wall_s,
            "cpu_s" => &self.cpu_s,
            "peak_rss_mb" => &self.peak_rss_mb,
            "setup_s" => &self.setup_s,
            other => unreachable!("no end-to-end metric named {other}"),
        }
    }
}

pub struct Unscaled {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub setup_s: f64,
}

/// Spawns children in the workload's scratch directory and keeps count.
pub struct Runner<'a> {
    pub dir: PathBuf,
    pub rec: &'a mut Recorder,
    asynoc: &'a Path,
    attempted: u64,
    failed: u64,
    /// Walls of the reference kernel, in the order it ran.
    reference_s: Vec<f64>,
}

impl Runner<'_> {
    /// Runs `program args…` with stdout and stderr sent to files (so a
    /// chatty child can never block on a full pipe) and returns its usage,
    /// the index of its span, and the finished stage: stdout, and as its
    /// failure the stderr text if it exited non-zero.
    pub fn spawn(
        &mut self,
        program: &Path,
        args: &[String],
        label: &str,
    ) -> io::Result<(Usage, Option<usize>, Stage)> {
        let (stdout, stderr) = (self.dir.join("stdout.txt"), self.dir.join("stderr.txt"));
        let mut command = Command::new(program);
        command.args(args).current_dir(&self.dir);
        command
            .stdout(File::create(&stdout)?)
            .stderr(File::create(&stderr)?);
        let usage = child::run(&mut command)?;
        let span = self.rec.record(
            label,
            usage.start,
            usage.start + Duration::from_secs_f64(usage.wall_s),
        );
        let failure = match usage.success {
            true => None,
            false => Some(format!(
                "exited non-zero: {}",
                std::fs::read_to_string(&stderr)?.trim_end()
            )),
        };
        let name = program.file_name().unwrap_or_default().to_string_lossy();
        let stage = Stage {
            command: format!("{name} {}", args.join(" ")),
            stdout: std::fs::read_to_string(&stdout)?,
            failure,
        };
        Ok((usage, span, stage))
    }

    /// Runs the reference kernel in a child of its own (the harness must
    /// stay small, see `workloads::trace_records`) and returns the scale for
    /// whatever was timed between the previous run of the kernel and this
    /// one: nominal wall ÷ mean of the two.
    pub fn host_scale(&mut self) -> io::Result<f64> {
        let mut command = Command::new(std::env::current_exe()?);
        command.arg("--reference");
        let usage = child::run(&mut command)?;
        if !usage.success {
            return Err(io::Error::other("the reference kernel failed"));
        }
        let end = usage.start + Duration::from_secs_f64(usage.wall_s);
        self.rec.record("reference", usage.start, end);
        let before = *self.reference_s.last().unwrap_or(&usage.wall_s);
        self.reference_s.push(usage.wall_s);
        Ok(NOMINAL_S / ((before + usage.wall_s) / 2.0))
    }

    /// Runs one pass of `asynoc` commands; `profiled` adds `--profile`
    /// where the command takes it (`profile-<n>.json`, n from 1).
    ///
    /// `outputs` are overwritten in place, pass after pass, and must carry
    /// a modification time from this pass, so a stale file can never
    /// satisfy a check. They are not removed in between: on this kind of
    /// VM freed memory goes back to the host within seconds, and a writer
    /// that has to fault 100 MB of page cache back in pays up to a second
    /// of system time on some passes and none on others. Set-up's wipe
    /// keeps every file younger than the kernel's 30 s dirty expiry.
    pub fn pass(
        &mut self,
        name: &str,
        cmds: &[Cmd],
        outputs: &[&str],
        profiled: bool,
    ) -> io::Result<Pass> {
        self.rec.open(name);
        let (began, began_at) = (Instant::now(), SystemTime::now());
        let mut pass = Pass {
            stages: Vec::new(),
            usages: Vec::new(),
            elapsed_s: 0.0,
            host_scale: 1.0,
        };
        for (index, cmd) in cmds.iter().enumerate() {
            let mut args = cmd.args.clone();
            if profiled && cmd.profiled {
                args.extend([
                    "--profile".to_string(),
                    format!("profile-{}.json", index + 1),
                ]);
            }
            let (usage, _, stage) = self.spawn(self.asynoc, &args, cmd.label)?;
            pass.elapsed_s = began.elapsed().as_secs_f64();
            pass.stages.push(stage);
            pass.usages.push(usage);
        }
        self.rec.close();
        for output in outputs {
            let written = std::fs::metadata(self.dir.join(output)).and_then(|meta| meta.modified());
            if !written.is_ok_and(|at| at >= began_at) {
                let last = pass
                    .stages
                    .last_mut()
                    .expect("a pass with outputs has commands");
                last.failure
                    .get_or_insert(format!("{output} was not written by this pass"));
            }
        }
        Ok(pass)
    }

    /// Counts a pass's commands and prints each failure with its command.
    pub fn account(&mut self, stages: &[Stage]) {
        for stage in stages {
            self.attempted += 1;
            if let Some(reason) = &stage.failure {
                self.failed += 1;
                println!("FAILED  {}\n        {reason}", stage.command);
            }
        }
    }
}

/// FNV-1a over a pass's stdout and the JSON documents it wrote.
fn sim_digest(workload: Workload, dir: &Path, stages: &[Stage]) -> u64 {
    let mut fnv = Fnv::new();
    for stage in stages {
        fnv.output(&stage.stdout);
    }
    for name in workload
        .outputs()
        .iter()
        .filter(|name| name.ends_with(".json"))
    {
        // A missing document already failed its command's check.
        fnv.output(&std::fs::read_to_string(dir.join(name)).unwrap_or_default());
    }
    fnv.value()
}

/// Runs the whole protocol for `workload`.
pub fn measure(workload: Workload, options: &Options, rec: &mut Recorder) -> io::Result<Outcome> {
    let dir = options.scratch.join(workload.name());
    // Held until this function returns; every child inherits the CPU set.
    let _pinned = match workload.pinned() {
        true => Some(affinity::pin_to_one_cpu()?),
        false => None,
    };
    let pass_cmds = workload.pass(options.seed);
    rec.label(workload.name(), "");
    rec.open(workload.name());
    let mut run = Runner {
        dir: dir.clone(),
        rec,
        asynoc: &options.asynoc,
        attempted: 0,
        failed: 0,
        reference_s: Vec::new(),
    };

    let outputs = workload.outputs();
    run.host_scale()?;
    let (mut setup_s, mut setup_unscaled_s) = (Vec::new(), Vec::new());
    let mut serial_wall_s = Vec::new();
    let mut reference = Reference::default();
    let mut warm = Vec::new();
    let mut digest = 0;
    for round in 1..=SETUPS {
        run.rec.label(workload.name(), &format!("setup-{round}"));
        run.rec.open("setup");
        let began = Instant::now();
        match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => std::fs::create_dir_all(&dir)?,
        }
        let inputs = run.pass("inputs", &workload.inputs(options.seed), &[], false)?;
        run.account(&inputs.stages);
        if inputs.stages.iter().any(|stage| stage.failure.is_some()) {
            return Err(io::Error::other(format!(
                "{}: set-up could not make its inputs",
                workload.name()
            )));
        }
        reference = workload.prepare(&dir, &inputs.stages)?;
        let mut warmup = run.pass("warm-up", &pass_cmds, outputs, false)?;
        workload.check(&dir, &mut warmup.stages, &reference, None);
        let elapsed_s = began.elapsed().as_secs_f64();
        run.rec.close();
        setup_s.push(elapsed_s * run.host_scale()?);
        setup_unscaled_s.push(elapsed_s);
        run.account(&warmup.stages);
        serial_wall_s.push(inputs.wall_s());
        digest = sim_digest(workload, &dir, &warmup.stages);
        warm = warmup
            .stages
            .into_iter()
            .map(|stage| stage.stdout)
            .collect();
    }

    let mut digest_stable = true;
    let mut verify = |run: &mut Runner, pass: &mut Pass| {
        workload.check(&dir, &mut pass.stages, &reference, Some(&warm));
        run.account(&pass.stages);
        let seen = sim_digest(workload, &dir, &pass.stages);
        if seen != digest {
            digest_stable = false;
            println!(
                "FAILED  sim_digest {seen:016x} differs from the warm-up pass's {digest:016x}"
            );
        }
    };

    let mut timed: Vec<Pass> = Vec::new();
    let clock = Instant::now();
    while timed.len() < MIN_PASSES || clock.elapsed().as_secs_f64() < options.seconds {
        run.rec
            .label(workload.name(), &format!("timed-{}", timed.len() + 1));
        let mut pass = run.pass("pass", &pass_cmds, outputs, false)?;
        pass.host_scale = run.host_scale()?;
        verify(&mut run, &mut pass);
        timed.push(pass);
    }
    let speeds: Vec<f64> = run.reference_s.iter().map(|s| NOMINAL_S / s).collect();
    let host_speed = median(&speeds);

    let harness_gap_share = median(
        &timed
            .iter()
            .map(|pass| 1.0 - pass.wall_s() / pass.elapsed_s)
            .collect::<Vec<_>>(),
    );
    let mut layers = None;
    if options.trace {
        run.rec.label(workload.name(), "traced");
        let mut traced = run.pass("pass", &pass_cmds, outputs, true)?;
        verify(&mut run, &mut traced);

        let extra_cmds = workload.extras(options.seed);
        let extras = run.pass("extras", &extra_cmds, &[], false)?;
        run.account(&extras.stages);

        let inputs = rows::Inputs {
            workload,
            dir: &dir,
            cmds: &pass_cmds,
            timed: &timed,
            traced: &traced,
            extra_cmds: &extra_cmds,
            extras: &extras,
            serial_wall_s: &serial_wall_s,
            trace_records: reference.trace_records,
            host_speed,
        };
        let mut table =
            rows::from_passes(&inputs, options, harness_gap_share).map_err(io::Error::other)?;
        if let Some(stage) = rows::call_layers(&mut run, options, &inputs, &mut table)? {
            run.account(&[stage]);
        }
        layers = Some(table);
    }

    let (attempted, failed) = (run.attempted, run.failed);
    run.rec.close();
    // Traces and streams run to hundreds of megabytes; leave none behind.
    std::fs::remove_dir_all(&dir)?;
    Ok(Outcome {
        workload,
        attempted,
        failed,
        digest,
        digest_stable,
        wall_s: timed.iter().map(|p| p.wall_s() * p.host_scale).collect(),
        cpu_s: timed.iter().map(|p| p.cpu_s() * p.host_scale).collect(),
        peak_rss_mb: timed.iter().map(Pass::peak_rss_mib).collect(),
        setup_s,
        unscaled: Unscaled {
            wall_s: median(&timed.iter().map(Pass::wall_s).collect::<Vec<_>>()),
            cpu_s: median(&timed.iter().map(Pass::cpu_s).collect::<Vec<_>>()),
            setup_s: median(&setup_unscaled_s),
        },
        host_speed,
        harness_gap_share,
        layers,
    })
}
