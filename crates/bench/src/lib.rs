//! Shared helpers for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see `DESIGN.md`'s per-experiment index). They all accept a
//! `--quick` flag for a fast low-precision pass and default to the paper's
//! measurement protocol ([`asynoc::harness::Quality::paper`]).

#![deny(missing_docs)]
use asynoc::harness::Quality;
use asynoc::{Architecture, Benchmark};

pub mod conformance;
pub mod ratio;

/// Parses the common CLI convention: `--quick` selects the fast preset,
/// `--seed N` overrides the RNG seed, `--jobs J` fans independent cells
/// across worker threads (wall-clock only — results are bit-identical at
/// any setting).
///
/// # Panics
///
/// Panics with a usage message on unknown arguments.
#[must_use]
pub fn quality_from_args() -> Quality {
    let mut quality = None;
    let mut seed = None;
    let mut jobs = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quality = Some(Quality::quick()),
            "--paper" => quality = Some(Quality::paper()),
            "--seed" => {
                let value = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--seed requires an integer"));
                seed = Some(value);
            }
            "--jobs" => {
                let value: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&j| j > 0)
                    .unwrap_or_else(|| panic!("--jobs requires a positive integer"));
                jobs = Some(value);
            }
            other => {
                panic!("unknown argument {other:?} (expected --quick, --paper, --seed N, --jobs J)")
            }
        }
    }
    let mut quality = quality.unwrap_or_else(Quality::paper);
    if let Some(seed) = seed {
        quality.seed = seed;
    }
    if let Some(jobs) = jobs {
        quality.jobs = jobs;
    }
    quality
}

/// Fixed-width cell for architecture names.
#[must_use]
pub fn arch_label(arch: Architecture) -> String {
    // Width must be applied to the rendered string: Architecture's Display
    // does not forward padding flags.
    format!("{:<24}", arch.to_string())
}

/// Prints a header row for a benchmark-columned table.
pub fn print_benchmark_header(label: &str, benchmarks: &[Benchmark]) {
    print!("{label:<24}");
    for b in benchmarks {
        print!(" {:>16}", b.to_string());
    }
    println!();
    println!("{}", "-".repeat(24 + benchmarks.len() * 17));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_label_is_fixed_width() {
        assert_eq!(arch_label(Architecture::Baseline).len(), 24);
        assert_eq!(arch_label(Architecture::BasicHybridSpeculative).len(), 24);
    }
}
