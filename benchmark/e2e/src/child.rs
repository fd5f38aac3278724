//! Child-process accounting: wall, CPU and peak RSS of one command, read
//! from `wait4(2)` so the numbers are the kernel's, not a sampling guess.

use std::{process::Command, time::Instant};

/// What one finished child cost.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    pub start: Instant,
    pub wall_s: f64,
    /// User + system CPU time of the child (and the threads it joined).
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
    pub success: bool,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("child.rs hard-codes the 64-bit Linux layout of struct rusage");

/// `struct rusage` on 64-bit Linux: two `timeval`s (sec, usec), then
/// `ru_maxrss` in KiB, then thirteen more `long`s this harness ignores.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Spawns `command`, blocks until it exits and returns its usage.
/// `Child::wait` is never called: a pid can be reaped only once, and
/// `wait4` is the call that also hands back the rusage.
pub fn run(command: &mut Command) -> std::io::Result<Usage> {
    let start = Instant::now();
    let child = command.spawn()?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    // SAFETY: `status` and `usage` are live, exclusively borrowed and laid
    // out as the kernel writes them (see `Rusage`); `pid` is our own
    // un-reaped child, so no other process can be affected.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let end = Instant::now();
    if reaped != pid {
        return Err(std::io::Error::last_os_error());
    }
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok(Usage {
        start,
        wall_s: (end - start).as_secs_f64(),
        cpu_s: seconds(usage.utime) + seconds(usage.stime),
        peak_rss_mib: usage.maxrss_kib as f64 / 1024.0,
        success: status == 0, // exited normally with code 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_costs_wall_but_no_cpu() {
        let usage = run(Command::new("sleep").arg("0.2")).expect("sleep runs");
        assert!(usage.success);
        assert!(usage.wall_s >= 0.2 && usage.wall_s < 2.0, "{usage:?}");
        assert!(usage.cpu_s < 0.1, "{usage:?}");
        assert!(usage.peak_rss_mib > 0.0, "{usage:?}");
    }

    #[test]
    fn exit_status_is_reported() {
        assert!(run(&mut Command::new("true")).expect("true runs").success);
        assert!(!run(&mut Command::new("false")).expect("false runs").success);
        assert!(run(&mut Command::new("/nonexistent/program")).is_err());
    }
}
