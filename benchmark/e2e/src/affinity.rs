//! Pins this process, and so every child it spawns afterwards, to one CPU.
//!
//! `pinned-parallel` runs the sharded engine's threads time-sliced on a
//! single CPU: the barrier, mailbox and `parallel_map` code still runs, but
//! whether the host schedules two vCPUs at the same moment no longer decides
//! the wall time (see README.md, "Why `default-parallel` is not gated").

use std::io;
use std::mem::size_of;

/// `cpu_set_t` as glibc lays it out: 1024 bits, CPU n is bit n.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
}

/// Puts the CPU set it replaced back when dropped.
pub struct Pinned(CpuSet);

fn set(cpus: &CpuSet) -> io::Result<()> {
    // SAFETY: `cpus` is a live `cpu_set_t` of the size passed; pid 0 is the
    // calling thread, so no other process is affected.
    match unsafe { sched_setaffinity(0, size_of::<CpuSet>(), cpus) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// Narrows the calling thread's CPU set to the lowest CPU it may use.
pub fn pin_to_one_cpu() -> io::Result<Pinned> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is live, exclusively borrowed and of the size passed.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let word = allowed
        .iter()
        .position(|bits| *bits != 0)
        .ok_or_else(|| io::Error::other("the CPU set is empty"))?;
    let mut one: CpuSet = [0; 16];
    one[word] = allowed[word] & allowed[word].wrapping_neg(); // lowest set bit
    set(&one)?;
    Ok(Pinned(allowed))
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // Nothing to do about a failure here; the next pin reports it.
        let _ = set(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;
    use std::thread::available_parallelism;

    #[test]
    fn children_inherit_one_cpu_and_the_set_comes_back() {
        let before = available_parallelism().unwrap();
        let pinned = pin_to_one_cpu().expect("pinning works");
        assert_eq!(available_parallelism().unwrap().get(), 1);
        let nproc = Command::new("nproc").output().expect("nproc runs");
        assert_eq!(String::from_utf8_lossy(&nproc.stdout).trim(), "1");
        drop(pinned);
        assert_eq!(available_parallelism().unwrap(), before);
    }
}
