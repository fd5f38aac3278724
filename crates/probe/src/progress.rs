//! The `--progress` heartbeat.
//!
//! A single stderr line — events done and event rate — redrawn in place
//! (`\r`, no newline) at most once per configured wall-clock interval.
//! The run loop calls [`ProgressMeter::record`] every few thousand
//! events; the meter reads the clock there and prints only when an
//! interval has passed.
//!
//! The heartbeat is for humans watching a terminal: construction via
//! [`ProgressMeter::stderr`] yields `None` when stderr is not a TTY
//! (piping a run's stderr to a file must never capture control
//! characters) unless the `ASYNOC_PROGRESS_FORCE` environment variable
//! is set.

use std::io::{IsTerminal, Write};
use std::time::Instant;

/// See the module docs.
#[derive(Debug)]
pub struct ProgressMeter {
    started: Instant,
    interval_ms: u64,
    last_tick: u64,
    printed: bool,
}

impl ProgressMeter {
    /// A meter printing to stderr at most every `interval_ms`
    /// milliseconds — or `None` when stderr is not a terminal and
    /// `ASYNOC_PROGRESS_FORCE` is unset.
    #[must_use]
    pub fn stderr(interval_ms: u64) -> Option<Self> {
        let forced = std::env::var_os("ASYNOC_PROGRESS_FORCE").is_some();
        if std::io::stderr().is_terminal() || forced {
            Some(Self::forced(interval_ms))
        } else {
            None
        }
    }

    /// A meter that skips the TTY check (tests, or callers that gate
    /// themselves).
    #[must_use]
    pub fn forced(interval_ms: u64) -> Self {
        ProgressMeter {
            started: Instant::now(),
            interval_ms: interval_ms.max(1),
            last_tick: 0,
            printed: false,
        }
    }

    /// Notes `events` as the run's event total so far and redraws the
    /// heartbeat line if an interval boundary has passed since the last
    /// redraw.
    pub fn record(&mut self, events: u64) {
        let tick = self.started.elapsed().as_millis() as u64 / self.interval_ms;
        if tick > self.last_tick {
            self.last_tick = tick;
            self.redraw(events);
        }
    }

    fn redraw(&mut self, events: u64) {
        let secs = self.started.elapsed().as_secs_f64().max(1e-9);
        let rate = events as f64 / secs / 1.0e6;
        // Padded so a shrinking line fully overwrites its predecessor.
        let line = format!("\r[asynoc] events={events} rate={rate:.2} Mev/s          ");
        let mut stderr = std::io::stderr().lock();
        let _ = stderr.write_all(line.as_bytes());
        let _ = stderr.flush();
        self.printed = true;
    }

    /// Ends the heartbeat: terminates the in-place line with a newline
    /// if anything was ever drawn. Call once when the run completes.
    pub fn finish(&mut self) {
        if std::mem::take(&mut self.printed) {
            let mut stderr = std::io::stderr().lock();
            let _ = stderr.write_all(b"\n");
            let _ = stderr.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_interval_never_prints() {
        let mut meter = ProgressMeter::forced(1_000_000);
        for i in 0..100 {
            meter.record(i);
        }
        assert!(!meter.printed);
        meter.finish();
    }

    #[test]
    fn stderr_constructor_gates_on_tty_unless_forced() {
        // Under a test harness (or any pipe) stderr is not a terminal,
        // so the unforced constructor must decline — that is the guard
        // keeping \r control characters out of redirected logs. Skip
        // the negative half when someone runs the tests on a live TTY.
        std::env::remove_var("ASYNOC_PROGRESS_FORCE");
        if !std::io::stderr().is_terminal() {
            assert!(ProgressMeter::stderr(1_000).is_none());
        }
        // ASYNOC_PROGRESS_FORCE=1 overrides the TTY check.
        std::env::set_var("ASYNOC_PROGRESS_FORCE", "1");
        let mut meter = ProgressMeter::stderr(1_000_000).expect("forced by the environment");
        std::env::remove_var("ASYNOC_PROGRESS_FORCE");
        meter.record(5);
        meter.finish();
    }

    #[test]
    fn short_interval_redraws_and_finish_terminates_the_line() {
        let mut meter = ProgressMeter::forced(1);
        std::thread::sleep(std::time::Duration::from_millis(3));
        meter.record(1_000);
        assert!(meter.printed, "interval crossed");
        meter.finish();
        assert!(!meter.printed, "finish resets the drawn flag exactly once");
        meter.finish();
    }
}
