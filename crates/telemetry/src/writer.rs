//! The writer thread of every output written as the run goes: a
//! [`TraceFile`](crate::TraceFile) or a [`StreamSink`](crate::StreamSink).
//!
//! The run's thread keeps what decides which lines exist (the trace limit,
//! window clocks, watchpoints) and hands the rest over in output order, in
//! batches: records with the stream window they belong to, then at most
//! one line it rendered itself (`head`, `window`, `watchpoint`, `end`). A
//! line or a record of another window closes the batch. The writer thread
//! owns the output: it spells the records with
//! [`TraceRecord::write_ndjson`] into one text buffer, drains it every
//! [`DRAIN_BYTES`] ([`drain_full`]), writes the line, and keeps the first
//! write error for `finish`: one `write_all` per drain and one per line,
//! in record order, whatever the two threads' timing. Three batches exist
//! and come back emptied: once warm, neither thread allocates, and the
//! writer never allocates or frees at all. (The handoff is a mutex and two
//! condition variables, not std's channels, which allocate on a thread's
//! first blocking operation, at a moment timing decides.)

use std::io::{self, Write};
use std::mem;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use crate::json::write_u64;
use crate::trace::TraceRecord;

/// Records per batch.
pub(crate) const BATCH: usize = 256;
/// Batches in existence: filling, waiting, being written.
const BATCHES: usize = 3;
/// The writer's stack: it formats and writes, nothing deeper.
const STACK: usize = 64 * 1024;
/// The text an output holds before [`drain_full`] writes it out.
pub(crate) const DRAIN_BYTES: usize = 64 * 1024;

/// Writes `text` to `out` unless `err` holds an earlier write's error (a
/// failed output takes no more; the first error stays in `err`), then
/// empties `text`, capacity kept.
pub(crate) fn drain_to(text: &mut String, out: &mut impl Write, err: &mut Option<io::Error>) {
    if err.is_none() {
        *err = out.write_all(text.as_bytes()).err();
    }
    text.clear();
}

/// [`drain_to`] once `text` has passed 64 KiB: the drain rule of every
/// output written as the run goes ([`TraceFile`](crate::TraceFile),
/// [`StreamSink`](crate::StreamSink)) and of a Chrome export.
pub(crate) fn drain_full(text: &mut String, out: &mut impl Write, err: &mut Option<io::Error>) {
    if text.len() >= DRAIN_BYTES {
        drain_to(text, out, err);
    }
}

/// What the run thread hands the writer: `records` as `trace` lines of
/// stream window `seq` (bare trace-file lines for `None`), then `line`.
#[derive(Default)]
struct Batch {
    seq: Option<u64>,
    records: Vec<TraceRecord>,
    line: String,
}

#[derive(Default)]
struct Queue {
    /// The one batch that waits for the writer.
    waiting: Option<Batch>,
    spares: Vec<Batch>,
    /// One side hung up: the run thread sends no more, or the writer died.
    closed: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    to_writer: Condvar,
    to_run: Condvar,
}

impl Shared {
    /// Every update leaves the queue whole, so a poisoned lock is taken.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The run thread's wait: the queue once `ready`, or closed.
    fn wait_run(&self, ready: impl Fn(&Queue) -> bool) -> MutexGuard<'_, Queue> {
        let queue = self
            .to_run
            .wait_while(self.lock(), |q| !q.closed && !ready(q));
        queue.unwrap_or_else(PoisonError::into_inner)
    }

    /// The writer's wait: hands `done` back and takes the next batch;
    /// `None` once the run thread hung up and nothing waits. The run
    /// thread is woken when a batch comes back, not when the slot empties:
    /// waking it for both measured slower (a thread switch more per batch).
    fn next(&self, done: Option<Batch>) -> Option<Batch> {
        let mut queue = self.lock();
        queue.spares.extend(done);
        self.to_run.notify_one();
        let idle = |q: &mut Queue| q.waiting.is_none() && !q.closed;
        let queue = self.to_writer.wait_while(queue, idle);
        queue.unwrap_or_else(PoisonError::into_inner).waiting.take()
    }

    fn close(&self) {
        self.lock().closed = true;
        self.to_writer.notify_one();
        self.to_run.notify_one();
    }
}

/// Closes the queue when the writer ends, by return or by panic, so that
/// the run thread never waits on a writer that is gone.
struct Hangup(Arc<Shared>);

impl Drop for Hangup {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The run thread's end of one output's writer thread. Records past
/// `limit` (between two [`reopen_limit`](WriterThread::reopen_limit)s)
/// are counted, not written.
pub(crate) struct WriterThread<W> {
    shared: Arc<Shared>,
    batch: Batch,
    limit: usize,
    lines: usize,
    dropped: u64,
    /// The output and the writer's text buffer, to be freed here.
    thread: Option<JoinHandle<(io::Result<W>, String)>>,
}

impl<W: Write + Send + 'static> WriterThread<W> {
    /// Starts the thread that writes to `out`; `limit` 0 writes no record
    /// and sizes nothing for them.
    ///
    /// # Errors
    ///
    /// Returns the error of a thread that could not be started.
    pub(crate) fn spawn(out: W, limit: usize) -> io::Result<WriterThread<W>> {
        let room = if limit > 0 { BATCH } else { 0 };
        let batch = || Batch {
            records: Vec::with_capacity(room),
            ..Batch::default()
        };
        let shared = Arc::new(Shared::default());
        shared.lock().spares = (1..BATCHES).map(|_| batch()).collect();
        // A drain's worth of text and the line that crosses it.
        let text = String::with_capacity(if limit > 0 { DRAIN_BYTES + 1024 } else { 0 });
        let hangup = Hangup(Arc::clone(&shared));
        let thread = thread::Builder::new()
            .stack_size(STACK)
            .spawn(move || write_batches(&hangup.0, out, text))?;
        Ok(WriterThread {
            shared,
            batch: batch(),
            limit,
            lines: 0,
            dropped: 0,
            thread: Some(thread),
        })
    }
}

impl<W> WriterThread<W> {
    /// Hands `record` over as a `trace` line of window `seq`, or a bare
    /// line (`None`), unless the limit is reached.
    pub(crate) fn record(&mut self, record: &TraceRecord, seq: Option<u64>) {
        if self.lines >= self.limit {
            self.dropped += 1;
            return;
        }
        self.lines += 1;
        if self.batch.seq != seq && !self.batch.records.is_empty() {
            self.send();
        }
        self.batch.seq = seq;
        self.batch.records.push(*record);
        if self.batch.records.len() == BATCH {
            self.send();
        }
    }

    /// Hands over the line `render` writes, after every record so far.
    pub(crate) fn line(&mut self, render: impl FnOnce(&mut String)) {
        render(&mut self.batch.line);
        self.send();
    }

    /// Opens the limit anew: a stream limits its records per window.
    pub(crate) fn reopen_limit(&mut self) {
        self.lines = 0;
    }

    /// Records not handed over because the limit was reached.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes what is left, flushes, and gives the output back.
    ///
    /// # Errors
    ///
    /// Returns the first write error of the writer's life.
    pub(crate) fn finish(mut self) -> io::Result<W> {
        self.send();
        self.shared.close();
        let thread = self.thread.take().expect("only `finish` takes the thread");
        let (out, _) = thread
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        out
    }

    /// Queues the open batch, unless it is empty, for a spare.
    fn send(&mut self) {
        if self.batch.records.is_empty() && self.batch.line.is_empty() {
            return;
        }
        let ready = |q: &Queue| q.waiting.is_none() && !q.spares.is_empty();
        let mut queue = self.shared.wait_run(ready);
        match queue.spares.pop() {
            Some(spare) if !queue.closed => {
                queue.waiting = Some(mem::replace(&mut self.batch, spare));
                self.shared.to_writer.notify_one();
            }
            // The writer died: `finish` says how.
            _ => {
                self.batch.records.clear();
                self.batch.line.clear();
            }
        }
    }
}

impl<W> Drop for WriterThread<W> {
    /// An output dropped unfinished still gets what it was handed.
    fn drop(&mut self) {
        self.shared.close();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The writer thread: writes each batch in turn, then drains and flushes.
/// Gives its text buffer back with the output, to be freed where it was
/// allocated.
fn write_batches<W: Write>(
    shared: &Shared,
    mut out: W,
    mut text: String,
) -> (io::Result<W>, String) {
    let (mut err, mut done) = (None, None);
    while let Some(mut batch) = shared.next(done.take()) {
        for record in &batch.records {
            if let Some(seq) = batch.seq {
                text.push_str("{\"type\":\"trace\",\"seq\":");
                write_u64(&mut text, seq);
                text.push_str(",\"record\":");
            }
            record.write_ndjson(&mut text);
            text.push_str(if batch.seq.is_some() { "}\n" } else { "\n" });
            drain_full(&mut text, &mut out, &mut err);
        }
        if !batch.line.is_empty() {
            drain_to(&mut text, &mut out, &mut err);
            drain_to(&mut batch.line, &mut out, &mut err);
        }
        batch.records.clear();
        done = Some(batch);
    }
    drain_to(&mut text, &mut out, &mut err);
    if err.is_none() {
        err = out.flush().err();
    }
    (err.map_or(Ok(out), Err), text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use crate::trace::{Action, Detail};

    /// A writer the test reads back from its own thread.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().expect("unpoisoned").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Shared {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().expect("unpoisoned").clone()).expect("utf-8")
        }
    }

    fn record(k: u64) -> TraceRecord {
        TraceRecord {
            t_ps: 1_000 + k,
            packet: k / 4,
            logical: k / 4,
            flit: 0,
            src: k % 8,
            dests: 1,
            created_ps: 1_000,
            site: Site::Router(k as usize % 16),
            action: Action::Forward,
            detail: Detail::Input(k as usize % 2),
            copies: 1,
            busy_ps: 52,
        }
    }

    fn trace_line(seq: Option<u64>, record: &TraceRecord) -> String {
        match seq {
            Some(seq) => format!(
                "{{\"type\":\"trace\",\"seq\":{seq},\"record\":{}}}\n",
                record.to_ndjson()
            ),
            None => record.to_ndjson() + "\n",
        }
    }

    #[test]
    fn batch_boundaries_keep_every_byte_in_order() {
        // No record, one, exactly a batch, a batch and one, and enough to
        // pass the 64 KiB drain several times over, each as bare lines and
        // as stream lines with a line of the run thread's after them.
        for count in [0, 1, BATCH, BATCH + 1, 2 * BATCH + 7, 1_500] {
            for seq in [None, Some(7)] {
                let out = Shared::default();
                let mut writer = WriterThread::spawn(out.clone(), usize::MAX).expect("spawned");
                let mut expected = String::new();
                for k in 0..count as u64 {
                    writer.record(&record(k), seq);
                    expected += &trace_line(seq, &record(k));
                }
                writer.line(|line| line.push_str("{\"type\":\"window\"}\n"));
                expected += "{\"type\":\"window\"}\n";
                writer.finish().expect("nothing failed");
                assert!(out.text() == expected, "{count} records, seq {seq:?}");
            }
        }
    }

    #[test]
    fn a_line_follows_the_records_before_it_and_the_limit_counts_per_window() {
        // A window's limit of records spans several 64 KiB drains.
        let limit = 3 * DRAIN_BYTES / trace_line(Some(0), &record(0)).len();
        let out = Shared::default();
        let mut writer = WriterThread::spawn(out.clone(), limit).expect("spawned");
        let mut expected = String::new();
        for window in 0..3 {
            for k in 0..limit as u64 + 2 {
                writer.record(&record(k), Some(window));
                if k < limit as u64 {
                    expected += &trace_line(Some(window), &record(k));
                }
                if k == 1 {
                    writer.line(|line| line.push_str("mid\n"));
                    expected += "mid\n";
                }
            }
            writer.reopen_limit();
        }
        assert_eq!(writer.dropped(), 6);
        writer.finish().expect("nothing failed");
        assert!(out.text() == expected, "the outputs differ");
    }

    /// Fails every write: the first with `first`, the rest with `later`.
    struct Failing(usize);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            self.0 += 1;
            let message = if self.0 == 1 { "first" } else { "later" };
            Err(io::Error::other(message))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("flush"))
        }
    }

    #[test]
    fn the_first_write_error_is_the_one_reported() {
        for lines in [0, 1, 3] {
            let mut writer = WriterThread::spawn(Failing(0), usize::MAX).expect("spawned");
            for k in 0..1_000 {
                writer.record(&record(k), None);
            }
            for _ in 0..lines {
                writer.line(|line| line.push_str("after\n"));
            }
            let err = writer.finish().err().expect("the writes failed");
            assert_eq!(err.to_string(), "first", "{lines} lines");
        }
        // A writer dropped unfinished is joined, not left running.
        let mut writer = WriterThread::spawn(Failing(0), usize::MAX).expect("spawned");
        writer.record(&record(0), None);
        drop(writer);
    }
}
