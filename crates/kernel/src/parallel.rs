//! Multi-core fan-out with deterministic result ordering.
//!
//! Experiments fan independent work items — seeds, sweep points,
//! saturation probes — across OS threads. Determinism is preserved by
//! construction: each item's result lands in the slot matching its
//! input index, so the returned `Vec` is ordered exactly as if the
//! items had been mapped serially, regardless of which worker ran
//! which item or in what order they finished.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;

/// Maps `f` over `items` using up to `jobs` worker threads.
///
/// Results are returned in input order. `jobs <= 1` (or a single item)
/// runs serially on the calling thread with no synchronisation at all,
/// so the serial path is the parallel path's `jobs = 1` special case —
/// the property the determinism regression test pins down.
///
/// # Panics
///
/// If `f` panics for any item, every worker is still joined (no result
/// slot is left poisoned), remaining items stop being dispatched, and
/// the panic for the *lowest* panicking item index is re-raised on the
/// calling thread with that index prepended — so a panic in item 17 of
/// a 500-seed sweep names item 17 instead of surfacing as an opaque
/// poisoned-mutex error in whichever thread touched the wreck first.
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = jobs.max(1).min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let queue = Mutex::new(items.into_iter().enumerate());
    let slots: Vec<Mutex<Option<R>>> = (0..slot_count(&queue)).map(|_| Mutex::new(None)).collect();
    let first_panic: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if first_panic.lock().expect("panic slot poisoned").is_some() {
                    break; // another worker already crashed; stop dispatching
                }
                let next = queue.lock().expect("work queue poisoned").next();
                let Some((index, item)) = next else { break };
                match std::panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(result) => {
                        *slots[index].lock().expect("result slot poisoned") = Some(result);
                    }
                    Err(payload) => {
                        let mut slot = first_panic.lock().expect("panic slot poisoned");
                        // Keep the lowest item index: with work handed out
                        // in input order that is the first item that *can*
                        // have panicked, so re-runs with jobs=1 hit the
                        // same item first.
                        if slot.as_ref().is_none_or(|(held, _)| index < *held) {
                            *slot = Some((index, payload));
                        }
                    }
                }
            });
        }
    });

    if let Some((index, payload)) = first_panic.into_inner().expect("panic slot poisoned") {
        // `&*` derefs the Box: `&payload` would unsize the Box itself
        // into `dyn Any` and every downcast would miss.
        let detail = payload_message(&*payload);
        panic!("parallel_map: worker panicked on item {index}: {detail}");
    }

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every work item produces a result")
        })
        .collect()
}

/// Best-effort human-readable text from a panic payload (the two shapes
/// `panic!` produces; anything exotic degrades to a placeholder).
fn payload_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    }
}

/// The host's available parallelism, used as the default for `--jobs`:
/// the number of hardware threads the OS reports, or 1
/// if that cannot be determined.
#[must_use]
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Number of result slots needed for a freshly built work queue.
fn slot_count<I: ExactSizeIterator>(queue: &Mutex<I>) -> usize {
    queue.lock().expect("work queue poisoned").len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let serial = parallel_map(1, items.clone(), |i| {
            i.wrapping_mul(0x9e37_79b9).rotate_left(7)
        });
        let parallel = parallel_map(8, items, |i| i.wrapping_mul(0x9e37_79b9).rotate_left(7));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_jobs_than_items() {
        let out = parallel_map(16, vec![1, 2, 3], |i| i + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(4, Vec::<u32>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_jobs_runs_serially() {
        let out = parallel_map(0, vec![5, 6], |i| i * 2);
        assert_eq!(out, vec![10, 12]);
        assert!(default_parallelism() >= 1);
    }

    #[test]
    fn worker_panic_is_reraised_with_item_index() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(4, (0..64).collect::<Vec<u32>>(), |i| {
                if i == 17 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(
            message.contains("item 17") && message.contains("boom at 17"),
            "unexpected message: {message}"
        );
    }

    #[test]
    fn lowest_panicking_index_wins() {
        // Every item panics; the report must name item 0, not whichever
        // worker lost the race.
        let result = std::panic::catch_unwind(|| {
            parallel_map(8, (0..32).collect::<Vec<u32>>(), |i| -> u32 {
                panic!("all fail ({i})")
            })
        });
        let payload = result.expect_err("panic must propagate");
        let message = payload.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("item 0"), "unexpected message: {message}");
    }
}
