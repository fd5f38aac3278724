//! Minimal-reproducer shrinking for failing fault plans.
//!
//! When a differential pair violates the oracle, the interesting
//! artifact is not the original (often random) plan but the smallest
//! sub-plan that still fails: it names the one interaction the fault
//! model got wrong. [`shrink_plan`] greedily bisects the entry list —
//! drop each entry, keep the removal whenever the predicate still
//! fails, iterate to a fixpoint — then shrinks surviving entries'
//! budgets (`hits`/`drops` down to 1). The result replays from the CLI:
//! a violated `asynoc faults --oracle` prints the exact line.

use crate::plan::{FaultEntry, FaultPlan};

/// Shrinks `plan` to a (locally) minimal sub-plan on which
/// `still_fails` holds. The predicate is assumed true for `plan`
/// itself; it is re-evaluated on every candidate, so it should run the
/// same deterministic differential pair each time.
pub fn shrink_plan(plan: &FaultPlan, mut still_fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut current = plan.clone();
    // Pass 1: remove whole entries until no single removal still fails.
    let mut changed = true;
    while changed && current.entries.len() > 1 {
        changed = false;
        let mut index = 0;
        while index < current.entries.len() && current.entries.len() > 1 {
            let mut candidate = current.clone();
            candidate.entries.remove(index);
            if still_fails(&candidate) {
                current = candidate;
                changed = true;
            } else {
                index += 1;
            }
        }
    }
    // Pass 2: shrink surviving budgets to their unit forms.
    for index in 0..current.entries.len() {
        let shrunk = match current.entries[index] {
            FaultEntry::Stall {
                channel,
                hits,
                extra_ps,
            } if hits > 1 => Some(FaultEntry::Stall {
                channel,
                hits: 1,
                extra_ps,
            }),
            FaultEntry::Corrupt { site, hits, symbol } if hits > 1 => Some(FaultEntry::Corrupt {
                site,
                hits: 1,
                symbol,
            }),
            FaultEntry::Stuck { site, hits } if hits > 1 => {
                Some(FaultEntry::Stuck { site, hits: 1 })
            }
            FaultEntry::Drop {
                source,
                nth,
                drops,
                delay_ps,
            } if drops > 1 => Some(FaultEntry::Drop {
                source,
                nth,
                drops: 1,
                delay_ps,
            }),
            _ => None,
        };
        if let Some(entry) = shrunk {
            let mut candidate = current.clone();
            candidate.entries[index] = entry;
            if still_fails(&candidate) {
                current = candidate;
            }
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinking_isolates_the_culprit_entry() {
        let plan =
            FaultPlan::parse("stall:1:3:200;lose:0:0;stall:2:1:100;drop:3:1:2:500").expect("valid");
        // "Fails" iff the plan still contains a lethal loss.
        let minimal = shrink_plan(&plan, |p| {
            p.entries
                .iter()
                .any(|e| matches!(e, FaultEntry::Lose { .. }))
        });
        assert_eq!(
            minimal.entries,
            vec![FaultEntry::Lose { source: 0, nth: 0 }]
        );
    }

    #[test]
    fn shrinking_reduces_budgets_to_units() {
        let plan = FaultPlan::parse("stall:1:5:200").expect("valid");
        let minimal = shrink_plan(&plan, |p| {
            p.entries
                .iter()
                .any(|e| matches!(e, FaultEntry::Stall { .. }))
        });
        assert_eq!(
            minimal.entries,
            vec![FaultEntry::Stall {
                channel: 1,
                hits: 1,
                extra_ps: 200
            }]
        );
    }

    #[test]
    fn shrinking_never_returns_an_empty_plan() {
        let plan = FaultPlan::parse("stall:1:1:200").expect("valid");
        let minimal = shrink_plan(&plan, |_| true);
        assert_eq!(minimal, plan);
    }
}
