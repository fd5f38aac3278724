//! Switching-activity power accounting.
//!
//! The paper measures power in two steps: record the switching activity of
//! every wire over a benchmark run, then integrate it with per-event energy
//! (Synopsys PrimeTime). This crate reproduces the same methodology with
//! calibrated constants: every flit traversal of a node or channel deposits
//! femtojoules into an [`EnergyLedger`], throttled flits deposit a small
//! detection energy, and a [`PowerReport`] divides the accumulated energy
//! by the measurement window and adds area-proportional leakage.
//!
//! Crucially, *redundant speculative copies deposit energy exactly like
//! useful flits* — that is the power cost of speculation the paper
//! quantifies, and the reason the power-optimized speculative node (§4(c))
//! saves power by not replicating body flits.
//!
//! # Examples
//!
//! ```
//! use asynoc_kernel::Duration;
//! use asynoc_power::{EnergyCategory, EnergyLedger};
//!
//! let mut ledger = EnergyLedger::new();
//! ledger.add(EnergyCategory::Fanout, 520.0);
//! ledger.add(EnergyCategory::Wire, 200.0);
//! let report = ledger.report(Duration::from_ns(1), 0.5);
//! assert!(report.total_mw() > 0.5); // leakage + dynamic
//! ```

#![deny(missing_docs)]
use std::fmt;

use asynoc_kernel::Duration;

/// Where a quantum of dynamic energy was spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EnergyCategory {
    /// A flit consumed (routed/replicated) by a fanout node.
    Fanout,
    /// A flit consumed (arbitrated/forwarded) by a fanin node.
    Fanin,
    /// A flit copy launched onto a channel.
    Wire,
    /// A redundant flit detected and throttled at a non-speculative node.
    Dropped,
}

impl EnergyCategory {
    /// All categories, in reporting order.
    pub const ALL: [EnergyCategory; 4] = [
        EnergyCategory::Fanout,
        EnergyCategory::Fanin,
        EnergyCategory::Wire,
        EnergyCategory::Dropped,
    ];

    const fn slot(self) -> usize {
        match self {
            EnergyCategory::Fanout => 0,
            EnergyCategory::Fanin => 1,
            EnergyCategory::Wire => 2,
            EnergyCategory::Dropped => 3,
        }
    }
}

impl fmt::Display for EnergyCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EnergyCategory::Fanout => "fanout nodes",
            EnergyCategory::Fanin => "fanin nodes",
            EnergyCategory::Wire => "channels",
            EnergyCategory::Dropped => "throttled flits",
        })
    }
}

/// Accumulates dynamic energy (femtojoules) by category over a measurement
/// window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnergyLedger {
    fj: [f64; 4],
    events: [u64; 4],
}

impl EnergyLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Deposits `energy_fj` femtojoules into `category`.
    ///
    /// # Panics
    ///
    /// Panics if `energy_fj` is negative or not finite.
    pub fn add(&mut self, category: EnergyCategory, energy_fj: f64) {
        assert!(
            energy_fj.is_finite() && energy_fj >= 0.0,
            "energy deposit must be finite and non-negative, got {energy_fj}"
        );
        self.fj[category.slot()] += energy_fj;
        self.events[category.slot()] += 1;
    }

    /// Total accumulated energy, femtojoules.
    #[must_use]
    pub fn total_fj(&self) -> f64 {
        self.fj.iter().sum()
    }

    /// Accumulated energy in one category, femtojoules.
    #[must_use]
    pub fn category_fj(&self, category: EnergyCategory) -> f64 {
        self.fj[category.slot()]
    }

    /// Number of deposits into one category.
    #[must_use]
    pub fn category_events(&self, category: EnergyCategory) -> u64 {
        self.events[category.slot()]
    }

    /// Resets the ledger (e.g. at the end of warmup).
    pub fn reset(&mut self) {
        *self = EnergyLedger::default();
    }

    /// Builds a power report for a measurement `window` with the given total
    /// network `leakage_mw`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `leakage_mw` is negative.
    #[must_use]
    pub fn report(&self, window: Duration, leakage_mw: f64) -> PowerReport {
        assert!(!window.is_zero(), "measurement window must be non-zero");
        assert!(
            leakage_mw.is_finite() && leakage_mw >= 0.0,
            "leakage must be finite and non-negative, got {leakage_mw}"
        );
        // fJ / ps = 1e-15 J / 1e-12 s = 1e-3 W = 1 mW exactly.
        let window_ps = window.as_ps() as f64;
        let mut category_mw = [0.0f64; 4];
        for (slot, fj) in self.fj.iter().enumerate() {
            category_mw[slot] = fj / window_ps;
        }
        PowerReport {
            category_mw,
            leakage_mw,
        }
    }
}

/// Total network power over a measurement window, broken down by category.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerReport {
    category_mw: [f64; 4],
    leakage_mw: f64,
}

impl PowerReport {
    /// Dynamic power in one category, milliwatts.
    #[must_use]
    pub fn category_mw(&self, category: EnergyCategory) -> f64 {
        self.category_mw[category.slot()]
    }

    /// Total dynamic power, milliwatts.
    #[must_use]
    pub fn dynamic_mw(&self) -> f64 {
        self.category_mw.iter().sum()
    }

    /// Leakage power, milliwatts.
    #[must_use]
    pub fn leakage_mw(&self) -> f64 {
        self.leakage_mw
    }

    /// Total network power, milliwatts (the Table 1 quantity).
    #[must_use]
    pub fn total_mw(&self) -> f64 {
        self.dynamic_mw() + self.leakage_mw
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} mW (dynamic {:.2} + leakage {:.2})",
            self.total_mw(),
            self.dynamic_mw(),
            self.leakage_mw
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_kernel::SimRng;

    #[test]
    fn empty_ledger_reports_only_leakage() {
        let report = EnergyLedger::new().report(Duration::from_ns(10), 1.3);
        assert_eq!(report.dynamic_mw(), 0.0);
        assert_eq!(report.leakage_mw(), 1.3);
        assert_eq!(report.total_mw(), 1.3);
    }

    #[test]
    fn categories_accumulate_independently() {
        let mut ledger = EnergyLedger::new();
        ledger.add(EnergyCategory::Fanout, 10.0);
        ledger.add(EnergyCategory::Fanout, 5.0);
        ledger.add(EnergyCategory::Wire, 7.0);
        ledger.add(EnergyCategory::Dropped, 3.0);
        assert_eq!(ledger.category_fj(EnergyCategory::Fanout), 15.0);
        assert_eq!(ledger.category_fj(EnergyCategory::Wire), 7.0);
        assert_eq!(ledger.category_fj(EnergyCategory::Fanin), 0.0);
        assert_eq!(ledger.category_fj(EnergyCategory::Dropped), 3.0);
        assert_eq!(ledger.category_events(EnergyCategory::Fanout), 2);
        assert_eq!(ledger.total_fj(), 25.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut ledger = EnergyLedger::new();
        ledger.add(EnergyCategory::Fanin, 42.0);
        ledger.reset();
        assert_eq!(ledger.total_fj(), 0.0);
        assert_eq!(ledger.category_events(EnergyCategory::Fanin), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_deposit_rejected() {
        EnergyLedger::new().add(EnergyCategory::Wire, -1.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        let _ = EnergyLedger::new().report(Duration::ZERO, 0.0);
    }

    /// A femtojoule per picosecond is a milliwatt, category by category.
    #[test]
    fn report_breaks_down_by_category() {
        let mut ledger = EnergyLedger::new();
        ledger.add(EnergyCategory::Fanout, 2_000.0);
        ledger.add(EnergyCategory::Fanin, 1_000.0);
        let report = ledger.report(Duration::from_ps(1_000), 0.5);
        assert!((report.category_mw(EnergyCategory::Fanout) - 2.0).abs() < 1e-12);
        assert!((report.category_mw(EnergyCategory::Fanin) - 1.0).abs() < 1e-12);
        assert!((report.dynamic_mw() - 3.0).abs() < 1e-12);
        assert!((report.total_mw() - 3.5).abs() < 1e-12);
        let text = report.to_string();
        assert!(
            text.contains("dynamic") && text.contains("leakage"),
            "{text}"
        );
    }

    #[test]
    fn total_is_sum_of_categories() {
        let mut rng = SimRng::seed_from(13);
        for _case in 0..64 {
            let deposits = rng.index(50);
            let mut ledger = EnergyLedger::new();
            for _ in 0..deposits {
                let slot = rng.index(4);
                let fj = rng.index(1_000_000) as f64;
                ledger.add(EnergyCategory::ALL[slot], fj);
            }
            let by_cat: f64 = EnergyCategory::ALL
                .iter()
                .map(|&c| ledger.category_fj(c))
                .sum();
            assert!((ledger.total_fj() - by_cat).abs() < 1e-6);
            let report = ledger.report(Duration::from_ns(1), 0.0);
            assert!((report.dynamic_mw() - ledger.total_fj() / 1_000.0).abs() < 1e-9);
        }
    }
}
