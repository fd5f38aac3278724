//! Switching-activity power reporting.
//!
//! The paper measures power in two steps: record the switching activity of
//! every wire over a benchmark run, then integrate it with per-event energy
//! (Synopsys PrimeTime). The simulator reproduces the same methodology with
//! calibrated constants: a run counts its node traversals, wire launches
//! and throttled flits inside the measurement window, prices each count at
//! its per-event femtojoules, and a [`PowerReport`] divides the energy of
//! each [`EnergyCategory`] by the window and adds area-proportional
//! leakage.
//!
//! Crucially, *redundant speculative copies cost energy exactly like
//! useful flits* — that is the power cost of speculation the paper
//! quantifies, and the reason the power-optimized speculative node (§4(c))
//! saves power by not replicating body flits.
//!
//! # Examples
//!
//! ```
//! use asynoc_kernel::Duration;
//! use asynoc_power::{EnergyCategory, PowerReport};
//!
//! // One fanout traversal (520 fJ) and one wire launch (200 fJ) in 1 ns.
//! let report = PowerReport::new([520.0, 0.0, 200.0, 0.0], Duration::from_ns(1), 0.5);
//! assert_eq!(report.category_mw(EnergyCategory::Wire), 0.2);
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

/// Total network power over a measurement window, broken down by category.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerReport {
    category_mw: [f64; 4],
    leakage_mw: f64,
}

impl PowerReport {
    /// The power of a measurement `window` in which each category spent
    /// `energy_fj` femtojoules (indexed in [`EnergyCategory::ALL`] order),
    /// plus the network's total `leakage_mw`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `leakage_mw` is negative or not
    /// finite.
    #[must_use]
    pub fn new(energy_fj: [f64; 4], window: Duration, leakage_mw: f64) -> Self {
        assert!(!window.is_zero(), "measurement window must be non-zero");
        assert!(
            leakage_mw.is_finite() && leakage_mw >= 0.0,
            "leakage must be finite and non-negative, got {leakage_mw}"
        );
        // fJ / ps = 1e-15 J / 1e-12 s = 1e-3 W = 1 mW exactly.
        let window_ps = window.as_ps() as f64;
        PowerReport {
            category_mw: energy_fj.map(|fj| fj / window_ps),
            leakage_mw,
        }
    }

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

    #[test]
    fn no_energy_reports_only_leakage() {
        let report = PowerReport::new([0.0; 4], Duration::from_ns(10), 1.3);
        assert_eq!(report.dynamic_mw(), 0.0);
        assert_eq!(report.leakage_mw(), 1.3);
        assert_eq!(report.total_mw(), 1.3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        let _ = PowerReport::new([0.0; 4], Duration::ZERO, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_leakage_rejected() {
        let _ = PowerReport::new([0.0; 4], Duration::from_ns(1), -1.0);
    }

    /// A femtojoule per picosecond is a milliwatt, category by category.
    #[test]
    fn report_breaks_down_by_category() {
        let report = PowerReport::new(
            [2_000.0, 1_000.0, 0.0, 500.0],
            Duration::from_ps(1_000),
            0.5,
        );
        assert_eq!(report.category_mw(EnergyCategory::Fanout), 2.0);
        assert_eq!(report.category_mw(EnergyCategory::Fanin), 1.0);
        assert_eq!(report.category_mw(EnergyCategory::Wire), 0.0);
        assert_eq!(report.category_mw(EnergyCategory::Dropped), 0.5);
        assert_eq!(report.dynamic_mw(), 3.5);
        assert_eq!(report.total_mw(), 4.0);
        let text = report.to_string();
        assert!(
            text.contains("dynamic") && text.contains("leakage"),
            "{text}"
        );
    }
}
