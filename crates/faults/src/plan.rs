//! Fault plans: the replayable, text-encodable form of an injection
//! campaign.
//!
//! A plan is an ordered list of [`FaultEntry`] values. The text encoding
//! is a semicolon-separated list of colon-separated tokens, compact
//! enough to paste into an `asynoc faults --plan` invocation:
//!
//! ```text
//! stall:<channel>:<hits>:<extra_ps>      transient link stall
//! corrupt:<site>:<hits>:<both|drop>      corrupted routing symbol
//! stuck:<site>:<hits>                    stuck speculative broadcast
//! drop:<source>:<nth>:<drops>:<delay_ps> dropped header + retries
//! lose:<source>:<nth>                    unrecoverable packet loss
//! ```
//!
//! Plans either come from [`FaultPlan::parse`] or from
//! [`FaultPlan::random`], which draws targets from a substrate's
//! [`FaultDomain`] with the workspace's own seeded RNG, so a `(seed,
//! density, domain)` triple always reproduces the same plan.

use std::fmt;

use asynoc_engine::{ArmedFaults, FaultDomain};
use asynoc_kernel::{Duration, SimRng};
use asynoc_packet::RouteSymbol;

/// One armed fault in a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEntry {
    /// A transient extra delay on a channel's next `hits` launches.
    Stall {
        /// Target channel index.
        channel: usize,
        /// Launches affected.
        hits: u32,
        /// Extra delay per affected launch.
        extra_ps: u64,
    },
    /// A corrupted routing-symbol read at a fanout site: the node sees
    /// `symbol` (`Both` widens the route, `Drop` starves a subtree)
    /// instead of what the header encodes, for `hits` whole trains.
    Corrupt {
        /// Fanout flat index.
        site: usize,
        /// Trains affected.
        hits: u32,
        /// The symbol the node reads instead.
        symbol: RouteSymbol,
    },
    /// A speculative broadcast stuck on: the site reads `Both` for
    /// `hits` trains regardless of the encoded route.
    Stuck {
        /// Fanout flat index.
        site: usize,
        /// Trains affected.
        hits: u32,
    },
    /// A recoverable header drop: `source`'s `nth` generated header is
    /// dropped `drops` times, re-sent after `delay_ps` each time.
    Drop {
        /// Source endpoint index.
        source: usize,
        /// Which generated header (0-based).
        nth: u64,
        /// Drop count before the header goes through.
        drops: u32,
        /// Retry timeout per drop.
        delay_ps: u64,
    },
    /// An unrecoverable loss: `source`'s `nth` header — and its whole
    /// train — is discarded at the source.
    Lose {
        /// Source endpoint index.
        source: usize,
        /// Which generated header (0-based).
        nth: u64,
    },
}

impl FaultEntry {
    /// The entry's text token (inverse of [`FaultEntry::parse`]).
    #[must_use]
    pub fn encode(&self) -> String {
        match *self {
            FaultEntry::Stall {
                channel,
                hits,
                extra_ps,
            } => format!("stall:{channel}:{hits}:{extra_ps}"),
            FaultEntry::Corrupt { site, hits, symbol } => {
                let sym = match symbol {
                    RouteSymbol::Both => "both",
                    _ => "drop",
                };
                format!("corrupt:{site}:{hits}:{sym}")
            }
            FaultEntry::Stuck { site, hits } => format!("stuck:{site}:{hits}"),
            FaultEntry::Drop {
                source,
                nth,
                drops,
                delay_ps,
            } => format!("drop:{source}:{nth}:{drops}:{delay_ps}"),
            FaultEntry::Lose { source, nth } => format!("lose:{source}:{nth}"),
        }
    }

    /// Parses one token.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] naming the malformed token.
    pub fn parse(token: &str) -> Result<FaultEntry, PlanError> {
        let fields: Vec<&str> = token.split(':').collect();
        // A number too wide for its field is malformed, never truncated.
        let entry = || {
            Some(match fields.as_slice() {
                ["stall", channel, hits, extra] => FaultEntry::Stall {
                    channel: channel.parse().ok()?,
                    hits: hits.parse().ok()?,
                    extra_ps: extra.parse().ok()?,
                },
                ["corrupt", site, hits, symbol] => FaultEntry::Corrupt {
                    site: site.parse().ok()?,
                    hits: hits.parse().ok()?,
                    symbol: match *symbol {
                        "both" => RouteSymbol::Both,
                        "drop" => RouteSymbol::Drop,
                        _ => return None,
                    },
                },
                ["stuck", site, hits] => FaultEntry::Stuck {
                    site: site.parse().ok()?,
                    hits: hits.parse().ok()?,
                },
                ["drop", source, nth, drops, delay] => FaultEntry::Drop {
                    source: source.parse().ok()?,
                    nth: nth.parse().ok()?,
                    drops: drops.parse().ok()?,
                    delay_ps: delay.parse().ok()?,
                },
                ["lose", source, nth] => FaultEntry::Lose {
                    source: source.parse().ok()?,
                    nth: nth.parse().ok()?,
                },
                _ => return None,
            })
        };
        entry().ok_or_else(|| PlanError::new(format!("malformed fault token {token:?}")))
    }

    /// Whether this entry, on a substrate with `domain`, is guaranteed
    /// to leave the delivered-destination multiset intact.
    ///
    /// Stalls delay without losing; drops re-send; a widened (`Both`)
    /// override — including a stuck broadcast — recovers only at sites
    /// the substrate certifies ([`FaultDomain::corrupt_sites`]). A
    /// `Drop` override starves a subtree and a lethal loss discards a
    /// packet: both degrade delivery.
    #[must_use]
    pub fn recoverable(&self, domain: &FaultDomain) -> bool {
        match *self {
            FaultEntry::Stall { .. } | FaultEntry::Drop { .. } => true,
            FaultEntry::Corrupt { site, symbol, .. } => {
                symbol == RouteSymbol::Both && domain.corrupt_sites.contains(&site)
            }
            FaultEntry::Stuck { site, .. } => domain.corrupt_sites.contains(&site),
            FaultEntry::Lose { .. } => false,
        }
    }

    /// The worst-case extra latency this entry can inject, ps
    /// (saturating).
    #[must_use]
    pub fn delay_budget_ps(&self) -> u64 {
        match *self {
            FaultEntry::Stall { hits, extra_ps, .. } => extra_ps.saturating_mul(hits.into()),
            FaultEntry::Drop {
                drops, delay_ps, ..
            } => delay_ps.saturating_mul(drops.into()),
            _ => 0,
        }
    }
}

/// A malformed plan encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanError {
    message: String,
}

impl PlanError {
    fn new(message: impl Into<String>) -> Self {
        PlanError {
            message: message.into(),
        }
    }

    /// The user-facing message.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for PlanError {}

/// The most delay a plan may inject in all, ps: half the simulated clock's
/// range, so that no stalled or re-sent flit is due past its end.
const MAX_DELAY_PS: u64 = u64::MAX / 2;

/// An ordered fault-injection campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The armed entries, in plan order.
    pub entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// An empty plan (arms nothing).
    #[must_use]
    pub fn new(entries: Vec<FaultEntry>) -> Self {
        FaultPlan { entries }
    }

    /// Parses the semicolon-separated text encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] naming the first malformed token.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanError> {
        let entries = text
            .split(';')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(FaultEntry::parse)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultPlan { entries })
    }

    /// The plan's text encoding (inverse of [`FaultPlan::parse`]).
    #[must_use]
    pub fn encode(&self) -> String {
        self.entries
            .iter()
            .map(FaultEntry::encode)
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Draws a deterministic, *recoverable-only* plan for `domain`:
    /// mostly stalls, some source drops, and — where the substrate
    /// certifies safe sites — widened/stuck symbol overrides. The same
    /// `(seed, density, domain)` always yields the same plan.
    #[must_use]
    pub fn random(seed: u64, density: f64, domain: &FaultDomain) -> FaultPlan {
        let mut rng = SimRng::seed_from(seed);
        let mut entries = Vec::new();
        if domain.channels == 0 || domain.endpoints == 0 {
            return FaultPlan { entries };
        }
        let sites = (domain.channels + domain.endpoints) as f64;
        let budget = ((sites * density.clamp(0.0, 1.0)) / 4.0).ceil().max(1.0) as usize;
        for _ in 0..budget {
            let stall = |rng: &mut SimRng| FaultEntry::Stall {
                channel: rng.index(domain.channels),
                hits: 1 + rng.index(3) as u32,
                extra_ps: 200 + 100 * rng.index(9) as u64,
            };
            match rng.index(4) {
                0 | 1 => entries.push(stall(&mut rng)),
                2 => entries.push(FaultEntry::Drop {
                    source: rng.index(domain.endpoints),
                    nth: rng.index(6) as u64,
                    drops: 1 + rng.index(2) as u32,
                    delay_ps: 400 + 100 * rng.index(7) as u64,
                }),
                _ if domain.corrupt_sites.is_empty() => entries.push(stall(&mut rng)),
                _ => {
                    let site = domain.corrupt_sites[rng.index(domain.corrupt_sites.len())];
                    let hits = 1 + rng.index(2) as u32;
                    entries.push(if rng.chance(0.5) {
                        FaultEntry::Stuck { site, hits }
                    } else {
                        FaultEntry::Corrupt {
                            site,
                            hits,
                            symbol: RouteSymbol::Both,
                        }
                    });
                }
            }
        }
        FaultPlan { entries }
    }

    /// Whether every entry is recoverable on a substrate with `domain`.
    #[must_use]
    pub fn recoverable(&self, domain: &FaultDomain) -> bool {
        self.entries.iter().all(|e| e.recoverable(domain))
    }

    /// Total worst-case injected latency, ps (the oracle's bound on how
    /// much the faulted run's mean may exceed the clean run's).
    #[must_use]
    pub fn delay_budget_ps(&self) -> u64 {
        let budgets = self.entries.iter().map(FaultEntry::delay_budget_ps);
        budgets.fold(0, u64::saturating_add)
    }

    /// Holds every entry to the fabric the plan is aimed at — a stall's
    /// channel and a drop's or loss's source inside `domain`, a symbol
    /// override at one of the fabric's `symbol_sites` routing nodes
    /// (none on a mesh) — and the delays together to half the simulated
    /// clock: an entry aimed elsewhere never fires, and would read as a
    /// fault the fabric shrugged off.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] naming the first offending entry by its
    /// 1-based position and text.
    pub fn validate(&self, domain: &FaultDomain, symbol_sites: usize) -> Result<(), PlanError> {
        let mut budget_ps = 0u64;
        for (index, entry) in self.entries.iter().enumerate() {
            let refuse = |reason: String| {
                let (nth, token) = (index + 1, entry.encode());
                PlanError::new(format!("entry {nth} {token:?}: {reason}"))
            };
            let (what, target, count) = match *entry {
                FaultEntry::Stall { channel, .. } => ("channel", channel, domain.channels),
                FaultEntry::Corrupt { site, .. } | FaultEntry::Stuck { site, .. } => {
                    ("symbol site", site, symbol_sites)
                }
                FaultEntry::Drop { source, .. } | FaultEntry::Lose { source, .. } => {
                    ("source", source, domain.endpoints)
                }
            };
            if target >= count {
                return Err(refuse(format!(
                    "{what} {target} is outside this fabric's 0..{count}"
                )));
            }
            budget_ps = budget_ps.saturating_add(entry.delay_budget_ps());
            if budget_ps > MAX_DELAY_PS {
                return Err(refuse(format!(
                    "the plan's delays add up to more than {MAX_DELAY_PS} ps"
                )));
            }
        }
        Ok(())
    }

    /// Compiles the plan into the engine's armed table.
    #[must_use]
    pub fn arm(&self) -> ArmedFaults {
        use asynoc_kernel::FaultClass;
        let mut armed = ArmedFaults::new();
        for entry in &self.entries {
            match *entry {
                FaultEntry::Stall {
                    channel,
                    hits,
                    extra_ps,
                } => armed.add_stall(channel, hits, Duration::from_ps(extra_ps)),
                FaultEntry::Corrupt { site, hits, symbol } => {
                    armed.add_symbol(site, hits, symbol, FaultClass::SymbolCorrupt);
                }
                FaultEntry::Stuck { site, hits } => {
                    armed.add_symbol(site, hits, RouteSymbol::Both, FaultClass::StuckBroadcast);
                }
                FaultEntry::Drop {
                    source,
                    nth,
                    drops,
                    delay_ps,
                } => armed.add_drop(source, nth, drops, Duration::from_ps(delay_ps)),
                FaultEntry::Lose { source, nth } => armed.add_lose(source, nth),
            }
        }
        armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_text_round_trips() {
        let text = "stall:3:2:500;corrupt:9:1:both;stuck:4:1;drop:0:2:1:700;lose:7:0";
        let plan = FaultPlan::parse(text).expect("valid plan");
        assert_eq!(plan.entries.len(), 5);
        assert_eq!(plan.encode(), text);
        assert_eq!(FaultPlan::parse(&plan.encode()), Ok(plan));
    }

    #[test]
    fn malformed_tokens_are_named() {
        for bad in ["stall:3:2", "corrupt:9:1:left", "explode:1", "drop:a:0:1:5"] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(
                err.message().contains(bad.split(':').next().unwrap()),
                "{err}"
            );
        }
        // Empty segments are tolerated (trailing semicolons).
        assert_eq!(FaultPlan::parse(";;"), Ok(FaultPlan::default()));
    }

    #[test]
    fn random_plans_are_seed_reproducible_and_recoverable() {
        let domain = FaultDomain {
            channels: 48,
            endpoints: 8,
            corrupt_sites: vec![1, 5, 9],
        };
        let a = FaultPlan::random(77, 0.5, &domain);
        let b = FaultPlan::random(77, 0.5, &domain);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.entries.is_empty());
        assert!(a.recoverable(&domain));
        let c = FaultPlan::random(78, 0.5, &domain);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn random_plans_respect_an_empty_corrupt_domain() {
        let domain = FaultDomain {
            channels: 20,
            endpoints: 4,
            corrupt_sites: Vec::new(),
        };
        let plan = FaultPlan::random(5, 1.0, &domain);
        assert!(plan
            .entries
            .iter()
            .all(|e| matches!(e, FaultEntry::Stall { .. } | FaultEntry::Drop { .. })));
    }

    #[test]
    fn recoverability_distinguishes_widen_from_starve() {
        let domain = FaultDomain {
            channels: 10,
            endpoints: 4,
            corrupt_sites: vec![2],
        };
        let widen_safe = FaultEntry::Corrupt {
            site: 2,
            hits: 1,
            symbol: RouteSymbol::Both,
        };
        let widen_unsafe = FaultEntry::Corrupt {
            site: 3,
            hits: 1,
            symbol: RouteSymbol::Both,
        };
        let starve = FaultEntry::Corrupt {
            site: 2,
            hits: 1,
            symbol: RouteSymbol::Drop,
        };
        assert!(widen_safe.recoverable(&domain));
        assert!(!widen_unsafe.recoverable(&domain));
        assert!(!starve.recoverable(&domain));
        assert!(!FaultEntry::Lose { source: 0, nth: 0 }.recoverable(&domain));
    }

    #[test]
    fn delay_budget_sums_stalls_and_retries() {
        let plan =
            FaultPlan::parse("stall:1:2:300;drop:0:1:2:500;lose:0:0;stuck:1:4").expect("valid");
        assert_eq!(plan.delay_budget_ps(), 2 * 300 + 2 * 500);
    }

    #[test]
    fn numbers_too_wide_for_their_field_are_malformed_not_truncated() {
        // 2^32 hits used to arm none; 2^64 of anything never parsed.
        for bad in [
            "stall:3:4294967296:10",
            "drop:0:0:4294967296:10",
            "stuck:1:4294967296",
            "lose:18446744073709551616:0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad}");
        }
        let wide = FaultPlan::parse("stall:0:4294967295:18446744073709551615").expect("fits");
        assert_eq!(wide.delay_budget_ps(), u64::MAX, "saturates");
    }

    #[test]
    fn a_plan_aimed_outside_the_fabric_is_refused_entry_by_entry() {
        let domain = FaultDomain {
            channels: 176,
            endpoints: 8,
            corrupt_sites: vec![0, 1],
        };
        let refusal = |text: &str, symbol_sites| {
            let plan = FaultPlan::parse(text).expect("well-formed");
            plan.validate(&domain, symbol_sites)
                .map_err(|e| e.to_string())
        };
        assert_eq!(
            refusal(
                "stall:175:1:10;corrupt:55:1:drop;stuck:55:2;drop:7:0:1:5;lose:7:9",
                56
            ),
            Ok(())
        );
        for (text, symbol_sites, complaint) in [
            (
                "stall:99999:1:10;lose:77:1",
                56,
                "entry 1 \"stall:99999:1:10\": channel 99999 is outside this fabric's 0..176",
            ),
            (
                "stuck:0:1",
                0,
                "entry 1 \"stuck:0:1\": symbol site 0 is outside this fabric's 0..0",
            ),
            (
                "stall:0:1:5;stall:1:3:4611686018427387904",
                56,
                "entry 2 \"stall:1:3:4611686018427387904\": the plan's delays add up to more \
                 than 9223372036854775807 ps",
            ),
        ] {
            assert_eq!(refusal(text, symbol_sites), Err(complaint.to_string()));
        }
    }

    #[test]
    fn arm_compiles_every_entry() {
        let plan = FaultPlan::parse("stall:1:1:100;drop:0:0:1:100;lose:1:0").expect("valid");
        let armed = plan.arm();
        assert!(armed.is_armed());
        assert!(!FaultPlan::default().arm().is_armed());
    }
}
