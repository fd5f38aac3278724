//! Timing, area, and energy parameters of every node kind.
//!
//! # Where the numbers come from
//!
//! The paper publishes node-level area and forward latency (§5.2(a)):
//!
//! | node | area (µm²) | latency (ps) |
//! |---|---|---|
//! | baseline fanout | 342 | 263 |
//! | unoptimized speculative | 247 | 52 |
//! | unoptimized non-speculative | 406 | 299 |
//! | optimized speculative | 373 | 120 |
//! | optimized non-speculative | 366 | 279 |
//!
//! Everything else (acknowledge overheads, body-flit fast-path latency,
//! wire delay, energies, leakage) is not published, so it is calibrated
//! against Table 1 anchors; the derivations live in `DESIGN.md` and
//! `EXPERIMENTS.md`. Two examples:
//!
//! - *Hotspot saturation = 0.29 GF/s for every network* pins the fanin-root
//!   → sink stage period at ≈ 430 ps (8 × 0.29 GF/s ⇒ one flit per 431 ps).
//! - *Baseline Shuffle saturation = 1.48 GF/s* pins the baseline→baseline
//!   fanout stage period at ≈ 676 ps = fwd + wire + fwd + ack, giving
//!   ack ≈ 90 ps for the baseline node.
//!
//! # The stage-period model
//!
//! The two-phase bundled-data channel holds one flit. A node *consumes*
//! (fires) a flit when its input holds one, its demanded outputs are free,
//! and its cycle floor has elapsed; the input channel then *frees* after the
//! node has forwarded the flit and generated the acknowledge:
//! `free = consume + forward(flit) + ack_extra` (or `consume + drop_ack`
//! for throttled flits, which are acknowledged without forwarding). The
//! steady-state period of a pipeline stage i→j is therefore
//! `fwd_i + wire + fwd_j + ack_j` — which is how fast speculative nodes
//! (small `fwd`, small `ack`) genuinely raise their neighbors' throughput,
//! the effect behind the paper's unicast speedups.

use asynoc_kernel::Duration;
use asynoc_packet::FlitKind;
use asynoc_topology::FanoutKind;

/// Which latency class a flit pays at a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlitClass {
    /// Header (or header+tail) flits: full route computation.
    Header,
    /// Body and tail flits.
    Body,
}

impl FlitClass {
    /// Both classes, in declaration order.
    pub const ALL: [FlitClass; 2] = [FlitClass::Header, FlitClass::Body];

    /// Classifies a flit kind.
    #[must_use]
    pub fn of(kind: FlitKind) -> Self {
        if kind.is_header() {
            FlitClass::Header
        } else {
            FlitClass::Body
        }
    }
}

/// Timing parameters of one node kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KindTiming {
    /// Forward latency for header flits (the paper's published node
    /// latency).
    pub forward_header: Duration,
    /// Forward latency for body/tail flits (equals `forward_header` unless
    /// the kind has a fast path).
    pub forward_body: Duration,
    /// Delay from forwarding completion to the upstream channel freeing
    /// (acknowledge generation + ack wire).
    pub ack_extra: Duration,
    /// Channel-free delay for a throttled flit (acknowledged without
    /// forwarding).
    pub drop_ack: Duration,
    /// Minimum separation between consecutive firings of this node.
    pub cycle_floor: Duration,
}

impl KindTiming {
    /// Forward latency for a flit of the given class.
    #[must_use]
    pub fn forward(&self, class: FlitClass) -> Duration {
        match class {
            FlitClass::Header => self.forward_header,
            FlitClass::Body => self.forward_body,
        }
    }

    /// Channel-free delay after consuming a forwarded flit of `class`.
    #[must_use]
    pub fn free_delay(&self, class: FlitClass) -> Duration {
        self.forward(class) + self.ack_extra
    }
}

/// Dynamic energy deposited by one flit traversing one node, femtojoules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KindEnergy {
    /// Energy for a header flit traversal.
    pub header_fj: f64,
    /// Energy for a body/tail flit traversal.
    pub body_fj: f64,
}

impl KindEnergy {
    /// Energy for a flit of the given class.
    #[must_use]
    pub fn for_class(&self, class: FlitClass) -> f64 {
        match class {
            FlitClass::Header => self.header_fj,
            FlitClass::Body => self.body_fj,
        }
    }
}

/// One row of the §5.2(a) node-level comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeCostRow {
    /// Node name as the paper spells it.
    pub name: &'static str,
    /// Cell area in µm² (Nangate 45 nm, technology-mapped, pre-layout).
    pub area_um2: f64,
    /// Forward latency.
    pub latency: Duration,
}

/// The complete parameter set of one simulated network.
///
/// All fields are public: this is a parameter record, and the ablation
/// benches perturb individual entries. Use [`TimingModel::calibrated`] for
/// the values that reproduce the paper.
///
/// # Examples
///
/// ```
/// use asynoc_nodes::TimingModel;
/// use asynoc_topology::FanoutKind;
///
/// let model = TimingModel::calibrated();
/// let spec = model.fanout(FanoutKind::Speculative);
/// assert_eq!(spec.forward_header.as_ps(), 52); // paper §5.2(a)
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TimingModel {
    /// Baseline fanout node (§2).
    pub baseline: KindTiming,
    /// Unoptimized non-speculative fanout node (§4(b)).
    pub non_speculative: KindTiming,
    /// Unoptimized speculative fanout node (§4(a)).
    pub speculative: KindTiming,
    /// Optimized speculative fanout node (§4(c)).
    pub opt_speculative: KindTiming,
    /// Optimized non-speculative fanout node (§4(d)).
    pub opt_non_speculative: KindTiming,
    /// Fanin (arbitration) node, reused from the baseline network.
    pub fanin: KindTiming,
    /// Per-hop wire (channel) delay.
    pub wire_delay: Duration,
    /// Channel-free delay at a destination sink.
    pub sink_ack: Duration,
    /// Minimum flit spacing a source can sustain.
    pub source_cycle: Duration,

    /// Dynamic energy per flit, baseline fanout.
    pub baseline_energy: KindEnergy,
    /// Dynamic energy per flit, non-speculative fanout.
    pub non_speculative_energy: KindEnergy,
    /// Dynamic energy per flit, speculative fanout.
    pub speculative_energy: KindEnergy,
    /// Dynamic energy per flit, optimized speculative fanout.
    pub opt_speculative_energy: KindEnergy,
    /// Dynamic energy per flit, optimized non-speculative fanout.
    pub opt_non_speculative_energy: KindEnergy,
    /// Dynamic energy per flit, fanin node.
    pub fanin_energy: KindEnergy,
    /// Dynamic energy per flit per wire hop, femtojoules.
    pub wire_fj: f64,
    /// Energy consumed detecting and acknowledging a throttled flit,
    /// femtojoules.
    pub drop_fj: f64,

    /// Cell area, µm², baseline fanout.
    pub baseline_area_um2: f64,
    /// Cell area, µm², non-speculative fanout.
    pub non_speculative_area_um2: f64,
    /// Cell area, µm², speculative fanout.
    pub speculative_area_um2: f64,
    /// Cell area, µm², optimized speculative fanout.
    pub opt_speculative_area_um2: f64,
    /// Cell area, µm², optimized non-speculative fanout.
    pub opt_non_speculative_area_um2: f64,
    /// Cell area, µm², fanin node.
    pub fanin_area_um2: f64,
    /// Leakage power density, µW per µm² of cell area.
    pub leakage_uw_per_um2: f64,
}

impl TimingModel {
    /// The parameter set calibrated to the paper (see module docs).
    #[must_use]
    pub fn calibrated() -> Self {
        let ps = Duration::from_ps;
        TimingModel {
            baseline: KindTiming {
                forward_header: ps(263),
                forward_body: ps(263),
                ack_extra: ps(90),
                drop_ack: ps(80),
                cycle_floor: ps(200),
            },
            non_speculative: KindTiming {
                forward_header: ps(299),
                forward_body: ps(299),
                ack_extra: ps(162),
                drop_ack: ps(80),
                cycle_floor: ps(200),
            },
            speculative: KindTiming {
                forward_header: ps(52),
                forward_body: ps(52),
                ack_extra: ps(90),
                drop_ack: ps(80),
                cycle_floor: ps(150),
            },
            opt_speculative: KindTiming {
                forward_header: ps(120),
                forward_body: ps(90),
                ack_extra: ps(90),
                drop_ack: ps(80),
                cycle_floor: ps(150),
            },
            opt_non_speculative: KindTiming {
                forward_header: ps(279),
                forward_body: ps(180),
                ack_extra: ps(170),
                drop_ack: ps(80),
                cycle_floor: ps(200),
            },
            fanin: KindTiming {
                forward_header: ps(120),
                forward_body: ps(120),
                ack_extra: ps(40),
                drop_ack: ps(80),
                cycle_floor: ps(150),
            },
            wire_delay: ps(60),
            sink_ack: ps(251),
            source_cycle: ps(100),

            baseline_energy: KindEnergy {
                header_fj: 520.0,
                body_fj: 520.0,
            },
            non_speculative_energy: KindEnergy {
                header_fj: 680.0,
                body_fj: 680.0,
            },
            speculative_energy: KindEnergy {
                header_fj: 550.0,
                body_fj: 550.0,
            },
            opt_speculative_energy: KindEnergy {
                header_fj: 520.0,
                body_fj: 400.0,
            },
            opt_non_speculative_energy: KindEnergy {
                header_fj: 700.0,
                body_fj: 540.0,
            },
            fanin_energy: KindEnergy {
                header_fj: 420.0,
                body_fj: 420.0,
            },
            wire_fj: 200.0,
            drop_fj: 400.0,

            baseline_area_um2: 342.0,
            non_speculative_area_um2: 406.0,
            speculative_area_um2: 247.0,
            opt_speculative_area_um2: 373.0,
            opt_non_speculative_area_um2: 366.0,
            fanin_area_um2: 300.0,
            leakage_uw_per_um2: 0.035,
        }
    }

    /// A four-phase (return-to-zero) variant of the calibrated model.
    ///
    /// The paper chooses two-phase signaling because RZ needs *two*
    /// round-trip channel communications per transaction (§2). This preset
    /// models that cost: every node's channel-free delay gains a second
    /// handshake traversal (`ack_extra' = 2·ack_extra + forward_header`),
    /// and the sink's acknowledge doubles. Used by the protocol ablation to
    /// reproduce the claim that two-phase yields better throughput.
    #[must_use]
    pub fn four_phase() -> Self {
        let mut model = TimingModel::calibrated();
        for kind in [
            &mut model.baseline,
            &mut model.non_speculative,
            &mut model.speculative,
            &mut model.opt_speculative,
            &mut model.opt_non_speculative,
            &mut model.fanin,
        ] {
            kind.ack_extra = kind.ack_extra * 2 + kind.forward_header;
        }
        model.sink_ack = model.sink_ack * 2;
        model
    }

    /// Timing parameters of a fanout kind.
    #[must_use]
    pub fn fanout(&self, kind: FanoutKind) -> &KindTiming {
        match kind {
            FanoutKind::Baseline => &self.baseline,
            FanoutKind::NonSpeculative => &self.non_speculative,
            FanoutKind::Speculative => &self.speculative,
            FanoutKind::OptSpeculative => &self.opt_speculative,
            FanoutKind::OptNonSpeculative => &self.opt_non_speculative,
        }
    }

    /// Energy parameters of a fanout kind.
    #[must_use]
    pub fn fanout_energy(&self, kind: FanoutKind) -> &KindEnergy {
        match kind {
            FanoutKind::Baseline => &self.baseline_energy,
            FanoutKind::NonSpeculative => &self.non_speculative_energy,
            FanoutKind::Speculative => &self.speculative_energy,
            FanoutKind::OptSpeculative => &self.opt_speculative_energy,
            FanoutKind::OptNonSpeculative => &self.opt_non_speculative_energy,
        }
    }

    /// Cell area of a fanout kind, µm².
    #[must_use]
    pub fn fanout_area(&self, kind: FanoutKind) -> f64 {
        match kind {
            FanoutKind::Baseline => self.baseline_area_um2,
            FanoutKind::NonSpeculative => self.non_speculative_area_um2,
            FanoutKind::Speculative => self.speculative_area_um2,
            FanoutKind::OptSpeculative => self.opt_speculative_area_um2,
            FanoutKind::OptNonSpeculative => self.opt_non_speculative_area_um2,
        }
    }

    /// Leakage power of one node of `area_um2`, in milliwatts.
    #[must_use]
    pub fn leakage_mw(&self, area_um2: f64) -> f64 {
        area_um2 * self.leakage_uw_per_um2 / 1_000.0
    }

    /// The §5.2(a) node-level comparison table.
    #[must_use]
    pub fn node_cost_table(&self) -> Vec<NodeCostRow> {
        vec![
            NodeCostRow {
                name: "Baseline fanout",
                area_um2: self.baseline_area_um2,
                latency: self.baseline.forward_header,
            },
            NodeCostRow {
                name: "Unoptimized speculative",
                area_um2: self.speculative_area_um2,
                latency: self.speculative.forward_header,
            },
            NodeCostRow {
                name: "Unoptimized non-speculative",
                area_um2: self.non_speculative_area_um2,
                latency: self.non_speculative.forward_header,
            },
            NodeCostRow {
                name: "Optimized speculative",
                area_um2: self.opt_speculative_area_um2,
                latency: self.opt_speculative.forward_header,
            },
            NodeCostRow {
                name: "Optimized non-speculative",
                area_um2: self.opt_non_speculative_area_um2,
                latency: self.opt_non_speculative.forward_header,
            },
        ]
    }

    /// Steady-state period of the pipeline stage from a node with timing
    /// `up` into a node with timing `down`, for flits of `class`:
    /// `fwd_up + wire + fwd_down + ack_down`, floored by `up`'s cycle.
    ///
    /// This analytic helper predicts saturation ceilings for contention-free
    /// traffic and is used by calibration tests; the simulator derives the
    /// same behavior dynamically.
    #[must_use]
    pub fn stage_period(&self, up: &KindTiming, down: &KindTiming, class: FlitClass) -> Duration {
        let roundtrip = up.forward(class) + self.wire_delay + down.free_delay(class);
        roundtrip.max(up.cycle_floor)
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotspot_anchor_fanin_root_stage() {
        // The fanin-root → sink stage (fwd + wire + sink_ack ≈ 431 ps) caps
        // an 8-source hotspot at the paper's 0.29 GF/s per source; the
        // fanin→fanin chain stage must be strictly faster so the root — not
        // the arbitration chain — is the binding resource.
        let m = TimingModel::calibrated();
        let root = m.fanin.forward_header + m.wire_delay + m.sink_ack;
        let per_source_gfs = 1_000.0 / root.as_ps() as f64 / 8.0;
        assert!(
            (per_source_gfs - 0.29).abs() < 0.01,
            "hotspot anchor off: {per_source_gfs} (period {root})"
        );
        let chain = m.stage_period(&m.fanin, &m.fanin, FlitClass::Header);
        assert!(
            chain < root,
            "fanin chain {chain} must outrun the root stage {root}"
        );
    }

    /// Table 1's Shuffle anchors, from the stage period of a permutation
    /// path's identical neighbours, averaged over a five-flit packet.
    #[test]
    fn shuffle_anchors_follow_the_stage_period() {
        let m = TimingModel::calibrated();
        for (name, kind, paper_gfs, tolerance) in [
            ("baseline", &m.baseline, 1.48, 0.02),
            ("non-speculative", &m.non_speculative, 1.22, 0.02),
            (
                "optimized non-speculative",
                &m.opt_non_speculative,
                1.57,
                0.06,
            ),
        ] {
            let header = m.stage_period(kind, kind, FlitClass::Header);
            let body = m.stage_period(kind, kind, FlitClass::Body);
            assert!(body <= header, "{name}: the body fast path is never slower");
            let gfs = 1_000.0 * 5.0 / (header.as_ps() + 4 * body.as_ps()) as f64;
            assert!(
                (gfs - paper_gfs).abs() < tolerance,
                "{name} anchor off: {gfs}"
            );
        }
    }

    #[test]
    fn speculative_downstream_shortens_stage() {
        let m = TimingModel::calibrated();
        let into_spec = m.stage_period(&m.opt_non_speculative, &m.opt_speculative, FlitClass::Body);
        let into_nonspec = m.stage_period(
            &m.opt_non_speculative,
            &m.opt_non_speculative,
            FlitClass::Body,
        );
        assert!(into_spec < into_nonspec);
    }

    #[test]
    fn flit_class_mapping() {
        assert_eq!(FlitClass::of(FlitKind::Header), FlitClass::Header);
        assert_eq!(FlitClass::of(FlitKind::HeaderTail), FlitClass::Header);
        assert_eq!(FlitClass::of(FlitKind::Body), FlitClass::Body);
        assert_eq!(FlitClass::of(FlitKind::Tail), FlitClass::Body);
    }

    #[test]
    fn leakage_scales_with_area() {
        let m = TimingModel::calibrated();
        let one_node = m.leakage_mw(342.0);
        assert!(one_node > 0.0);
        assert!((m.leakage_mw(684.0) - 2.0 * one_node).abs() < 1e-12);
        // An 8×8 baseline network leaks ≈ 1.2 mW (well under the paper's
        // lowest reported power of 3.8 mW).
        let network = 56.0 * m.leakage_mw(342.0) + 56.0 * m.leakage_mw(300.0);
        assert!(
            network > 0.8 && network < 2.0,
            "network leakage {network} mW"
        );
    }

    #[test]
    fn four_phase_slows_every_stage() {
        let two = TimingModel::calibrated();
        let four = TimingModel::four_phase();
        for (a, b) in [
            (&two.baseline, &four.baseline),
            (&two.speculative, &four.speculative),
            (&two.opt_non_speculative, &four.opt_non_speculative),
            (&two.fanin, &four.fanin),
        ] {
            assert!(b.ack_extra > a.ack_extra);
            assert_eq!(b.forward_header, a.forward_header, "forward path unchanged");
        }
        assert!(four.sink_ack > two.sink_ack);
        // Stage periods (the throughput determinant) degrade.
        let p2 = two.stage_period(&two.baseline, &two.baseline, FlitClass::Header);
        let p4 = four.stage_period(&four.baseline, &four.baseline, FlitClass::Header);
        assert!(
            p4 > p2.mul_f64(1.3),
            "four-phase stage {p4} vs two-phase {p2}"
        );
    }

    /// A run's power is its event counts times these constants, which is
    /// exact only for whole numbers of fJ (see `asynoc::sim`'s pricing).
    #[test]
    fn every_energy_is_a_whole_number_of_femtojoules() {
        for (name, m) in [
            ("calibrated", TimingModel::calibrated()),
            ("four-phase", TimingModel::four_phase()),
        ] {
            let fanout = FanoutKind::ALL.into_iter().flat_map(|kind| {
                FlitClass::ALL.map(|class| {
                    (
                        format!("{kind:?} {class:?}"),
                        m.fanout_energy(kind).for_class(class),
                    )
                })
            });
            let fanin = FlitClass::ALL
                .map(|class| (format!("fanin {class:?}"), m.fanin_energy.for_class(class)));
            let priced: Vec<_> = fanout
                .chain(fanin)
                .chain([
                    ("wire".to_string(), m.wire_fj),
                    ("drop".to_string(), m.drop_fj),
                ])
                .collect();
            assert_eq!(priced.len(), 5 * 2 + 2 + 2);
            for (what, fj) in priced {
                assert!(
                    fj.is_finite() && (0.0..=1_000.0).contains(&fj) && fj.fract() == 0.0,
                    "{name} {what}: {fj} fJ"
                );
            }
        }
    }

    #[test]
    fn free_delay_combines_forward_and_ack() {
        let m = TimingModel::calibrated();
        assert_eq!(
            m.non_speculative.free_delay(FlitClass::Header),
            Duration::from_ps(299 + 162)
        );
    }
}
