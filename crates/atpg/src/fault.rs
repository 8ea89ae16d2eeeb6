//! The unified fault universe and test representation.

use obd_core::faultmodel::{ObdFault, Polarity};
use obd_logic::netlist::{GateId, NetId, Netlist};
use obd_logic::value::{format_vector, Lv};

/// Transition direction a delay-style fault slows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlowTo {
    /// Slow-to-rise.
    Rise,
    /// Slow-to-fall.
    Fall,
}

/// Any fault the suite can generate tests for or grade against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Classical single stuck-at fault on a net.
    StuckAt {
        /// Faulty net.
        net: NetId,
        /// Stuck value.
        value: bool,
    },
    /// Classical transition fault at a net (input-combination agnostic —
    /// the model the paper shows to be insufficient for OBD).
    Transition {
        /// Faulty net.
        net: NetId,
        /// Slowed direction.
        slow_to: SlowTo,
    },
    /// Gate oxide breakdown defect (the paper's model).
    Obd(ObdFault),
    /// Intra-gate electromigration defect (§5 contrast model): same sites
    /// as OBD but excited whenever the transistor carries any switching
    /// current.
    Em {
        /// The defective gate.
        gate: GateId,
        /// Input pin of the weakened transistor.
        pin: usize,
        /// Transistor polarity.
        polarity: Polarity,
    },
}

impl Fault {
    /// Human-readable description.
    pub fn describe(&self, nl: &Netlist) -> String {
        match self {
            Fault::StuckAt { net, value } => {
                format!("{} sa{}", nl.net_name(*net), u8::from(*value))
            }
            Fault::Transition { net, slow_to } => format!(
                "{} slow-to-{}",
                nl.net_name(*net),
                match slow_to {
                    SlowTo::Rise => "rise",
                    SlowTo::Fall => "fall",
                }
            ),
            Fault::Obd(f) => format!("OBD {}", f.describe(nl)),
            Fault::Em {
                gate,
                pin,
                polarity,
            } => format!("EM {}/pin{}:{}", nl.gate(*gate).name, pin, polarity),
        }
    }
}

/// When is a delay-type defect *detected*: its extra delay must exceed the
/// detection mechanism's timing slack.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionCriterion {
    /// Slack in picoseconds; extra delays at or below this are invisible.
    pub(crate) slack_ps: f64,
}

impl DetectionCriterion {
    /// Ideal early capture: any positive extra delay is observable —
    /// the assumption under which the paper counts testable faults.
    pub fn ideal() -> Self {
        DetectionCriterion { slack_ps: 0.0 }
    }

    /// A concrete slack in picoseconds.
    pub fn with_slack(slack_ps: f64) -> Self {
        DetectionCriterion { slack_ps }
    }
}

/// A two-pattern test. Single-vector (stuck-at style) tests are
/// represented with `v1 == v2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TwoPatternTest {
    /// Launch vector.
    pub v1: Vec<Lv>,
    /// Capture vector.
    pub v2: Vec<Lv>,
}

impl TwoPatternTest {
    /// Builds a test from fully-specified bool vectors.
    pub fn from_bools(v1: &[bool], v2: &[bool]) -> Self {
        TwoPatternTest {
            v1: v1.iter().map(|&b| Lv::from_bool(b)).collect(),
            v2: v2.iter().map(|&b| Lv::from_bool(b)).collect(),
        }
    }

    /// Fills don't-cares: an `X` in one frame takes the other frame's
    /// value (minimizing spurious transitions); double-`X` positions
    /// become 0.
    pub fn fill_x(&mut self) {
        for i in 0..self.v1.len() {
            match (self.v1[i], self.v2[i]) {
                (Lv::X, Lv::X) => {
                    self.v1[i] = Lv::Zero;
                    self.v2[i] = Lv::Zero;
                }
                (Lv::X, v) => self.v1[i] = v,
                (v, Lv::X) => self.v2[i] = v,
                _ => {}
            }
        }
    }

    /// Number of PIs that switch between the frames.
    #[cfg(test)]
    pub(crate) fn switching_inputs(&self) -> usize {
        self.v1
            .iter()
            .zip(self.v2.iter())
            .filter(|(a, b)| a.is_known() && b.is_known() && a != b)
            .count()
    }

    /// Renders like `(011,111)`.
    pub fn render(&self) -> String {
        format!("({},{})", format_vector(&self.v1), format_vector(&self.v2))
    }
}

/// Generates the classical (uncollapsed) stuck-at fault list: every net,
/// both polarities.
pub fn stuck_at_faults(nl: &Netlist) -> Vec<Fault> {
    let mut out = Vec::new();
    for net in nl.net_ids() {
        for value in [false, true] {
            out.push(Fault::StuckAt { net, value });
        }
    }
    out
}

/// Generates the transition-fault list: both directions at every net.
pub fn transition_faults(nl: &Netlist) -> Vec<Fault> {
    let mut out = Vec::new();
    for net in nl.net_ids() {
        out.push(Fault::Transition {
            net,
            slow_to: SlowTo::Rise,
        });
        out.push(Fault::Transition {
            net,
            slow_to: SlowTo::Fall,
        });
    }
    out
}

/// Generates the OBD fault list at a given stage (see
/// [`obd_core::faultmodel::enumerate_sites`]).
pub fn obd_faults(nl: &Netlist, stage: obd_core::BreakdownStage, nand_only: bool) -> Vec<Fault> {
    obd_core::faultmodel::enumerate_sites(nl, stage, nand_only)
        .into_iter()
        .map(Fault::Obd)
        .collect()
}

/// Generates the EM fault list over the same sites as the OBD list.
pub fn em_faults(nl: &Netlist, nand_only: bool) -> Vec<Fault> {
    obd_core::faultmodel::enumerate_sites(nl, obd_core::BreakdownStage::Mbd1, nand_only)
        .into_iter()
        .map(|f| Fault::Em {
            gate: f.gate,
            pin: f.pin,
            polarity: f.polarity,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_logic::circuits::{c17, fig8_sum_circuit};
    use obd_logic::netlist::GateKind;

    #[test]
    fn stuck_at_list_covers_all_nets() {
        let nl = c17();
        let faults = stuck_at_faults(&nl);
        assert_eq!(faults.len(), nl.num_nets() * 2);
    }

    #[test]
    fn obd_list_matches_paper_count() {
        let nl = fig8_sum_circuit();
        assert_eq!(
            obd_faults(&nl, obd_core::BreakdownStage::Mbd2, true).len(),
            56
        );
    }

    /// The collapse is sound: every test detects a collapsed-away NMOS
    /// fault iff it detects the representative.
    #[test]
    fn collapsed_faults_are_detection_equivalent() {
        use crate::faultsim::FaultSimulator;
        let nl = fig8_sum_circuit();
        let sim = FaultSimulator::new(&nl).unwrap();
        let tests = crate::random::exhaustive_two_pattern(3);
        for g in nl.gate_ids() {
            if nl.gate(g).kind != GateKind::Nand {
                continue;
            }
            let make = |pin| {
                Fault::Obd(obd_core::faultmodel::ObdFault {
                    gate: g,
                    pin,
                    polarity: obd_core::faultmodel::Polarity::Nmos,
                    stage: obd_core::BreakdownStage::Mbd2,
                })
            };
            let (f0, f1) = (make(0), make(1));
            for t in &tests {
                assert_eq!(
                    sim.detects(&f0, t).unwrap(),
                    sim.detects(&f1, t).unwrap(),
                    "{} vs {} under {}",
                    f0.describe(&nl),
                    f1.describe(&nl),
                    t.render()
                );
            }
        }
    }

    /// A parsed netlist with XOR and XNOR gates gets OBD/EM sites only
    /// on gates with a cell model, so grading its OBD list succeeds.
    #[test]
    fn parsed_xor_xnor_gates_carry_no_cell_sites() {
        use crate::faultsim::FaultSimulator;
        let nl = obd_logic::format::parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
             x1 = XOR(a, b)\nx2 = XNOR(b, c)\nn1 = NAND(x1, c)\ny = NOR(n1, x2)\n",
        )
        .unwrap();
        let obd = obd_faults(&nl, obd_core::BreakdownStage::Mbd2, false);
        let em = em_faults(&nl, false);
        // Two sites per pin on the NAND2 and the NOR2 only.
        assert_eq!(obd.len(), 8);
        assert_eq!(em.len(), 8);
        for f in obd.iter().chain(&em) {
            let gate = match f {
                Fault::Obd(o) => o.gate,
                Fault::Em { gate, .. } => *gate,
                _ => unreachable!("only cell faults here"),
            };
            let kind = nl.gate(gate).kind;
            assert!(
                !matches!(kind, GateKind::Xor | GateKind::Xnor),
                "{} sits on a {kind:?} gate",
                f.describe(&nl)
            );
        }
        let sim = FaultSimulator::new(&nl).unwrap();
        let tests = crate::random::exhaustive_two_pattern(3);
        assert!(sim.grade(&obd, &tests).is_ok());
    }

    #[test]
    fn fill_x_minimizes_switching() {
        let mut t = TwoPatternTest {
            v1: vec![Lv::X, Lv::One, Lv::X],
            v2: vec![Lv::Zero, Lv::X, Lv::X],
        };
        t.fill_x();
        assert_eq!(t.v1, vec![Lv::Zero, Lv::One, Lv::Zero]);
        assert_eq!(t.v2, vec![Lv::Zero, Lv::One, Lv::Zero]);
        assert_eq!(t.switching_inputs(), 0);
    }

    #[test]
    fn render_and_describe() {
        let nl = c17();
        let t = TwoPatternTest::from_bools(&[true, false, true, true, false], &[true; 5]);
        assert_eq!(t.render(), "(10110,11111)");
        let f = Fault::StuckAt {
            net: nl.find_net("10").unwrap(),
            value: true,
        };
        assert_eq!(f.describe(&nl), "10 sa1");
    }
}
