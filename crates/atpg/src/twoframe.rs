//! Two-pattern test generation for transition, OBD and EM faults.
//!
//! Frame 2 runs constrained PODEM: the defective gate's output is treated
//! as stuck at its frame-1 value, with the excitation condition's final
//! vector supplied as required lines at the gate's inputs. Frame 1 is a
//! pure justification pass for the condition's initial vector. Both
//! frames are independent combinational problems — the paper's §5
//! complexity claim in action.

use obd_core::characterize::DelayTable;
use obd_core::em::em_excitation_set;
use obd_core::excitation::{excitation_set, InputPair};
use obd_core::faultmodel::{cell_for_kind, ObdFault};
use obd_logic::netlist::{NetId, Netlist};

use crate::fault::{DetectionCriterion, Fault, SlowTo, TwoPatternTest};
use crate::podem::{Podem, PodemOutcome, PodemRequest};
use crate::AtpgError;

/// Result of generating a test for one fault.
#[derive(Debug, Clone, PartialEq)]
pub enum GenOutcome {
    /// A test was found.
    Test(TwoPatternTest),
    /// Provably untestable (every excitation condition exhausted).
    Untestable,
    /// The defect cannot be detected under the current slack/stage (it
    /// causes too little delay) — not a structural property.
    BelowSlack,
    /// Search aborted on the backtrack limit.
    Aborted,
}

/// Two-pattern generator bound to one netlist.
#[derive(Debug)]
pub struct TwoFrameAtpg<'a> {
    nl: &'a Netlist,
    podem: Podem<'a>,
    table: DelayTable,
    criterion: DetectionCriterion,
}

impl<'a> TwoFrameAtpg<'a> {
    /// Creates a generator with the paper's delay table and ideal slack.
    ///
    /// # Errors
    ///
    /// Propagates structural errors.
    pub fn new(nl: &'a Netlist) -> Result<Self, AtpgError> {
        Self::with_criterion(nl, DelayTable::paper(), DetectionCriterion::ideal())
    }

    /// Creates a generator with explicit delay data and slack.
    ///
    /// # Errors
    ///
    /// Propagates structural errors.
    pub(crate) fn with_criterion(
        nl: &'a Netlist,
        table: DelayTable,
        criterion: DetectionCriterion,
    ) -> Result<Self, AtpgError> {
        Ok(TwoFrameAtpg {
            nl,
            podem: Podem::new(nl)?,
            table,
            criterion,
        })
    }

    /// Generates a test for any supported fault.
    ///
    /// # Errors
    ///
    /// [`AtpgError::UnsupportedGate`] for OBD/EM faults on gates without a
    /// cell-level model.
    pub fn generate(&mut self, fault: &Fault) -> Result<GenOutcome, AtpgError> {
        match fault {
            Fault::StuckAt { net, value } => Ok(self.generate_stuck_at(*net, *value)),
            Fault::Transition { net, slow_to } => Ok(self.generate_transition(*net, *slow_to)),
            Fault::Obd(f) => self.generate_obd(f),
            Fault::Em {
                gate,
                pin,
                polarity,
            } => {
                let gate_ref = self.nl.gate(*gate);
                let cell =
                    cell_for_kind(gate_ref.kind, gate_ref.inputs.len()).ok_or_else(|| {
                        AtpgError::UnsupportedGate {
                            gate: gate_ref.name.clone(),
                        }
                    })?;
                let probe = ObdFault {
                    gate: *gate,
                    pin: *pin,
                    polarity: *polarity,
                    stage: obd_core::BreakdownStage::Mbd1,
                };
                // A pin with no leaf in the relevant network has no
                // transistor, hence no excitation condition: untestable.
                let Some(t) = probe.cell_transistor(&cell) else {
                    return Ok(GenOutcome::Untestable);
                };
                let conditions = em_excitation_set(&cell, t);
                Ok(self.generate_from_conditions(*gate, &conditions))
            }
        }
    }

    fn generate_stuck_at(&mut self, net: NetId, value: bool) -> GenOutcome {
        match self.podem.run(&PodemRequest::stuck_at(net, value)) {
            PodemOutcome::Test(pis) => {
                let mut t = TwoPatternTest {
                    v1: pis.clone(),
                    v2: pis,
                };
                t.fill_x();
                GenOutcome::Test(t)
            }
            PodemOutcome::Untestable => GenOutcome::Untestable,
            PodemOutcome::Aborted => GenOutcome::Aborted,
        }
    }

    fn generate_transition(&mut self, net: NetId, slow_to: SlowTo) -> GenOutcome {
        let (old, new) = match slow_to {
            SlowTo::Rise => (false, true),
            SlowTo::Fall => (true, false),
        };
        // Frame 2: activate (net = new) and propagate the held old value.
        let frame2 = self.podem.run(&PodemRequest {
            fault: Some((net, old)),
            required: vec![(net, new)],
            propagate: true,
            backtrack_limit: 10_000,
        });
        let v2 = match frame2 {
            PodemOutcome::Test(p) => p,
            PodemOutcome::Untestable => return GenOutcome::Untestable,
            PodemOutcome::Aborted => return GenOutcome::Aborted,
        };
        // Frame 1: justify net = old.
        let frame1 = self.podem.run(&PodemRequest::justify(vec![(net, old)]));
        match frame1 {
            PodemOutcome::Test(v1) => {
                let mut t = TwoPatternTest { v1, v2 };
                t.fill_x();
                GenOutcome::Test(t)
            }
            PodemOutcome::Untestable => GenOutcome::Untestable,
            PodemOutcome::Aborted => GenOutcome::Aborted,
        }
    }

    fn generate_obd(&mut self, f: &ObdFault) -> Result<GenOutcome, AtpgError> {
        let gate = self.nl.gate(f.gate);
        let cell = cell_for_kind(gate.kind, gate.inputs.len()).ok_or_else(|| {
            AtpgError::UnsupportedGate {
                gate: gate.name.clone(),
            }
        })?;
        // Stuck stages: classical stuck-at generation at the output.
        if self.table.is_stuck(f.polarity, f.stage) {
            let value = crate::faultsim::stuck_output_value(gate.kind, f.polarity);
            return Ok(self.generate_stuck_at(gate.output, value));
        }
        match self.table.extra_delay_ps(f.polarity, f.stage) {
            Some(d) if d > self.criterion.slack_ps => {}
            _ => return Ok(GenOutcome::BelowSlack),
        }
        let Some(t) = f.cell_transistor(&cell) else {
            return Ok(GenOutcome::Untestable);
        };
        let conditions = excitation_set(&cell, t);
        Ok(self.generate_from_conditions(f.gate, &conditions))
    }

    /// Tries each excitation condition `(v1g, v2g)` at the gate's pins.
    fn generate_from_conditions(
        &mut self,
        gate: obd_logic::netlist::GateId,
        conditions: &[InputPair],
    ) -> GenOutcome {
        let gate_ref = self.nl.gate(gate);
        let mut any_aborted = false;
        for (v1g, v2g) in conditions {
            // The good-machine output values in each frame.
            let out_old = eval_bool(gate_ref.kind, v1g);
            // Frame 2: required pin values + propagate the held value.
            let required: Vec<(NetId, bool)> = gate_ref
                .inputs
                .iter()
                .zip(v2g.iter())
                .map(|(&n, &v)| (n, v))
                .collect();
            let frame2 = self.podem.run(&PodemRequest {
                fault: Some((gate_ref.output, out_old)),
                required,
                propagate: true,
                backtrack_limit: 10_000,
            });
            let v2 = match frame2 {
                PodemOutcome::Test(p) => p,
                PodemOutcome::Untestable => continue,
                PodemOutcome::Aborted => {
                    any_aborted = true;
                    continue;
                }
            };
            // Frame 1: justify the initial pin values.
            let required1: Vec<(NetId, bool)> = gate_ref
                .inputs
                .iter()
                .zip(v1g.iter())
                .map(|(&n, &v)| (n, v))
                .collect();
            match self.podem.run(&PodemRequest::justify(required1)) {
                PodemOutcome::Test(v1) => {
                    let mut t = TwoPatternTest { v1, v2 };
                    t.fill_x();
                    return GenOutcome::Test(t);
                }
                PodemOutcome::Untestable => continue,
                PodemOutcome::Aborted => {
                    any_aborted = true;
                    continue;
                }
            }
        }
        if any_aborted {
            GenOutcome::Aborted
        } else {
            GenOutcome::Untestable
        }
    }
}

/// Boolean evaluation of a simple gate kind over bools.
fn eval_bool(kind: obd_logic::netlist::GateKind, inputs: &[bool]) -> bool {
    use obd_logic::value::Lv;
    let lv: Vec<Lv> = inputs.iter().map(|&b| Lv::from_bool(b)).collect();
    kind.eval(&lv) == Lv::One
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultsim::FaultSimulator;
    use obd_core::faultmodel::Polarity;
    use obd_core::BreakdownStage;
    use obd_logic::circuits::{c17, fig8_sum_circuit};

    #[test]
    fn generated_obd_tests_verified_by_fault_simulation() {
        let nl = c17();
        let mut atpg = TwoFrameAtpg::new(&nl).unwrap();
        let sim = FaultSimulator::new(&nl).unwrap();
        let faults = crate::fault::obd_faults(&nl, BreakdownStage::Mbd2, true);
        assert_eq!(faults.len(), 24); // 6 NAND2 * 4
        let mut found = 0;
        for f in &faults {
            match atpg.generate(f).unwrap() {
                GenOutcome::Test(t) => {
                    found += 1;
                    assert!(
                        sim.detects(f, &t).unwrap(),
                        "{} not detected by {}",
                        f.describe(&nl),
                        t.render()
                    );
                }
                GenOutcome::Untestable => {}
                other => panic!("{}: {other:?}", f.describe(&nl)),
            }
        }
        assert!(found > 0);
    }

    #[test]
    fn fig8_redundant_faults_proved_untestable() {
        let nl = fig8_sum_circuit();
        let mut atpg = TwoFrameAtpg::new(&nl).unwrap();
        let gm_gate = nl.driver(nl.find_net("gm").unwrap()).unwrap();
        for pin in 0..2 {
            let f = Fault::Obd(ObdFault {
                gate: gm_gate,
                pin,
                polarity: Polarity::Pmos,
                stage: BreakdownStage::Mbd2,
            });
            assert_eq!(
                atpg.generate(&f).unwrap(),
                GenOutcome::Untestable,
                "gm PMOS pin {pin} should be untestable"
            );
        }
        // The NMOS faults at gm are excitable (both inputs rise together)
        // and testable.
        let f = Fault::Obd(ObdFault {
            gate: gm_gate,
            pin: 0,
            polarity: Polarity::Nmos,
            stage: BreakdownStage::Mbd2,
        });
        assert!(matches!(atpg.generate(&f).unwrap(), GenOutcome::Test(_)));
    }

    #[test]
    fn transition_tests_verified() {
        let nl = c17();
        let mut atpg = TwoFrameAtpg::new(&nl).unwrap();
        let sim = FaultSimulator::new(&nl).unwrap();
        for f in crate::fault::transition_faults(&nl) {
            match atpg.generate(&f).unwrap() {
                GenOutcome::Test(t) => {
                    assert!(sim.detects(&f, &t).unwrap(), "{}", f.describe(&nl));
                }
                GenOutcome::Untestable => {}
                other => panic!("{}: {other:?}", f.describe(&nl)),
            }
        }
    }

    #[test]
    fn below_slack_reported() {
        let nl = c17();
        let mut atpg = TwoFrameAtpg::with_criterion(
            &nl,
            obd_core::characterize::DelayTable::paper(),
            DetectionCriterion::with_slack(1000.0),
        )
        .unwrap();
        let f = Fault::Obd(ObdFault {
            gate: nl.gate_id(0),
            pin: 0,
            polarity: Polarity::Nmos,
            stage: BreakdownStage::Mbd1,
        });
        assert_eq!(atpg.generate(&f).unwrap(), GenOutcome::BelowSlack);
    }

    #[test]
    fn hbd_uses_stuck_at_path() {
        let nl = c17();
        let mut atpg = TwoFrameAtpg::new(&nl).unwrap();
        let sim = FaultSimulator::new(&nl).unwrap();
        let f = Fault::Obd(ObdFault {
            gate: nl.gate_id(0),
            pin: 0,
            polarity: Polarity::Nmos,
            stage: BreakdownStage::Hbd,
        });
        match atpg.generate(&f).unwrap() {
            GenOutcome::Test(t) => {
                assert_eq!(t.v1, t.v2, "stuck faults need a single vector");
                assert!(sim.detects(&f, &t).unwrap());
            }
            other => panic!("{other:?}"),
        }
    }
}
