//! E8 — the headline §1/§4.1 claim: traditional pattern generators fail
//! to exercise all OBD defects, while the OBD-aware ATPG covers every
//! testable one.
//!
//! Baselines compared against the OBD fault universe of a circuit:
//!
//! * a complete **stuck-at** test set (generated by PODEM),
//! * a complete **transition-fault** test set (two-pattern, but
//!   input-combination agnostic),
//! * **random** and **single-input-change random** two-pattern sets,
//! * the **OBD-aware** two-pattern ATPG of this suite.

use obd_atpg::fault::{obd_faults, DetectionCriterion, Fault, SlowTo, TwoPatternTest};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::generate::{generate_obd_tests, generate_stuck_at_tests, generate_transition_tests};
use obd_atpg::podem::{Podem, PodemOutcome, PodemRequest};
use obd_atpg::random::{random_two_pattern, single_input_change};
use obd_atpg::AtpgError;
use obd_core::characterize::DelayTable;
use obd_core::BreakdownStage;
use obd_logic::netlist::{GateKind, Netlist};

/// Coverage of one strategy against the OBD universe.
#[derive(Debug, Clone)]
pub struct StrategyCoverage {
    /// Strategy label.
    pub strategy: String,
    /// Number of tests applied.
    pub tests: usize,
    /// OBD faults detected.
    pub detected: usize,
    /// Testable OBD faults (ground truth from the OBD-aware run).
    pub testable: usize,
}

impl StrategyCoverage {
    /// Coverage of the testable universe in percent.
    pub fn coverage_pct(&self) -> f64 {
        if self.testable == 0 {
            100.0
        } else {
            100.0 * self.detected as f64 / self.testable as f64
        }
    }
}

/// An *adversarial* transition-fault test set: for every slow-to-rise
/// fault at a NAND output (and slow-to-fall at a NOR output) it prefers
/// the excitation that switches **all** gate inputs — a perfectly legal
/// transition test that the input-combination-agnostic transition model
/// permits, but one that can never excite the parallel-device OBD
/// defects. This makes the paper's "insensitive to which input
/// combinations cause the transition" criticism concrete.
///
/// # Errors
///
/// Propagates structural errors.
/// Required-line sets for both frames of a constrained test.
type FramePins = (Vec<(obd_logic::NetId, bool)>, Vec<(obd_logic::NetId, bool)>);

pub fn adversarial_transition_tests(nl: &Netlist) -> Result<Vec<TwoPatternTest>, AtpgError> {
    let mut podem = Podem::new(nl)?;
    let mut tests = Vec::new();
    for fault in obd_atpg::fault::transition_faults(nl) {
        let (net, slow_to) = match fault {
            Fault::Transition { net, slow_to } => (net, slow_to),
            _ => unreachable!(),
        };
        let (old, new) = match slow_to {
            SlowTo::Rise => (false, true),
            SlowTo::Fall => (true, false),
        };
        // All-inputs-switch variant where the gate structure allows it.
        let adversarial_pins: Option<FramePins> = nl.driver(net).and_then(|g| {
            let gate = nl.gate(g);
            match (gate.kind, slow_to) {
                // NAND output rises when all inputs fall from 1s.
                (GateKind::Nand, SlowTo::Rise) => Some((
                    gate.inputs.iter().map(|&n| (n, true)).collect(),
                    gate.inputs.iter().map(|&n| (n, false)).collect(),
                )),
                // NOR output falls when all inputs rise from 0s.
                (GateKind::Nor, SlowTo::Fall) => Some((
                    gate.inputs.iter().map(|&n| (n, false)).collect(),
                    gate.inputs.iter().map(|&n| (n, true)).collect(),
                )),
                _ => None,
            }
        });
        let attempt = |podem: &mut Podem,
                       req1: Vec<(obd_logic::NetId, bool)>,
                       req2: Vec<(obd_logic::NetId, bool)>|
         -> Option<TwoPatternTest> {
            let frame2 = podem.run(&PodemRequest {
                fault: Some((net, old)),
                required: req2,
                propagate: true,
                backtrack_limit: 10_000,
            });
            let v2 = match frame2 {
                PodemOutcome::Test(p) => p,
                _ => return None,
            };
            let mut req1_full = req1;
            req1_full.push((net, old));
            let v1 = match podem.run(&PodemRequest::justify(req1_full)) {
                PodemOutcome::Test(p) => p,
                _ => return None,
            };
            let mut t = TwoPatternTest { v1, v2 };
            t.fill_x();
            Some(t)
        };
        let test = adversarial_pins
            .and_then(|(r1, r2)| attempt(&mut podem, r1, r2))
            .or_else(|| attempt(&mut podem, vec![], vec![(net, new)]));
        if let Some(t) = test {
            tests.push(t);
        }
    }
    // Deduplicate.
    tests.sort_by_key(|t| (format!("{:?}", t.v1), format!("{:?}", t.v2)));
    tests.dedup();
    Ok(tests)
}

/// Runs the comparison on one circuit at one stage.
///
/// # Errors
///
/// Propagates generation/simulation errors.
pub fn run(nl: &Netlist, stage: BreakdownStage) -> Result<Vec<StrategyCoverage>, AtpgError> {
    let criterion = DetectionCriterion::ideal();
    let faults = obd_faults(nl, stage, true);
    let sim = FaultSimulator::with_criterion(nl, DelayTable::paper(), criterion.clone())?;

    // Ground truth: OBD-aware ATPG.
    let obd_report = generate_obd_tests(nl, stage, &criterion, true)?;
    let testable = obd_report.total_faults - obd_report.untestable - obd_report.below_slack;

    let grade = |tests: &[TwoPatternTest]| -> Result<usize, AtpgError> {
        Ok(sim
            .grade(&faults, tests)?
            .into_iter()
            .filter(|&d| d)
            .count())
    };

    let stuck = generate_stuck_at_tests(nl)?;
    let transition = generate_transition_tests(nl)?;
    let adversarial = adversarial_transition_tests(nl)?;
    let n = nl.inputs().len();
    let rand_budget = (transition.tests.len() * 4).max(64);
    let random = random_two_pattern(n, rand_budget, 20050307);
    let sic = single_input_change(n, rand_budget, 20050308);

    let mut rows = Vec::new();
    for (name, tests) in [
        ("stuck-at ATPG", &stuck.tests),
        ("transition ATPG", &transition.tests),
        ("transition (adversarial)", &adversarial),
        ("random 2-pattern", &random),
        ("single-input random", &sic),
        ("OBD-aware ATPG", &obd_report.tests),
    ] {
        rows.push(StrategyCoverage {
            strategy: name.to_string(),
            tests: tests.len(),
            detected: grade(tests)?,
            testable,
        });
    }
    Ok(rows)
}

/// Renders the comparison table.
pub fn render(rows: &[StrategyCoverage]) -> String {
    let mut s = String::from("strategy                   tests   detected/testable   coverage\n");
    for r in rows {
        s.push_str(&format!(
            "{:<26} {:>5}   {:>8}/{:<8}   {:>6.1}%\n",
            r.strategy,
            r.tests,
            r.detected,
            r.testable,
            r.coverage_pct()
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_logic::circuits::{c17, fig8_sum_circuit};

    #[test]
    fn obd_aware_wins_on_fig8() {
        let nl = fig8_sum_circuit();
        let rows = run(&nl, BreakdownStage::Mbd2).unwrap();
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.strategy.starts_with(name))
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        let obd = get("OBD-aware");
        assert_eq!(
            obd.detected, obd.testable,
            "OBD ATPG must cover all testable"
        );
        let stuck = get("stuck-at");
        assert!(
            stuck.detected < obd.detected,
            "stuck-at tests must miss OBD defects: {} vs {}",
            stuck.detected,
            obd.detected
        );
    }

    #[test]
    fn transition_atpg_misses_obd_faults_on_wider_circuits() {
        // On circuits with more PIs, accidental excitation becomes rare
        // and the input-combination insensitivity of the transition model
        // shows as a real coverage gap (paper §1, §4.1).
        let nl = obd_logic::circuits::ripple_carry_adder(4);
        let rows = run(&nl, BreakdownStage::Mbd2).unwrap();
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.strategy.starts_with(name))
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        let transition = get("transition ATPG");
        let obd = get("OBD-aware");
        assert_eq!(obd.detected, obd.testable);
        assert!(
            transition.detected < obd.detected,
            "transition ATPG should leave a gap: {}/{} vs {}/{}",
            transition.detected,
            transition.testable,
            obd.detected,
            obd.testable
        );
        let stuck = get("stuck-at");
        assert_eq!(
            stuck.detected, 0,
            "static vectors cannot excite delay defects"
        );
    }

    #[test]
    fn transition_atpg_misses_pmos_defects_on_c17() {
        let nl = c17();
        let rows = run(&nl, BreakdownStage::Mbd2).unwrap();
        let transition = rows
            .iter()
            .find(|r| r.strategy.starts_with("transition"))
            .unwrap();
        let obd = rows.iter().find(|r| r.strategy.starts_with("OBD")).unwrap();
        // The paper's core claim: input-agnostic transition tests are not
        // guaranteed to excite the input-specific PMOS defects.
        assert!(
            transition.detected <= obd.detected,
            "transition {} vs obd {}",
            transition.detected,
            obd.detected
        );
        assert_eq!(obd.coverage_pct(), 100.0);
    }
}
