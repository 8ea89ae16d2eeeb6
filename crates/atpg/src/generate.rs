//! End-to-end test-generation flows and coverage reporting.

use obd_core::characterize::DelayTable;
use obd_core::BreakdownStage;
use obd_logic::netlist::Netlist;

use crate::compact::{detected_faults, exact_cover};
use crate::fault::{
    obd_faults, stuck_at_faults, transition_faults, DetectionCriterion, Fault, TwoPatternTest,
};
use crate::faultsim::FaultSimulator;
use crate::random::exhaustive_two_pattern;
use crate::twoframe::{GenOutcome, TwoFrameAtpg};
use crate::AtpgError;

/// A complete generation report.
#[derive(Debug, Clone)]
pub struct TestReport {
    /// The generated (compacted) test set.
    pub tests: Vec<TwoPatternTest>,
    /// Total faults targeted.
    pub total_faults: usize,
    /// Faults with a generated-and-verified test.
    pub detected: usize,
    /// Faults proved untestable.
    pub untestable: usize,
    /// Faults skipped because their delay never exceeds the slack.
    pub below_slack: usize,
    /// Faults on which the search aborted.
    pub aborted: usize,
}

impl TestReport {
    /// Coverage over the testable universe
    /// (`detected / (total − untestable − below_slack)`).
    pub fn testable_coverage(&self) -> f64 {
        let testable = self.total_faults - self.untestable - self.below_slack;
        if testable == 0 {
            1.0
        } else {
            self.detected as f64 / testable as f64
        }
    }
}

/// Generates tests for a fault list with fault dropping: each new test is
/// fault-simulated against the remaining faults so already-covered faults
/// never enter the search.
///
/// # Errors
///
/// Propagates generation and simulation errors.
pub(crate) fn generate_for_faults(
    nl: &Netlist,
    faults: &[Fault],
    table: DelayTable,
    criterion: &DetectionCriterion,
) -> Result<TestReport, AtpgError> {
    let mut atpg = TwoFrameAtpg::with_criterion(nl, table.clone(), criterion.clone())?;
    let sim = FaultSimulator::with_criterion(nl, table, criterion.clone())?;
    let mut tests: Vec<TwoPatternTest> = Vec::new();
    let mut detected = vec![false; faults.len()];
    let mut untestable = 0;
    let mut below_slack = 0;
    let mut aborted = 0;

    for (i, f) in faults.iter().enumerate() {
        if detected[i] {
            continue;
        }
        match atpg.generate(f)? {
            GenOutcome::Test(t) => {
                // Drop every remaining fault this test covers.
                for (j, g) in faults.iter().enumerate() {
                    if !detected[j] && sim.detects(g, &t)? {
                        detected[j] = true;
                    }
                }
                debug_assert!(detected[i], "generated test must detect its target");
                detected[i] = true;
                tests.push(t);
            }
            GenOutcome::Untestable => untestable += 1,
            GenOutcome::BelowSlack => below_slack += 1,
            GenOutcome::Aborted => aborted += 1,
        }
    }
    Ok(TestReport {
        tests,
        total_faults: faults.len(),
        detected: detected.iter().filter(|&&d| d).count(),
        untestable,
        below_slack,
        aborted,
    })
}

/// OBD test generation over the whole netlist at a given stage.
///
/// # Errors
///
/// Propagates generation errors.
pub fn generate_obd_tests(
    nl: &Netlist,
    stage: BreakdownStage,
    criterion: &DetectionCriterion,
    nand_only: bool,
) -> Result<TestReport, AtpgError> {
    let faults = obd_faults(nl, stage, nand_only);
    generate_for_faults(nl, &faults, DelayTable::paper(), criterion)
}

/// Stuck-at test generation (the complexity baseline of §5).
///
/// # Errors
///
/// Propagates generation errors.
pub fn generate_stuck_at_tests(nl: &Netlist) -> Result<TestReport, AtpgError> {
    let faults = stuck_at_faults(nl);
    generate_for_faults(
        nl,
        &faults,
        DelayTable::paper(),
        &DetectionCriterion::ideal(),
    )
}

/// Transition-fault test generation (the traditional two-pattern
/// baseline).
///
/// # Errors
///
/// Propagates generation errors.
pub fn generate_transition_tests(nl: &Netlist) -> Result<TestReport, AtpgError> {
    let faults = transition_faults(nl);
    generate_for_faults(
        nl,
        &faults,
        DelayTable::paper(),
        &DetectionCriterion::ideal(),
    )
}

/// The §4.3 analysis of a small circuit over a candidate test list:
/// every candidate against every OBD fault, with minimal
/// necessary-and-sufficient cover extraction.
#[derive(Debug, Clone)]
pub struct ObdCoverAnalysis {
    /// Total OBD sites considered.
    pub total_faults: usize,
    /// Faults detectable by at least one candidate.
    pub testable: usize,
    /// Indices (into the candidate list) of a minimal test set covering
    /// every testable fault.
    pub minimal_set: Vec<usize>,
    /// The candidate tests themselves.
    pub tests: Vec<TwoPatternTest>,
}

/// Runs the §4.3 analysis over the candidate `tests`: counts the OBD
/// faults some candidate detects and covers them with as few candidates
/// as the branch-and-bound finds (never more than the greedy cover it
/// starts from).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn obd_cover_analysis(
    nl: &Netlist,
    stage: BreakdownStage,
    criterion: &DetectionCriterion,
    nand_only: bool,
    tests: Vec<TwoPatternTest>,
) -> Result<ObdCoverAnalysis, AtpgError> {
    let faults = obd_faults(nl, stage, nand_only);
    let sim = FaultSimulator::with_criterion(nl, DelayTable::paper(), criterion.clone())?;
    let matrix = sim.detection_matrix(&faults, &tests)?;
    Ok(ObdCoverAnalysis {
        total_faults: faults.len(),
        testable: detected_faults(&matrix).len(),
        minimal_set: exact_cover(&matrix, 2_000_000),
        tests,
    })
}

/// Runs the §4.3 analysis over every ordered two-pattern test.
///
/// # Errors
///
/// Propagates simulation errors.
///
/// # Panics
///
/// Panics if the circuit has more than 8 primary inputs.
pub fn exhaustive_obd_analysis(
    nl: &Netlist,
    stage: BreakdownStage,
    criterion: &DetectionCriterion,
    nand_only: bool,
) -> Result<ObdCoverAnalysis, AtpgError> {
    let tests = exhaustive_two_pattern(nl.inputs().len());
    obd_cover_analysis(nl, stage, criterion, nand_only, tests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_logic::circuits::{c17, fig8_sum_circuit};

    #[test]
    fn c17_stuck_at_full_coverage() {
        let nl = c17();
        let report = generate_stuck_at_tests(&nl).unwrap();
        assert_eq!(report.untestable, 0, "c17 is irredundant");
        assert_eq!(report.aborted, 0);
        assert!((report.testable_coverage() - 1.0).abs() < 1e-12);
        assert!(!report.tests.is_empty());
    }

    #[test]
    fn c17_obd_full_testable_coverage() {
        let nl = c17();
        let report = generate_obd_tests(
            &nl,
            BreakdownStage::Mbd2,
            &DetectionCriterion::ideal(),
            true,
        )
        .unwrap();
        assert_eq!(report.total_faults, 24);
        assert_eq!(report.aborted, 0);
        assert!((report.testable_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig8_has_untestable_obd_faults() {
        let nl = fig8_sum_circuit();
        let report = generate_obd_tests(
            &nl,
            BreakdownStage::Mbd2,
            &DetectionCriterion::ideal(),
            true,
        )
        .unwrap();
        assert_eq!(report.total_faults, 56);
        assert!(report.untestable > 0, "redundancy must create untestables");
        assert_eq!(report.aborted, 0);
        assert!((report.testable_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig8_exhaustive_matches_atpg_verdicts() {
        let nl = fig8_sum_circuit();
        let report = generate_obd_tests(
            &nl,
            BreakdownStage::Mbd2,
            &DetectionCriterion::ideal(),
            true,
        )
        .unwrap();
        let exhaustive = exhaustive_obd_analysis(
            &nl,
            BreakdownStage::Mbd2,
            &DetectionCriterion::ideal(),
            true,
        )
        .unwrap();
        // ATPG's testable count must agree with exhaustive ground truth.
        assert_eq!(report.total_faults - report.untestable, exhaustive.testable);
        // The minimal set covers every testable fault.
        let faults = obd_faults(&nl, BreakdownStage::Mbd2, true);
        let sim = FaultSimulator::new(&nl).unwrap();
        let matrix = sim.detection_matrix(&faults, &exhaustive.tests).unwrap();
        for f in detected_faults(&matrix) {
            assert!(
                exhaustive.minimal_set.iter().any(|&t| matrix[t][f]),
                "fault {f} uncovered by the minimal set"
            );
        }
        // Paper shape: a small fraction of all transitions suffices.
        assert!(exhaustive.minimal_set.len() * 2 < exhaustive.tests.len());
    }
}
