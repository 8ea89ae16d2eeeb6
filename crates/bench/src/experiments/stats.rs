//! E6 — the §4.3 statistics: OBD sites, testable faults and the minimal
//! necessary-and-sufficient transition set for the full-adder sum
//! circuit.

use obd_atpg::fault::{DetectionCriterion, TwoPatternTest};
use obd_atpg::generate::{exhaustive_obd_analysis, obd_cover_analysis, ObdCoverAnalysis};
use obd_atpg::AtpgError;
use obd_core::BreakdownStage;
use obd_logic::circuits::fig8_sum_circuit;

/// The §4.3 statistics under two candidate-universe conventions.
#[derive(Debug, Clone)]
pub struct Fig8Stats {
    /// All-pairs exhaustive analysis (56 ordered pairs for 3 PIs).
    pub all_pairs: ObdCoverAnalysis,
    /// Candidates restricted to single-input changes (24 for 3 PIs) —
    /// closer to scan-style delivery.
    pub single_input: ObdCoverAnalysis,
}

/// Runs the full §4.3 analysis on the Fig. 8 circuit.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(stage: BreakdownStage) -> Result<Fig8Stats, AtpgError> {
    let nl = fig8_sum_circuit();
    let criterion = DetectionCriterion::ideal();
    let all_pairs = exhaustive_obd_analysis(&nl, stage, &criterion, true)?;

    // Single-input-change universe: every vector × every single flip.
    let n = nl.inputs().len();
    let mut sic = Vec::new();
    for v in obd_logic::value::all_vectors(n) {
        for flip in 0..n {
            let mut v2 = v.clone();
            v2[flip] = !v2[flip];
            sic.push(TwoPatternTest { v1: v.clone(), v2 });
        }
    }
    let single_input = obd_cover_analysis(&nl, stage, &criterion, true, sic)?;
    Ok(Fig8Stats {
        all_pairs,
        single_input,
    })
}

/// Renders the statistics next to the paper's numbers.
pub fn render(stats: &Fig8Stats) -> String {
    let a = &stats.all_pairs;
    let mut s = String::new();
    s.push_str("§4.3 statistics (full-adder sum circuit, 14 NAND2 + 11 INV, depth 9)\n");
    s.push_str(&format!(
        "  OBD sites in NAND gates:      {}   (paper: 56)\n",
        a.total_faults
    ));
    s.push_str(&format!(
        "  testable OBD faults:          {}   (paper: 32)\n",
        a.testable
    ));
    s.push_str(&format!(
        "  minimal set, all-pairs:       {} of {} candidates (paper: 18 of 72)\n",
        a.minimal_set.len(),
        a.tests.len()
    ));
    let sic = &stats.single_input;
    s.push_str(&format!(
        "  minimal set, single-input:    {} of {} candidates (testable under restriction: {})\n",
        sic.minimal_set.len(),
        sic.tests.len(),
        sic.testable
    ));
    s.push_str("  chosen all-pairs tests:\n");
    for &t in &a.minimal_set {
        s.push_str(&format!("    {}\n", a.tests[t].render()));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_site_and_testable_counts() {
        let stats = run(BreakdownStage::Mbd2).unwrap();
        assert_eq!(stats.all_pairs.total_faults, 56, "paper: 56 sites");
        assert_eq!(stats.all_pairs.testable, 32, "paper: 32 testable");
        // A small fraction of the transition universe suffices.
        assert!(stats.all_pairs.minimal_set.len() <= 18);
        assert!(!stats.all_pairs.minimal_set.is_empty());
    }

    #[test]
    fn single_input_change_needs_more_tests() {
        let stats = run(BreakdownStage::Mbd2).unwrap();
        // The restricted delivery cannot beat the unrestricted minimum.
        assert!(stats.single_input.minimal_set.len() >= stats.all_pairs.minimal_set.len());
        assert!(stats.single_input.tests.len() == 24);
    }
}
