//! Extension experiment — BIST session length for OBD coverage.
//!
//! §5 suggests built-in testing is promising because few sequences are
//! needed. This experiment measures how many LFSR launch-on-capture
//! patterns a BIST controller must apply to reach full testable-OBD
//! coverage on each circuit — the number that sizes the test window of a
//! concurrent-test schedule.

use obd_atpg::bist::{lfsr_two_pattern_tests, phased_lfsr_two_pattern_tests};
use obd_atpg::fault::{obd_faults, DetectionCriterion};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::generate::generate_obd_tests;
use obd_atpg::AtpgError;
use obd_core::characterize::DelayTable;
use obd_core::BreakdownStage;
use obd_logic::netlist::Netlist;

/// Coverage of LFSR-generated patterns at several session lengths.
#[derive(Debug, Clone)]
pub struct BistCurve {
    /// Circuit label.
    pub circuit: String,
    /// Testable OBD faults (ground truth).
    pub testable: usize,
    /// `(patterns, detected)` points.
    pub points: Vec<(usize, usize)>,
    /// Deterministic (ATPG) test count for comparison.
    pub atpg_tests: usize,
}

/// Measures one circuit with an LFSR of the given register width.
///
/// A *short* LFSR (period `2^width − 1`) exhausts its orbit quickly and
/// plateaus below full coverage: some excitation pairs are structurally
/// absent from its launch-on-capture stream (classic pattern
/// resistance). A wider register lifts the plateau.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(
    nl: &Netlist,
    label: &str,
    width: usize,
    lengths: &[usize],
) -> Result<BistCurve, AtpgError> {
    run_inner(nl, label, width, lengths, false)
}

/// [`run`] with the phase shifter enabled.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_phased(
    nl: &Netlist,
    label: &str,
    width: usize,
    lengths: &[usize],
) -> Result<BistCurve, AtpgError> {
    run_inner(nl, label, width, lengths, true)
}

fn run_inner(
    nl: &Netlist,
    label: &str,
    width: usize,
    lengths: &[usize],
    phased: bool,
) -> Result<BistCurve, AtpgError> {
    let stage = BreakdownStage::Mbd2;
    let criterion = DetectionCriterion::ideal();
    let faults = obd_faults(nl, stage, true);
    let sim = FaultSimulator::with_criterion(nl, DelayTable::paper(), criterion.clone())?;
    let report = generate_obd_tests(nl, stage, &criterion, true)?;
    let testable = report.total_faults - report.untestable - report.below_slack;
    let mut points = Vec::new();
    for &count in lengths {
        let tests = if phased {
            phased_lfsr_two_pattern_tests(nl.inputs().len(), count, width, 0xACE1)
        } else {
            lfsr_two_pattern_tests(nl.inputs().len(), count, width, 0xACE1)
        };
        let detected = sim
            .grade(&faults, &tests)?
            .into_iter()
            .filter(|&d| d)
            .count();
        points.push((count, detected));
    }
    Ok(BistCurve {
        circuit: label.to_string(),
        testable,
        points,
        atpg_tests: report.tests.len(),
    })
}

/// Renders the curves.
pub fn render(curves: &[BistCurve]) -> String {
    let mut s = String::from("circuit    testable  ATPG tests | LFSR patterns -> covered\n");
    for c in curves {
        s.push_str(&format!(
            "{:<10} {:>8}  {:>10} |",
            c.circuit, c.testable, c.atpg_tests
        ));
        for (n, d) in &c.points {
            s.push_str(&format!(" {n}->{d}"));
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_logic::circuits::{fig8_sum_circuit, ripple_carry_adder};

    #[test]
    fn coverage_is_monotone_in_session_length() {
        let nl = fig8_sum_circuit();
        let curve = run(&nl, "fig8", 5, &[4, 16, 64, 256]).unwrap();
        let mut last = 0;
        for &(_, d) in &curve.points {
            assert!(d >= last);
            last = d;
        }
        assert!(last > 0);
    }

    /// The launch-on-capture correlation: plain LFSR tapping plateaus
    /// below full coverage regardless of width (frame 2 is a shifted
    /// copy of frame 1); the phase shifter removes the correlation and
    /// saturates.
    #[test]
    fn phase_shifter_breaks_loc_correlation() {
        let nl = fig8_sum_circuit();
        let plain = run(&nl, "fig8", 12, &[512]).unwrap();
        let phased = run_phased(&nl, "fig8", 12, &[512]).unwrap();
        let (_, d_plain) = plain.points[0];
        let (_, d_phased) = phased.points[0];
        assert!(d_plain < plain.testable, "plain LOC tapping must plateau");
        assert_eq!(d_phased, phased.testable, "phased LFSR must saturate");
    }

    #[test]
    fn deterministic_atpg_is_far_shorter_than_bist() {
        let nl = ripple_carry_adder(2);
        let curve = run(&nl, "rca2", 9, &[16, 128]).unwrap();
        // The point of §5: a handful of deterministic sequences vs
        // hundreds of pseudo-random ones.
        let (n, d) = curve.points[1];
        assert!(curve.atpg_tests < n || d < curve.testable);
    }
}
