//! Extension experiment — at-speed detectability versus capture clock.
//!
//! §4.2: "the window of opportunity depends on the timing slack in the
//! detection mechanism". With per-gate slack from static timing analysis,
//! this experiment sweeps the capture clock and reports, per breakdown
//! stage, what fraction of the testable OBD faults an exhaustive at-speed
//! test session can see. A tight clock (little slack) detects defects at
//! SBD; a relaxed clock only sees them near collapse — quantifying how
//! much detection window a design's frequency margin costs.

use obd_atpg::fault::{obd_faults, DetectionCriterion};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::generate::generate_obd_tests;
use obd_atpg::random::exhaustive_two_pattern;
use obd_atpg::AtpgError;
use obd_core::annotate::delay_model_from_table;
use obd_core::characterize::DelayTable;
use obd_core::BreakdownStage;
use obd_logic::netlist::Netlist;
use obd_logic::sta::analyze;

/// Detection fractions at one clock period.
#[derive(Debug, Clone)]
pub struct ClockPoint {
    /// Capture clock (ps).
    pub clock_ps: f64,
    /// Critical path of the healthy circuit (ps).
    pub critical_ps: f64,
    /// Per-stage `(stage, detected, testable)` rows.
    pub rows: Vec<(BreakdownStage, usize, usize)>,
}

/// Sweeps capture clocks on a circuit.
///
/// # Errors
///
/// Propagates simulation errors.
///
/// # Panics
///
/// Panics if the circuit has more than 8 inputs (exhaustive grading).
pub fn run(nl: &Netlist, clocks_rel: &[f64]) -> Result<Vec<ClockPoint>, AtpgError> {
    let table = DelayTable::paper();
    let delays = delay_model_from_table(&table);
    let critical = analyze(nl, &delays, 1.0)?.critical_path(nl);
    let tests = exhaustive_two_pattern(nl.inputs().len());
    let stages = [
        BreakdownStage::Sbd,
        BreakdownStage::Mbd1,
        BreakdownStage::Mbd2,
        BreakdownStage::Mbd3,
    ];
    let mut out = Vec::new();
    for &rel in clocks_rel {
        let clock = critical * rel;
        let sim = FaultSimulator::with_clock(nl, table.clone(), &delays, clock)?;
        let mut rows = Vec::new();
        for stage in stages {
            let faults = obd_faults(nl, stage, true);
            // Testable universe under ideal capture at this stage.
            let report = generate_obd_tests(nl, stage, &DetectionCriterion::ideal(), true)?;
            let testable = report.total_faults - report.untestable - report.below_slack;
            let det = sim.grade(&faults, &tests)?;
            rows.push((stage, det.into_iter().filter(|&d| d).count(), testable));
        }
        out.push(ClockPoint {
            clock_ps: clock,
            critical_ps: critical,
            rows,
        });
    }
    Ok(out)
}

/// Static-slack vs timing-accurate detection at MBD2 across clocks.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn compare_models(
    nl: &Netlist,
    clocks_rel: &[f64],
) -> Result<Vec<(f64, usize, usize)>, AtpgError> {
    let table = DelayTable::paper();
    let delays = delay_model_from_table(&table);
    let critical = analyze(nl, &delays, 1.0)?.critical_path(nl);
    let faults = obd_core::faultmodel::enumerate_sites(nl, BreakdownStage::Mbd2, true);
    let tests = exhaustive_two_pattern(nl.inputs().len());
    clocks_rel
        .iter()
        .map(|&rel| {
            let clock = critical * rel;
            let (s, t) =
                obd_atpg::timed_sim::compare_static_vs_timed(nl, &faults, &tests, &table, clock)?;
            Ok((clock, s, t))
        })
        .collect()
}

/// Renders the model comparison.
pub fn render_comparison(rows: &[(f64, usize, usize)]) -> String {
    let mut s = String::from("clock(ps)   static-slack detected   timing-accurate detected\n");
    for (clock, st, ti) in rows {
        s.push_str(&format!("{clock:>8.0}   {st:>20}   {ti:>24}\n"));
    }
    s.push_str("\n(the static model uses worst-path gate slack and therefore over-approximates)\n");
    s
}

/// Renders the sweep.
pub fn render(points: &[ClockPoint]) -> String {
    let mut s = String::from("clock (x critical)  | SBD          MBD1         MBD2         MBD3\n");
    for p in points {
        s.push_str(&format!(
            "{:7.0}ps ({:4.2}x)   |",
            p.clock_ps,
            p.clock_ps / p.critical_ps
        ));
        for (_, det, testable) in &p.rows {
            s.push_str(&format!(" {det:>3}/{testable:<8}"));
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_logic::circuits::fig8_sum_circuit;

    #[test]
    fn tighter_clock_detects_earlier_stages() {
        let nl = fig8_sum_circuit();
        let points = run(&nl, &[1.02, 1.5, 3.0]).unwrap();
        assert_eq!(points.len(), 3);
        // At every stage, coverage is non-increasing as the clock relaxes.
        for stage_idx in 0..4 {
            let mut last = usize::MAX;
            for p in &points {
                let (_, det, _) = p.rows[stage_idx];
                assert!(det <= last, "stage {stage_idx}: {det} > {last}");
                last = det;
            }
        }
        // A clock barely above the critical path sees SBD defects…
        let (_, det_sbd_tight, testable) = points[0].rows[0];
        assert!(det_sbd_tight > 0, "tight clock should catch SBD defects");
        // …while a 3x-relaxed clock misses most of them.
        let (_, det_sbd_loose, _) = points[2].rows[0];
        assert!(
            det_sbd_loose < testable / 2,
            "loose clock should miss most SBD defects ({det_sbd_loose}/{testable})"
        );
    }

    #[test]
    fn late_stages_remain_detectable_even_at_loose_clocks() {
        let nl = fig8_sum_circuit();
        let points = run(&nl, &[3.0]).unwrap();
        let (_, det_mbd3, testable) = points[0].rows[3];
        // MBD3's PMOS collapse behaves as stuck: visible at any speed.
        assert!(det_mbd3 > 0);
        assert!(det_mbd3 <= testable);
    }
}
