//! E9 — the §5 complexity claim: OBD test generation on combinational
//! circuits scales like stuck-at ATPG.
//!
//! Both flows run over a family of NAND-only ripple-carry adders of
//! growing width; we record wall-clock, test counts and backtracks. The
//! claim holds if the OBD/stuck-at runtime ratio stays roughly constant
//! (no super-polynomial blowup from the extra excitation constraints).

use std::time::Instant;

use obd_atpg::fault::DetectionCriterion;
use obd_atpg::generate::{generate_obd_tests, generate_stuck_at_tests};
use obd_atpg::AtpgError;
use obd_core::BreakdownStage;
use obd_logic::circuits::{parity_tree, ripple_carry_adder};
use obd_logic::netlist::Netlist;

/// One scaling data point.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Circuit label.
    pub circuit: String,
    /// Gate count.
    pub gates: usize,
    /// Stuck-at generation seconds.
    pub stuck_secs: f64,
    /// Stuck-at test count.
    pub stuck_tests: usize,
    /// OBD generation seconds.
    pub obd_secs: f64,
    /// OBD test count.
    pub obd_tests: usize,
    /// OBD faults aborted (should stay 0).
    pub obd_aborted: usize,
}

impl ScalePoint {
    /// OBD-to-stuck-at runtime ratio.
    pub fn ratio(&self) -> f64 {
        if self.stuck_secs > 0.0 {
            self.obd_secs / self.stuck_secs
        } else {
            f64::NAN
        }
    }
}

fn measure(label: &str, nl: &Netlist) -> Result<ScalePoint, AtpgError> {
    let t0 = Instant::now();
    let stuck = generate_stuck_at_tests(nl)?;
    let stuck_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let obd = generate_obd_tests(
        nl,
        BreakdownStage::Mbd2,
        &DetectionCriterion::ideal(),
        false,
    )?;
    let obd_secs = t1.elapsed().as_secs_f64();
    Ok(ScalePoint {
        circuit: label.to_string(),
        gates: nl.num_gates(),
        stuck_secs,
        stuck_tests: stuck.tests.len(),
        obd_secs,
        obd_tests: obd.tests.len(),
        obd_aborted: obd.aborted,
    })
}

/// Runs the scaling family.
///
/// # Errors
///
/// Propagates generation errors.
pub fn run(adder_widths: &[usize], parity_widths: &[usize]) -> Result<Vec<ScalePoint>, AtpgError> {
    let mut out = Vec::new();
    for &w in adder_widths {
        let nl = ripple_carry_adder(w);
        out.push(measure(&format!("rca{w}"), &nl)?);
    }
    for &w in parity_widths {
        let nl = parity_tree(w);
        out.push(measure(&format!("parity{w}"), &nl)?);
    }
    Ok(out)
}

/// Renders the scaling table.
pub fn render(points: &[ScalePoint]) -> String {
    let mut s = String::from(
        "circuit   gates   stuck-at(s)  tests   OBD(s)   tests   aborted  OBD/SA ratio\n",
    );
    for p in points {
        s.push_str(&format!(
            "{:<9} {:>5}   {:>9.3}  {:>5}   {:>6.3}  {:>5}   {:>7}  {:>6.2}\n",
            p.circuit,
            p.gates,
            p.stuck_secs,
            p.stuck_tests,
            p.obd_secs,
            p.obd_tests,
            p.obd_aborted,
            p.ratio()
        ));
    }
    s
}

/// Renders the deterministic half of the scaling table: gate and test
/// counts and aborted faults, no timings, so the file can be committed
/// and diffed (EXPERIMENTS E9 quotes its "zero aborted faults").
pub fn render_counts(points: &[ScalePoint]) -> String {
    let mut s = String::from("circuit   gates   stuck-at tests   OBD tests   aborted\n");
    for p in points {
        s.push_str(&format!(
            "{:<9} {:>5}   {:>14}   {:>9}   {:>7}\n",
            p.circuit, p.gates, p.stuck_tests, p.obd_tests, p.obd_aborted
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_family_completes_without_aborts() {
        let points = run(&[2, 4], &[4]).unwrap();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert_eq!(p.obd_aborted, 0, "{}", p.circuit);
            assert!(p.stuck_tests > 0 && p.obd_tests > 0);
        }
    }

    #[test]
    fn counts_are_identical_across_runs() {
        let first = render_counts(&run(&[2, 4], &[4]).unwrap());
        let second = render_counts(&run(&[2, 4], &[4]).unwrap());
        assert_eq!(first, second);
        assert_eq!(first.lines().count(), 4);
    }

    #[test]
    fn obd_cost_stays_within_polynomial_factor() {
        // On a modest pair of sizes, the runtime ratio must not explode
        // (allowing generous noise on small absolute times).
        let points = run(&[2, 6], &[]).unwrap();
        let r0 = points[0].ratio();
        let r1 = points[1].ratio();
        assert!(
            r1 < r0 * 20.0 + 20.0,
            "OBD/stuck-at ratio exploded: {r0} -> {r1}"
        );
    }
}
