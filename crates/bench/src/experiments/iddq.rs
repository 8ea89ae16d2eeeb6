//! Extension experiment — IDDQ across the breakdown progression.
//!
//! The GOS (hard gate-oxide short) literature the paper builds on
//! (Segura et al., §2) screens manufactured defects by quiescent supply
//! current. The diode-resistor model reproduces that signature — and
//! quantifies why IDDQ reacts *late* for operational defects: most of
//! the current growth happens in the last stages, long after the
//! transition delays of Table 1 are already failing at-speed tests.

use obd_cmos::TechParams;
use obd_core::characterize::{iddq, BenchDefect};
use obd_core::faultmodel::Polarity;
use obd_core::{BreakdownStage, ObdError};
use obd_spice::SimOptions;

/// One row of the IDDQ ladder.
#[derive(Debug, Clone)]
pub struct IddqRow {
    /// Stage label.
    pub stage: BreakdownStage,
    /// Quiescent current with an NMOS defect, inputs (1,1) (µA).
    pub nmos_ua: Option<f64>,
    /// Quiescent current with a PMOS defect, inputs (0,1) (µA).
    pub pmos_ua: Option<f64>,
}

/// Measures the IDDQ ladder.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(tech: &TechParams) -> Result<(f64, Vec<IddqRow>), ObdError> {
    let opts = SimOptions::new();
    let healthy = iddq(tech, None, [true, true], &opts)? * 1e6;
    let mut rows = Vec::new();
    for stage in BreakdownStage::ALL.into_iter().skip(1) {
        let nmos_ua = match stage.params(Polarity::Nmos) {
            Ok(p) => Some(
                iddq(
                    tech,
                    Some(BenchDefect {
                        pin: 0,
                        polarity: Polarity::Nmos,
                        params: p,
                    }),
                    [true, true],
                    &opts,
                )? * 1e6,
            ),
            Err(_) => None,
        };
        let pmos_ua = match stage.params(Polarity::Pmos) {
            Ok(p) => Some(
                iddq(
                    tech,
                    Some(BenchDefect {
                        pin: 0,
                        polarity: Polarity::Pmos,
                        params: p,
                    }),
                    [false, true],
                    &opts,
                )? * 1e6,
            ),
            Err(_) => None,
        };
        rows.push(IddqRow {
            stage,
            nmos_ua,
            pmos_ua,
        });
    }
    Ok((healthy, rows))
}

/// Renders the ladder.
pub fn render(healthy_ua: f64, rows: &[IddqRow]) -> String {
    let fmt = |v: Option<f64>| v.map_or("N/A".to_string(), |x| format!("{x:10.3}"));
    let mut s = format!("healthy IDDQ: {healthy_ua:.3} µA\n");
    s.push_str("stage      NMOS defect (µA)   PMOS defect (µA)\n");
    for r in rows {
        s.push_str(&format!(
            "{:<10} {:>16}   {:>16}\n",
            r.stage.to_string(),
            fmt(r.nmos_ua),
            fmt(r.pmos_ua)
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone_and_ends_large() {
        let (healthy, rows) = run(&TechParams::date05()).unwrap();
        let mut last = healthy;
        for r in &rows {
            if let Some(i) = r.nmos_ua {
                assert!(i >= last * 0.99, "{}: {i} vs {last}", r.stage);
                last = i;
            }
        }
        assert!(last > healthy * 100.0);
        // Rendering includes every stage.
        let text = render(healthy, &rows);
        assert!(text.contains("HBD"));
    }
}
