//! E2 — Table 1: NAND transition delays across the OBD progression
//! ladder, for the four single-input two-pattern sequences. The table
//! itself comes from `obd_core::characterize::characterize_table1`; this
//! module checks the paper's qualitative claims on it.

use obd_core::characterize::{Table1, TransitionOutcome};

/// Checks the qualitative paper claims on a regenerated table; returns a
/// list of violated claims (empty = all shapes hold).
pub fn check_claims(table: &Table1) -> Vec<String> {
    let mut violations = Vec::new();
    let delay = |o: Option<TransitionOutcome>| -> Option<f64> { o.and_then(|t| t.delay_ps()) };

    // Claim 1: NMOS delays grow monotonically with the stage for every
    // sequence, ending stuck at HBD.
    for col in 0..4 {
        let mut last = 0.0;
        for row in &table.rows {
            match row.nmos[col] {
                Some(TransitionOutcome::Delay(d)) => {
                    if d + 1.0 < last {
                        violations.push(format!(
                            "NMOS column {col}: delay not monotone at {} ({d:.0} < {last:.0})",
                            row.stage
                        ));
                    }
                    last = d;
                }
                Some(TransitionOutcome::Stuck) => {}
                None => {}
            }
        }
        if !matches!(
            table.rows.last().and_then(|r| r.nmos[col]),
            Some(TransitionOutcome::Stuck)
        ) {
            violations.push(format!("NMOS column {col}: HBD should be stuck"));
        }
    }

    // Claim 2: NMOS delay is (approximately) independent of which input
    // switches: NA under (01,11) ≈ NB under (10,11) and vice versa, per
    // stage.
    for row in &table.rows {
        if let (Some(a), Some(b)) = (delay(row.nmos[0]), delay(row.nmos[3])) {
            let rel = (a - b).abs() / a.max(b);
            if rel > 0.35 {
                violations.push(format!(
                    "NMOS input-independence broken at {}: {a:.0} vs {b:.0}",
                    row.stage
                ));
            }
        }
    }

    // Claim 3: PMOS defects are input-specific: the unaffected column
    // stays at the fault-free rise delay while the affected one grows.
    let base_rise = delay(table.rows[0].pmos[0]).unwrap_or(f64::NAN);
    for row in table.rows.iter().skip(1) {
        // Columns: [(11,10) PA, (11,10) PB, (11,01) PA, (11,01) PB].
        // (11,10): B falls -> PB excited, PA masked.
        // (11,01): A falls -> PA excited, PB masked.
        if let Some(masked) = delay(row.pmos[0]) {
            if (masked - base_rise).abs() > 0.35 * base_rise {
                violations.push(format!(
                    "PMOS masking broken at {}: PA under (11,10) = {masked:.0} vs base {base_rise:.0}",
                    row.stage
                ));
            }
        }
        let excited = delay(row.pmos[1]);
        let masked = delay(row.pmos[0]);
        if let (Some(e), Some(m)) = (excited, masked) {
            if e < m + 10.0 {
                violations.push(format!(
                    "PMOS excitation too weak at {}: excited {e:.0} vs masked {m:.0}",
                    row.stage
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quick_bench_config;
    use obd_cmos::TechParams;
    use obd_core::characterize::{characterize_table1, RunOptions};
    use obd_core::monte::{sample_tech, MonteConfig};

    fn regenerate(tech: &TechParams) -> Table1 {
        let opts = RunOptions {
            threads: 2,
            ..RunOptions::default()
        };
        characterize_table1(tech, &quick_bench_config(), &opts)
            .into_result()
            .unwrap()
    }

    #[test]
    fn regenerated_table_satisfies_paper_shape() {
        let table = regenerate(&TechParams::date05());
        assert_eq!(table.rows.len(), 5);
        let violations = check_claims(&table);
        assert!(violations.is_empty(), "{violations:#?}");
        // Render works and contains the stuck markers.
        let text = table.render();
        assert!(text.contains("sa-1"), "{text}");
    }

    /// The paper's qualitative claims are not an accident of the nominal
    /// process: they hold at the Monte Carlo engine's process corners too.
    #[test]
    fn paper_claims_hold_at_process_corners() {
        let nominal = TechParams::date05();
        let seed = MonteConfig::new().seed;
        for corner in 0..4 {
            let table = regenerate(&sample_tech(&nominal, seed, corner, 0.05));
            let violations = check_claims(&table);
            assert!(violations.is_empty(), "corner {corner}: {violations:#?}");
        }
    }
}
