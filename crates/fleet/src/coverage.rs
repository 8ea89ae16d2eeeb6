//! The BIST coverage profile: per-stage PPSFP detection rows.
//!
//! A deployed device's self-test applies a fixed two-pattern BIST set
//! (LFSR-generated, phase-shifted — see `obd_atpg::bist`). Whether a
//! session catches an OBD defect depends on *where* the defect sits and
//! *how far* it has progressed: the `obd-atpg` PPSFP engine grades the
//! whole test set against every fault site at every ladder stage once,
//! and the fleet simulation then resolves each of its millions of BIST
//! sessions with a single table lookup.

use obd_atpg::fault::{DetectionCriterion, Fault, TwoPatternTest};
use obd_atpg::faultsim::FaultSimulator;
use obd_core::characterize::DelayTable;
use obd_core::faultmodel::Polarity;
use obd_core::stage::BreakdownStage;
use obd_logic::netlist::Netlist;

use crate::schedule::LADDER;
use crate::FleetError;

/// Index of a stage in [`LADDER`]; `None` for `FaultFree`.
pub(crate) fn stage_index(stage: BreakdownStage) -> Option<usize> {
    LADDER.iter().position(|&s| s == stage)
}

/// PPSFP-graded detection capability of one BIST pattern set over one
/// circuit's OBD fault sites, per progression stage.
#[derive(Debug, Clone)]
pub struct BistProfile {
    circuit: String,
    tests: usize,
    site_polarity: Vec<Polarity>,
    /// `covered[stage_index][site]`: some test in the set detects the
    /// site's defect at that stage.
    covered: Vec<Vec<bool>>,
}

impl BistProfile {
    /// Grades `tests` against every OBD site of `nl` at every ladder
    /// stage, under the same delay table and detection slack the fleet's
    /// window math uses (grading detects a delay-regime defect only when
    /// its extra delay strictly exceeds the slack).
    ///
    /// # Errors
    ///
    /// [`FleetError::Grading`] when fault simulation fails.
    pub fn grade(
        nl: &Netlist,
        circuit: &str,
        tests: &[TwoPatternTest],
        table: &DelayTable,
        slack_ps: f64,
    ) -> Result<Self, FleetError> {
        let sim = FaultSimulator::with_criterion(
            nl,
            table.clone(),
            DetectionCriterion::with_slack(slack_ps),
        )
        .map_err(|e| FleetError::Grading(e.to_string()))?;
        let mut covered = Vec::with_capacity(LADDER.len());
        let mut site_polarity = Vec::new();
        for &stage in &LADDER {
            let faults = obd_atpg::fault::obd_faults(nl, stage, false);
            if site_polarity.is_empty() {
                site_polarity = faults
                    .iter()
                    .map(|f| match f {
                        Fault::Obd(o) => o.polarity,
                        // obd_faults only yields OBD faults.
                        _ => Polarity::Nmos,
                    })
                    .collect();
            }
            let row = sim
                .grade(&faults, tests)
                .map_err(|e| FleetError::Grading(e.to_string()))?;
            covered.push(row);
        }
        Ok(BistProfile {
            circuit: circuit.to_string(),
            tests: tests.len(),
            site_polarity,
            covered,
        })
    }

    /// A synthetic profile from explicit rows — the oracle and property
    /// tests use this to decouple scheduler math from circuit structure.
    ///
    /// `covered` must hold one row per [`LADDER`] stage, each as long as
    /// `site_polarity`.
    pub fn from_rows(
        circuit: &str,
        tests: usize,
        site_polarity: Vec<Polarity>,
        covered: Vec<Vec<bool>>,
    ) -> Result<Self, FleetError> {
        if covered.len() != LADDER.len() {
            return Err(FleetError::InvalidConfig(format!(
                "expected {} coverage rows, got {}",
                LADDER.len(),
                covered.len()
            )));
        }
        if covered.iter().any(|row| row.len() != site_polarity.len()) {
            return Err(FleetError::InvalidConfig(
                "coverage rows must match the site count".to_string(),
            ));
        }
        Ok(BistProfile {
            circuit: circuit.to_string(),
            tests,
            site_polarity,
            covered,
        })
    }

    /// The *slack-ideal* single-site profile: the BIST set is assumed to
    /// catch the defect exactly when its extra delay strictly exceeds the
    /// slack (the perfect-excitation upper bound of the window model).
    /// Used by the property suite, where detectability must coincide
    /// with the modeled detection window.
    pub fn slack_ideal(table: &DelayTable, polarity: Polarity, slack_ps: f64) -> Self {
        let covered = LADDER
            .iter()
            .map(|&s| {
                vec![table
                    .extra_delay_ps(polarity, s)
                    .is_some_and(|d| d > slack_ps)]
            })
            .collect();
        BistProfile {
            circuit: "slack-ideal".to_string(),
            tests: 0,
            site_polarity: vec![polarity],
            covered,
        }
    }

    /// The circuit label.
    pub(crate) fn circuit(&self) -> &str {
        &self.circuit
    }

    /// Number of OBD fault sites.
    pub fn sites(&self) -> usize {
        self.site_polarity.len()
    }

    /// Number of two-pattern tests in the graded set.
    pub fn tests(&self) -> usize {
        self.tests
    }

    /// Polarity of a site's defective transistor.
    pub(crate) fn polarity_of(&self, site: usize) -> Option<Polarity> {
        self.site_polarity.get(site).copied()
    }

    /// Whether the BIST set detects `site`'s defect at `stage`.
    pub fn covered(&self, stage: BreakdownStage, site: usize) -> bool {
        stage_index(stage)
            .and_then(|i| self.covered.get(i))
            .and_then(|row| row.get(site).copied())
            .unwrap_or(false)
    }

    /// Number of sites covered at a stage.
    pub(crate) fn covered_sites(&self, stage: BreakdownStage) -> usize {
        stage_index(stage)
            .and_then(|i| self.covered.get(i))
            .map_or(0, |row| row.iter().filter(|&&c| c).count())
    }

    /// Per-[`LADDER`]-stage covered-site counts, for reporting.
    pub(crate) fn coverage_by_stage(&self) -> [usize; 5] {
        let mut out = [0usize; 5];
        for (i, &s) in LADDER.iter().enumerate() {
            out[i] = self.covered_sites(s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_atpg::bist::phased_lfsr_two_pattern_tests;
    use obd_logic::circuits::c17;

    #[test]
    fn grading_covers_more_sites_at_later_stages() {
        let nl = c17();
        let tests = phased_lfsr_two_pattern_tests(nl.inputs().len(), 64, 16, 0xF1EE7);
        let table = DelayTable::paper();
        let p = BistProfile::grade(&nl, "c17", &tests, &table, 25.0).unwrap();
        assert!(p.sites() > 0);
        assert_eq!(p.tests(), 64);
        // NMOS extras at SBD (9 ps) and MBD1 (22 ps) sit below 25 ps of
        // slack, so only PMOS sites can be covered there; by MBD2 both
        // polarities are in the delay-detectable regime.
        let sbd = p.covered_sites(BreakdownStage::Sbd);
        let mbd2 = p.covered_sites(BreakdownStage::Mbd2);
        assert!(mbd2 >= sbd, "coverage must not shrink deeper in the ladder");
        assert!(mbd2 > 0, "a 64-pattern set must cover something at MBD2");
        // Stuck stages degenerate to output stuck-ats, which the same
        // set also catches for at least some sites.
        assert!(p.covered_sites(BreakdownStage::Hbd) > 0);
    }

    #[test]
    fn fault_free_is_never_covered() {
        let table = DelayTable::paper();
        let p = BistProfile::slack_ideal(&table, Polarity::Nmos, 25.0);
        assert!(!p.covered(BreakdownStage::FaultFree, 0));
        assert_eq!(stage_index(BreakdownStage::FaultFree), None);
    }

    #[test]
    fn slack_ideal_matches_delay_ladder() {
        let table = DelayTable::paper();
        let p = BistProfile::slack_ideal(&table, Polarity::Nmos, 25.0);
        // NMOS: SBD 9, MBD1 22, MBD2 54, MBD3 114, HBD stuck.
        assert!(!p.covered(BreakdownStage::Sbd, 0));
        assert!(!p.covered(BreakdownStage::Mbd1, 0));
        assert!(p.covered(BreakdownStage::Mbd2, 0));
        assert!(p.covered(BreakdownStage::Mbd3, 0));
        assert!(
            !p.covered(BreakdownStage::Hbd, 0),
            "stuck stage is not a delay detect"
        );
    }

    #[test]
    fn from_rows_validates_shape() {
        assert!(BistProfile::from_rows("x", 0, vec![Polarity::Nmos], vec![vec![true]]).is_err());
        let rows = vec![vec![true]; 5];
        let p = BistProfile::from_rows("x", 0, vec![Polarity::Pmos], rows).unwrap();
        assert_eq!(p.polarity_of(0), Some(Polarity::Pmos));
        assert!(p.covered(BreakdownStage::Sbd, 0));
        assert!(
            !p.covered(BreakdownStage::Sbd, 1),
            "out-of-range site is uncovered"
        );
    }
}
