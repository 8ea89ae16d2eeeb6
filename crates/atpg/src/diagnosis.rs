//! Fault diagnosis: locating an OBD defect from observed test outcomes.
//!
//! The paper motivates the circuit-level model with concurrent
//! **test/diagnose/repair** loops: once a concurrent test fails, the
//! system must decide *which* resource to repair or retire. This module
//! implements cause-effect diagnosis over the OBD fault universe: given
//! the set of applied two-pattern tests and their observed pass/fail
//! outcomes, rank the candidate defects by consistency with the
//! syndrome.
//!
//! Because OBD defects progress, a defect at a later stage explains a
//! superset of the failures of the same site at an earlier stage; the
//! diagnosis therefore reports *(site, stage)* candidates and can also
//! estimate the progression stage from a partially-failing syndrome.

use obd_core::characterize::DelayTable;
use obd_core::faultmodel::ObdFault;
use obd_core::BreakdownStage;
use obd_logic::netlist::Netlist;

use crate::fault::{DetectionCriterion, Fault, TwoPatternTest};
use crate::faultsim::FaultSimulator;
use crate::AtpgError;

/// One applied test together with its observed outcome.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The applied two-pattern test.
    pub(crate) test: TwoPatternTest,
    /// Whether the circuit failed (produced a wrong capture value).
    pub(crate) failed: bool,
}

/// A ranked diagnosis candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The candidate defect (site + stage).
    pub fault: ObdFault,
    /// Observed failing tests explained by this candidate.
    pub explained_failures: usize,
    /// Observed failing tests NOT explained (candidate predicts a pass).
    pub(crate) unexplained_failures: usize,
    /// Observed passing tests the candidate predicts should fail
    /// (mispredictions).
    pub(crate) mispredicted_passes: usize,
}

impl Candidate {
    /// Whether the candidate is fully consistent with the syndrome.
    pub(crate) fn consistent(&self) -> bool {
        self.unexplained_failures == 0 && self.mispredicted_passes == 0
    }

    /// A simple match score: explained failures minus mispredictions.
    pub(crate) fn score(&self) -> i64 {
        self.explained_failures as i64
            - 2 * (self.unexplained_failures + self.mispredicted_passes) as i64
    }
}

/// The diagnosis engine.
#[derive(Debug)]
pub struct Diagnoser<'a> {
    nl: &'a Netlist,
    table: DelayTable,
    criterion: DetectionCriterion,
    stages: Vec<BreakdownStage>,
}

impl<'a> Diagnoser<'a> {
    /// Creates a diagnoser with the paper's delay table, an ideal
    /// detection criterion and the full MBD stage range.
    pub fn new(nl: &'a Netlist) -> Self {
        Diagnoser {
            nl,
            table: DelayTable::paper(),
            criterion: DetectionCriterion::ideal(),
            stages: vec![
                BreakdownStage::Mbd1,
                BreakdownStage::Mbd2,
                BreakdownStage::Mbd3,
                BreakdownStage::Hbd,
            ],
        }
    }

    /// Restricts the stage hypotheses.
    #[cfg(test)]
    pub(crate) fn with_stages(mut self, stages: Vec<BreakdownStage>) -> Self {
        self.stages = stages;
        self
    }

    /// Ranks candidate defects against the syndrome, most plausible
    /// first. Only NAND sites are considered when `nand_only` is set.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub(crate) fn diagnose(
        &self,
        observations: &[Observation],
        nand_only: bool,
    ) -> Result<Vec<Candidate>, AtpgError> {
        let sim =
            FaultSimulator::with_criterion(self.nl, self.table.clone(), self.criterion.clone())?;
        let mut candidates = Vec::new();
        for &stage in &self.stages {
            // PMOS HBD does not exist in the ladder; enumerate_sites
            // still lists the site, so filter by parameter availability.
            for site in obd_core::faultmodel::enumerate_sites(self.nl, stage, nand_only) {
                if site.stage.params(site.polarity).is_err()
                    && !self.table.is_stuck(site.polarity, site.stage)
                {
                    continue;
                }
                let mut explained = 0;
                let mut unexplained = 0;
                let mut mispredicted = 0;
                for obs in observations {
                    let predicted_fail = sim.detects(&Fault::Obd(site), &obs.test)?;
                    match (obs.failed, predicted_fail) {
                        (true, true) => explained += 1,
                        (true, false) => unexplained += 1,
                        (false, true) => mispredicted += 1,
                        (false, false) => {}
                    }
                }
                candidates.push(Candidate {
                    fault: site,
                    explained_failures: explained,
                    unexplained_failures: unexplained,
                    mispredicted_passes: mispredicted,
                });
            }
        }
        candidates.sort_by_key(|c| std::cmp::Reverse(c.score()));
        Ok(candidates)
    }

    /// Convenience: the set of fully consistent candidates.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn consistent_candidates(
        &self,
        observations: &[Observation],
        nand_only: bool,
    ) -> Result<Vec<Candidate>, AtpgError> {
        Ok(self
            .diagnose(observations, nand_only)?
            .into_iter()
            .filter(Candidate::consistent)
            .filter(|c| c.explained_failures > 0)
            .collect())
    }
}

/// Builds the syndrome a given *actual* defect would produce on a test
/// set — the simulation half of a diagnosis round-trip.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn synthesize_syndrome(
    nl: &Netlist,
    actual: &ObdFault,
    tests: &[TwoPatternTest],
) -> Result<Vec<Observation>, AtpgError> {
    let sim = FaultSimulator::new(nl)?;
    tests
        .iter()
        .map(|t| {
            Ok(Observation {
                test: t.clone(),
                failed: sim.detects(&Fault::Obd(*actual), t)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::exhaustive_two_pattern;
    use obd_core::faultmodel::Polarity;
    use obd_logic::circuits::{c17, fig8_sum_circuit};

    /// Round-trip: simulate a defect's syndrome, then diagnose it back.
    #[test]
    fn roundtrip_localizes_the_defect_gate() {
        let nl = c17();
        let tests = exhaustive_two_pattern(5);
        let actual = ObdFault {
            gate: nl.gate_id(2),
            pin: 0,
            polarity: Polarity::Pmos,
            stage: BreakdownStage::Mbd2,
        };
        let syndrome = synthesize_syndrome(&nl, &actual, &tests).unwrap();
        assert!(syndrome.iter().any(|o| o.failed), "defect must be visible");
        let diag = Diagnoser::new(&nl).with_stages(vec![BreakdownStage::Mbd2]);
        let consistent = diag.consistent_candidates(&syndrome, true).unwrap();
        assert!(!consistent.is_empty());
        // The actual fault must be among the fully consistent candidates,
        // and the top-ranked candidate must sit at the same gate/pin
        // (stage-polarity ambiguity within a site is acceptable).
        assert!(consistent.iter().any(|c| c.fault == actual));
        for c in &consistent {
            assert_eq!(
                c.fault.gate, actual.gate,
                "ambiguity beyond the gate: {c:?}"
            );
        }
    }

    /// On the redundant fig8 circuit, syndromes remain resolvable to a
    /// small ambiguity group.
    #[test]
    fn fig8_diagnosis_shrinks_candidate_set() {
        let nl = fig8_sum_circuit();
        let tests = exhaustive_two_pattern(3);
        let g6 = nl.driver(nl.find_net("g6").unwrap()).unwrap();
        let actual = ObdFault {
            gate: g6,
            pin: 1,
            polarity: Polarity::Pmos,
            stage: BreakdownStage::Mbd2,
        };
        let syndrome = synthesize_syndrome(&nl, &actual, &tests).unwrap();
        let diag = Diagnoser::new(&nl).with_stages(vec![BreakdownStage::Mbd2]);
        let consistent = diag.consistent_candidates(&syndrome, true).unwrap();
        assert!(consistent.iter().any(|c| c.fault == actual));
        // 56 sites -> a handful of consistent explanations.
        assert!(
            consistent.len() <= 6,
            "ambiguity group too large: {}",
            consistent.len()
        );
    }

    /// A healthy circuit (no failures) yields no consistent defect with
    /// explanatory power.
    #[test]
    fn all_pass_syndrome_has_no_culprit() {
        let nl = c17();
        let tests = exhaustive_two_pattern(5);
        let syndrome: Vec<Observation> = tests
            .iter()
            .map(|t| Observation {
                test: t.clone(),
                failed: false,
            })
            .collect();
        let diag = Diagnoser::new(&nl);
        let consistent = diag.consistent_candidates(&syndrome, true).unwrap();
        assert!(consistent.is_empty());
    }

    /// Stage estimation: an HBD syndrome (static failures) is
    /// distinguished from an MBD2 syndrome on the same site.
    #[test]
    fn stage_separation_via_static_tests() {
        let nl = c17();
        let tests = exhaustive_two_pattern(5);
        let site = ObdFault {
            gate: nl.gate_id(0),
            pin: 0,
            polarity: Polarity::Nmos,
            stage: BreakdownStage::Hbd,
        };
        let syndrome = synthesize_syndrome(&nl, &site, &tests).unwrap();
        let diag = Diagnoser::new(&nl);
        let ranked = diag.diagnose(&syndrome, true).unwrap();
        let best = &ranked[0];
        assert!(best.consistent(), "top candidate must be consistent");
        assert_eq!(best.fault.stage, BreakdownStage::Hbd);
        // The MBD2 hypothesis at the same site must NOT be consistent:
        // it fails to explain the static-pattern failures.
        let mbd2 = ranked
            .iter()
            .find(|c| {
                c.fault.gate == site.gate
                    && c.fault.pin == site.pin
                    && c.fault.polarity == site.polarity
                    && c.fault.stage == BreakdownStage::Mbd2
            })
            .expect("hypothesis enumerated");
        assert!(!mbd2.consistent());
    }
}
