//! Scan-based two-pattern delivery constraints (§5's closing point:
//! "we need design-for-testability methods to enhance controllability
//! and/or observability").
//!
//! In a scan design the launch vector sits in the scan chain; the
//! capture vector cannot be arbitrary. Under **launch-on-shift (LOS)**
//! the second vector is the chain shifted by one position with a fresh
//! scan-in bit:
//!
//! ```text
//! v2[chain[0]] = scan_in,   v2[chain[i]] = v1[chain[i-1]]
//! ```
//!
//! This couples adjacent chain positions across the two frames and makes
//! whole families of `(v1, v2)` pairs — including some OBD excitation
//! conditions — undeliverable. The module quantifies the coverage loss
//! and searches for the chain ordering that minimizes it: a concrete,
//! OBD-aware DFT decision.

use obd_core::BreakdownStage;
use obd_logic::netlist::Netlist;
use obd_logic::value::Lv;

use crate::fault::{obd_faults, TwoPatternTest};
use crate::faultsim::FaultSimulator;
use crate::AtpgError;

/// A scan chain: the order in which primary inputs are stitched
/// (`chain[0]` is nearest scan-in).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanChain {
    order: Vec<usize>,
}

impl ScanChain {
    /// The natural order `0..n`.
    pub fn natural(n: usize) -> Self {
        ScanChain {
            order: (0..n).collect(),
        }
    }

    /// A custom stitch order (must be a permutation of `0..n`).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation.
    pub(crate) fn new(order: Vec<usize>) -> Self {
        let mut seen = vec![false; order.len()];
        for &i in &order {
            assert!(i < order.len() && !seen[i], "order must be a permutation");
            seen[i] = true;
        }
        ScanChain { order }
    }

    /// Chain length.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// The LOS capture vector for a launch vector and scan-in bit.
    pub fn los_capture(&self, v1: &[Lv], scan_in: bool) -> Vec<Lv> {
        let mut v2 = v1.to_vec();
        v2[self.order[0]] = Lv::from_bool(scan_in);
        for i in 1..self.order.len() {
            v2[self.order[i]] = v1[self.order[i - 1]];
        }
        v2
    }

    /// Whether a two-pattern test is deliverable under LOS through this
    /// chain (i.e. `v2` equals the shifted `v1` for some scan-in bit).
    #[cfg(test)]
    pub(crate) fn los_deliverable(&self, test: &TwoPatternTest) -> bool {
        [false, true]
            .into_iter()
            .any(|si| self.los_capture(&test.v1, si) == test.v2)
    }

    /// Every LOS-deliverable two-pattern test: all launch vectors × both
    /// scan-in bits (duplicates removed).
    ///
    /// # Panics
    ///
    /// Panics for more than 10 chain positions (exhaustive enumeration).
    pub(crate) fn exhaustive_los_tests(&self) -> Vec<TwoPatternTest> {
        let n = self.len();
        assert!(n <= 10, "exhaustive LOS set too large");
        let mut out = Vec::new();
        for v1 in obd_logic::value::all_vectors(n) {
            for si in [false, true] {
                let v2 = self.los_capture(&v1, si);
                if v2 != v1 {
                    let t = TwoPatternTest { v1: v1.clone(), v2 };
                    if !out.contains(&t) {
                        out.push(t);
                    }
                }
            }
        }
        out
    }
}

/// LOS coverage of the testable OBD universe through one chain order.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn los_coverage(
    nl: &Netlist,
    chain: &ScanChain,
    stage: BreakdownStage,
) -> Result<(usize, usize), AtpgError> {
    let faults = obd_faults(nl, stage, true);
    let sim = FaultSimulator::new(nl)?;
    let tests = chain.exhaustive_los_tests();
    let detected = sim
        .grade(&faults, &tests)?
        .into_iter()
        .filter(|&d| d)
        .count();
    // Unconstrained testable universe for reference.
    let all = crate::random::exhaustive_two_pattern(nl.inputs().len());
    let testable = sim.grade(&faults, &all)?.into_iter().filter(|&d| d).count();
    Ok((detected, testable))
}

/// Searches all chain orderings (exhaustively, for ≤ 7 inputs) for the
/// one maximizing LOS-deliverable OBD coverage. Returns the best chain
/// and its `(detected, testable)` score.
///
/// # Errors
///
/// Propagates simulation errors.
///
/// # Panics
///
/// Panics for more than 7 primary inputs.
pub fn best_chain_order(
    nl: &Netlist,
    stage: BreakdownStage,
) -> Result<(ScanChain, usize, usize), AtpgError> {
    let n = nl.inputs().len();
    assert!(n <= 7, "exhaustive chain search limited to 7 inputs");
    let mut best: Option<(ScanChain, usize, usize)> = None;
    let mut order: Vec<usize> = (0..n).collect();
    permute(&mut order, 0, &mut |perm| -> Result<(), AtpgError> {
        let chain = ScanChain::new(perm.to_vec());
        let (det, testable) = los_coverage(nl, &chain, stage)?;
        match &best {
            Some((_, d, _)) if *d >= det => {}
            _ => best = Some((chain, det, testable)),
        }
        Ok(())
    })?;
    best.ok_or_else(|| AtpgError::Internal("permutation search produced no candidate".into()))
}

fn permute<E>(
    arr: &mut Vec<usize>,
    k: usize,
    f: &mut impl FnMut(&[usize]) -> Result<(), E>,
) -> Result<(), E> {
    if k == arr.len() {
        return f(arr);
    }
    for i in k..arr.len() {
        arr.swap(k, i);
        permute(arr, k + 1, f)?;
        arr.swap(k, i);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_logic::circuits::fig8_sum_circuit;

    #[test]
    fn los_capture_shifts_through_the_chain() {
        let chain = ScanChain::natural(3);
        let v1 = vec![Lv::One, Lv::Zero, Lv::One];
        let v2 = chain.los_capture(&v1, false);
        assert_eq!(v2, vec![Lv::Zero, Lv::One, Lv::Zero]);
        let v2b = chain.los_capture(&v1, true);
        assert_eq!(v2b[0], Lv::One);
    }

    #[test]
    fn deliverability_is_exact() {
        let chain = ScanChain::natural(3);
        // (110,100): under the natural chain, v2[1] must equal v1[0]=1,
        // but the pair needs v2[1]=0 — undeliverable.
        let t = TwoPatternTest::from_bools(&[true, true, false], &[true, false, false]);
        assert!(!chain.los_deliverable(&t));
        // A shifted pair is deliverable.
        let v1 = vec![Lv::One, Lv::Zero, Lv::One];
        let t2 = TwoPatternTest {
            v1: v1.clone(),
            v2: chain.los_capture(&v1, true),
        };
        assert!(chain.los_deliverable(&t2));
    }

    #[test]
    fn exhaustive_los_set_is_a_strict_subset_of_all_pairs() {
        let chain = ScanChain::natural(3);
        let los = chain.exhaustive_los_tests();
        let all = crate::random::exhaustive_two_pattern(3);
        assert!(los.len() < all.len(), "{} vs {}", los.len(), all.len());
        for t in &los {
            assert!(chain.los_deliverable(t));
        }
    }

    #[test]
    fn los_loses_coverage_and_chain_order_matters() {
        let nl = fig8_sum_circuit();
        let natural = ScanChain::natural(3);
        let (det_nat, testable) = los_coverage(&nl, &natural, BreakdownStage::Mbd2).unwrap();
        assert!(
            det_nat < testable,
            "LOS must lose coverage: {det_nat}/{testable}"
        );
        let (best, det_best, _) = best_chain_order(&nl, BreakdownStage::Mbd2).unwrap();
        assert!(det_best >= det_nat);
        assert_eq!(best.len(), 3);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn chain_rejects_non_permutation() {
        ScanChain::new(vec![0, 0, 2]);
    }
}
