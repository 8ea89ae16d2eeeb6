//! Built-in self-test (BIST) infrastructure — §5 concludes that the
//! small sufficient test sets make "built-in-testing for such defects
//! promising, particularly for safety-critical applications".
//!
//! This module provides the two standard BIST building blocks and an
//! evaluation path for OBD defects:
//!
//! * an LFSR pattern generator whose *consecutive* states form the
//!   two-pattern launch/capture sequences (launch-on-capture style), and
//! * a MISR response compactor whose final signature distinguishes a
//!   defective circuit from a healthy one.

use obd_logic::netlist::Netlist;
use obd_logic::sim::simulate_with_order;
use obd_logic::value::Lv;

use crate::fault::{Fault, TwoPatternTest};
use crate::faultsim::FaultSimulator;
use crate::ppsfp::{PpsfpEngine, PpsfpScratch, SUPERLANE_WIDTH};
use crate::AtpgError;

/// Maximal-length feedback taps (Fibonacci form, 1-indexed bit
/// positions) for common register widths.
fn maximal_taps(width: usize) -> Vec<usize> {
    match width {
        1 => vec![1],
        2 => vec![2, 1],
        3 => vec![3, 2],
        4 => vec![4, 3],
        5 => vec![5, 3],
        6 => vec![6, 5],
        7 => vec![7, 6],
        8 => vec![8, 6, 5, 4],
        9 => vec![9, 5],
        10 => vec![10, 7],
        11 => vec![11, 9],
        12 => vec![12, 11, 10, 4],
        13 => vec![13, 12, 11, 8],
        14 => vec![14, 13, 12, 2],
        15 => vec![15, 14],
        16 => vec![16, 15, 13, 4],
        _ => vec![width, width - 1],
    }
}

/// A Fibonacci linear-feedback shift register: the pattern source
/// behind [`lfsr_two_pattern_tests`] and
/// [`phased_lfsr_two_pattern_tests`].
#[derive(Debug, Clone)]
pub(crate) struct Lfsr {
    width: usize,
    taps: Vec<usize>,
    state: u64,
}

impl Lfsr {
    /// Creates an LFSR with maximal-length taps for the width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or > 63 or the seed is 0 (an LFSR locked in
    /// the all-zero state never leaves it).
    pub(crate) fn maximal(width: usize, seed: u64) -> Self {
        assert!(width > 0 && width < 64, "1..=63 bit LFSRs supported");
        let mask = (1u64 << width) - 1;
        assert!(seed & mask != 0, "seed must be nonzero in the register");
        Lfsr {
            width,
            taps: maximal_taps(width),
            state: seed & mask,
        }
    }

    /// Current register contents.
    pub(crate) fn state(&self) -> u64 {
        self.state
    }

    /// Advances one clock; returns the new state.
    pub(crate) fn step(&mut self) -> u64 {
        let fb = self
            .taps
            .iter()
            .fold(0u64, |acc, &t| acc ^ ((self.state >> (t - 1)) & 1));
        self.state = ((self.state << 1) | fb) & ((1u64 << self.width) - 1);
        self.state
    }

    /// The state as a logic vector (bit 0 ↦ input 0).
    pub(crate) fn vector(&self, n_inputs: usize) -> Vec<Lv> {
        (0..n_inputs)
            .map(|i| Lv::from_bool((self.state >> (i % self.width)) & 1 == 1))
            .collect()
    }

    /// Period of the sequence from the current state (walks the orbit;
    /// intended for verification at small widths).
    #[cfg(test)]
    pub(crate) fn period(&self) -> u64 {
        let mut probe = self.clone();
        let start = probe.state;
        let mut n = 0u64;
        loop {
            probe.step();
            n += 1;
            if probe.state == start || n > (1 << self.width) {
                return n;
            }
        }
    }
}

/// Generates launch-on-capture two-pattern tests from consecutive LFSR
/// states.
///
/// Adjacent circuit inputs read adjacent register bits, so the capture
/// frame is a shifted copy of the launch frame: input `i` of frame 2
/// always equals input `i − 1` of frame 1. Whole families of two-pattern
/// sequences are therefore structurally unreachable no matter how long
/// the session runs — use [`phased_lfsr_two_pattern_tests`] to break the
/// correlation.
pub fn lfsr_two_pattern_tests(
    n_inputs: usize,
    count: usize,
    width: usize,
    seed: u64,
) -> Vec<TwoPatternTest> {
    let mut lfsr = Lfsr::maximal(width, seed);
    let mut tests = Vec::with_capacity(count);
    let mut prev = lfsr.vector(n_inputs);
    for _ in 0..count {
        lfsr.step();
        let next = lfsr.vector(n_inputs);
        tests.push(TwoPatternTest {
            v1: prev.clone(),
            v2: next.clone(),
        });
        prev = next;
    }
    tests
}

/// A phase shifter: circuit input `i` taps the XOR of several spread-out
/// register bits, decorrelating adjacent inputs across the shift — the
/// standard STUMPS-era fix for the launch-on-capture correlation of
/// [`lfsr_two_pattern_tests`].
fn phase_shifted_vector(state: u64, width: usize, n_inputs: usize) -> Vec<Lv> {
    (0..n_inputs)
        .map(|i| {
            // Three taps with co-prime strides spread each input's
            // dependence across the register.
            let b0 = (state >> ((3 * i + 1) % width)) & 1;
            let b1 = (state >> ((5 * i + 2) % width)) & 1;
            let b2 = (state >> ((7 * i + 4) % width)) & 1;
            Lv::from_bool(b0 ^ b1 ^ b2 == 1)
        })
        .collect()
}

/// Launch-on-capture tests through a phase shifter (see
/// [`lfsr_two_pattern_tests`] for why plain tapping is insufficient).
pub fn phased_lfsr_two_pattern_tests(
    n_inputs: usize,
    count: usize,
    width: usize,
    seed: u64,
) -> Vec<TwoPatternTest> {
    let mut lfsr = Lfsr::maximal(width, seed);
    let mut tests = Vec::with_capacity(count);
    let mut prev = phase_shifted_vector(lfsr.state(), width, n_inputs);
    for _ in 0..count {
        lfsr.step();
        let next = phase_shifted_vector(lfsr.state(), width, n_inputs);
        tests.push(TwoPatternTest {
            v1: prev.clone(),
            v2: next.clone(),
        });
        prev = next;
    }
    tests
}

/// A multiple-input signature register (MISR) modeled as a simple
/// polynomial compactor over the observed output bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Misr {
    state: u64,
}

impl Misr {
    /// Creates an empty signature register.
    pub(crate) fn new() -> Self {
        Misr { state: 0xDEAD_BEEF }
    }

    /// Absorbs one captured output vector.
    pub(crate) fn absorb(&mut self, outputs: &[Lv]) {
        for (i, &o) in outputs.iter().enumerate() {
            let bit = match o {
                Lv::One => 1u64,
                Lv::Zero => 0,
                Lv::X => 1, // deterministic circuits never produce X here
            };
            // Simple CRC-like mixing.
            let fb = (self.state >> 63) ^ bit;
            self.state = (self.state << 1) ^ (fb * 0x1B) ^ (i as u64);
        }
    }

    /// Final signature.
    pub(crate) fn signature(&self) -> u64 {
        self.state
    }
}

/// Result of one BIST session.
#[derive(Debug, Clone)]
pub struct BistResult {
    /// Tests applied.
    pub tests: usize,
    /// Good-machine signature.
    pub golden: u64,
    /// Observed (possibly faulty) signature.
    pub observed: u64,
}

impl BistResult {
    /// Whether the session flags a failure.
    pub fn fails(&self) -> bool {
        self.golden != self.observed
    }
}

/// Runs a BIST session against a (possibly faulty) circuit: applies the
/// LFSR two-pattern stream, captures the frame-2 primary outputs through
/// the MISR and compares to the golden signature.
///
/// The faulty capture uses the gate-level OBD fault semantics (output
/// holds its launch value when the defect is excited). Per-test fault
/// responses come from one packed [`PpsfpEngine`] detection row rather
/// than a scalar simulation per pattern.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_bist(
    nl: &Netlist,
    fault: Option<&Fault>,
    tests: &[TwoPatternTest],
) -> Result<BistResult, AtpgError> {
    let order = nl.levelize()?;
    let sim = FaultSimulator::new(nl)?;
    let fail_row = match fault {
        Some(f) => {
            let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, tests)?;
            let mut scratch = PpsfpScratch::default();
            Some(engine.detection_row(f, &mut scratch)?)
        }
        None => None,
    };
    let mut golden = Misr::new();
    let mut observed = Misr::new();
    for (i, t) in tests.iter().enumerate() {
        let good = simulate_with_order(nl, &order, &t.v2)?;
        let good_outs = good.outputs(nl);
        golden.absorb(&good_outs);
        let fails = fail_row.as_ref().is_some_and(|row| row[i]);
        if fails {
            // The captured response differs at one or more outputs; flip
            // the first one for the signature (any corruption breaks the
            // signature with overwhelming probability).
            let mut bad = good_outs.clone();
            bad[0] = !bad[0];
            observed.absorb(&bad);
        } else {
            observed.absorb(&good_outs);
        }
    }
    Ok(BistResult {
        tests: tests.len(),
        golden: golden.signature(),
        observed: observed.signature(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_core::faultmodel::{ObdFault, Polarity};
    use obd_core::BreakdownStage;
    use obd_logic::circuits::{fig8_sum_circuit, ripple_carry_adder};

    #[test]
    fn maximal_lfsr_periods() {
        for width in [3usize, 4, 5, 7, 8] {
            let lfsr = Lfsr::maximal(width, 1);
            assert_eq!(
                lfsr.period(),
                (1u64 << width) - 1,
                "width {width} must be maximal-length"
            );
        }
    }

    #[test]
    #[should_panic(expected = "seed must be nonzero")]
    fn zero_seed_rejected() {
        Lfsr::maximal(4, 0);
    }

    #[test]
    fn lfsr_tests_chain_consecutively() {
        let tests = lfsr_two_pattern_tests(5, 10, 8, 0x5A);
        for w in tests.windows(2) {
            assert_eq!(w[0].v2, w[1].v1, "launch-on-capture chaining");
        }
    }

    #[test]
    fn misr_distinguishes_single_bit_flip() {
        let mut a = Misr::new();
        let mut b = Misr::new();
        for k in 0..50 {
            let v = vec![Lv::from_bool(k % 3 == 0), Lv::from_bool(k % 5 == 0)];
            a.absorb(&v);
            let mut w = v.clone();
            if k == 25 {
                w[0] = !w[0];
            }
            b.absorb(&w);
        }
        assert_ne!(a.signature(), b.signature());
    }

    /// The phase shifter makes previously unreachable pairs reachable.
    #[test]
    fn phase_shifter_reaches_correlated_pairs() {
        // (110,100) is unreachable for plain tapping: frame-2 input 1
        // must equal frame-1 input 0 (1), but the pair needs 0.
        let plain = lfsr_two_pattern_tests(3, 2000, 12, 0xACE1);
        let target_v1 = vec![Lv::One, Lv::One, Lv::Zero];
        let target_v2 = vec![Lv::One, Lv::Zero, Lv::Zero];
        assert!(
            !plain.iter().any(|t| t.v1 == target_v1 && t.v2 == target_v2),
            "plain LOC tapping cannot produce (110,100)"
        );
        let phased = phased_lfsr_two_pattern_tests(3, 2000, 12, 0xACE1);
        assert!(
            phased
                .iter()
                .any(|t| t.v1 == target_v1 && t.v2 == target_v2),
            "the phase shifter must reach (110,100)"
        );
    }

    #[test]
    fn healthy_circuit_passes_bist() {
        let nl = fig8_sum_circuit();
        let tests = lfsr_two_pattern_tests(3, 64, 8, 0x33);
        let r = run_bist(&nl, None, &tests).unwrap();
        assert!(!r.fails());
    }

    #[test]
    fn defective_circuit_fails_bist_with_enough_patterns() {
        let nl = fig8_sum_circuit();
        let g6 = nl.driver(nl.find_net("g6").unwrap()).unwrap();
        let fault = Fault::Obd(ObdFault {
            gate: g6,
            pin: 0,
            polarity: Polarity::Pmos,
            stage: BreakdownStage::Mbd2,
        });
        let tests = lfsr_two_pattern_tests(3, 128, 8, 0x33);
        let r = run_bist(&nl, Some(&fault), &tests).unwrap();
        assert!(r.fails(), "128 LFSR patterns should hit the excitation");
    }

    #[test]
    fn bist_coverage_grows_with_pattern_count_on_wider_circuit() {
        let nl = ripple_carry_adder(3);
        let faults = crate::fault::obd_faults(&nl, BreakdownStage::Mbd2, true);
        let sim = FaultSimulator::new(&nl).unwrap();
        let mut covered_small = 0;
        let mut covered_large = 0;
        for (count, covered) in [(8, &mut covered_small), (256, &mut covered_large)] {
            let tests = lfsr_two_pattern_tests(nl.inputs().len(), count, 9, 0x55);
            let det = sim.grade(&faults, &tests).unwrap();
            *covered = det.into_iter().filter(|&d| d).count();
        }
        assert!(covered_large >= covered_small);
        assert!(covered_large > 0);
    }
}
