//! Random-pattern baselines — the "traditional pattern generator" the
//! paper shows to be insufficient for PMOS OBD defects.

use obd_logic::value::Lv;

use crate::fault::TwoPatternTest;
use crate::rng::XorShift64Star;

/// Uniformly random two-pattern tests.
pub fn random_two_pattern(n_inputs: usize, count: usize, seed: u64) -> Vec<TwoPatternTest> {
    let mut rng = XorShift64Star::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let v1: Vec<Lv> = (0..n_inputs)
                .map(|_| Lv::from_bool(rng.gen_bool()))
                .collect();
            let v2: Vec<Lv> = (0..n_inputs)
                .map(|_| Lv::from_bool(rng.gen_bool()))
                .collect();
            TwoPatternTest { v1, v2 }
        })
        .collect()
}

/// Launch-on-shift-style tests: the second vector differs from the first
/// in exactly one randomly chosen position — a common constraint of scan
/// based two-pattern delivery.
pub fn single_input_change(n_inputs: usize, count: usize, seed: u64) -> Vec<TwoPatternTest> {
    let mut rng = XorShift64Star::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let v1: Vec<Lv> = (0..n_inputs)
                .map(|_| Lv::from_bool(rng.gen_bool()))
                .collect();
            let mut v2 = v1.clone();
            let flip = rng.gen_range(n_inputs);
            v2[flip] = !v2[flip];
            TwoPatternTest { v1, v2 }
        })
        .collect()
}

/// Every exhaustive two-pattern test over `n` inputs with `v1 != v2` —
/// usable only for small `n`; the §4.3 candidate universe.
///
/// # Panics
///
/// Panics if `n > 8`.
pub fn exhaustive_two_pattern(n: usize) -> Vec<TwoPatternTest> {
    assert!(n <= 8, "exhaustive set too large");
    obd_core::excitation::all_input_pairs(n)
        .into_iter()
        .map(|(v1, v2)| TwoPatternTest::from_bools(&v1, &v2))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_with_seed() {
        let a = random_two_pattern(5, 10, 42);
        let b = random_two_pattern(5, 10, 42);
        assert_eq!(a, b);
        let c = random_two_pattern(5, 10, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn single_input_change_flips_exactly_one() {
        for t in single_input_change(8, 50, 7) {
            assert_eq!(t.switching_inputs(), 1, "{}", t.render());
        }
    }

    #[test]
    fn exhaustive_count() {
        assert_eq!(exhaustive_two_pattern(3).len(), 56);
    }
}
