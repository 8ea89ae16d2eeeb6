//! A small, dependency-free, seedable pseudo-random generator.
//!
//! The suite must build and test with no network access, so the pattern
//! generators cannot pull in the `rand` crate. This xorshift64* generator
//! (Vigna, "An experimental exploration of Marsaglia's xorshift
//! generators") is more than adequate for test-pattern sampling and Monte
//! Carlo process corners: period 2^64 − 1, passes BigCrush when the output
//! is multiplied out, and — the property the suite actually relies on —
//! a given seed always reproduces the same sequence on every platform.

/// A xorshift64* generator. Streams from different seeds are decorrelated
/// by a SplitMix64 seed scramble, so nearby seeds (0, 1, 2…) do not
/// produce visibly related sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// Creates a generator from a seed. Any seed is acceptable, including
    /// zero (the internal state is scrambled to be nonzero).
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 finalizer: guarantees a nonzero, well-mixed state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift64Star {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// Creates a generator whose state is exactly `state`, for callers
    /// that mix their own seeds (the Monte Carlo corner streams).
    ///
    /// # Panics
    ///
    /// Panics if `state == 0`, the one state xorshift never leaves.
    pub fn from_state(state: u64) -> Self {
        assert_ne!(state, 0, "xorshift64* state must be nonzero");
        XorShift64Star { state }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform `f64` in `[0, 1)`, using the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// A uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_range upper bound must be positive");
        // Multiply-shift rejection (Lemire): unbiased without division in
        // the common case.
        let n = n as u64;
        let mut m = (self.next_u64() as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = (self.next_u64() as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// A fair coin flip.
    pub fn gen_bool(&mut self) -> bool {
        // Use a high bit; low bits of xorshift outputs are weaker.
        self.next_u64() >> 63 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = XorShift64Star::seed_from_u64(42);
        let mut b = XorShift64Star::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64Star::seed_from_u64(1);
        let mut b = XorShift64Star::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64Star::seed_from_u64(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = XorShift64Star::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = XorShift64Star::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.gen_range(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut r = XorShift64Star::seed_from_u64(11);
        let ones = (0..10_000).filter(|_| r.gen_bool()).count();
        assert!((4_500..5_500).contains(&ones), "ones = {ones}");
    }
}
