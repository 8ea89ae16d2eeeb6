//! `[u64; N]` super-lane pattern words and wide pattern blocks.
//!
//! A [`LaneWord`] carries `64 * N` patterns at once: lane word `i` holds
//! patterns `64*i .. 64*i + 63`. All bitwise operations are elementwise
//! over the fixed-size array, which the compiler autovectorizes (N = 4
//! is one AVX2 register, N = 8 is one AVX-512 register or two AVX2 ops),
//! so widening the word amortizes the per-gate bookkeeping of a packed
//! simulation sweep over eight times as many patterns.
//!
//! [`WideBlock`] holds up to `64 * N` fully-specified input vectors
//! packed one [`LaneWord`] per primary input. The packing entry points all
//! enforce the block capacity and vector-width invariants.

use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

use crate::value::Lv;
use crate::LogicError;

/// A super-lane word: `N` packed 64-pattern lanes, `64 * N` patterns
/// total. Pattern `k` lives at bit `k % 64` of lane `k / 64`.
#[derive(Debug, Clone, Copy, Eq)]
pub struct LaneWord<const N: usize>(pub [u64; N]);

/// Equality is one XOR and an OR-fold over the lanes, with no early
/// exit, so it stays inline and vectorizes. The derived array equality
/// compiles a wide word's comparison to a `bcmp` call, which cost the
/// cone walk half its time per gate at `N = 8`.
impl<const N: usize> PartialEq for LaneWord<N> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        (*self ^ *other).is_zero()
    }
}

impl<const N: usize> LaneWord<N> {
    /// All patterns 0.
    pub const ZERO: Self = Self([0; N]);
    /// All patterns 1.
    pub const ONES: Self = Self([!0; N]);
    /// Patterns per word.
    pub const BITS: usize = 64 * N;

    /// Whether any pattern bit is set: an OR-fold over the lanes with no
    /// early exit, which vectorizes.
    #[inline]
    pub fn any(self) -> bool {
        self.0.iter().fold(0, |acc, &w| acc | w) != 0
    }

    /// Whether no pattern bit is set.
    #[inline]
    pub fn is_zero(self) -> bool {
        !self.any()
    }

    /// Pattern bit `k`.
    #[inline]
    pub fn bit(self, k: usize) -> bool {
        (self.0[k / 64] >> (k % 64)) & 1 == 1
    }

    /// Sets pattern bit `k`.
    #[inline]
    pub fn set_bit(&mut self, k: usize) {
        self.0[k / 64] |= 1u64 << (k % 64);
    }

    /// The valid-lane mask for a block of `count` patterns: the first
    /// `count` bits set.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the word's `64 * N` capacity.
    pub(crate) fn mask(count: usize) -> Self {
        assert!(
            count <= Self::BITS,
            "mask of {count} exceeds {}",
            Self::BITS
        );
        let mut w = [0u64; N];
        for (i, lane) in w.iter_mut().enumerate() {
            let lo = i * 64;
            *lane = if count >= lo + 64 {
                !0
            } else if count > lo {
                (1u64 << (count - lo)) - 1
            } else {
                0
            };
        }
        Self(w)
    }

    /// Indices of set pattern bits, ascending.
    pub fn set_bits(self) -> impl Iterator<Item = usize> {
        self.0.into_iter().enumerate().flat_map(|(lane, word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let w = w & (w - 1);
                (w != 0).then_some(w)
            })
            .map(move |w| lane * 64 + w.trailing_zeros() as usize)
        })
    }
}

impl<const N: usize> Default for LaneWord<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> BitAnd for LaneWord<N> {
    type Output = Self;
    #[inline]
    fn bitand(mut self, rhs: Self) -> Self {
        self &= rhs;
        self
    }
}

impl<const N: usize> BitAndAssign for LaneWord<N> {
    #[inline]
    fn bitand_assign(&mut self, rhs: Self) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a &= *b;
        }
    }
}

impl<const N: usize> BitOr for LaneWord<N> {
    type Output = Self;
    #[inline]
    fn bitor(mut self, rhs: Self) -> Self {
        self |= rhs;
        self
    }
}

impl<const N: usize> BitOrAssign for LaneWord<N> {
    #[inline]
    fn bitor_assign(&mut self, rhs: Self) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a |= *b;
        }
    }
}

impl<const N: usize> BitXor for LaneWord<N> {
    type Output = Self;
    #[inline]
    fn bitxor(mut self, rhs: Self) -> Self {
        self ^= rhs;
        self
    }
}

impl<const N: usize> BitXorAssign for LaneWord<N> {
    #[inline]
    fn bitxor_assign(&mut self, rhs: Self) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a ^= *b;
        }
    }
}

impl<const N: usize> Not for LaneWord<N> {
    type Output = Self;
    #[inline]
    fn not(mut self) -> Self {
        for a in self.0.iter_mut() {
            *a = !*a;
        }
        self
    }
}

/// A block of up to `64 * N` fully-specified input patterns, one
/// [`LaneWord`] per primary input.
#[derive(Debug, Clone, Default)]
pub struct WideBlock<const N: usize> {
    /// `words[i]` is the packed values of primary input `i` across the
    /// block's patterns.
    words: Vec<LaneWord<N>>,
    count: usize,
}

impl<const N: usize> WideBlock<N> {
    /// Patterns per block.
    pub const CAPACITY: usize = 64 * N;

    fn check_shape<V: AsRef<[Lv]>>(vectors: &[V]) -> Result<usize, LogicError> {
        if vectors.len() > Self::CAPACITY {
            return Err(LogicError::PatternBlockTooLarge {
                found: vectors.len(),
                capacity: Self::CAPACITY,
            });
        }
        let n_inputs = vectors.first().map_or(0, |v| v.as_ref().len());
        if let Some(v) = vectors.iter().find(|v| v.as_ref().len() != n_inputs) {
            return Err(LogicError::InputCountMismatch {
                expected: n_inputs,
                found: v.as_ref().len(),
            });
        }
        Ok(n_inputs)
    }

    /// Packs each 64-pattern lane by a bit transpose: per slab of up to
    /// 64 inputs, row `k` gathers pattern `k`'s `One` flags, and the
    /// transposed slab's row `j` is input `j`'s lane word.
    fn pack_checked<V: AsRef<[Lv]>>(vectors: &[V], n_inputs: usize) -> Self {
        let mut words = vec![LaneWord::ZERO; n_inputs];
        let mut rows = [0u64; 64];
        for (lane, patterns) in vectors.chunks(64).enumerate() {
            for first in (0..n_inputs).step_by(64) {
                let inputs = first..n_inputs.min(first + 64);
                for (row, v) in rows.iter_mut().zip(patterns) {
                    let values = &v.as_ref()[inputs.clone()];
                    // A full slab's rows have a constant length, so their
                    // eight gathers unroll.
                    *row = match <&[Lv; 64]>::try_from(values) {
                        Ok(full) => row_flags(full),
                        Err(_) => row_flags(values),
                    };
                }
                rows[patterns.len()..].fill(0);
                transpose64(&mut rows);
                for (w, &bits) in words[inputs].iter_mut().zip(&rows) {
                    w.0[lane] = bits;
                }
            }
        }
        WideBlock {
            words,
            count: vectors.len(),
        }
    }

    /// Packs up to `64 * N` vectors (each `vectors[k][i]` is PI `i` of
    /// pattern `k`). Unknown (`X`) values are treated as 0.
    ///
    /// # Errors
    ///
    /// * [`LogicError::PatternBlockTooLarge`] if more than `64 * N`
    ///   vectors are supplied.
    /// * [`LogicError::InputCountMismatch`] if the vectors have
    ///   inconsistent lengths (ragged input).
    pub fn pack(vectors: &[Vec<Lv>]) -> Result<Self, LogicError> {
        let n_inputs = Self::check_shape(vectors)?;
        Ok(Self::pack_checked(vectors, n_inputs))
    }

    /// [`WideBlock::pack`] over borrowed vector slices, so callers packing
    /// a projection of a larger structure (e.g. the launch frames of a
    /// two-pattern test set) need not copy each vector first.
    ///
    /// # Errors
    ///
    /// Same shape checks as [`WideBlock::pack`].
    pub fn pack_slices(vectors: &[&[Lv]]) -> Result<Self, LogicError> {
        let n_inputs = Self::check_shape(vectors)?;
        Ok(Self::pack_checked(vectors, n_inputs))
    }

    /// Number of primary inputs the block was packed for.
    pub(crate) fn num_inputs(&self) -> usize {
        self.words.len()
    }

    /// Mask with one bit set per valid pattern.
    pub fn mask(&self) -> LaneWord<N> {
        LaneWord::mask(self.count)
    }

    /// Packed word for primary input `i`.
    pub(crate) fn word(&self, i: usize) -> LaneWord<N> {
        self.words[i]
    }
}

/// Bit `j` set iff `values[j]` is `One` (at most 64 values; `0` and `X`
/// read as 0). Eight values at a time: each value's byte carries its
/// `One` flag in bit 0 (`Lv`'s pinned discriminants), and one multiply
/// gathers the eight flags into the top byte.
#[inline(always)]
fn row_flags(values: &[Lv]) -> u64 {
    let (groups, tail) = values.as_chunks::<8>();
    let mut bits = 0;
    for (g, group) in groups.iter().enumerate() {
        let flags = u64::from_le_bytes(group.map(|lv| lv as u8)) & 0x0101_0101_0101_0101;
        bits |= (flags.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
    }
    for (j, &lv) in tail.iter().enumerate() {
        bits |= u64::from(lv as u8 & 1) << (8 * groups.len() + j);
    }
    bits
}

/// Transposes a 64×64 bit matrix in place: bit `c` of row `r` moves to
/// bit `r` of row `c`. Each round swaps the off-diagonal `W × W` blocks
/// of every `2W × 2W` square, `W` halving from 32 to 1.
#[inline]
pub fn transpose64(rows: &mut [u64; 64]) {
    swap_blocks::<32>(rows, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<16>(rows, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<8>(rows, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<4>(rows, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<2>(rows, 0x3333_3333_3333_3333);
    swap_blocks::<1>(rows, 0x5555_5555_5555_5555);
}

/// One round of [`transpose64`]: `mask` selects the low `W` columns of
/// every `2W`. A constant `W` lets the row loop vectorize.
#[inline(always)]
fn swap_blocks<const W: usize>(rows: &mut [u64; 64], mask: u64) {
    for square in rows.chunks_exact_mut(2 * W) {
        let (top, bottom) = square.split_at_mut(W);
        for (t, b) in top.iter_mut().zip(bottom) {
            let swap = ((*t >> W) ^ *b) & mask;
            *b ^= swap;
            *t ^= swap << W;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::all_vectors;

    #[test]
    fn laneword_ops_are_elementwise() {
        let a = LaneWord::<4>([0b1100, 1, !0, 0]);
        let b = LaneWord::<4>([0b1010, 3, 0, !0]);
        assert_eq!((a & b).0, [0b1000, 1, 0, 0]);
        assert_eq!((a | b).0, [0b1110, 3, !0, !0]);
        assert_eq!((a ^ b).0, [0b0110, 2, !0, !0]);
        assert_eq!((!a).0, [!0b1100u64, !1, 0, !0]);
        assert!(a.any());
        assert!(LaneWord::<4>::ZERO.is_zero());
    }

    #[test]
    fn laneword_bit_addressing_crosses_lanes() {
        let mut w = LaneWord::<2>::ZERO;
        w.set_bit(3);
        w.set_bit(64);
        w.set_bit(127);
        assert!(w.bit(3) && w.bit(64) && w.bit(127));
        assert!(!w.bit(4) && !w.bit(63));
        assert_eq!(w.0[0], 0b1000);
        assert_eq!(w.0[1], 1 | (1 << 63));
        assert_eq!(w.set_bits().collect::<Vec<_>>(), vec![3, 64, 127]);
    }

    #[test]
    fn mask_covers_partial_lanes() {
        assert_eq!(LaneWord::<2>::mask(0).0, [0, 0]);
        assert_eq!(LaneWord::<2>::mask(5).0, [0b11111, 0]);
        assert_eq!(LaneWord::<2>::mask(64).0, [!0, 0]);
        assert_eq!(LaneWord::<2>::mask(65).0, [!0, 1]);
        assert_eq!(LaneWord::<2>::mask(128).0, [!0, !0]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn mask_rejects_overflow() {
        let _ = LaneWord::<1>::mask(65);
    }

    #[test]
    fn pack_spreads_patterns_across_lanes() {
        // 70 patterns of 1 input: pattern k is (k % 3 == 0).
        let vectors: Vec<Vec<Lv>> = (0..70).map(|k| vec![Lv::from_bool(k % 3 == 0)]).collect();
        let block = WideBlock::<2>::pack(&vectors).unwrap();
        assert_eq!(block.count, 70);
        assert_eq!(block.num_inputs(), 1);
        let w = block.word(0);
        for k in 0..70 {
            assert_eq!(w.bit(k), k % 3 == 0, "pattern {k}");
        }
        assert_eq!(block.mask(), LaneWord::mask(70));
    }

    #[test]
    fn pack_rejects_over_capacity_at_every_width() {
        fn over<const N: usize>() {
            let vectors: Vec<Vec<Lv>> = (0..(64 * N + 1)).map(|_| vec![Lv::One]).collect();
            match WideBlock::<N>::pack(&vectors) {
                Err(LogicError::PatternBlockTooLarge { found, capacity }) => {
                    assert_eq!(found, 64 * N + 1);
                    assert_eq!(capacity, 64 * N);
                }
                other => panic!("expected PatternBlockTooLarge, got {other:?}"),
            }
        }
        over::<1>();
        over::<4>();
        over::<8>();
    }

    #[test]
    fn pack_rejects_ragged_vectors() {
        let vectors = vec![vec![Lv::One, Lv::Zero], vec![Lv::One]];
        assert!(matches!(
            WideBlock::<4>::pack(&vectors),
            Err(LogicError::InputCountMismatch {
                expected: 2,
                found: 1
            })
        ));
        assert!(matches!(
            WideBlock::<1>::pack(&vectors),
            Err(LogicError::InputCountMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn narrow_block_mask_counts_patterns() {
        let vectors: Vec<_> = all_vectors(2).collect();
        let block = WideBlock::<1>::pack(&vectors).unwrap();
        assert_eq!(block.count, 4);
        assert_eq!(block.mask().0[0], 0b1111);
    }

    #[test]
    fn pack_treats_x_as_zero() {
        let block = WideBlock::<1>::pack(&[vec![Lv::X, Lv::One], vec![Lv::Zero, Lv::X]]).unwrap();
        // PI 0: X,0 -> both bits clear; PI 1: 1,X -> only bit 0 set.
        assert_eq!(block.word(0).0[0], 0b00);
        assert_eq!(block.word(1).0[0], 0b01);
        let explicit =
            WideBlock::<1>::pack(&[vec![Lv::Zero, Lv::One], vec![Lv::Zero, Lv::Zero]]).unwrap();
        assert_eq!(block.word(0), explicit.word(0));
        assert_eq!(block.word(1), explicit.word(1));
    }

    #[test]
    fn pack_slices_matches_pack() {
        let vectors: Vec<_> = all_vectors(3).collect();
        let slices: Vec<&[Lv]> = vectors.iter().map(Vec::as_slice).collect();
        let a = WideBlock::<4>::pack(&vectors).unwrap();
        let b = WideBlock::<4>::pack_slices(&slices).unwrap();
        assert_eq!(a.count, b.count);
        for i in 0..3 {
            assert_eq!(a.word(i), b.word(i));
        }
        let ragged: Vec<&[Lv]> = vec![&vectors[0], &vectors[1][..2]];
        assert!(matches!(
            WideBlock::<1>::pack_slices(&ragged),
            Err(LogicError::InputCountMismatch { .. })
        ));
    }

    /// Equality and `any` agree with their per-lane definitions when the
    /// words differ in one bit of any lane, at widths 1 and 8.
    #[test]
    fn laneword_eq_and_any_see_every_bit() {
        fn check<const N: usize>() {
            let base = LaneWord::<N>(std::array::from_fn(|i| 0x9E37_79B9_7F4A_7C15 ^ i as u64));
            assert_eq!(base, base);
            assert!(!LaneWord::<N>::ZERO.any() && LaneWord::<N>::ONES.any());
            for k in 0..LaneWord::<N>::BITS {
                let mut flipped = base;
                flipped.0[k / 64] ^= 1 << (k % 64);
                assert_ne!(base, flipped, "N={N} bit {k}");
                assert!((base ^ flipped).any(), "N={N} bit {k}");
            }
        }
        check::<1>();
        check::<8>();
    }

    /// Seeded property: the transposed pack equals a per-bit reference
    /// (bit `k % 64` of lane `k / 64` of word `i` set iff pattern `k`
    /// drives PI `i` to 1; 0 and X pack as 0) on random 0/1/X patterns at
    /// every lane boundary up to a full block, by 1–9 inputs and across
    /// the 64-input slab boundary (63, 64, 65 and 130 inputs), through
    /// both entry points.
    /// Over capacity (65 patterns at `N = 1`), and with one pattern cut
    /// short, both entry points return the same typed errors as before.
    fn pack_matches_per_bit_reference<const N: usize>(seed: u64) {
        let mut rng = crate::rng::XorShift64Star::seed_from_u64(seed);
        let inputs = [1 + rng.gen_range(9), 63, 64, 65, 130];
        for (count, n_inputs) in [1, 63, 64, 65, 64 * N]
            .into_iter()
            .flat_map(|count| inputs.map(|n| (count, n)))
        {
            let vectors: Vec<Vec<Lv>> = (0..count)
                .map(|_| {
                    (0..n_inputs)
                        .map(|_| [Lv::Zero, Lv::One, Lv::X][rng.gen_range(3)])
                        .collect()
                })
                .collect();
            let mut slices: Vec<&[Lv]> = vectors.iter().map(Vec::as_slice).collect();
            if count > WideBlock::<N>::CAPACITY {
                let too_large = Err(LogicError::PatternBlockTooLarge {
                    found: count,
                    capacity: 64 * N,
                });
                assert_eq!(WideBlock::<N>::pack(&vectors).map(|_| ()), too_large);
                assert_eq!(WideBlock::<N>::pack_slices(&slices).map(|_| ()), too_large);
                continue;
            }
            for block in [
                WideBlock::<N>::pack(&vectors).unwrap(),
                WideBlock::<N>::pack_slices(&slices).unwrap(),
            ] {
                assert_eq!(block.count, count);
                assert_eq!(block.num_inputs(), n_inputs);
                assert_eq!(block.mask(), LaneWord::mask(count));
                for i in 0..n_inputs {
                    let mut want = LaneWord::<N>::ZERO;
                    for (k, v) in vectors.iter().enumerate() {
                        if v[i] == Lv::One {
                            want.set_bit(k);
                        }
                    }
                    assert_eq!(block.word(i), want, "N={N}, {count} patterns, PI {i}");
                }
            }
            if count == 1 {
                continue; // one pattern cannot be ragged
            }
            // The first pattern sets the expected width.
            let short = rng.gen_range(count);
            slices[short] = &slices[short][..n_inputs - 1];
            let (expected, found) = if short == 0 {
                (n_inputs - 1, n_inputs)
            } else {
                (n_inputs, n_inputs - 1)
            };
            assert_eq!(
                WideBlock::<N>::pack_slices(&slices).map(|_| ()),
                Err(LogicError::InputCountMismatch { expected, found })
            );
        }
    }

    #[test]
    fn pack_matches_per_bit_reference_on_random_patterns() {
        for seed in [1, 2, 3] {
            pack_matches_per_bit_reference::<1>(seed);
            pack_matches_per_bit_reference::<8>(seed);
        }
    }

    #[test]
    fn empty_pack_is_empty() {
        let block = WideBlock::<8>::pack(&[]).unwrap();
        assert_eq!(block.count, 0);
        assert!(block.mask().is_zero());
        let narrow = WideBlock::<1>::pack(&[]).unwrap();
        assert_eq!(narrow.count, 0);
        assert_eq!(narrow.mask().0[0], 0);
    }
}
