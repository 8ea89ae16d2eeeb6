//! Three-valued logic.

use std::fmt;
use std::ops::Not;

/// A three-valued logic level: `0`, `1` or unknown `X`.
///
/// The ordering of unknowns follows the usual pessimistic Kleene rules:
/// `0 AND X = 0`, `1 AND X = X`, and so on.
///
/// The discriminants are fixed so `lv as u8 & 1` is the `One` flag
/// (with `X` reading as 0), which the pattern packer gathers eight
/// values at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum Lv {
    /// Logic low.
    Zero = 0,
    /// Logic high.
    One = 1,
    /// Unknown / uninitialized.
    #[default]
    X = 2,
}

impl Lv {
    /// Converts a bool.
    pub fn from_bool(b: bool) -> Self {
        if b {
            Lv::One
        } else {
            Lv::Zero
        }
    }

    /// `Some(bool)` for known values, `None` for `X`.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Lv::Zero => Some(false),
            Lv::One => Some(true),
            Lv::X => None,
        }
    }

    /// Whether the value is known (`0` or `1`).
    pub fn is_known(self) -> bool {
        self != Lv::X
    }

    /// Kleene AND.
    pub(crate) fn and(self, other: Lv) -> Lv {
        match (self, other) {
            (Lv::Zero, _) | (_, Lv::Zero) => Lv::Zero,
            (Lv::One, Lv::One) => Lv::One,
            _ => Lv::X,
        }
    }

    /// Kleene OR.
    pub(crate) fn or(self, other: Lv) -> Lv {
        match (self, other) {
            (Lv::One, _) | (_, Lv::One) => Lv::One,
            (Lv::Zero, Lv::Zero) => Lv::Zero,
            _ => Lv::X,
        }
    }

    /// Kleene XOR (`X` if either operand is unknown).
    pub(crate) fn xor(self, other: Lv) -> Lv {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => Lv::from_bool(a ^ b),
            _ => Lv::X,
        }
    }
}

impl Not for Lv {
    type Output = Lv;

    fn not(self) -> Lv {
        match self {
            Lv::Zero => Lv::One,
            Lv::One => Lv::Zero,
            Lv::X => Lv::X,
        }
    }
}

impl From<bool> for Lv {
    fn from(b: bool) -> Self {
        Lv::from_bool(b)
    }
}

impl fmt::Display for Lv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Lv::Zero => '0',
            Lv::One => '1',
            Lv::X => 'X',
        };
        write!(f, "{c}")
    }
}

/// Formats a slice of logic values as a compact string.
pub fn format_vector(v: &[Lv]) -> String {
    v.iter().map(|x| x.to_string()).collect()
}

/// Iterates all `2^n` fully-specified input vectors in ascending binary
/// order (index 0 ↦ all zeros, MSB-first bit order).
pub fn all_vectors(n: usize) -> impl Iterator<Item = Vec<Lv>> {
    (0u64..(1u64 << n)).map(move |bits| {
        (0..n)
            .map(|i| Lv::from_bool((bits >> (n - 1 - i)) & 1 == 1))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kleene_and_truth_table() {
        assert_eq!(Lv::Zero.and(Lv::X), Lv::Zero);
        assert_eq!(Lv::X.and(Lv::Zero), Lv::Zero);
        assert_eq!(Lv::One.and(Lv::X), Lv::X);
        assert_eq!(Lv::One.and(Lv::One), Lv::One);
        assert_eq!(Lv::X.and(Lv::X), Lv::X);
    }

    #[test]
    fn kleene_or_truth_table() {
        assert_eq!(Lv::One.or(Lv::X), Lv::One);
        assert_eq!(Lv::Zero.or(Lv::Zero), Lv::Zero);
        assert_eq!(Lv::Zero.or(Lv::X), Lv::X);
    }

    #[test]
    fn xor_propagates_unknowns() {
        assert_eq!(Lv::One.xor(Lv::Zero), Lv::One);
        assert_eq!(Lv::One.xor(Lv::One), Lv::Zero);
        assert_eq!(Lv::One.xor(Lv::X), Lv::X);
    }

    #[test]
    fn not_inverts_known_only() {
        assert_eq!(!Lv::Zero, Lv::One);
        assert_eq!(!Lv::One, Lv::Zero);
        assert_eq!(!Lv::X, Lv::X);
    }

    #[test]
    fn discriminants_are_pinned() {
        assert_eq!([Lv::Zero, Lv::One, Lv::X].map(|v| v as u8), [0, 1, 2]);
        assert_eq!(std::mem::size_of::<Lv>(), 1);
    }

    #[test]
    fn vector_formats_compactly() {
        assert_eq!(format_vector(&[Lv::Zero, Lv::One, Lv::X]), "01X");
    }

    #[test]
    fn all_vectors_enumerates_binary_order() {
        let vs: Vec<_> = all_vectors(2).collect();
        assert_eq!(vs.len(), 4);
        assert_eq!(format_vector(&vs[0]), "00");
        assert_eq!(format_vector(&vs[1]), "01");
        assert_eq!(format_vector(&vs[2]), "10");
        assert_eq!(format_vector(&vs[3]), "11");
    }
}
