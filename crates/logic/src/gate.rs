//! Primitive gate library.

use std::fmt;

use crate::value::Lv;

/// Kinds of primitive combinational gates.
///
/// `Inv` and `Buf` take exactly one input; all other kinds take two or
/// more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Inverter.
    Inv,
    /// Buffer.
    Buf,
    /// AND.
    And,
    /// OR.
    Or,
    /// NAND — the paper's workhorse gate.
    Nand,
    /// NOR.
    Nor,
    /// XOR.
    Xor,
    /// XNOR.
    Xnor,
}

impl GateKind {
    /// Short uppercase name, used by the `.bench`-style text format.
    pub(crate) fn name(self) -> &'static str {
        match self {
            GateKind::Inv => "NOT",
            GateKind::Buf => "BUF",
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
        }
    }

    /// Parses a text-format gate name (case-insensitive; `INV` and `NOT`
    /// both map to [`GateKind::Inv`]).
    pub(crate) fn parse(s: &str) -> Option<GateKind> {
        match s.to_ascii_uppercase().as_str() {
            "NOT" | "INV" => Some(GateKind::Inv),
            "BUF" | "BUFF" => Some(GateKind::Buf),
            "AND" => Some(GateKind::And),
            "OR" => Some(GateKind::Or),
            "NAND" => Some(GateKind::Nand),
            "NOR" => Some(GateKind::Nor),
            "XOR" => Some(GateKind::Xor),
            "XNOR" => Some(GateKind::Xnor),
            _ => None,
        }
    }

    /// Whether `n` inputs is a legal arity for this kind.
    pub(crate) fn arity_ok(self, n: usize) -> bool {
        match self {
            GateKind::Inv | GateKind::Buf => n == 1,
            _ => n >= 2,
        }
    }

    /// Human-readable arity description.
    pub(crate) fn arity_description(self) -> String {
        match self {
            GateKind::Inv | GateKind::Buf => "exactly 1".to_string(),
            _ => "2 or more".to_string(),
        }
    }

    /// Evaluates the gate over three-valued inputs.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if the arity is illegal; netlist
    /// construction enforces arity, so simulation can assume it.
    pub fn eval(self, inputs: &[Lv]) -> Lv {
        debug_assert!(self.arity_ok(inputs.len()));
        match self {
            GateKind::Inv => !inputs[0],
            GateKind::Buf => inputs[0],
            GateKind::And => inputs.iter().copied().fold(Lv::One, Lv::and),
            GateKind::Or => inputs.iter().copied().fold(Lv::Zero, Lv::or),
            GateKind::Nand => !inputs.iter().copied().fold(Lv::One, Lv::and),
            GateKind::Nor => !inputs.iter().copied().fold(Lv::Zero, Lv::or),
            GateKind::Xor => inputs.iter().copied().fold(Lv::Zero, Lv::xor),
            GateKind::Xnor => !inputs.iter().copied().fold(Lv::Zero, Lv::xor),
        }
    }

    /// Evaluates the gate over packed 64-pattern two-valued words (bit `i`
    /// of each word is pattern `i`).
    #[cfg(test)]
    pub(crate) fn eval_packed(self, inputs: &[u64]) -> u64 {
        match self {
            GateKind::Inv => !inputs[0],
            GateKind::Buf => inputs[0],
            GateKind::And => inputs.iter().fold(!0u64, |a, &b| a & b),
            GateKind::Or => inputs.iter().fold(0u64, |a, &b| a | b),
            GateKind::Nand => !inputs.iter().fold(!0u64, |a, &b| a & b),
            GateKind::Nor => !inputs.iter().fold(0u64, |a, &b| a | b),
            GateKind::Xor => inputs.iter().fold(0u64, |a, &b| a ^ b),
            GateKind::Xnor => !inputs.iter().fold(0u64, |a, &b| a ^ b),
        }
    }

    /// The *controlling value* of the gate, if it has one: an input at this
    /// value forces the output regardless of the other inputs (AND/NAND: 0,
    /// OR/NOR: 1). XOR-family and single-input gates have none.
    pub fn controlling_value(self) -> Option<Lv> {
        match self {
            GateKind::And | GateKind::Nand => Some(Lv::Zero),
            GateKind::Or | GateKind::Nor => Some(Lv::One),
            _ => None,
        }
    }

    /// Whether the gate inverts (output polarity relative to the underlying
    /// AND/OR/XOR/identity function).
    pub fn inverting(self) -> bool {
        matches!(
            self,
            GateKind::Inv | GateKind::Nand | GateKind::Nor | GateKind::Xnor
        )
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nand_truth_table() {
        use Lv::*;
        assert_eq!(GateKind::Nand.eval(&[Zero, Zero]), One);
        assert_eq!(GateKind::Nand.eval(&[Zero, One]), One);
        assert_eq!(GateKind::Nand.eval(&[One, Zero]), One);
        assert_eq!(GateKind::Nand.eval(&[One, One]), Zero);
        // Controlling zero dominates X.
        assert_eq!(GateKind::Nand.eval(&[Zero, X]), One);
        assert_eq!(GateKind::Nand.eval(&[One, X]), X);
    }

    #[test]
    fn nor_truth_table() {
        use Lv::*;
        assert_eq!(GateKind::Nor.eval(&[Zero, Zero]), One);
        assert_eq!(GateKind::Nor.eval(&[One, X]), Zero);
        assert_eq!(GateKind::Nor.eval(&[Zero, X]), X);
    }

    #[test]
    fn wide_gates() {
        use Lv::*;
        assert_eq!(GateKind::And.eval(&[One, One, One]), One);
        assert_eq!(GateKind::And.eval(&[One, Zero, One]), Zero);
        assert_eq!(GateKind::Xor.eval(&[One, One, One]), One);
        assert_eq!(GateKind::Xnor.eval(&[One, One]), One);
    }

    #[test]
    fn packed_matches_scalar_on_nand() {
        // Patterns: bit0 = (0,0), bit1 = (0,1), bit2 = (1,0), bit3 = (1,1).
        let a = 0b1100u64;
        let b = 0b1010u64;
        let y = GateKind::Nand.eval_packed(&[a, b]);
        assert_eq!(y & 0b1111, 0b0111);
    }

    #[test]
    fn parse_and_name_roundtrip() {
        for k in [
            GateKind::Inv,
            GateKind::Buf,
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            assert_eq!(GateKind::parse(k.name()), Some(k));
        }
        assert_eq!(GateKind::parse("inv"), Some(GateKind::Inv));
        assert_eq!(GateKind::parse("bogus"), None);
    }

    #[test]
    fn arity_rules() {
        assert!(GateKind::Inv.arity_ok(1));
        assert!(!GateKind::Inv.arity_ok(2));
        assert!(GateKind::Nand.arity_ok(2));
        assert!(GateKind::Nand.arity_ok(4));
        assert!(!GateKind::Nand.arity_ok(1));
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::Nand.controlling_value(), Some(Lv::Zero));
        assert_eq!(GateKind::Nor.controlling_value(), Some(Lv::One));
        assert_eq!(GateKind::Xor.controlling_value(), None);
    }
}
