//! Static CMOS cell definitions.

use crate::topology::SpNet;

/// A static CMOS cell: named, with `num_inputs` pins, a pull-down network
/// of NMOS transistors (conducting pulls the output to 0 when a pin is 1)
/// and a pull-up network of PMOS transistors (conducting pulls the output
/// to 1 when a pin is 0).
///
/// For standard fully-complementary cells the pull-up is the structural
/// dual of the pull-down, which [`Cell::from_pulldown`] derives
/// automatically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Cell type name, e.g. `"NAND2"`.
    pub name: String,
    /// Number of input pins.
    pub num_inputs: usize,
    /// NMOS network between the output and ground.
    pub pulldown: SpNet,
    /// PMOS network between VDD and the output.
    pub pullup: SpNet,
}

impl Cell {
    /// Builds a complementary cell from its pull-down network; the pull-up
    /// is the dual.
    ///
    /// # Panics
    ///
    /// Panics if the network references a pin `>= num_inputs`.
    pub fn from_pulldown(name: &str, num_inputs: usize, pulldown: SpNet) -> Self {
        if let Some(mp) = pulldown.max_pin() {
            assert!(mp < num_inputs, "pin {mp} out of range for {name}");
        }
        let pullup = pulldown.dual();
        Cell {
            name: name.to_string(),
            num_inputs,
            pulldown,
            pullup,
        }
    }

    /// An inverter.
    pub fn inverter() -> Self {
        Cell::from_pulldown("INV", 1, SpNet::Leaf(0))
    }

    /// An `n`-input NAND: series pull-down, parallel pull-up.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn nand(n: usize) -> Self {
        assert!(n >= 2, "NAND needs at least 2 inputs");
        Cell::from_pulldown(&format!("NAND{n}"), n, SpNet::series_chain(n))
    }

    /// An `n`-input NOR: parallel pull-down, series pull-up.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn nor(n: usize) -> Self {
        assert!(n >= 2, "NOR needs at least 2 inputs");
        Cell::from_pulldown(&format!("NOR{n}"), n, SpNet::parallel_bank(n))
    }

    /// AOI21: `Y = !((A·B) + C)` with pins `(A, B, C) = (0, 1, 2)`.
    pub fn aoi21() -> Self {
        Cell::from_pulldown(
            "AOI21",
            3,
            SpNet::Parallel(vec![SpNet::series_chain(2), SpNet::Leaf(2)]),
        )
    }

    /// OAI21: `Y = !((A+B)·C)` with pins `(A, B, C) = (0, 1, 2)`.
    pub fn oai21() -> Self {
        Cell::from_pulldown(
            "OAI21",
            3,
            SpNet::Series(vec![
                SpNet::Parallel(vec![SpNet::Leaf(0), SpNet::Leaf(1)]),
                SpNet::Leaf(2),
            ]),
        )
    }

    /// AOI22: `Y = !((A·B) + (C·D))`.
    pub fn aoi22() -> Self {
        Cell::from_pulldown(
            "AOI22",
            4,
            SpNet::Parallel(vec![
                SpNet::series_chain(2),
                SpNet::Series(vec![SpNet::Leaf(2), SpNet::Leaf(3)]),
            ]),
        )
    }

    /// Logic function of the cell: `!pulldown_conducts` when inputs are
    /// fully specified (the complementary property guarantees exactly one
    /// network conducts).
    pub fn eval(&self, inputs: &[bool]) -> bool {
        debug_assert_eq!(inputs.len(), self.num_inputs);
        !self.pulldown.conducts(&|p| inputs[p])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverter_is_single_pair() {
        let c = Cell::inverter();
        assert_eq!(c.pulldown.leaves().len() + c.pullup.leaves().len(), 2);
        assert!(c.eval(&[false]));
        assert!(!c.eval(&[true]));
    }

    #[test]
    fn nand2_truth_and_structure() {
        let c = Cell::nand(2);
        assert_eq!(c.pulldown.leaves().len() + c.pullup.leaves().len(), 4);
        assert_eq!(c.pulldown, SpNet::series_chain(2));
        assert_eq!(c.pullup, SpNet::parallel_bank(2));
        assert!(c.eval(&[false, false]));
        assert!(c.eval(&[true, false]));
        assert!(!c.eval(&[true, true]));
    }

    #[test]
    fn nor3_truth() {
        let c = Cell::nor(3);
        assert_eq!(c.pulldown.leaves().len() + c.pullup.leaves().len(), 6);
        assert!(c.eval(&[false, false, false]));
        assert!(!c.eval(&[false, true, false]));
    }

    #[test]
    fn aoi21_matches_equation() {
        let c = Cell::aoi21();
        for a in [false, true] {
            for b in [false, true] {
                for x in [false, true] {
                    assert_eq!(c.eval(&[a, b, x]), !((a && b) || x));
                }
            }
        }
    }

    #[test]
    fn oai21_matches_equation() {
        let c = Cell::oai21();
        for a in [false, true] {
            for b in [false, true] {
                for x in [false, true] {
                    assert_eq!(c.eval(&[a, b, x]), !((a || b) && x));
                }
            }
        }
    }

    #[test]
    fn aoi22_matches_equation() {
        let c = Cell::aoi22();
        for bits in 0..16u32 {
            let v: Vec<bool> = (0..4).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(c.eval(&v), !((v[0] && v[1]) || (v[2] && v[3])));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pin_range_checked() {
        Cell::from_pulldown("BAD", 1, SpNet::Leaf(3));
    }
}
