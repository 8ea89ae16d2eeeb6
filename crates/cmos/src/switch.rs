//! The conduction-based excitation analysis behind the paper's §4.1/§5
//! results.

use crate::cell::Cell;

/// Which network a transistor belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkSide {
    /// NMOS pull-down device.
    Pulldown,
    /// PMOS pull-up device.
    Pullup,
}

/// Identifies one transistor inside a cell: its network and its leaf index
/// in [`crate::SpNet::leaves`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellTransistor {
    /// Pull-up or pull-down device.
    pub side: NetworkSide,
    /// Index into the network's leaf list.
    pub leaf: usize,
}

impl CellTransistor {
    /// The input pin controlling this transistor.
    pub fn pin(&self, cell: &Cell) -> usize {
        match self.side {
            NetworkSide::Pulldown => cell.pulldown.leaves()[self.leaf],
            NetworkSide::Pullup => cell.pullup.leaves()[self.leaf],
        }
    }
}

/// Enumerates every transistor in a cell.
pub fn all_transistors(cell: &Cell) -> Vec<CellTransistor> {
    let mut out = Vec::new();
    for leaf in 0..cell.pulldown.leaves().len() {
        out.push(CellTransistor {
            side: NetworkSide::Pulldown,
            leaf,
        });
    }
    for leaf in 0..cell.pullup.leaves().len() {
        out.push(CellTransistor {
            side: NetworkSide::Pullup,
            leaf,
        });
    }
    out
}

/// Whether transistor `t` carries the switching current for the transition
/// from input vector `v1` to `v2` **and** is on every conducting path
/// (the paper's excitation criterion for OBD defects).
///
/// Concretely: the output must switch between `v1` and `v2`, the network
/// containing `t` must be the one driving the new output value, and `t`
/// must be *essential* in that network under `v2`.
pub fn excites(cell: &Cell, t: CellTransistor, v1: &[bool], v2: &[bool]) -> bool {
    let out1 = cell.eval(v1);
    let out2 = cell.eval(v2);
    if out1 == out2 {
        return false;
    }
    match t.side {
        NetworkSide::Pulldown => {
            // NMOS carries current when the output falls.
            out1 && !out2 && cell.pulldown.essential(t.leaf, &|p| v2[p])
        }
        NetworkSide::Pullup => {
            // PMOS carries current when the output rises.
            !out1 && out2 && cell.pullup.essential(t.leaf, &|p| !v2[p])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Output drive state of a cell at the switch level.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum SwitchLevel {
        /// Pull-down conducts, pull-up does not.
        Strong0,
        /// Pull-up conducts, pull-down does not.
        Strong1,
        /// Neither network conducts (floating output).
        HighZ,
        /// Both conduct (a fight; cannot happen in a complementary cell with
        /// fully-specified inputs).
        Conflict,
    }

    /// Evaluates a cell's output drive for a fully-specified input vector.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `inputs.len()` disagrees with the cell.
    fn switch_eval(cell: &Cell, inputs: &[bool]) -> SwitchLevel {
        debug_assert_eq!(inputs.len(), cell.num_inputs);
        let down = cell.pulldown.conducts(&|p| inputs[p]);
        let up = cell.pullup.conducts(&|p| !inputs[p]);
        match (up, down) {
            (true, false) => SwitchLevel::Strong1,
            (false, true) => SwitchLevel::Strong0,
            (false, false) => SwitchLevel::HighZ,
            (true, true) => SwitchLevel::Conflict,
        }
    }

    fn bits(n: usize, k: u32) -> Vec<bool> {
        (0..n).map(|i| (k >> (n - 1 - i)) & 1 == 1).collect()
    }

    #[test]
    fn complementary_cells_never_fight_or_float() {
        for cell in [Cell::inverter(), Cell::nand(3), Cell::nor(2), Cell::aoi21()] {
            let n = cell.num_inputs;
            for k in 0..(1u32 << n) {
                let v = bits(n, k);
                let lvl = switch_eval(&cell, &v);
                assert!(
                    matches!(lvl, SwitchLevel::Strong0 | SwitchLevel::Strong1),
                    "{} inputs {v:?} gave {lvl:?}",
                    cell.name
                );
            }
        }
    }

    #[test]
    fn switch_eval_matches_boolean_eval() {
        let cell = Cell::aoi22();
        for k in 0..16u32 {
            let v = bits(4, k);
            let lvl = switch_eval(&cell, &v);
            let expect = if cell.eval(&v) {
                SwitchLevel::Strong1
            } else {
                SwitchLevel::Strong0
            };
            assert_eq!(lvl, expect);
        }
    }

    /// §4.1: NMOS OBD in a NAND is excited by *any* input transition that
    /// produces a falling output.
    #[test]
    fn nand_nmos_excited_by_any_falling_transition() {
        let cell = Cell::nand(2);
        let nmos_a = CellTransistor {
            side: NetworkSide::Pulldown,
            leaf: 0,
        };
        // (01,11), (10,11), (00,11) all excite.
        for v1 in [[false, true], [true, false], [false, false]] {
            assert!(excites(&cell, nmos_a, &v1, &[true, true]), "{v1:?}");
        }
        // Rising-output transitions never excite an NMOS device.
        assert!(!excites(&cell, nmos_a, &[true, true], &[false, true]));
    }

    /// §4.1: PMOS OBD on input A of a NAND is excited only by A: 1→0 with
    /// B held at 1.
    #[test]
    fn nand_pmos_is_input_specific() {
        let cell = Cell::nand(2);
        let pmos_a = CellTransistor {
            side: NetworkSide::Pullup,
            leaf: 0,
        };
        assert_eq!(pmos_a.pin(&cell), 0);
        // (11,01): A falls, B stays 1 -> excited.
        assert!(excites(&cell, pmos_a, &[true, true], &[false, true]));
        // (11,10): B falls instead -> NOT excited (B's PMOS charges).
        assert!(!excites(&cell, pmos_a, &[true, true], &[true, false]));
        // (11,00): both fall -> both PMOS conduct in parallel -> masked.
        assert!(!excites(&cell, pmos_a, &[true, true], &[false, false]));
    }

    /// §5 dual: NOR PMOS (series) excited by any rising-output transition;
    /// NOR NMOS (parallel) input-specific.
    #[test]
    fn nor_duality() {
        let cell = Cell::nor(2);
        let pmos_a = CellTransistor {
            side: NetworkSide::Pullup,
            leaf: 0,
        };
        for v1 in [[true, false], [false, true], [true, true]] {
            assert!(excites(&cell, pmos_a, &v1, &[false, false]), "{v1:?}");
        }
        let nmos_a = CellTransistor {
            side: NetworkSide::Pulldown,
            leaf: 0,
        };
        // (00,10): A rises alone -> excited.
        assert!(excites(&cell, nmos_a, &[false, false], &[true, false]));
        // (00,01): B rises instead -> not excited.
        assert!(!excites(&cell, nmos_a, &[false, false], &[false, true]));
        // (00,11): both rise -> parallel masking.
        assert!(!excites(&cell, nmos_a, &[false, false], &[true, true]));
    }

    #[test]
    fn all_transistors_counts_match() {
        assert_eq!(all_transistors(&Cell::nand(2)).len(), 4);
        assert_eq!(all_transistors(&Cell::aoi21()).len(), 6);
    }
}
