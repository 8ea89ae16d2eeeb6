//! Derived input conditions for exciting OBD defects (§4.1, §5).
//!
//! For every transistor in a series-parallel cell, the set of two-pattern
//! input sequences `(v1, v2)` that excite its OBD defect is derived
//! structurally: the output must switch, the defective device's network
//! must drive the new value, and the device must be *essential*
//! (sole-path) in that network under `v2`. The paper's NAND and NOR
//! conditions fall out as special cases, verified in the tests.

use obd_cmos::cell::Cell;
use obd_cmos::switch::{excites, CellTransistor};

/// A two-pattern input sequence over a cell's pins.
pub type InputPair = (Vec<bool>, Vec<bool>);

/// Formats an input pair like `(01,11)`.
pub fn format_pair(pair: &InputPair) -> String {
    let fmt = |v: &[bool]| -> String { v.iter().map(|&b| if b { '1' } else { '0' }).collect() };
    format!("({},{})", fmt(&pair.0), fmt(&pair.1))
}

/// All two-pattern sequences `(v1, v2)` with `v1 != v2` over `n` pins.
pub fn all_input_pairs(n: usize) -> Vec<InputPair> {
    let vecs: Vec<Vec<bool>> = (0..(1u32 << n))
        .map(|k| (0..n).map(|i| (k >> (n - 1 - i)) & 1 == 1).collect())
        .collect();
    let mut out = Vec::new();
    for v1 in &vecs {
        for v2 in &vecs {
            if v1 != v2 {
                out.push((v1.clone(), v2.clone()));
            }
        }
    }
    out
}

/// Every input pair that excites the given transistor's OBD defect.
pub fn excitation_set(cell: &Cell, t: CellTransistor) -> Vec<InputPair> {
    all_input_pairs(cell.num_inputs)
        .into_iter()
        .filter(|(v1, v2)| excites(cell, t, v1, v2))
        .collect()
}

/// Minimal set of input pairs covering *all* OBD defects of the cell
/// (greedy set cover over the per-transistor excitation sets).
///
/// For a NAND2 this returns 3 sequences — one falling-output sequence for
/// both NMOS devices plus the two input-specific rising sequences — the
/// paper's "necessary and sufficient" result.
pub fn minimal_cell_test_set(cell: &Cell) -> Vec<InputPair> {
    let transistors = obd_cmos::switch::all_transistors(cell);
    let sets: Vec<Vec<InputPair>> = transistors
        .iter()
        .map(|&t| excitation_set(cell, t))
        .collect();
    // Candidate pairs: union of all sets.
    let mut candidates: Vec<InputPair> = Vec::new();
    for s in &sets {
        for p in s {
            if !candidates.contains(p) {
                candidates.push(p.clone());
            }
        }
    }
    let mut uncovered: Vec<usize> = (0..transistors.len())
        .filter(|&i| !sets[i].is_empty())
        .collect();
    let mut chosen = Vec::new();
    while !uncovered.is_empty() {
        // Pick the candidate covering the most uncovered transistors.
        // Every uncovered transistor has a nonempty set, so candidates
        // cannot be empty here; the defensive break keeps the greedy
        // cover panic-free regardless.
        let Some((best_idx, _)) = candidates
            .iter()
            .enumerate()
            .map(|(ci, cand)| {
                let cover = uncovered
                    .iter()
                    .filter(|&&ti| sets[ti].contains(cand))
                    .count();
                (ci, cover)
            })
            .max_by_key(|&(_, cover)| cover)
        else {
            break;
        };
        let cand = candidates[best_idx].clone();
        uncovered.retain(|&ti| !sets[ti].contains(&cand));
        chosen.push(cand);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_cmos::switch::NetworkSide;

    fn pair(a: &str, b: &str) -> InputPair {
        let p = |s: &str| s.chars().map(|c| c == '1').collect();
        (p(a), p(b))
    }

    /// §4.1: NMOS OBD on input A of a NAND is excited by every sequence
    /// ending at (1,1) — and nothing else.
    #[test]
    fn nand2_nmos_set_is_all_falling() {
        let cell = Cell::nand(2);
        let t = CellTransistor {
            side: NetworkSide::Pulldown,
            leaf: 0,
        };
        let set = excitation_set(&cell, t);
        let expect = vec![pair("00", "11"), pair("01", "11"), pair("10", "11")];
        assert_eq!(set.len(), 3);
        for e in expect {
            assert!(set.contains(&e), "missing {}", format_pair(&e));
        }
    }

    /// §4.1: PMOS OBD on input A: only (11,01) excites.
    #[test]
    fn nand2_pmos_set_is_single_sequence() {
        let cell = Cell::nand(2);
        let t_a = CellTransistor {
            side: NetworkSide::Pullup,
            leaf: 0,
        };
        assert_eq!(excitation_set(&cell, t_a), vec![pair("11", "01")]);
        let t_b = CellTransistor {
            side: NetworkSide::Pullup,
            leaf: 1,
        };
        assert_eq!(excitation_set(&cell, t_b), vec![pair("11", "10")]);
    }

    /// §5: the NOR dual — PMOS excited by any sequence ending (0,0); NMOS
    /// input-specific.
    #[test]
    fn nor2_sets_are_duals() {
        let cell = Cell::nor(2);
        let pmos_a = CellTransistor {
            side: NetworkSide::Pullup,
            leaf: 0,
        };
        let set = excitation_set(&cell, pmos_a);
        assert_eq!(set.len(), 3);
        for e in [pair("10", "00"), pair("01", "00"), pair("11", "00")] {
            assert!(set.contains(&e), "missing {}", format_pair(&e));
        }
        let nmos_a = CellTransistor {
            side: NetworkSide::Pulldown,
            leaf: 0,
        };
        assert_eq!(excitation_set(&cell, nmos_a), vec![pair("00", "10")]);
        let nmos_b = CellTransistor {
            side: NetworkSide::Pulldown,
            leaf: 1,
        };
        assert_eq!(excitation_set(&cell, nmos_b), vec![pair("00", "01")]);
    }

    /// The paper's necessary-and-sufficient NAND set has exactly 3
    /// sequences: one of {(10,11),(00,11),(01,11)} plus (11,10) and
    /// (11,01).
    #[test]
    fn nand2_minimal_set_is_three_sequences() {
        let cell = Cell::nand(2);
        let min = minimal_cell_test_set(&cell);
        assert_eq!(
            min.len(),
            3,
            "{:?}",
            min.iter().map(format_pair).collect::<Vec<_>>()
        );
        assert!(min.contains(&pair("11", "01")));
        assert!(min.contains(&pair("11", "10")));
        let falling = [pair("00", "11"), pair("01", "11"), pair("10", "11")];
        assert!(falling.iter().any(|p| min.contains(p)));
    }

    #[test]
    fn nor2_minimal_set_is_three_sequences() {
        let cell = Cell::nor(2);
        let min = minimal_cell_test_set(&cell);
        assert_eq!(min.len(), 3);
        assert!(min.contains(&pair("00", "01")));
        assert!(min.contains(&pair("00", "10")));
    }

    #[test]
    fn inverter_needs_two_sequences() {
        let cell = Cell::inverter();
        let min = minimal_cell_test_set(&cell);
        assert_eq!(min.len(), 2); // one rise, one fall
    }

    /// NAND3: NMOS defects share the falling sequences; each PMOS needs
    /// its own single-input fall. Minimal set = 1 + 3.
    #[test]
    fn nand3_minimal_set() {
        let cell = Cell::nand(3);
        let min = minimal_cell_test_set(&cell);
        assert_eq!(min.len(), 4);
        assert!(min.contains(&pair("111", "011")));
        assert!(min.contains(&pair("111", "101")));
        assert!(min.contains(&pair("111", "110")));
    }

    /// Complex AOI21 cell: every transistor is still excitable.
    #[test]
    fn aoi21_all_transistors_excitable() {
        let cell = Cell::aoi21();
        let transistors = obd_cmos::switch::all_transistors(&cell);
        assert_eq!(transistors.len(), 6);
        assert!(transistors
            .into_iter()
            .all(|t| !excitation_set(&cell, t).is_empty()));
        let min = minimal_cell_test_set(&cell);
        assert!(!min.is_empty() && min.len() <= 6);
    }

    #[test]
    fn all_pairs_count() {
        // n inputs -> 2^n * (2^n - 1) ordered pairs.
        assert_eq!(all_input_pairs(2).len(), 12);
        assert_eq!(all_input_pairs(3).len(), 56);
    }
}
