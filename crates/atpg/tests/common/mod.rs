//! Fault universes, netlists and the scalar reference grader shared by
//! the PPSFP test binaries. Each binary uses a subset of them.
#![allow(dead_code)]

use obd_atpg::fault::{
    em_faults, obd_faults, stuck_at_faults, transition_faults, Fault, TwoPatternTest,
};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::AtpgError;
use obd_core::BreakdownStage;
use obd_logic::netlist::{GateKind, Netlist};

/// Every fault model at once: stuck-at, transition, OBD in the delay
/// regime (MBD2), OBD in the stuck regime (HBD), and EM.
pub fn mixed_faults(nl: &Netlist) -> Vec<Fault> {
    let mut faults = stuck_at_faults(nl);
    faults.extend(transition_faults(nl));
    faults.extend(obd_faults(nl, BreakdownStage::Mbd2, false));
    faults.extend(obd_faults(nl, BreakdownStage::Hbd, false));
    faults.extend(em_faults(nl, false));
    faults
}

/// A small netlist of every gate kind and of arities up to five:
/// NAND3/4/5, NOR2/3/5, AND3, OR4, INV, BUF and XOR over six inputs.
pub fn mixed_cells() -> Netlist {
    let mut nl = Netlist::new();
    let [a, b, c, d, e, f] = ["a", "b", "c", "d", "e", "f"].map(|n| nl.add_input(n));
    let mut gate = |kind, name, inputs: &[_]| nl.add_gate(kind, name, inputs).unwrap();
    let n3 = gate(GateKind::Nand, "n3", &[a, b, c]);
    let r2 = gate(GateKind::Nor, "r2", &[d, e]);
    let x1 = gate(GateKind::Xor, "x1", &[a, f]);
    let i1 = gate(GateKind::Inv, "i1", &[c]);
    let a3 = gate(GateKind::And, "a3", &[b, d, i1]);
    let n4 = gate(GateKind::Nand, "n4", &[n3, b, x1, f]);
    let o4 = gate(GateKind::Or, "o4", &[a3, r2, x1, e]);
    let b1 = gate(GateKind::Buf, "b1", &[n4]);
    let r3 = gate(GateKind::Nor, "r3", &[b1, a3, d]);
    let n5 = gate(GateKind::Nand, "n5", &[a, b, i1, o4, f]);
    let r5 = gate(GateKind::Nor, "r5", &[n3, x1, r3, d, e]);
    for out in [n5, r5, b1, o4] {
        nl.mark_output(out);
    }
    nl
}

/// The scalar reference grader: one three-valued simulation per (fault,
/// test) pair through [`FaultSimulator::detects`], fault-major with
/// dropping — the loop the PPSFP engine replaced, and the baseline every
/// packed grader must match bit for bit.
pub fn grade_scalar(
    sim: &FaultSimulator,
    faults: &[Fault],
    tests: &[TwoPatternTest],
) -> Result<Vec<bool>, AtpgError> {
    let mut detected = vec![false; faults.len()];
    for (i, f) in faults.iter().enumerate() {
        for t in tests {
            if sim.detects(f, t)? {
                detected[i] = true;
                break;
            }
        }
    }
    Ok(detected)
}
