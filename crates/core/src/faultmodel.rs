//! The gate-level OBD fault abstraction.
//!
//! At the gate level an OBD defect is identified by *(gate, input pin,
//! polarity)* — one NMOS and one PMOS site per pin of every simple cell,
//! matching the paper's count of 4 sites per NAND2 (56 sites over the 14
//! NANDs of Fig. 8). Its behavior under a two-pattern test is:
//!
//! 1. **Excitation** — the defective transistor must be the sole
//!    conduction route during the output transition ([`crate::excitation`]).
//! 2. **Effect** — the output transition is delayed by a stage-dependent
//!    amount (or never completes: the stuck regime), which then propagates
//!    like a classical transition-fault effect.

use std::fmt;

use obd_cmos::cell::Cell;
use obd_cmos::switch::{CellTransistor, NetworkSide};
use obd_logic::netlist::{GateId, GateKind, Netlist};
use obd_spice::devices::MosPolarity;

use crate::stage::BreakdownStage;

/// Transistor polarity of the defective device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Polarity {
    /// N-channel (pull-down network device).
    Nmos,
    /// P-channel (pull-up network device).
    Pmos,
}

impl Polarity {
    /// Both polarities.
    pub const BOTH: [Polarity; 2] = [Polarity::Nmos, Polarity::Pmos];

    /// The pull network this polarity lives in.
    pub fn side(self) -> NetworkSide {
        match self {
            Polarity::Nmos => NetworkSide::Pulldown,
            Polarity::Pmos => NetworkSide::Pullup,
        }
    }

    /// Conversion to the analog device polarity.
    pub fn mos(self) -> MosPolarity {
        match self {
            Polarity::Nmos => MosPolarity::Nmos,
            Polarity::Pmos => MosPolarity::Pmos,
        }
    }
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Polarity::Nmos => write!(f, "NMOS"),
            Polarity::Pmos => write!(f, "PMOS"),
        }
    }
}

/// A gate-level OBD fault site with a progression stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObdFault {
    /// The defective gate.
    pub gate: GateId,
    /// Input pin whose transistor pair hosts the defect.
    pub pin: usize,
    /// Which transistor of the pair.
    pub polarity: Polarity,
    /// Progression stage assumed for detection analysis.
    pub stage: BreakdownStage,
}

impl ObdFault {
    /// The transistor within the cell implementing this gate, or `None`
    /// when the pin has no leaf in the relevant network — a mismatched
    /// fault/cell pairing the caller must account for rather than panic
    /// over.
    ///
    /// For simple cells (INV/NAND/NOR) every pin has exactly one leaf per
    /// network, and leaf order equals pin order, so the leaf index is the
    /// pin itself.
    pub fn cell_transistor(&self, cell: &Cell) -> Option<CellTransistor> {
        let side = self.polarity.side();
        let leaves = match side {
            NetworkSide::Pulldown => cell.pulldown.leaves(),
            NetworkSide::Pullup => cell.pullup.leaves(),
        };
        let leaf = leaves.iter().position(|&p| p == self.pin)?;
        Some(CellTransistor { side, leaf })
    }

    /// Formats the fault like `g7/A:PMOS@MBD2` given the netlist.
    pub fn describe(&self, nl: &Netlist) -> String {
        let g = nl.gate(self.gate);
        format!(
            "{}/pin{}:{}@{}",
            g.name, self.pin, self.polarity, self.stage
        )
    }
}

/// Enumerates every OBD fault site in the netlist at the given stage:
/// one per (gate, pin, polarity).
///
/// When `nand_only` is set, only NAND gates are included — the counting
/// convention of the paper's §4.3 (56 sites in 14 NAND2 gates; the
/// inverters are excluded from its tally).
pub fn enumerate_sites(nl: &Netlist, stage: BreakdownStage, nand_only: bool) -> Vec<ObdFault> {
    let mut out = Vec::new();
    for g in nl.gate_ids() {
        let gate = nl.gate(g);
        if nand_only && gate.kind != GateKind::Nand {
            continue;
        }
        // Sites need a single-cell model for excitation analysis: BUF,
        // XOR and XNOR have none (the built-in circuits decompose XOR
        // into NAND2s, so only parsed netlists carry them).
        if cell_for_kind(gate.kind, gate.inputs.len()).is_none() {
            continue;
        }
        for pin in 0..gate.inputs.len() {
            for polarity in Polarity::BOTH {
                out.push(ObdFault {
                    gate: g,
                    pin,
                    polarity,
                    stage,
                });
            }
        }
    }
    out
}

/// The cell implementing a gate kind, for excitation analysis.
///
/// Returns `None` for kinds without a single-cell implementation
/// (`XOR`/`XNOR`/`BUF` — decompose first).
pub fn cell_for_kind(kind: GateKind, num_inputs: usize) -> Option<Cell> {
    match kind {
        GateKind::Inv => Some(Cell::inverter()),
        GateKind::Nand => Some(Cell::nand(num_inputs)),
        GateKind::Nor => Some(Cell::nor(num_inputs)),
        // AND/OR exist at the transistor level as NAND/NOR plus an
        // inverter; the defect lives in the first stage, whose cell is
        // the inverting form. Excitation conditions are those of the
        // inverting cell (the inverter stage only flips the observed
        // direction).
        GateKind::And => Some(Cell::nand(num_inputs)),
        GateKind::Or => Some(Cell::nor(num_inputs)),
        GateKind::Buf | GateKind::Xor | GateKind::Xnor => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_logic::circuits::fig8_sum_circuit;

    #[test]
    fn fig8_has_56_nand_sites() {
        let nl = fig8_sum_circuit();
        let sites = enumerate_sites(&nl, BreakdownStage::Mbd2, true);
        assert_eq!(sites.len(), 56, "paper: 56 OBD locations in 14 NANDs");
    }

    #[test]
    fn all_sites_include_inverters() {
        let nl = fig8_sum_circuit();
        let sites = enumerate_sites(&nl, BreakdownStage::Mbd2, false);
        // 14 NAND * 4 + 11 INV * 2 = 78 — one per transistor.
        assert_eq!(sites.len(), 78);
    }

    #[test]
    fn cell_transistor_resolves_pin() {
        let cell = Cell::nand(2);
        let nl = fig8_sum_circuit();
        let f = ObdFault {
            gate: nl.gate_id(0),
            pin: 1,
            polarity: Polarity::Pmos,
            stage: BreakdownStage::Mbd1,
        };
        let t = f.cell_transistor(&cell).unwrap();
        assert_eq!(t.side, NetworkSide::Pullup);
        assert_eq!(t.pin(&cell), 1);
    }

    #[test]
    fn describe_is_readable() {
        let nl = fig8_sum_circuit();
        let f = ObdFault {
            gate: nl.gate_id(0),
            pin: 0,
            polarity: Polarity::Nmos,
            stage: BreakdownStage::Mbd3,
        };
        let s = f.describe(&nl);
        assert!(s.contains("NMOS") && s.contains("MBD3"), "{s}");
    }
}
