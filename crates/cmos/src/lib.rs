//! Transistor-level CMOS cells and their expansion to analog circuits.
//!
//! The paper's analysis is explicitly *circuit-level*: which transistor
//! inside a gate carries the switching current decides whether an OBD
//! defect is excited. This crate gives that structure a first-class
//! representation:
//!
//! * [`topology`] — series-parallel pull networks ([`topology::SpNet`])
//!   with duals, conduction analysis and the *sole-conducting-path* test
//!   that underlies the paper's excitation conditions.
//! * [`cell`] — static CMOS cells (INV, NAND-k, NOR-k, AOI/OAI, …) defined
//!   by their pull-down network; the pull-up is the dual.
//! * [`tech`] — Level-1 technology parameters calibrated so the fault-free
//!   NAND2 of the paper's Fig. 5 bench lands near Table 1's 96 ps / 110 ps.
//! * [`expand`] — flattening a gate-level [`obd_logic::Netlist`] into an
//!   [`obd_spice::Circuit`] with per-transistor provenance, so a defect can
//!   be injected into "the PMOS connected to input A of gate g7".
//!
//! # Example
//!
//! ```rust
//! use obd_cmos::cell::Cell;
//! use obd_cmos::switch::{all_transistors, excites, NetworkSide};
//!
//! let nand = Cell::nand(2);
//! // 11 -> 01: the output rises through input A's PMOS alone, the sole
//! // conducting path, so that is the one transistor the transition
//! // excites (§4.1's input-specific PMOS condition).
//! let excited: Vec<_> = all_transistors(&nand)
//!     .into_iter()
//!     .filter(|&t| excites(&nand, t, &[true, true], &[false, true]))
//!     .collect();
//! assert_eq!(excited.len(), 1);
//! assert_eq!(excited[0].side, NetworkSide::Pullup);
//! assert_eq!(excited[0].pin(&nand), 0);
//! ```

pub mod cell;
pub mod error;
pub mod expand;
pub mod switch;
pub mod tech;
pub mod topology;

pub use cell::Cell;
pub use error::CmosError;
pub use expand::{ExpandedCircuit, TransistorRef};
pub use tech::TechParams;
pub use topology::SpNet;
