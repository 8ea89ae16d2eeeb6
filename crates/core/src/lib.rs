//! Circuit-level modeling of operational gate oxide breakdown (OBD)
//! defects — the core contribution of Carter, Ozev & Sorin, DATE 2005.
//!
//! The model (paper §3, Fig. 3b): an OBD event creates a resistive path
//! from a MOSFET's gate into the bulk under the channel, which then
//! connects to the source and drain through pn junctions. The network is
//!
//! ```text
//!   gate ──R_bd──► X ──▷|── source        (diode, NMOS orientation)
//!                  X ──▷|── drain
//!                  X ──R_sub── bulk
//! ```
//!
//! Progression from soft breakdown (SBD) through medium breakdown
//! (MBD1–MBD3) to hard breakdown (HBD) is an exponential increase of the
//! diode saturation currents together with a drop of `R_bd` — the ladder
//! of Table 1.
//!
//! Module map:
//!
//! * [`stage`] — breakdown stages and the Table 1 parameter ladders.
//! * [`injection`] — splicing the diode-resistor network into an analog
//!   circuit at a chosen transistor.
//! * [`excitation`] — derived input conditions that excite a defect in an
//!   arbitrary series-parallel cell (§4.1, §5), including minimal
//!   necessary-and-sufficient per-cell test sets.
//! * [`characterize`] — the Fig. 5 bench: a NAND driven and loaded by real
//!   gates, measured across the ladder to regenerate Table 1 and
//!   Figs. 4, 6, 7. One measurement
//!   ([`measure_cell_transition`](characterize::measure_cell_transition))
//!   and one Table 1 driver
//!   ([`characterize_table1`](characterize::characterize_table1), configured
//!   by [`RunOptions`](characterize::RunOptions)).
//! * [`faultmodel`] — the gate-level OBD fault abstraction used by ATPG
//!   and fault simulation.
//! * [`progression`] — the exponential leakage growth law (after Linder et
//!   al.) mapping wall-clock stress time to ladder parameters.
//! * [`window`] — detection-window and test-interval analysis (§4.2).
//! * [`prognosis`] — inverting the model: from a measured delay back to
//!   the progression state and the remaining safe-operation time.
//! * [`annotate`] — feeding the characterized delays into the gate-level
//!   timing simulator.
//! * [`cache`] — memoization of characterization transients, so repeated
//!   Table 1 / annotation measurements run the analog engine once.
//! * [`em`] — the intra-gate electromigration fault model used as the §5
//!   contrast.
//! * [`complex`] — analog characterization of complex (AOI/OAI) cells,
//!   §5's "especially for complex gates" case.
//! * [`pool`] — the deterministic work-stealing job pool shared by the
//!   Table 1 driver and the Monte Carlo engine.
//! * [`fixtures`] — multi-cell benches (deep NAND context, a
//!   transistor-level full adder) that embed a breakdown site in more
//!   than one cell of real CMOS.
//! * [`monte`] — batched Monte Carlo characterization across randomized
//!   process corners with percentile and detection aggregates.

// Library code must surface failures as typed errors, never panic;
// tests keep the ergonomic forms.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod annotate;
pub mod cache;
pub mod characterize;
pub mod complex;
pub mod em;
pub mod error;
pub mod excitation;
pub mod faultmodel;
pub mod fixtures;
pub mod injection;
pub mod monte;
pub mod pool;
pub mod prognosis;
pub mod progression;
pub mod stage;
pub mod window;

pub use cache::DelayCache;
pub use error::ObdError;
pub use faultmodel::{ObdFault, Polarity};
pub use injection::{inject_obd, ObdInstance};
pub use monte::{MonteConfig, MonteReport};
pub use stage::{BreakdownStage, ObdParams};
