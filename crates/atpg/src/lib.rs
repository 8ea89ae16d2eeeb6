//! Two-pattern ATPG and fault simulation for OBD, transition, stuck-at and
//! intra-gate EM faults.
//!
//! The paper's §4.2/§5 claim is that once the OBD excitation conditions are
//! known, test generation "can be propagated and justified … in a manner
//! similar to traditional ATPG" with stuck-at-like complexity. This crate
//! realizes that claim:
//!
//! * [`fault`] — the unified fault universe.
//! * [`scoap`] — SCOAP controllability/observability measures guiding
//!   the PODEM backtrace.
//! * [`podem`] — a PODEM implementation over a two-machine (good/faulty)
//!   five-valued algebra, with *required-line* constraints so the OBD
//!   excitation conditions plug straight in.
//! * [`twoframe`] — two-pattern generation: frame 2 runs constrained PODEM
//!   (excite + propagate), frame 1 is a pure justification pass.
//! * [`faultsim`] — two-pattern fault simulation for every model, used for
//!   coverage grading, test-set comparison and exhaustive small-circuit
//!   analysis (the §4.3 full-adder statistics).
//! * [`ppsfp`] — the bit-parallel PPSFP grading engine behind every
//!   grading entry point: good responses cached per block, fault effects
//!   propagated through their fanout cone only, fault dropping at 64
//!   tests per block, 512-test blocks for no-drop detection rows, and
//!   64-fault chunks on the shared `obd_core::pool`.
//! * [`compact`] — greedy and exact set-cover compaction (the paper's
//!   "necessary and sufficient" minimal sets).
//! * [`random`] — random/weighted two-pattern baselines standing in for a
//!   "traditional pattern generator".
//! * [`generate`] — end-to-end flows producing coverage reports.
//! * [`diagnosis`] — cause-effect localization of a defect from observed
//!   test outcomes, the "diagnose" leg of the paper's concurrent
//!   test/diagnose/repair loop.
//! * [`bist`] — LFSR pattern generation and MISR signature compaction,
//!   §5's built-in-testing direction.
//! * [`scan`] — launch-on-shift delivery constraints and OBD-aware scan
//!   chain ordering, §5's design-for-testability direction.
//! * [`timed_sim`] — timing-accurate fault simulation (annotated
//!   event-driven timing + capture-edge sampling), the reference for the
//!   static per-gate-slack approximation.
//!
//! # Example
//!
//! ```rust
//! use obd_atpg::generate::generate_obd_tests;
//! use obd_atpg::fault::DetectionCriterion;
//! use obd_core::BreakdownStage;
//! use obd_logic::circuits::fig8_sum_circuit;
//!
//! # fn main() -> Result<(), obd_atpg::AtpgError> {
//! let nl = fig8_sum_circuit();
//! let report = generate_obd_tests(
//!     &nl,
//!     BreakdownStage::Mbd2,
//!     &DetectionCriterion::ideal(),
//!     true, // the paper's NAND-only site counting
//! )?;
//! assert_eq!(report.total_faults, 56);
//! assert!(report.untestable > 0); // intentional redundancy
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod bist;
pub mod compact;
pub mod diagnosis;
pub mod error;
pub mod fault;
pub mod faultsim;
pub mod generate;
pub mod podem;
pub mod ppsfp;
pub mod random;
/// The suite's one seedable generator, which lives in obd-logic so every
/// layer that links it shares the same stream.
pub use obd_logic::rng;
pub mod scan;
pub mod scoap;
pub mod timed_sim;
pub mod twoframe;

pub use error::AtpgError;
pub use fault::{DetectionCriterion, Fault, TwoPatternTest};
pub use ppsfp::{PpsfpEngine, PpsfpScratch, SUPERLANE_WIDTH};
