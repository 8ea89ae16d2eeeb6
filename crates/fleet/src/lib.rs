//! Fleet-scale concurrent-test scheduling simulation.
//!
//! The paper's pitch is *in-field* concurrent testing: §4.2's detection
//! window — from the moment an OBD defect's extra delay first exceeds
//! the detection slack until hard breakdown — dictates how often a
//! deployed part must self-test. This crate makes the "millions of
//! deployed devices" scenario concrete:
//!
//! * every device carries a seeded xorshift64* stream driving a
//!   stochastic defect **onset time** and an exponential **progression
//!   duration** (reusing [`obd_core::progression::ProgressionModel`]);
//! * a per-device **BIST scheduler** picks its test interval from the
//!   device's modeled detection window
//!   ([`obd_core::window::DetectionWindow`]), guaranteeing a configured
//!   number of test opportunities inside the window;
//! * each scheduled BIST session is resolved against a **PPSFP-graded
//!   test set** from `obd-atpg`: a session detects the defect iff the
//!   graded detection row covers the device's fault site at the stage
//!   the defect has reached by the session time.
//!
//! The simulation runs in device-id blocks on the shared
//! [`obd_core::pool`] with per-device seeding that is independent of the
//! block assignment, and every
//! aggregate is accumulated in integer arithmetic — the emitted
//! `FLEET_run.json` is byte-identical for a fixed seed regardless of
//! thread count (the determinism golden test pins this).
//!
//! Module map:
//!
//! * [`schedule`] — pure scheduler math: the per-campaign window plan,
//!   session grids, the first-opportunity function the property tests
//!   exercise.
//! * [`coverage`] — the [`coverage::BistProfile`]: per-stage PPSFP
//!   detection rows of a BIST pattern set over a circuit's OBD sites.
//! * [`device`] — one device's lifecycle: parameter sampling, the
//!   session loop, chaos injection (scheduler skew, corrupted results,
//!   poisoned devices) through the degraded-outcome ladder.
//! * [`sim`] — the block-partitioned fleet driver and integer
//!   accumulator.
//! * [`report`] — aggregate report with exact latency percentiles and
//!   the deterministic JSON artifact.

// Library code must surface failures as typed errors, never panic;
// tests keep the ergonomic forms.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod coverage;
pub mod device;
pub mod report;
pub mod schedule;
pub mod sim;

/// Circuits selectable by name for fleet workloads
/// (`OBD_FLEET_CIRCUIT`). The names are
/// owned here so [`FleetError::UnknownCircuit`] can always list them;
/// the front-end maps each name to its netlist constructor.
pub const VALID_CIRCUITS: &[&str] = &["c17", "rca32", "csa32", "mult16"];

/// NaN-rejecting positivity check used by the scheduler and the config
/// validator: `true` iff `x` is a finite, strictly positive number.
pub(crate) fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

pub use coverage::BistProfile;
pub use device::{DeviceOutcome, DeviceParams, DeviceResult};
pub use report::{FleetReport, LatencyTail};
pub use sim::{run_fleet, run_fleet_resumable, FleetConfig, FleetModel, SchedulePolicy};

/// Typed failures of the fleet layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// Chaos poisoned this device's simulation (`fleet.device_fault`);
    /// the fleet driver records the device and continues.
    DevicePoisoned,
    /// A configuration value is unusable (e.g. a non-positive interval).
    InvalidConfig(String),
    /// Grading the BIST coverage profile failed in `obd-atpg`.
    Grading(String),
    /// A circuit name (the `OBD_FLEET_CIRCUIT` override) matched none of
    /// [`VALID_CIRCUITS`].
    UnknownCircuit {
        /// The name that failed to resolve.
        name: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::DevicePoisoned => {
                write!(f, "device simulation poisoned by fault injection")
            }
            FleetError::InvalidConfig(m) => write!(f, "invalid fleet configuration: {m}"),
            FleetError::Grading(m) => write!(f, "BIST coverage grading failed: {m}"),
            FleetError::UnknownCircuit { name } => {
                write!(
                    f,
                    "unknown circuit '{name}' (valid: {})",
                    VALID_CIRCUITS.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl From<obd_core::pool::WorkerPanicked> for FleetError {
    fn from(_: obd_core::pool::WorkerPanicked) -> Self {
        FleetError::InvalidConfig("worker thread panicked".to_string())
    }
}
