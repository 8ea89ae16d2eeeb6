//! A from-scratch analog circuit simulator standing in for HSPICE in the
//! DATE 2005 gate-oxide-breakdown reproduction.
//!
//! The simulator implements:
//!
//! * **Modified nodal analysis** (MNA) with branch currents for voltage
//!   sources ([`stamp`]).
//! * **Device models**: resistors, capacitors, Shockley diodes with junction
//!   limiting, DC/pulse/PWL voltage and current sources, and Level-1
//!   (Shichman–Hodges) MOSFETs ([`devices`]).
//! * **Nonlinear solution** by Newton–Raphson with per-junction `pnjlim`
//!   limiting, global gmin, gmin stepping and source stepping ([`engine`]).
//! * **Analyses**: DC operating point, DC sweeps (for voltage-transfer
//!   characteristics like the paper's Fig. 4) and trapezoidal /
//!   backward-Euler transient analysis with local-error step control (for
//!   the delay measurements of Table 1 and Figs. 6, 7, 9) ([`analysis`]).
//! * **Waveform post-processing**: threshold crossings and 50 %-to-50 %
//!   propagation-delay measurement, including "never switched" detection
//!   that the paper reports as `sa-0`/`sa-1` rows ([`waveform`]).
//!
//! # Example: RC step response
//!
//! ```rust
//! use obd_spice::{Circuit, analysis::tran::{TranParams, transient}};
//! use obd_spice::devices::{Resistor, Capacitor, Vsource, SourceWave};
//!
//! # fn main() -> Result<(), obd_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.add_vsource(Vsource::new("V1", vin, Circuit::GROUND, SourceWave::dc(1.0)));
//! ckt.add_resistor(Resistor::new("R1", vin, vout, 1e3));
//! ckt.add_capacitor(Capacitor::new("C1", vout, Circuit::GROUND, 1e-9));
//! let wave = transient(&ckt, &TranParams::new(10e-9, 5e-6))?;
//! let v_end = *wave.trace(vout).last().unwrap();
//! assert!((v_end - 1.0).abs() < 1e-3); // fully charged after 5 time constants
//! # Ok(())
//! # }
//! ```

// Library code must surface failures as typed errors, never panic;
// tests keep the ergonomic forms.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod circuit;
pub mod devices;
pub mod engine;
pub mod error;
pub mod options;
pub mod stamp;
pub mod waveform;

pub use circuit::{Circuit, DeviceId, NodeId};
pub use error::SpiceError;
pub use options::{SimOptions, SolverKind};
pub use stamp::Stamp;
pub use waveform::{EdgeKind, Waveform};

/// Thermal voltage kT/q at room temperature (300 K), in volts.
pub const THERMAL_VOLTAGE: f64 = 0.025852;

/// Thermal voltage kT/q at a junction temperature in °C.
///
/// OBD is a thermally driven phenomenon: the breakdown path heats its
/// surroundings, and the conduction through the Fig. 3b junctions scales
/// with kT/q. Simulating at elevated temperature therefore strengthens
/// the same defect's delay signature.
pub fn thermal_voltage_at(temp_c: f64) -> f64 {
    const K_OVER_Q: f64 = 8.617_333e-5; // volts per kelvin
    K_OVER_Q * (temp_c + 273.15)
}
