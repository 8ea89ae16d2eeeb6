//! Device models: resistor, capacitor, diode, independent sources and the
//! Level-1 MOSFET.
//!
//! Each device knows how to *stamp* its (linearized) constitutive relation
//! into an MNA system for the current Newton iterate. Nonlinear devices keep
//! a small per-instance state (previous junction voltages for limiting;
//! capacitor history for the integration companion model) owned by the
//! engine and passed in by mutable reference.

mod capacitor;
mod diode;
mod mosfet;
mod resistor;
mod sources;

pub use capacitor::Capacitor;
pub use diode::{Diode, DiodeParams};
pub use mosfet::{MosParams, MosPolarity, Mosfet};
pub use resistor::Resistor;
pub use sources::{Isource, PulseSpec, SourceWave, Vsource};

use crate::circuit::NodeId;
use crate::stamp::Stamp;

/// Integration scheme for reactive companion models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Integration {
    /// DC: capacitors are open circuits.
    Dc,
    /// Backward Euler with step `h` (seconds). First-order, strongly damped.
    BackwardEuler {
        /// Timestep in seconds.
        h: f64,
    },
    /// Trapezoidal rule with step `h` (seconds). Second-order.
    Trapezoidal {
        /// Timestep in seconds.
        h: f64,
    },
}

/// Evaluation context shared by all devices during one stamping pass.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx {
    /// Simulation time (seconds); 0 for DC analyses.
    pub time: f64,
    /// Scale factor applied to all independent sources (source stepping).
    pub source_scale: f64,
    /// Minimum conductance for nonlinear branches.
    pub gmin: f64,
    /// Integration scheme.
    pub integ: Integration,
    /// Thermal voltage kT/q (volts) at the simulation temperature.
    pub vt: f64,
}

/// Per-device scratch state owned by the solver.
///
/// * `limit` — previous-iteration limited voltages (junction limiting).
/// * `tran` — previous-timestep values for companion models
///   (`[v_prev, i_prev]` for capacitors).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DeviceState {
    /// Limiting memory (meaning is device-specific).
    pub(crate) limit: [f64; 2],
    /// Transient history (meaning is device-specific).
    pub(crate) tran: [f64; 2],
}

/// Any supported device.
#[derive(Debug, Clone, PartialEq)]
pub enum Device {
    /// Linear resistor.
    Resistor(Resistor),
    /// Linear capacitor.
    Capacitor(Capacitor),
    /// Shockley diode.
    Diode(Diode),
    /// Independent voltage source.
    Vsource(Vsource),
    /// Independent current source.
    Isource(Isource),
    /// Level-1 MOSFET.
    Mosfet(Mosfet),
}

impl Device {
    /// Instance name.
    pub fn name(&self) -> &str {
        match self {
            Device::Resistor(d) => &d.name,
            Device::Capacitor(d) => &d.name,
            Device::Diode(d) => &d.name,
            Device::Vsource(d) => &d.name,
            Device::Isource(d) => &d.name,
            Device::Mosfet(d) => &d.name,
        }
    }

    /// All terminals of the device.
    pub(crate) fn terminals(&self) -> Vec<NodeId> {
        match self {
            Device::Resistor(d) => vec![d.a, d.b],
            Device::Capacitor(d) => vec![d.a, d.b],
            Device::Diode(d) => vec![d.anode, d.cathode],
            Device::Vsource(d) => vec![d.plus, d.minus],
            Device::Isource(d) => vec![d.from, d.to],
            Device::Mosfet(d) => vec![d.drain, d.gate, d.source, d.bulk],
        }
    }

    /// Checks element values are physical.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid value.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match self {
            Device::Resistor(d) => d.validate(),
            Device::Capacitor(d) => d.validate(),
            Device::Diode(d) => d.validate(),
            Device::Vsource(d) => d.validate(),
            Device::Isource(d) => d.validate(),
            Device::Mosfet(d) => d.validate(),
        }
    }

    /// Whether the device's stamp is independent of the Newton iterate:
    /// resistors, capacitor companions and independent sources read only
    /// the evaluation context and per-step history, both fixed for the
    /// duration of one Newton solve, so their stamps can be assembled once
    /// per solve instead of once per iteration.
    pub(crate) fn is_linear(&self) -> bool {
        !matches!(self, Device::Diode(_) | Device::Mosfet(_))
    }

    /// Stamps the device's linearized contribution for the Newton iterate
    /// `x` into `st`.
    ///
    /// `branch` is the MNA branch-current row for voltage sources (assigned
    /// by the engine) and `None` for other devices.
    pub(crate) fn stamp(
        &self,
        st: &mut Stamp,
        x: &[f64],
        ctx: &EvalCtx,
        state: &mut DeviceState,
        branch: Option<usize>,
    ) {
        match self {
            Device::Resistor(d) => d.stamp(st),
            Device::Capacitor(d) => d.stamp(st, x, ctx, state),
            Device::Diode(d) => d.stamp(st, x, ctx, state),
            Device::Vsource(d) => {
                // The engine assigns every vsource a branch row at
                // construction; a missing one is an engine bug, but the
                // release path degrades to skipping the stamp (yielding a
                // singular-matrix error downstream) instead of panicking.
                debug_assert!(branch.is_some(), "vsource requires a branch row");
                if let Some(b) = branch {
                    d.stamp(st, ctx, b);
                }
            }
            Device::Isource(d) => d.stamp(st, ctx),
            Device::Mosfet(d) => d.stamp(st, x, ctx, state),
        }
    }

    /// Updates transient history after an accepted timestep with solution
    /// `x` (capacitors record their voltage and branch current).
    pub(crate) fn accept_timestep(&self, x: &[f64], ctx: &EvalCtx, state: &mut DeviceState) {
        if let Device::Capacitor(d) = self {
            d.accept_timestep(x, ctx, state);
        }
    }
}
