//! DC sweep analysis — used for the voltage-transfer characteristics of the
//! paper's Fig. 4.

use crate::circuit::{Circuit, NodeId};
use crate::devices::{Device, EvalCtx, Integration, SourceWave};
use crate::engine::Solver;
use crate::options::GMIN;
use crate::{SimOptions, SpiceError};

/// Sweep specification: a named voltage source stepped over a range.
#[derive(Debug, Clone)]
pub struct DcSweep {
    /// Instance name of the voltage source to sweep.
    pub(crate) source: String,
    /// Start value (V).
    pub(crate) start: f64,
    /// Stop value (V).
    pub(crate) stop: f64,
    /// Number of points (≥ 2).
    pub(crate) points: usize,
}

impl DcSweep {
    /// Creates a sweep.
    pub fn new(source: &str, start: f64, stop: f64, points: usize) -> Self {
        DcSweep {
            source: source.to_string(),
            start,
            stop,
            points,
        }
    }
}

/// A completed sweep: the swept values plus the solution at each point.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Swept source values.
    pub(crate) inputs: Vec<f64>,
    solutions: Vec<Vec<f64>>,
}

impl SweepResult {
    /// Voltage of `n` at sweep point `i`.
    pub(crate) fn voltage(&self, i: usize, n: NodeId) -> f64 {
        if n.is_ground() {
            0.0
        } else {
            self.solutions[i][n.index() - 1]
        }
    }

    /// The full transfer curve of a node as `(input, output)` pairs.
    pub fn transfer_curve(&self, n: NodeId) -> Vec<(f64, f64)> {
        self.inputs
            .iter()
            .enumerate()
            .map(|(i, &vin)| (vin, self.voltage(i, n)))
            .collect()
    }
}

/// Runs a DC sweep with continuation (each point starts from the previous
/// solution), which tracks the steep transition region of a CMOS VTC
/// reliably.
///
/// # Errors
///
/// * [`SpiceError::NotFound`] if the named source does not exist or is not
///   a voltage source.
/// * Convergence/singularity errors from the solver.
pub fn dc_sweep(
    ckt: &Circuit,
    opts: &SimOptions,
    sweep: &DcSweep,
) -> Result<SweepResult, SpiceError> {
    if sweep.points < 2 {
        return Err(SpiceError::InvalidCircuit(
            "dc sweep needs at least 2 points".into(),
        ));
    }
    let dev_id = ckt.find_device(&sweep.source)?;
    if !matches!(ckt.device(dev_id), Device::Vsource(_)) {
        return Err(SpiceError::NotFound(format!(
            "voltage source '{}'",
            sweep.source
        )));
    }

    // Work on a local copy whose swept source we can overwrite per point.
    let mut local = ckt.clone();
    let mut inputs = Vec::with_capacity(sweep.points);
    let mut solutions = Vec::with_capacity(sweep.points);
    let mut x_prev: Option<Vec<f64>> = None;

    for i in 0..sweep.points {
        let v = sweep.start + (sweep.stop - sweep.start) * i as f64 / (sweep.points - 1) as f64;
        if let Device::Vsource(vs) = local.device_mut(dev_id) {
            vs.wave = SourceWave::dc(v);
        }
        let mut solver = Solver::new(&local, opts)?;
        let ctx = EvalCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: GMIN,
            integ: Integration::Dc,
            vt: crate::thermal_voltage_at(opts.temperature_c),
        };
        let x = match &x_prev {
            Some(x0) => match solver.newton(&ctx, x0) {
                Ok(x) => x,
                // Continuation failed (steep VTC region): fall back to a
                // full operating-point search.
                Err(_) => solver.operating_point()?,
            },
            None => solver.operating_point()?,
        };
        inputs.push(v);
        x_prev = Some(x.clone());
        solutions.push(x);
    }

    Ok(SweepResult { inputs, solutions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Resistor, Vsource};

    #[test]
    fn sweep_of_divider_is_linear() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add_vsource(Vsource::new(
            "VIN",
            vin,
            Circuit::GROUND,
            SourceWave::dc(0.0),
        ));
        c.add_resistor(Resistor::new("R1", vin, mid, 1e3));
        c.add_resistor(Resistor::new("R2", mid, Circuit::GROUND, 1e3));
        let res = dc_sweep(&c, &SimOptions::new(), &DcSweep::new("VIN", 0.0, 2.0, 5)).unwrap();
        assert_eq!(res.inputs.len(), 5);
        for (vin, vout) in res.transfer_curve(mid) {
            assert!((vout - vin / 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sweep_requires_known_source() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add_resistor(Resistor::new("R1", vin, Circuit::GROUND, 1e3));
        assert!(dc_sweep(&c, &SimOptions::new(), &DcSweep::new("VIN", 0.0, 1.0, 3)).is_err());
    }

    #[test]
    fn sweep_rejects_single_point() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add_vsource(Vsource::new(
            "VIN",
            vin,
            Circuit::GROUND,
            SourceWave::dc(0.0),
        ));
        c.add_resistor(Resistor::new("R1", vin, Circuit::GROUND, 1e3));
        assert!(matches!(
            dc_sweep(&c, &SimOptions::new(), &DcSweep::new("VIN", 0.0, 1.0, 1)),
            Err(SpiceError::InvalidCircuit(_))
        ));
    }
}
