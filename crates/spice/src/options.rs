/// Which linear-solver backend the engine assembles and factors.
///
/// Dense LU is the only backend. Even the largest circuit the suite
/// simulates (the Fig. 8 sum circuit, 47 MNA unknowns) runs its
/// transient faster on it than on the CSR backend it replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// The dense LU workspace.
    Dense,
}

/// Solver tolerances and iteration limits, mirroring the classic SPICE
/// options (`reltol`, `abstol`, `vntol`, `gmin`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Relative tolerance on voltages and currents between Newton iterates.
    pub reltol: f64,
    /// Absolute current tolerance (amps).
    pub abstol: f64,
    /// Absolute voltage tolerance (volts).
    pub vntol: f64,
    /// Minimum conductance attached from every node to ground; keeps the
    /// matrix nonsingular in cutoff regions.
    pub gmin: f64,
    /// Maximum Newton iterations per solve attempt.
    pub max_newton: usize,
    /// Ladder of gmin values tried (largest first) when the plain solve
    /// fails; classic gmin stepping.
    pub gmin_steps: Vec<f64>,
    /// Number of source-stepping ramp points tried as a last resort.
    pub source_steps: usize,
    /// Maximum magnitude a node voltage may move in one Newton iteration
    /// (volts). Damps overshoot from the square-law MOSFET model.
    pub max_voltage_step: f64,
    /// Hard clamp on node voltages (volts); solutions outside
    /// `[-clamp, clamp]` are pulled back. Generous relative to VDD = 3.3 V.
    pub voltage_clamp: f64,
    /// Junction temperature in °C (affects diode thermal voltage).
    /// Default 26.85 °C = 300 K, matching
    /// [`THERMAL_VOLTAGE`](crate::THERMAL_VOLTAGE).
    pub temperature_c: f64,
    /// Use the reference (pre-optimization) Newton kernel: every device
    /// restamped each iteration and a one-shot, allocating LU solve.
    /// Numerically interchangeable with the fast path; kept so benchmarks
    /// can quantify the zero-allocation/split-stamping kernel against its
    /// baseline on the same binary.
    pub reference_kernel: bool,
    /// Seed each transient step's Newton iteration with the linear
    /// extrapolation of the last two accepted solutions instead of the
    /// previous solution alone. Converges in fewer iterations on smooth
    /// waveforms; a step that fails from the predicted seed is retried
    /// from the unpredicted one, so robustness is unchanged.
    ///
    /// The predictor also drives the transient's step control: the
    /// distance between the predicted seed and the converged solution is
    /// each step's local-error estimate, which grows steps on quiet
    /// stretches and shortens them where the solution bends (see
    /// [`analysis::tran`](crate::analysis::tran)). With the predictor off
    /// the transient runs on the fixed grid of `TranParams::step`.
    pub predictor: bool,
    /// Hard ceiling on Newton iterations spent on one top-level solve —
    /// an operating point including its whole escalation ladder, or one
    /// transient step including halvings and escalation. `None` (the
    /// default) is unlimited; exhaustion yields
    /// [`SpiceError::BudgetExhausted`](crate::SpiceError::BudgetExhausted).
    pub max_solve_iterations: Option<u64>,
}

impl SimOptions {
    /// Default options tuned for the sub-100-node CMOS cells in this suite.
    pub fn new() -> Self {
        SimOptions {
            reltol: 1e-4,
            abstol: 1e-11,
            vntol: 1e-6,
            gmin: 1e-12,
            max_newton: 150,
            gmin_steps: vec![1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11],
            source_steps: 20,
            max_voltage_step: 0.5,
            voltage_clamp: 20.0,
            temperature_c: 26.85,
            reference_kernel: false,
            predictor: true,
            max_solve_iterations: None,
        }
    }

    /// The same options with a per-solve Newton iteration ceiling.
    pub fn with_iteration_budget(mut self, iterations: u64) -> Self {
        self.max_solve_iterations = Some(iterations);
        self
    }

    /// The same options on an explicit linear-solver backend. Dense LU
    /// is the only one, so the options are returned unchanged.
    pub fn with_solver(self, solver: SolverKind) -> Self {
        match solver {
            SolverKind::Dense => self,
        }
    }

    /// The same options running the reference (baseline) Newton kernel,
    /// with the transient predictor disabled to match the pre-overhaul
    /// engine exactly.
    pub fn with_reference_kernel(mut self) -> Self {
        self.reference_kernel = true;
        self.predictor = false;
        self
    }

    /// Returns `true` when two successive voltage iterates agree within
    /// tolerance.
    pub(crate) fn voltage_converged(&self, v_new: f64, v_old: f64) -> bool {
        (v_new - v_old).abs() <= self.reltol * v_new.abs().max(v_old.abs()) + self.vntol
    }
}

impl SimOptions {
    /// The same options at a different junction temperature.
    pub fn at_temperature(mut self, temp_c: f64) -> Self {
        self.temperature_c = temp_c;
        self
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_new() {
        assert_eq!(SimOptions::default(), SimOptions::new());
    }

    #[test]
    fn convergence_check_uses_rel_and_abs_terms() {
        let o = SimOptions::new();
        assert!(o.voltage_converged(1.0, 1.0 + 0.5e-4));
        assert!(!o.voltage_converged(1.0, 1.01));
        // Near zero, the absolute term dominates.
        assert!(o.voltage_converged(0.0, 0.5e-6));
    }
}
