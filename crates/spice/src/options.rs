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

/// Relative tolerance on voltages and currents between Newton iterates.
pub(crate) const RELTOL: f64 = 1e-4;
/// Absolute current tolerance (amps).
pub(crate) const ABSTOL: f64 = 1e-11;
/// Absolute voltage tolerance (volts).
pub(crate) const VNTOL: f64 = 1e-6;
/// Minimum conductance attached from every node to ground; keeps the
/// matrix nonsingular in cutoff regions.
pub const GMIN: f64 = 1e-12;
/// Maximum Newton iterations per solve attempt.
pub(crate) const MAX_NEWTON: usize = 150;
/// Ladder of gmin values tried (largest first) when the plain solve
/// fails; classic gmin stepping.
pub(crate) const GMIN_STEPS: [f64; 9] = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11];
/// Number of source-stepping ramp points tried as a last resort.
pub(crate) const SOURCE_STEPS: usize = 20;
/// Maximum magnitude a node voltage may move in one Newton iteration
/// (volts). Damps overshoot from the square-law MOSFET model.
pub(crate) const MAX_VOLTAGE_STEP: f64 = 0.5;
/// Hard clamp on node voltages (volts); solutions outside
/// `[-clamp, clamp]` are pulled back. Generous relative to VDD = 3.3 V.
pub(crate) const VOLTAGE_CLAMP: f64 = 20.0;

/// Returns `true` when two successive voltage iterates agree within
/// tolerance.
pub(crate) fn voltage_converged(v_new: f64, v_old: f64) -> bool {
    (v_new - v_old).abs() <= RELTOL * v_new.abs().max(v_old.abs()) + VNTOL
}

/// The settable solver options. The classic SPICE tolerances (`reltol`,
/// `abstol`, `vntol`, `gmin`) and the Newton and escalation limits are
/// fixed constants of this module, tuned for the sub-100-node CMOS cells
/// in this suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Junction temperature in °C (affects diode thermal voltage).
    /// Default 26.85 °C = 300 K, matching
    /// [`THERMAL_VOLTAGE`](crate::THERMAL_VOLTAGE).
    pub temperature_c: f64,
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
    /// Default options: room temperature, predictor on, no budget.
    pub fn new() -> Self {
        SimOptions {
            temperature_c: 26.85,
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
        assert!(voltage_converged(1.0, 1.0 + 0.5e-4));
        assert!(!voltage_converged(1.0, 1.01));
        // Near zero, the absolute term dominates.
        assert!(voltage_converged(0.0, 0.5e-6));
    }
}
