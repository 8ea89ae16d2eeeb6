//! Nonlinear solution engine: damped Newton–Raphson with junction limiting,
//! plus gmin stepping and source stepping for hard operating points.

use obd_chaos::InjectionPoint;
use obd_linalg::LuWorkspace;
use obd_metrics::{Counter, Histogram};

use crate::circuit::Circuit;
use crate::devices::{Device, DeviceState, EvalCtx, Integration};
use crate::options::{
    voltage_converged, ABSTOL, GMIN, GMIN_STEPS, MAX_NEWTON, MAX_VOLTAGE_STEP, RELTOL,
    SOURCE_STEPS, VOLTAGE_CLAMP,
};
use crate::stamp::Stamp;
use crate::{SimOptions, SpiceError};

/// Total Newton iterations across every solve (DC, stepping, transient).
static NEWTON_ITERATIONS: Counter = Counter::new("spice.newton_iterations");
/// Newton solves that reached convergence.
static NEWTON_SOLVES: Counter = Counter::new("spice.newton_solves");
/// Newton solves that exhausted `MAX_NEWTON` without converging.
static NEWTON_NONCONVERGED: Counter = Counter::new("spice.newton_nonconverged");
/// Newton solves aborted by the NaN/Inf iterate guard.
static NEWTON_NONFINITE: Counter = Counter::new("spice.newton_nonfinite");
/// Top-level solves aborted by the iteration budget.
static SOLVE_BUDGET_EXHAUSTED: Counter = Counter::new("spice.solve_budget_exhausted");
/// Solves recovered by the gmin-stepping rung of the escalation ladder.
static ESCALATIONS_GMIN: Counter = Counter::new("spice.escalations_gmin");
/// Solves recovered by the source-stepping rung of the escalation ladder.
static ESCALATIONS_SOURCE: Counter = Counter::new("spice.escalations_source");
/// Iterations needed per converged Newton solve.
static NEWTON_ITERS_PER_SOLVE: Histogram = Histogram::new(
    "spice.newton_iters_per_solve",
    &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 150],
);
/// Solvers constructed (each owns one dense LU workspace).
static SOLVERS_DENSE: Counter = Counter::new("spice.solvers_dense");

/// Chaos: poison the first Newton iterate with NaN; the finiteness guard
/// must convert it into a typed [`SpiceError::NonFinite`].
static CHAOS_NEWTON_NAN: InjectionPoint = InjectionPoint::new("spice.newton_nan");
/// Chaos: force a whole Newton solve to report non-convergence, driving
/// the caller onto the escalation ladder.
static CHAOS_NEWTON_STALL: InjectionPoint = InjectionPoint::new("spice.newton_stall");

/// Which rung of the escalation ladder produced a solution — reported by
/// `Solver::solve_escalated` so analyses can account for recoveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Escalation {
    /// The direct Newton solve converged.
    Direct,
    /// Gmin stepping recovered the solve.
    GminStepping,
    /// Source stepping recovered the solve.
    SourceStepping,
}

/// A prepared solver for one circuit: the stamp workspaces, the branch-row
/// assignment for voltage sources, and per-device state.
///
/// All scratch buffers (the linear-part stamp, the LU workspace, the
/// Newton update vector) live here, so repeated solves — the transient
/// hot loop — allocate nothing once the solver is warm.
#[derive(Debug)]
pub struct Solver<'c> {
    ckt: &'c Circuit,
    /// For each device index, its voltage-source branch row (if any).
    branch_of: Vec<Option<usize>>,
    /// Number of voltage-source branches.
    n_branches: usize,
    /// Per-device limiting/transient state.
    pub(crate) states: Vec<DeviceState>,
    /// The system assembled each Newton iteration.
    stamp: Stamp,
    /// The linear part, stamped once per solve and copied into `stamp`
    /// at the top of every iteration.
    lin_stamp: Stamp,
    /// Reusable LU workspace: factor, solve and refinement buffers.
    ws: LuWorkspace,
    /// Device indices whose stamps ignore the Newton iterate.
    linear: Vec<usize>,
    /// Device indices re-stamped every iteration (diodes, MOSFETs).
    nonlinear: Vec<usize>,
    /// Newton update vector (the raw solve result before damping).
    x_new: Vec<f64>,
    /// Iterations remaining in the current solve budget (`None` =
    /// unlimited).
    budget_left: Option<u64>,
    opts: SimOptions,
}

impl<'c> Solver<'c> {
    /// Prepares a solver, validating the circuit first.
    ///
    /// # Errors
    ///
    /// Propagates the circuit's validation failures.
    pub fn new(ckt: &'c Circuit, opts: &SimOptions) -> Result<Self, SpiceError> {
        ckt.validate()?;
        let mut branch_of = Vec::with_capacity(ckt.num_devices());
        let mut linear = Vec::new();
        let mut nonlinear = Vec::new();
        let mut next_branch = 0;
        for (i, d) in ckt.devices().iter().enumerate() {
            if matches!(d, Device::Vsource(_)) {
                branch_of.push(Some(next_branch));
                next_branch += 1;
            } else {
                branch_of.push(None);
            }
            if d.is_linear() {
                linear.push(i);
            } else {
                nonlinear.push(i);
            }
        }
        let dim = ckt.num_nodes() - 1 + next_branch;
        SOLVERS_DENSE.inc();
        let stamp = Stamp::new(ckt.num_nodes(), next_branch);
        Ok(Solver {
            ckt,
            branch_of,
            n_branches: next_branch,
            states: vec![DeviceState::default(); ckt.num_devices()],
            lin_stamp: stamp.clone(),
            stamp,
            ws: LuWorkspace::with_order(dim),
            linear,
            nonlinear,
            x_new: vec![0.0; dim],
            budget_left: opts.max_solve_iterations,
            opts: *opts,
        })
    }

    /// Starts a fresh solve budget: resets the iteration allowance.
    /// Called at the top of each operating-point solve and each transient
    /// step, so the budget bounds one step's whole retry/escalation tree.
    pub(crate) fn begin_solve_budget(&mut self) {
        self.budget_left = self.opts.max_solve_iterations;
    }

    /// Budget gate, checked once per Newton iteration: spends one
    /// iteration of the allowance, or fails with
    /// [`SpiceError::BudgetExhausted`] once it is used up. A single
    /// branch when no budget is configured.
    fn budget_check(&mut self, ctx: &EvalCtx) -> Result<(), SpiceError> {
        if let Some(left) = self.budget_left.as_mut() {
            if *left == 0 {
                SOLVE_BUDGET_EXHAUSTED.inc();
                return Err(SpiceError::BudgetExhausted {
                    analysis: "newton",
                    at: Some(ctx.time),
                    detail: format!(
                        "iteration budget of {} exhausted",
                        self.opts.max_solve_iterations.unwrap_or(0)
                    ),
                });
            }
            *left -= 1;
        }
        Ok(())
    }

    /// System dimension (node voltages + source branch currents).
    pub fn dim(&self) -> usize {
        self.ckt.num_nodes() - 1 + self.n_branches
    }

    /// One full Newton solve at the given context, starting from `x0`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::Convergence`] when the iteration does not settle within
    /// `MAX_NEWTON` iterations, [`SpiceError::Singular`] when the MNA matrix
    /// cannot be factored.
    pub(crate) fn newton(&mut self, ctx: &EvalCtx, x0: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let mut x = x0.to_vec();
        self.newton_in_place(ctx, &mut x)?;
        Ok(x)
    }

    /// Like `Solver::newton`, but starting from `x0` and writing the
    /// solution into a caller-owned buffer: allocation-free once `x` has
    /// capacity, which makes the transient loop's steady state alloc-free.
    ///
    /// On error `x` holds the last (non-converged) iterate; `x0` is
    /// untouched, so step-halving retries can restart from it.
    ///
    /// # Errors
    ///
    /// Same conditions as `Solver::newton`.
    pub fn newton_into(
        &mut self,
        ctx: &EvalCtx,
        x0: &[f64],
        x: &mut Vec<f64>,
    ) -> Result<(), SpiceError> {
        x.clear();
        x.extend_from_slice(x0);
        self.newton_in_place(ctx, x)
    }

    fn newton_in_place(&mut self, ctx: &EvalCtx, x: &mut [f64]) -> Result<(), SpiceError> {
        let n_nodes = self.ckt.num_nodes() - 1;
        let devices = self.ckt.devices();

        if CHAOS_NEWTON_STALL.fire() {
            NEWTON_NONCONVERGED.inc();
            return Err(SpiceError::Convergence {
                analysis: "newton",
                at: Some(ctx.time),
                detail: "injected non-convergence (chaos)".into(),
            });
        }
        // When this point fires, the first iterate is poisoned with NaN
        // after the linear solve; the finiteness guard below must catch it.
        let mut poison_iterate = CHAOS_NEWTON_NAN.fire();

        // The linear part — resistors, capacitor companions, independent
        // sources, gmin loading — depends only on the evaluation context
        // and per-step history, both fixed for this whole solve: stamp it
        // once and reuse it as the starting image of every iteration.
        self.lin_stamp.clear();
        stamp_devices(
            &mut self.lin_stamp,
            devices,
            &self.linear,
            &mut self.states,
            &self.branch_of,
            x,
            ctx,
        );
        self.lin_stamp.add_gmin_loading(GMIN);

        for iter in 0..MAX_NEWTON {
            self.budget_check(ctx)?;
            NEWTON_ITERATIONS.inc();
            // The linear image plus this iterate's nonlinear stamps,
            // factored and solved in the reusable workspace.
            self.stamp.copy_from(&self.lin_stamp);
            stamp_devices(
                &mut self.stamp,
                devices,
                &self.nonlinear,
                &mut self.states,
                &self.branch_of,
                x,
                ctx,
            );
            self.ws
                .solve_refined_into(&self.stamp.a, &self.stamp.z, &mut self.x_new)?;

            if poison_iterate {
                poison_iterate = false;
                if let Some(v) = self.x_new.first_mut() {
                    *v = f64::NAN;
                }
            }
            // Silent-garbage guard: a NaN/Inf iterate would survive the
            // damped update below (NaN fails every comparison) and could
            // eventually be reported as a converged solution.
            if self.x_new.iter().any(|v| !v.is_finite()) {
                NEWTON_NONFINITE.inc();
                return Err(SpiceError::NonFinite {
                    analysis: "newton",
                    at: Some(ctx.time),
                });
            }

            if damped_update(x, &self.x_new, n_nodes) {
                NEWTON_SOLVES.inc();
                NEWTON_ITERS_PER_SOLVE.record(iter as u64 + 1);
                return Ok(());
            }
        }
        NEWTON_NONCONVERGED.inc();
        Err(SpiceError::Convergence {
            analysis: "newton",
            at: Some(ctx.time),
            detail: format!("no convergence in {MAX_NEWTON} iterations"),
        })
    }

    /// DC operating point with gmin stepping and source stepping fallbacks.
    ///
    /// # Errors
    ///
    /// [`SpiceError::Convergence`] if every strategy fails,
    /// [`SpiceError::BudgetExhausted`] if a configured solve budget runs
    /// out first.
    pub fn operating_point(&mut self) -> Result<Vec<f64>, SpiceError> {
        let base_ctx = EvalCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: GMIN,
            integ: Integration::Dc,
            vt: crate::thermal_voltage_at(self.opts.temperature_c),
        };
        self.begin_solve_budget();
        let x0 = vec![0.0; self.dim()];
        let mut out = vec![0.0; self.dim()];
        match self.solve_escalated(&base_ctx, &x0, &mut out) {
            Ok(_) => Ok(out),
            Err(SpiceError::Convergence { at, detail, .. }) => Err(SpiceError::Convergence {
                analysis: "op",
                at,
                detail,
            }),
            Err(e) => Err(e),
        }
    }

    /// One Newton attempt, separating recoverable failures (`Ok(false)`:
    /// try the next ladder rung) from terminal ones that must propagate —
    /// budget exhaustion in particular, since retrying after the budget
    /// ran out would defeat its purpose.
    fn try_newton(
        &mut self,
        ctx: &EvalCtx,
        x0: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<bool, SpiceError> {
        match self.newton_into(ctx, x0, out) {
            Ok(()) => Ok(true),
            Err(e @ SpiceError::BudgetExhausted { .. }) => Err(e),
            Err(_) => Ok(false),
        }
    }

    /// Gmin-stepping rung: solve with a large parallel conductance, then
    /// relax it back down the ladder, reusing each solution as the next
    /// guess, and finish with a solve at the target context. `Ok(true)`
    /// leaves the solution in `out`.
    fn gmin_restep(
        &mut self,
        ctx: &EvalCtx,
        x_seed: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<bool, SpiceError> {
        let mut x = x_seed.to_vec();
        for g in GMIN_STEPS {
            self.reset_limit_state();
            let c = EvalCtx { gmin: g, ..*ctx };
            if !self.try_newton(&c, &x, out)? {
                return Ok(false);
            }
            std::mem::swap(&mut x, out);
        }
        self.reset_limit_state();
        self.try_newton(ctx, &x, out)
    }

    /// Source-stepping rung: ramp all independent sources from zero up to
    /// the context's own scale. `Ok(true)` leaves the solution in `out`.
    fn source_restep(&mut self, ctx: &EvalCtx, out: &mut Vec<f64>) -> Result<bool, SpiceError> {
        let mut x = vec![0.0; self.dim()];
        let steps = SOURCE_STEPS;
        for k in 0..=steps {
            self.reset_limit_state();
            let scale = ctx.source_scale * k as f64 / steps as f64;
            let c = EvalCtx {
                source_scale: scale,
                ..*ctx
            };
            if !self.try_newton(&c, &x, out)? {
                return Ok(false);
            }
            std::mem::swap(&mut x, out);
        }
        out.clear();
        out.extend_from_slice(&x);
        Ok(true)
    }

    /// Unified escalation ladder at one evaluation context: direct Newton,
    /// then gmin stepping, then source stepping. Shared by the operating
    /// point and by transient steps whose halving retries are exhausted.
    ///
    /// # Errors
    ///
    /// [`SpiceError::Convergence`] when all three rungs fail;
    /// [`SpiceError::BudgetExhausted`] as soon as a configured solve
    /// budget runs out, from whichever rung was active.
    pub(crate) fn solve_escalated(
        &mut self,
        ctx: &EvalCtx,
        x0: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<Escalation, SpiceError> {
        if self.try_newton(ctx, x0, out)? {
            return Ok(Escalation::Direct);
        }
        if self.gmin_restep(ctx, x0, out)? {
            ESCALATIONS_GMIN.inc();
            return Ok(Escalation::GminStepping);
        }
        if self.source_restep(ctx, out)? {
            ESCALATIONS_SOURCE.inc();
            return Ok(Escalation::SourceStepping);
        }
        Err(SpiceError::Convergence {
            analysis: "escalation",
            at: Some(ctx.time),
            detail: "direct solve, gmin stepping and source stepping all failed".into(),
        })
    }

    /// Clears junction-limiting memory (kept between continuation steps,
    /// reset between strategies).
    pub(crate) fn reset_limit_state(&mut self) {
        for s in &mut self.states {
            s.limit = [0.0; 2];
        }
    }

    /// Node voltage from a solution vector.
    pub(crate) fn voltage(&self, x: &[f64], n: crate::NodeId) -> f64 {
        if n.is_ground() {
            0.0
        } else {
            x[n.index() - 1]
        }
    }

    /// Branch current of the `k`-th voltage source from a solution vector.
    pub(crate) fn source_current(&self, x: &[f64], k: usize) -> f64 {
        debug_assert!(k < self.n_branches);
        x[self.ckt.num_nodes() - 1 + k]
    }
}

/// Moves the iterate `x` toward the solve result `x_new`: node voltages
/// clamped to [`VOLTAGE_CLAMP`] and limited to [`MAX_VOLTAGE_STEP`] per
/// iteration, branch currents taken as solved. Returns `true` when the
/// iteration has converged: every row within tolerance and no move
/// limited.
fn damped_update(x: &mut [f64], x_new: &[f64], n_nodes: usize) -> bool {
    let mut converged = true;
    let mut damped = false;
    for (i, xi) in x.iter_mut().enumerate() {
        if i < n_nodes {
            let target = x_new[i].clamp(-VOLTAGE_CLAMP, VOLTAGE_CLAMP);
            if !voltage_converged(target, *xi) {
                converged = false;
            }
            let dv = target - *xi;
            if dv.abs() > MAX_VOLTAGE_STEP {
                *xi += MAX_VOLTAGE_STEP.copysign(dv);
                damped = true;
            } else {
                *xi = target;
            }
        } else {
            // Currents: relative + absolute tolerance.
            let target = x_new[i];
            if (target - *xi).abs() > RELTOL * target.abs().max(xi.abs()) + ABSTOL {
                converged = false;
            }
            *xi = target;
        }
    }
    converged && !damped
}

/// Stamps the devices at `which` into `st`, in index order.
fn stamp_devices(
    st: &mut Stamp,
    devices: &[Device],
    which: &[usize],
    states: &mut [DeviceState],
    branch_of: &[Option<usize>],
    x: &[f64],
    ctx: &EvalCtx,
) {
    for &i in which {
        devices[i].stamp(st, x, ctx, &mut states[i], branch_of[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{
        Capacitor, Diode, DiodeParams, MosParams, MosPolarity, Mosfet, Resistor, SourceWave,
        Vsource,
    };
    use crate::{Circuit, NodeId};

    /// The baseline Newton kernel the split one replaced: every device
    /// restamped into a fresh system each iteration and a one-shot dense
    /// `obd_linalg::solve_refined`, with the same damped update. It runs
    /// over the same `Solver` state (device states, stamp, branch rows).
    fn reference_newton(
        s: &mut Solver<'_>,
        ctx: &EvalCtx,
        x: &mut [f64],
    ) -> Result<(), SpiceError> {
        let n_nodes = s.ckt.num_nodes() - 1;
        for _ in 0..MAX_NEWTON {
            s.stamp.clear();
            for (i, dev) in s.ckt.devices().iter().enumerate() {
                dev.stamp(&mut s.stamp, x, ctx, &mut s.states[i], s.branch_of[i]);
            }
            s.stamp.add_gmin_loading(GMIN);
            let x_new = obd_linalg::solve_refined(&s.stamp.a, &s.stamp.z)?;
            if damped_update(x, &x_new, n_nodes) {
                return Ok(());
            }
        }
        Err(SpiceError::Convergence {
            analysis: "newton",
            at: Some(ctx.time),
            detail: "reference kernel did not converge".into(),
        })
    }

    /// A CMOS inverter behind a driver resistance, with the gate-oxide
    /// breakdown network (a diode in series with a resistor) from its gate
    /// to ground, and capacitors on the gate and the output: every device
    /// kind the split kernel partitions. Returns the circuit with its gate
    /// and output nodes.
    fn breakdown_inverter() -> (Circuit, NodeId, NodeId) {
        let mut c = Circuit::new();
        let [vdd, vin, g, bd, out] = ["vdd", "in", "g", "bd", "out"].map(|n| c.node(n));
        let gnd = Circuit::GROUND;
        c.add_vsource(Vsource::new("VDD", vdd, gnd, SourceWave::dc(3.3)));
        let edge = SourceWave::step(0.0, 3.3, 100e-12, 50e-12);
        c.add_vsource(Vsource::new("VIN", vin, gnd, edge));
        c.add_resistor(Resistor::new("RDRV", vin, g, 1e3));
        c.add_capacitor(Capacitor::new("CG", g, gnd, 20e-15));
        for (name, polarity, rail, vt0, kp) in [
            ("MP", MosPolarity::Pmos, vdd, 0.6, 60e-6),
            ("MN", MosPolarity::Nmos, gnd, 0.55, 180e-6),
        ] {
            let params = MosParams {
                vt0,
                kp,
                lambda: 0.02,
                gamma: 0.0,
                phi: 0.7,
                w: 2e-6,
                l: 0.35e-6,
            };
            c.add_mosfet(Mosfet::new(name, polarity, out, g, rail, rail, params));
        }
        c.add_diode(Diode::new("DBD", g, bd, DiodeParams::new(1e-16)));
        c.add_resistor(Resistor::new("RBD", bd, gnd, 2e3));
        c.add_capacitor(Capacitor::new("CL", out, gnd, 50e-15));
        (c, g, out)
    }

    /// Runs the split kernel (`newton_into`) and the reference kernel from
    /// `x` with the same device state and checks that their solutions
    /// agree within the Newton tolerances. Then moves `x` to the split
    /// kernel's solution and accepts it into the device history.
    fn split_matches_reference(s: &mut Solver<'_>, ctx: &EvalCtx, x: &mut Vec<f64>) {
        let before = s.states.clone();
        let mut split = Vec::new();
        s.newton_into(ctx, x, &mut split).unwrap();
        let after = std::mem::replace(&mut s.states, before);
        reference_newton(s, ctx, x).unwrap();
        s.states = after;
        let n_nodes = s.ckt.num_nodes() - 1;
        for (i, (&a, &b)) in split.iter().zip(x.iter()).enumerate() {
            let agree = if i < n_nodes {
                voltage_converged(a, b)
            } else {
                (a - b).abs() <= RELTOL * a.abs().max(b.abs()) + ABSTOL
            };
            assert!(
                agree,
                "t = {:e} row {i}: split {a}, reference {b}",
                ctx.time
            );
        }
        for (i, dev) in s.ckt.devices().iter().enumerate() {
            dev.accept_timestep(&split, ctx, &mut s.states[i]);
        }
        *x = split;
    }

    /// The split kernel (linear stamp once per solve, nonlinear devices
    /// restamped, workspace LU) converges to the reference kernel's
    /// solution from all-zero nodes to the operating point, and at every
    /// step of a trapezoidal transient through the input edge.
    #[test]
    fn split_kernel_matches_full_restamp_kernel() {
        let (c, g, out) = breakdown_inverter();
        let mut s = Solver::new(&c, &SimOptions::new()).unwrap();
        let dc = EvalCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: GMIN,
            integ: Integration::Dc,
            vt: crate::THERMAL_VOLTAGE,
        };
        let mut x = vec![0.0; s.dim()];
        split_matches_reference(&mut s, &dc, &mut x);
        assert!(s.voltage(&x, out) > 3.2, "input low: output high");
        let h = 10e-12;
        let mut g_max: f64 = 0.0;
        for k in 1..=60 {
            let integ = Integration::Trapezoidal { h };
            let ctx = EvalCtx {
                time: k as f64 * h,
                integ,
                ..dc
            };
            split_matches_reference(&mut s, &ctx, &mut x);
            g_max = g_max.max(s.voltage(&x, g));
        }
        // The edge went through: the breakdown path holds the gate below
        // the driven 3.3 V, and the output fell.
        assert!(g_max > 1.5 && g_max < 3.2, "gate peaked at {g_max}");
        assert!(s.voltage(&x, out) < 0.3, "output {}", s.voltage(&x, out));
    }

    #[test]
    fn linear_divider_op() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add_vsource(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            SourceWave::dc(2.0),
        ));
        c.add_resistor(Resistor::new("R1", vin, mid, 1e3));
        c.add_resistor(Resistor::new("R2", mid, Circuit::GROUND, 1e3));
        let opts = SimOptions::new();
        let mut s = Solver::new(&c, &opts).unwrap();
        let x = s.operating_point().unwrap();
        assert!((s.voltage(&x, mid) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn diode_drop_about_0_6v() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let a = c.node("a");
        c.add_vsource(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            SourceWave::dc(3.0),
        ));
        c.add_resistor(Resistor::new("R1", vin, a, 1e3));
        c.add_diode(Diode::new(
            "D1",
            a,
            Circuit::GROUND,
            DiodeParams::new(1e-14),
        ));
        let opts = SimOptions::new();
        let mut s = Solver::new(&c, &opts).unwrap();
        let x = s.operating_point().unwrap();
        let vd = s.voltage(&x, a);
        assert!(vd > 0.5 && vd < 0.8, "vd = {vd}");
        // KCL: resistor current equals diode current.
        let ir = (3.0 - vd) / 1e3;
        assert!(ir > 1e-3, "current should be mA scale, got {ir}");
    }

    #[test]
    fn tiny_isat_diode_high_drop() {
        // The OBD breakdown regime: isat = 1e-30 means ~1.6-1.8 V drop at
        // mA currents. Classic pnjlim territory.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let a = c.node("a");
        c.add_vsource(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            SourceWave::dc(3.3),
        ));
        c.add_resistor(Resistor::new("R1", vin, a, 500.0));
        c.add_diode(Diode::new(
            "D1",
            a,
            Circuit::GROUND,
            DiodeParams::new(1e-30),
        ));
        let opts = SimOptions::new();
        let mut s = Solver::new(&c, &opts).unwrap();
        let x = s.operating_point().unwrap();
        let vd = s.voltage(&x, a);
        assert!(vd > 1.4 && vd < 2.1, "vd = {vd}");
    }

    /// A diode solve needs well over two Newton iterations; a two-iteration
    /// budget must surface as the typed terminal error, not as a retry loop
    /// or a panic.
    #[test]
    fn iteration_budget_exhausts_as_typed_error() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let a = c.node("a");
        c.add_vsource(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            SourceWave::dc(3.0),
        ));
        c.add_resistor(Resistor::new("R1", vin, a, 1e3));
        c.add_diode(Diode::new(
            "D1",
            a,
            Circuit::GROUND,
            DiodeParams::new(1e-14),
        ));
        let opts = SimOptions::new().with_iteration_budget(2);
        let mut s = Solver::new(&c, &opts).unwrap();
        match s.operating_point() {
            Err(crate::SpiceError::BudgetExhausted { analysis, .. }) => {
                assert_eq!(analysis, "newton");
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        // A generous budget leaves the solve untouched.
        let opts = SimOptions::new().with_iteration_budget(10_000);
        let mut s = Solver::new(&c, &opts).unwrap();
        let x = s.operating_point().unwrap();
        let vd = s.voltage(&x, a);
        assert!(vd > 0.5 && vd < 0.8, "vd = {vd}");
    }

    #[test]
    fn conflicting_voltage_sources_report_singular() {
        // Two ideal sources forcing different values on the same node:
        // the MNA matrix has linearly dependent branch rows.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource(Vsource::new("V1", a, Circuit::GROUND, SourceWave::dc(1.0)));
        c.add_vsource(Vsource::new("V2", a, Circuit::GROUND, SourceWave::dc(2.0)));
        c.add_resistor(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        let opts = SimOptions::new();
        let mut s = Solver::new(&c, &opts).unwrap();
        assert!(matches!(
            s.operating_point(),
            Err(SpiceError::Singular { .. }) | Err(SpiceError::Convergence { .. })
        ));
    }

    #[test]
    fn validation_failure_surfaces_from_solver() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.node("floating");
        c.add_resistor(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        let opts = SimOptions::new();
        assert!(matches!(
            Solver::new(&c, &opts),
            Err(SpiceError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn back_to_back_diodes_converge() {
        // Anti-series diodes block in both directions: the node between
        // them floats except for gmin — a classic conditioning test.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add_vsource(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            SourceWave::dc(3.3),
        ));
        c.add_diode(Diode::new("D1", vin, mid, DiodeParams::new(1e-14)));
        c.add_diode(Diode::new(
            "D2",
            Circuit::GROUND,
            mid,
            DiodeParams::new(1e-14),
        ));
        let opts = SimOptions::new();
        let mut s = Solver::new(&c, &opts).unwrap();
        let x = s.operating_point().unwrap();
        let vm = s.voltage(&x, mid);
        assert!(vm.is_finite() && (-0.5..=3.8).contains(&vm), "vm = {vm}");
    }

    #[test]
    fn nmos_inverter_static_points() {
        // Resistive-load inverter: output high when input low, low when
        // input high.
        let run = |vin_v: f64| -> f64 {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let vin = c.node("in");
            let out = c.node("out");
            c.add_vsource(Vsource::new(
                "VDD",
                vdd,
                Circuit::GROUND,
                SourceWave::dc(3.3),
            ));
            c.add_vsource(Vsource::new(
                "VIN",
                vin,
                Circuit::GROUND,
                SourceWave::dc(vin_v),
            ));
            c.add_resistor(Resistor::new("RL", vdd, out, 10e3));
            c.add_mosfet(Mosfet::new(
                "M1",
                MosPolarity::Nmos,
                out,
                vin,
                Circuit::GROUND,
                Circuit::GROUND,
                MosParams {
                    vt0: 0.5,
                    kp: 100e-6,
                    lambda: 0.02,
                    gamma: 0.0,
                    phi: 0.7,
                    w: 4e-6,
                    l: 0.5e-6,
                },
            ));
            let opts = SimOptions::new();
            let mut s = Solver::new(&c, &opts).unwrap();
            let x = s.operating_point().unwrap();
            s.voltage(&x, out)
        };
        assert!((run(0.0) - 3.3).abs() < 1e-6);
        assert!(run(3.3) < 0.2);
    }
}
