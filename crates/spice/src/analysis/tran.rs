//! Transient analysis with local-error step control.
//!
//! The integrator is trapezoidal by default (with a backward-Euler startup
//! step to establish consistent capacitor history). With the transient
//! predictor on ([`SimOptions::predictor`], the default), each step's
//! size follows its local error: the distance between the predictor's
//! extrapolated seed and the converged solution. Quiet stretches grow the
//! step up to `MAX_STEP_RATIO` nominal steps, a step whose error
//! exceeds `LTE_VTOL` is retried shorter, and steps land exactly on
//! every source breakpoint (`SourceWave::breakpoints`) and restart
//! there at the nominal step. The control never proposes a step below
//! the nominal `TranParams::step`; only a breakpoint or a convergence
//! halving cuts one shorter. With the predictor off the run keeps the
//! fixed grid of the nominal step.
//!
//! A step that fails to converge is retried at progressively smaller
//! sub-steps. Every accepted step is recorded into a [`Waveform`];
//! [`transient_until`] can end the run at the first sample a caller's
//! predicate accepts.

use crate::circuit::Circuit;
use crate::devices::{Device, EvalCtx, Integration};
use crate::engine::Solver;
use crate::options::GMIN;
use crate::{SimOptions, SpiceError, Waveform};
use obd_chaos::InjectionPoint;
use obd_metrics::Counter;

/// Local-error tolerance of the step control (volts): the largest node
/// distance between a step's predicted seed and its converged solution
/// that a step longer than the nominal one may keep.
pub(crate) const LTE_VTOL: f64 = 100e-6;
/// Longest step the step control may take, in nominal steps.
pub(crate) const MAX_STEP_RATIO: f64 = 32.0;
/// Maximum number of halvings applied to a non-converging step.
const MAX_STEP_HALVINGS: u32 = 8;

/// Transient steps accepted into the waveform.
static TRAN_STEPS_ACCEPTED: Counter = Counter::new("spice.tran_steps_accepted");
/// Steps where the predictor-extrapolated seed converged directly.
static TRAN_PREDICTOR_HITS: Counter = Counter::new("spice.tran_predictor_hits");
/// Steps where the predictor seed failed and the halving path ran.
static TRAN_PREDICTOR_FALLBACKS: Counter = Counter::new("spice.tran_predictor_fallbacks");
/// Step rejections for convergence: each failure that triggered a
/// halving, or sent a longer-than-nominal step back to the nominal one.
static TRAN_STEP_REJECTIONS: Counter = Counter::new("spice.tran_step_rejections");
/// Step rejections for local error: converged steps longer than nominal
/// whose error estimate exceeded [`LTE_VTOL`], retried shorter.
static TRAN_LTE_REJECTIONS: Counter = Counter::new("spice.tran_lte_rejections");
/// Steps whose halving retries ran out and climbed the escalation ladder.
static TRAN_ESCALATIONS: Counter = Counter::new("spice.tran_escalations");

/// Chaos: reject a transient step before its solve, exercising the
/// halving/escalation recovery path.
static CHAOS_STEP_REJECT: InjectionPoint = InjectionPoint::new("spice.tran_step_reject");

/// Integration method selection for transient analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TranMethod {
    /// Backward Euler everywhere: first order, strongly damped. Useful as
    /// an accuracy ablation baseline.
    BackwardEuler,
    /// Trapezoidal with one backward-Euler startup step (default).
    Trapezoidal,
}

/// Transient analysis parameters.
#[derive(Debug, Clone)]
pub struct TranParams {
    /// Nominal timestep (seconds): the fixed grid with the predictor off,
    /// and the shortest step the step control takes with it on.
    pub(crate) step: f64,
    /// Stop time (seconds); the analysis runs from t = 0 to `stop`.
    pub(crate) stop: f64,
    /// Integration method.
    pub(crate) method: TranMethod,
    /// Use the DC operating point as the initial condition (default).
    /// When `false`, all nodes start at 0 V ("UIC").
    pub(crate) from_op: bool,
}

impl TranParams {
    /// Creates parameters with trapezoidal integration starting from the
    /// DC operating point.
    pub fn new(step: f64, stop: f64) -> Self {
        TranParams {
            step,
            stop,
            method: TranMethod::Trapezoidal,
            from_op: true,
        }
    }

    /// Selects backward-Euler integration.
    pub fn with_backward_euler(mut self) -> Self {
        self.method = TranMethod::BackwardEuler;
        self
    }

    /// Starts from all-zero initial conditions instead of the operating
    /// point.
    pub fn with_uic(mut self) -> Self {
        self.from_op = false;
        self
    }
}

/// Runs a transient analysis with default [`SimOptions`].
///
/// # Errors
///
/// Propagates validation, convergence and singularity errors.
pub fn transient(ckt: &Circuit, params: &TranParams) -> Result<Waveform, SpiceError> {
    transient_with_options(ckt, params, &SimOptions::new())
}

/// Runs a transient analysis with explicit solver options.
///
/// # Errors
///
/// Propagates validation, convergence and singularity errors; a step that
/// keeps failing after `MAX_STEP_HALVINGS` halvings yields
/// [`SpiceError::Convergence`].
pub fn transient_with_options(
    ckt: &Circuit,
    params: &TranParams,
    opts: &SimOptions,
) -> Result<Waveform, SpiceError> {
    transient_until(ckt, params, opts, |_| false)
}

/// Runs a transient analysis that returns early: after each accepted
/// step, `stop` sees the waveform so far, and the run ends at the first
/// sample for which it returns `true` (or at `params.stop`).
///
/// Stopping changes nothing before the stop: every step is computed
/// exactly as in the full run over `params.stop`, so the returned
/// waveform is a bit-identical prefix of the one
/// [`transient_with_options`] returns.
///
/// # Errors
///
/// Same conditions as [`transient_with_options`].
pub fn transient_until(
    ckt: &Circuit,
    params: &TranParams,
    opts: &SimOptions,
    mut stop: impl FnMut(&Waveform) -> bool,
) -> Result<Waveform, SpiceError> {
    if !(params.step > 0.0 && params.stop > 0.0 && params.step <= params.stop) {
        return Err(SpiceError::InvalidCircuit(format!(
            "bad transient window: step {} stop {}",
            params.step, params.stop
        )));
    }
    let mut solver = Solver::new(ckt, opts)?;

    // Initial condition.
    let mut x = if params.from_op {
        solver.operating_point()?
    } else {
        vec![0.0; solver.dim()]
    };

    // Seed capacitor history from the initial solution.
    let init_ctx = EvalCtx {
        time: 0.0,
        source_scale: 1.0,
        gmin: GMIN,
        integ: Integration::Dc,
        vt: crate::thermal_voltage_at(opts.temperature_c),
    };
    accept(ckt, &mut solver, &x, &init_ctx);

    let mut wave = Waveform::new();
    record(ckt, &solver, &x, 0.0, &mut wave);

    let mut t = 0.0;
    let mut first_step = true;
    // Double-buffer the solution so the steady-state loop never allocates:
    // each step solves from `x` into `x_next`, then the two are swapped.
    let mut x_next = vec![0.0; solver.dim()];
    // Predictor state: the solution accepted one step back, the size of
    // that step, and the extrapolated seed, all preallocated.
    let mut x_prev = x.clone();
    let mut h_prev = params.step;
    let mut x_pred = vec![0.0; solver.dim()];
    let node_rows = ckt.num_nodes() - 1;
    // Step control reads its error estimate off the predictor, so without
    // the predictor the run keeps the fixed grid of `params.step`.
    let breakpoints = if opts.predictor {
        source_breakpoints(ckt, params)
    } else {
        Vec::new()
    };
    let mut next_bp = 0;
    // Proposed size of the next step.
    let mut h = params.step;
    while t < params.stop {
        solver.begin_solve_budget();
        let mut stepped = false;
        let mut target = step_target(t, h, params, breakpoints.get(next_bp));
        if opts.predictor && !first_step {
            loop {
                // Seed Newton with the linear extrapolation of the last two
                // accepted solutions; a smooth waveform converges from it in
                // fewer iterations than from the previous solution alone, and
                // its distance from the converged point estimates the step's
                // local error.
                let ratio = (target - t) / h_prev;
                for ((p, &cur), &prev) in x_pred.iter_mut().zip(x.iter()).zip(x_prev.iter()) {
                    *p = cur + ratio * (cur - prev);
                }
                match attempt_step(&mut solver, opts, params, &x_pred, &mut x_next, t, target) {
                    Ok(ctx) => {
                        let err = x_next[..node_rows]
                            .iter()
                            .zip(&x_pred[..node_rows])
                            .fold(0.0, |m: f64, (a, b)| m.max((a - b).abs()));
                        let scale = 0.9 * (LTE_VTOL / err).sqrt();
                        if err <= LTE_VTOL || h <= params.step {
                            accept(ckt, &mut solver, &x_next, &ctx);
                            TRAN_PREDICTOR_HITS.inc();
                            h = (h * scale.min(2.0))
                                .clamp(params.step, MAX_STEP_RATIO * params.step);
                            stepped = true;
                            break;
                        }
                        // Too long for the tolerance: retry shorter, with no
                        // device history committed. Shrinking from the step
                        // actually taken (cut short by a breakpoint, or
                        // stretched onto one) keeps each retry shorter.
                        TRAN_LTE_REJECTIONS.inc();
                        h = (h.min(target - t) * scale.max(0.25)).max(params.step);
                    }
                    Err(_) if h > params.step => {
                        // A long step that fails to converge retries at the
                        // nominal step before the halving path takes over.
                        TRAN_STEP_REJECTIONS.inc();
                        h = params.step;
                    }
                    Err(_) => {
                        TRAN_PREDICTOR_FALLBACKS.inc();
                        break;
                    }
                }
                target = step_target(t, h, params, breakpoints.get(next_bp));
            }
        }
        if !stepped {
            // Unpredicted path: the original seed with halving retries.
            advance_to(
                ckt,
                &mut solver,
                opts,
                params,
                &x,
                &mut x_next,
                t,
                target,
                first_step,
                MAX_STEP_HALVINGS,
            )?;
            h = params.step;
        }
        if breakpoints.get(next_bp) == Some(&target) {
            // The source slope may jump here: restart from the nominal step.
            next_bp += 1;
            h = params.step;
        }
        TRAN_STEPS_ACCEPTED.inc();
        x_prev.copy_from_slice(&x);
        std::mem::swap(&mut x, &mut x_next);
        h_prev = target - t;
        t = target;
        first_step = false;
        record(ckt, &solver, &x, t, &mut wave);
        if stop(&wave) {
            break;
        }
    }
    Ok(wave)
}

/// End of the step of proposed size `h` from `t`: the next edge (the
/// source breakpoint `bp`, else `stop`) when the step would end within
/// half a nominal step of it. The grid so lands exactly on every edge,
/// leaves no sliver step before one, and never passes one. With no
/// breakpoints and `h` at the nominal step this is the fixed grid: it
/// ends with exactly one sample at `stop`, whether or not the window is
/// an integer multiple of the step, and floating-point drift can neither
/// skip that sample nor emit a duplicate near it.
fn step_target(t: f64, h: f64, params: &TranParams, bp: Option<&f64>) -> f64 {
    let edge = bp.copied().unwrap_or(params.stop);
    if t + h >= edge - 0.5 * params.step {
        edge
    } else {
        t + h
    }
}

/// Every independent source's breakpoints in `(0, stop)`, ascending, with
/// any closer than a hundredth of a step to the one before merged into
/// it: steps that short would only hurt conditioning.
fn source_breakpoints(ckt: &Circuit, params: &TranParams) -> Vec<f64> {
    let mut all: Vec<f64> = ckt
        .devices()
        .iter()
        .flat_map(|d| match d {
            Device::Vsource(v) => v.wave.breakpoints(params.stop),
            Device::Isource(i) => i.wave.breakpoints(params.stop),
            _ => Vec::new(),
        })
        .collect();
    all.sort_by(f64::total_cmp);
    let mut last = 0.0;
    all.retain(|&b| {
        let keep = b - last >= 0.01 * params.step;
        if keep {
            last = b;
        }
        keep
    });
    all
}

/// One solve attempt from `seed` over `[t0, t1]` with no retries. Device
/// history is not committed: the caller accepts the solution with the
/// returned context, or rejects it and leaves the solver exactly where
/// a retry or the fallback expects it.
fn attempt_step(
    solver: &mut Solver<'_>,
    opts: &SimOptions,
    params: &TranParams,
    seed: &[f64],
    out: &mut Vec<f64>,
    t0: f64,
    t1: f64,
) -> Result<EvalCtx, SpiceError> {
    let ctx = step_ctx(opts, params, t1, t1 - t0, false);
    if CHAOS_STEP_REJECT.fire() {
        return Err(SpiceError::Convergence {
            analysis: "tran",
            at: Some(t1),
            detail: "injected step rejection (chaos)".into(),
        });
    }
    solver.newton_into(&ctx, seed, out)?;
    check_finite(out, t1)?;
    Ok(ctx)
}

/// Guard between solve and history commit: a non-finite solution must
/// never be accepted into device state or the waveform.
fn check_finite(x: &[f64], t1: f64) -> Result<(), SpiceError> {
    if x.iter().any(|v| !v.is_finite()) {
        return Err(SpiceError::NonFinite {
            analysis: "tran",
            at: Some(t1),
        });
    }
    Ok(())
}

/// Evaluation context for one transient step ending at `t1`.
fn step_ctx(opts: &SimOptions, params: &TranParams, t1: f64, h: f64, startup: bool) -> EvalCtx {
    let integ = match (params.method, startup) {
        (TranMethod::BackwardEuler, _) | (TranMethod::Trapezoidal, true) => {
            Integration::BackwardEuler { h }
        }
        (TranMethod::Trapezoidal, false) => Integration::Trapezoidal { h },
    };
    EvalCtx {
        time: t1,
        source_scale: 1.0,
        gmin: GMIN,
        integ,
        vt: crate::thermal_voltage_at(opts.temperature_c),
    }
}

/// Advances the solution from `t0` to `t1` into `out`, recursively
/// halving on convergence failure. `x0` is left untouched on failure, so
/// each halving retry restarts from the last accepted solution.
#[allow(clippy::too_many_arguments)]
fn advance_to(
    ckt: &Circuit,
    solver: &mut Solver<'_>,
    opts: &SimOptions,
    params: &TranParams,
    x0: &[f64],
    out: &mut Vec<f64>,
    t0: f64,
    t1: f64,
    startup: bool,
    halvings_left: u32,
) -> Result<(), SpiceError> {
    let ctx = step_ctx(opts, params, t1, t1 - t0, startup);
    let first_try = if CHAOS_STEP_REJECT.fire() {
        Err(SpiceError::Convergence {
            analysis: "tran",
            at: Some(t1),
            detail: "injected step rejection (chaos)".into(),
        })
    } else {
        solver
            .newton_into(&ctx, x0, out)
            .and_then(|()| check_finite(out, t1))
    };
    match first_try {
        Ok(()) => {
            accept(ckt, solver, out, &ctx);
            Ok(())
        }
        // A budget stop is terminal by design: retrying after the budget
        // ran out would defeat its purpose.
        Err(e @ SpiceError::BudgetExhausted { .. }) => Err(e),
        Err(_) if halvings_left > 0 => {
            TRAN_STEP_REJECTIONS.inc();
            // Off the hot path: a failed step may allocate for the
            // midpoint scratch without disturbing the steady-state loop.
            let mid = 0.5 * (t0 + t1);
            let mut xm = Vec::with_capacity(x0.len());
            advance_to(
                ckt,
                solver,
                opts,
                params,
                x0,
                &mut xm,
                t0,
                mid,
                startup,
                halvings_left - 1,
            )?;
            advance_to(
                ckt,
                solver,
                opts,
                params,
                &xm,
                out,
                mid,
                t1,
                false,
                halvings_left - 1,
            )
        }
        Err(e) => {
            // Halving retries are exhausted: climb the same escalation
            // ladder the operating point uses (gmin stepping, then source
            // stepping) at this step's context before giving up.
            TRAN_ESCALATIONS.inc();
            match solver
                .solve_escalated(&ctx, x0, out)
                .and_then(|esc| check_finite(out, t1).map(|()| esc))
            {
                Ok(_) => {
                    accept(ckt, solver, out, &ctx);
                    Ok(())
                }
                Err(e2 @ SpiceError::BudgetExhausted { .. }) => Err(e2),
                Err(e2) => Err(SpiceError::Convergence {
                    analysis: "tran",
                    at: Some(t1),
                    detail: format!("{e}; escalation failed: {e2}"),
                }),
            }
        }
    }
}

fn accept(ckt: &Circuit, solver: &mut Solver<'_>, x: &[f64], ctx: &EvalCtx) {
    for (i, dev) in ckt.devices().iter().enumerate() {
        dev.accept_timestep(x, ctx, &mut solver.states[i]);
    }
}

fn record(ckt: &Circuit, solver: &Solver<'_>, x: &[f64], t: f64, wave: &mut Waveform) {
    // Streamed straight into the waveform — building intermediate vectors
    // here would put two heap allocations on every accepted step.
    wave.push_sample(
        t,
        (1..ckt.num_nodes()).map(|idx| {
            let n = crate::circuit::NodeId(idx);
            (n, solver.voltage(x, n))
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, Resistor, SourceWave, Vsource};

    /// RC charging from a step: compare to the analytic exponential.
    #[test]
    fn rc_step_matches_analytic() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        // Source steps 0 -> 1 V at t = 1 ns over 10 ps.
        c.add_vsource(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            SourceWave::step(0.0, 1.0, 1e-9, 10e-12),
        ));
        c.add_resistor(Resistor::new("R1", vin, out, 1e3)); // tau = 1 ns
        c.add_capacitor(Capacitor::new("C1", out, Circuit::GROUND, 1e-12));
        let wave = transient(&c, &TranParams::new(5e-12, 6e-9)).unwrap();
        // At t = 1ns + 2*tau the analytic value is 1 - e^-2 ≈ 0.8647
        // (edge is fast compared to tau).
        let v = wave.sample_at(out, 3.01e-9);
        assert!((v - 0.8647).abs() < 0.01, "v = {v}");
    }

    /// A stopped run is a bit-identical prefix of the full run: same
    /// times, same values, and it ends at the first sample the predicate
    /// accepts.
    #[test]
    fn transient_until_is_a_prefix_of_the_full_run() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            SourceWave::step(0.0, 1.0, 1e-9, 10e-12),
        ));
        c.add_resistor(Resistor::new("R1", vin, out, 1e3));
        c.add_capacitor(Capacitor::new("C1", out, Circuit::GROUND, 1e-12));
        let params = TranParams::new(5e-12, 6e-9);
        let opts = SimOptions::new();
        let full = transient_with_options(&c, &params, &opts).unwrap();
        let mut calls = 0;
        let part = transient_until(&c, &params, &opts, |w| {
            calls += 1;
            w.trace(out).last().is_some_and(|&v| v >= 0.5)
        })
        .unwrap();
        let n = part.time().len();
        assert!(
            n > 2 && n < full.time().len(),
            "stopped after {n} of {}",
            full.time().len()
        );
        // Called once per accepted step, never on the t = 0 sample.
        assert_eq!(calls, n - 1);
        assert_eq!(part.time(), &full.time()[..n]);
        for node in [vin, out] {
            assert_eq!(part.trace(node), &full.trace(node)[..n]);
        }
        assert!(part.trace(out)[n - 1] >= 0.5 && part.trace(out)[n - 2] < 0.5);
    }

    #[test]
    fn backward_euler_also_converges_to_final_value() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            SourceWave::dc(2.0),
        ));
        c.add_resistor(Resistor::new("R1", vin, out, 1e3));
        c.add_capacitor(Capacitor::new("C1", out, Circuit::GROUND, 1e-12));
        // UIC start: cap begins at 0, charges to 2.
        let params = TranParams::new(20e-12, 10e-9)
            .with_backward_euler()
            .with_uic();
        let wave = transient(&c, &params).unwrap();
        assert!((wave.final_value(out) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn from_op_start_is_already_settled() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            SourceWave::dc(1.5),
        ));
        c.add_resistor(Resistor::new("R1", vin, out, 1e3));
        c.add_capacitor(Capacitor::new("C1", out, Circuit::GROUND, 1e-12));
        let wave = transient(&c, &TranParams::new(50e-12, 2e-9)).unwrap();
        // No transient at all: output pinned at 1.5 V throughout.
        let (lo, hi) = wave.extrema(out);
        assert!((lo - 1.5).abs() < 1e-6 && (hi - 1.5).abs() < 1e-6);
    }

    /// Options that pin the fixed grid of the nominal step.
    fn fixed_grid() -> SimOptions {
        SimOptions {
            predictor: false,
            ..SimOptions::new()
        }
    }

    /// End-of-window clamping on the fixed grid: whether or not the window
    /// is an integer multiple of the step, the waveform ends with exactly
    /// one sample at exactly `stop` and none beyond it.
    #[test]
    fn final_sample_lands_exactly_on_stop() {
        let build = || {
            let mut c = Circuit::new();
            let vin = c.node("in");
            let out = c.node("out");
            c.add_vsource(Vsource::new(
                "V1",
                vin,
                Circuit::GROUND,
                SourceWave::dc(1.0),
            ));
            c.add_resistor(Resistor::new("R1", vin, out, 1e3));
            c.add_capacitor(Capacitor::new("C1", out, Circuit::GROUND, 1e-12));
            c
        };
        // (step, stop): integer multiple, and two non-multiples straddling
        // the half-step clamp threshold.
        for (step, stop) in [(2e-12, 10e-12), (3e-12, 10e-12), (4e-12, 10e-12)] {
            let c = build();
            let wave =
                transient_with_options(&c, &TranParams::new(step, stop), &fixed_grid()).unwrap();
            let times = wave.time();
            let at_stop = times.iter().filter(|&&t| t == stop).count();
            assert_eq!(at_stop, 1, "step {step:e}: exactly one sample at stop");
            assert_eq!(
                *times.last().unwrap(),
                stop,
                "step {step:e}: last sample must be the stop time"
            );
            assert!(
                times.iter().all(|&t| t <= stop),
                "step {step:e}: no sample may pass stop"
            );
        }
    }

    /// On the fixed grid, an integer-multiple window produces the same
    /// uniform grid as the pre-clamp stepper: 0, h, 2h, …, stop.
    #[test]
    fn integer_multiple_window_grid_is_uniform() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add_vsource(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            SourceWave::dc(1.0),
        ));
        c.add_resistor(Resistor::new("R1", vin, Circuit::GROUND, 1e3));
        let wave =
            transient_with_options(&c, &TranParams::new(2e-12, 10e-12), &fixed_grid()).unwrap();
        let times = wave.time();
        assert_eq!(times.len(), 6);
        for (i, &t) in times.iter().enumerate() {
            assert!((t - 2e-12 * i as f64).abs() < 1e-18, "sample {i} at {t:e}");
        }
    }

    /// Steps land exactly on every PWL corner, and the run ends exactly
    /// at `stop`.
    #[test]
    fn steps_land_on_every_pwl_corner() {
        let corners = [0.3e-9, 0.35e-9, 1.234567e-9, 1.3e-9, 2.5e-9];
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let wave = SourceWave::pwl(vec![
            (0.0, 0.0),
            (corners[0], 0.0),
            (corners[1], 1.0),
            (corners[2], 1.0),
            (corners[3], 0.2),
            (corners[4], 0.7),
        ]);
        c.add_vsource(Vsource::new("V1", vin, Circuit::GROUND, wave));
        c.add_resistor(Resistor::new("R1", vin, out, 1e3));
        c.add_capacitor(Capacitor::new("C1", out, Circuit::GROUND, 0.2e-12));
        let wave = transient(&c, &TranParams::new(2e-12, 4e-9)).unwrap();
        let times = wave.time();
        for corner in corners {
            assert_eq!(
                times.iter().filter(|&&t| t == corner).count(),
                1,
                "no sample exactly at the corner {corner:e}"
            );
        }
        assert_eq!(*times.last().unwrap(), 4e-9);
        // The quiet stretches ran on steps longer than the nominal one.
        assert!(times.len() < 2000 / 2, "{} samples", times.len());
    }

    /// A 50 ps edge, slowed by an RC, switches a CMOS inverter between
    /// source breakpoints: the step has grown on the slow RC tail when the
    /// inverter output snaps, so a long step misses the tolerance and is
    /// counted as a local-error rejection.
    #[test]
    fn fast_edge_triggers_lte_rejections() {
        use crate::devices::{MosParams, MosPolarity, Mosfet};
        obd_metrics::enable();
        let lte = TRAN_LTE_REJECTIONS.get();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let gate = c.node("gate");
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
            SourceWave::step(0.0, 3.3, 0.2e-9, 50e-12),
        ));
        c.add_resistor(Resistor::new("R1", vin, gate, 10e3));
        c.add_capacitor(Capacitor::new("C1", gate, Circuit::GROUND, 0.1e-12));
        let mos = MosParams {
            vt0: 0.6,
            kp: 100e-6,
            lambda: 0.02,
            gamma: 0.0,
            phi: 0.7,
            w: 4e-6,
            l: 0.5e-6,
        };
        c.add_mosfet(Mosfet::new(
            "MN",
            MosPolarity::Nmos,
            out,
            gate,
            Circuit::GROUND,
            Circuit::GROUND,
            mos,
        ));
        c.add_mosfet(Mosfet::new(
            "MP",
            MosPolarity::Pmos,
            out,
            gate,
            vdd,
            vdd,
            mos,
        ));
        c.add_capacitor(Capacitor::new("CL", out, Circuit::GROUND, 5e-15));
        let wave = transient(&c, &TranParams::new(2e-12, 3e-9)).unwrap();
        assert!(wave.final_value(out) < 0.1, "inverter output must fall");
        assert!(
            TRAN_LTE_REJECTIONS.get() > lte,
            "no local-error rejection across the switching inverter"
        );
    }

    #[test]
    fn rejects_bad_window() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add_vsource(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            SourceWave::dc(1.0),
        ));
        c.add_resistor(Resistor::new("R1", vin, Circuit::GROUND, 1e3));
        assert!(transient(&c, &TranParams::new(0.0, 1e-9)).is_err());
        assert!(transient(&c, &TranParams::new(1e-9, -1.0)).is_err());
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_backward_euler() {
        // One coarse-step RC charge; TR should land closer to the analytic
        // value than BE at the same step size.
        let analytic = |t: f64| 1.0 - (-t / 1e-9_f64).exp();
        let build = || {
            let mut c = Circuit::new();
            let vin = c.node("in");
            let out = c.node("out");
            c.add_vsource(Vsource::new(
                "V1",
                vin,
                Circuit::GROUND,
                SourceWave::dc(1.0),
            ));
            c.add_resistor(Resistor::new("R1", vin, out, 1e3));
            c.add_capacitor(Capacitor::new("C1", out, Circuit::GROUND, 1e-12));
            (c, out)
        };
        let (c1, out1) = build();
        let coarse = 0.25e-9;
        let tr = transient(&c1, &TranParams::new(coarse, 2e-9).with_uic()).unwrap();
        let (c2, out2) = build();
        let be = transient(
            &c2,
            &TranParams::new(coarse, 2e-9)
                .with_backward_euler()
                .with_uic(),
        )
        .unwrap();
        let t_probe = 1.0e-9;
        let err_tr = (tr.sample_at(out1, t_probe) - analytic(t_probe)).abs();
        let err_be = (be.sample_at(out2, t_probe) - analytic(t_probe)).abs();
        assert!(
            err_tr < err_be,
            "trapezoidal err {err_tr} should beat BE err {err_be}"
        );
    }
}
