//! Chaos-armed failure paths through the full solve pipeline, in their
//! own test binary (arming fault injection is process-global).
//!
//! These tests pin the robustness contract: whatever the injection layer
//! throws at the stack, the pipeline answers with a *typed* error — never
//! a panic, never silent garbage.

use std::sync::Mutex;

use obd_spice::analysis::op::operating_point;
use obd_spice::analysis::tran::{transient_with_options, TranParams};
use obd_spice::devices::{
    Capacitor, Diode, DiodeParams, EvalCtx, Integration, Resistor, SourceWave, Vsource,
};
use obd_spice::engine::Solver;
use obd_spice::options::GMIN;
use obd_spice::{Circuit, SimOptions, SpiceError};

/// Chaos arming is process-global; tests in this binary serialize here.
static GATE: Mutex<()> = Mutex::new(());

fn diode_circuit() -> Circuit {
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
    c
}

fn rc_circuit() -> Circuit {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let out = c.node("out");
    c.add_vsource(Vsource::new(
        "V1",
        vin,
        Circuit::GROUND,
        SourceWave::step(0.0, 1.0, 0.2e-9, 50e-12),
    ));
    c.add_resistor(Resistor::new("R1", vin, out, 1e3));
    c.add_capacitor(Capacitor::new("C1", out, Circuit::GROUND, 1e-12));
    c
}

/// Full-rate chaos makes every Newton attempt fail; the operating point
/// must walk the whole escalation ladder and come back with the typed
/// convergence error.
#[test]
fn op_under_full_chaos_reports_typed_convergence() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let c = diode_circuit();
    obd_chaos::arm(1, 1000);
    let res = operating_point(&c, &SimOptions::new());
    obd_chaos::disarm();
    match res {
        Err(SpiceError::Convergence { analysis, .. }) => assert_eq!(analysis, "op"),
        other => panic!("expected typed convergence failure, got {other:?}"),
    }
}

/// Full-rate step rejection exhausts the step-halving limit, then the
/// escalation ladder, and the transient reports the typed convergence
/// error — the halving-exhaustion failure path end to end.
#[test]
fn tran_halving_exhaustion_reports_typed_convergence() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let c = rc_circuit();
    obd_chaos::arm(2, 1000);
    // `with_uic` skips the initial operating-point solve, so the first
    // failure comes from the stepper itself, not the op.
    let res = transient_with_options(
        &c,
        &TranParams::new(50e-12, 1e-9).with_uic(),
        &SimOptions::new(),
    );
    obd_chaos::disarm();
    match res {
        Err(SpiceError::Convergence { analysis, .. }) => assert_eq!(analysis, "tran"),
        other => panic!("expected typed convergence failure, got {other:?}"),
    }
}

/// An injected singular LU surfaces from a Newton solve as the typed
/// `Singular` error. The stall/NaN points are evaluated before the LU
/// factor on each Newton entry, so this scans seeds at half rate for one
/// where only the singularity injection lands first.
#[test]
fn injected_singular_lu_surfaces_as_typed_singular() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let c = diode_circuit();
    let opts = SimOptions::new();
    let mut hit = false;
    for seed in 0..256 {
        obd_chaos::arm(seed, 500);
        let mut s = Solver::new(&c, &opts).unwrap();
        let ctx = EvalCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: GMIN,
            integ: Integration::Dc,
            vt: obd_spice::THERMAL_VOLTAGE,
        };
        let x0 = vec![0.0; s.dim()];
        let mut x = vec![0.0; s.dim()];
        let res = s.newton_into(&ctx, &x0, &mut x);
        obd_chaos::disarm();
        if let Err(SpiceError::Singular { .. }) = res {
            hit = true;
            break;
        }
    }
    assert!(
        hit,
        "no seed in 0..256 surfaced the injected LU singularity as SpiceError::Singular"
    );
}

/// With chaos disarmed, the same circuits solve cleanly — the injection
/// points are pure pass-throughs when off.
#[test]
fn disarmed_pipeline_is_unaffected() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obd_chaos::disarm();
    assert!(operating_point(&diode_circuit(), &SimOptions::new()).is_ok());
    assert!(transient_with_options(
        &rc_circuit(),
        &TranParams::new(50e-12, 1e-9),
        &SimOptions::new()
    )
    .is_ok());
}
