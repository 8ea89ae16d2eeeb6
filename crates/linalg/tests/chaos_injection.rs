//! Chaos-armed failure paths in their own test binary: arming fault
//! injection is process-global and must not share a process with tests
//! that expect a clean kernel.

use std::sync::Mutex;

use obd_linalg::{solve_refined, LinalgError, LuWorkspace, Matrix};

/// Chaos arming is process-global; tests in this binary serialize here.
static GATE: Mutex<()> = Mutex::new(());

fn well_conditioned(n: usize) -> (Matrix, Vec<f64>) {
    let mut m = Matrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            m[(r, c)] = if r == c { 5.0 } else { 1.0 };
        }
    }
    (m, vec![1.0; n])
}

/// A forced-singular injection must surface as the typed `Singular`
/// error even though the matrix itself is perfectly factorable.
#[test]
fn injected_singularity_is_typed_not_a_panic() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (m, b) = well_conditioned(4);
    obd_chaos::arm(3, 1000);
    let res = solve_refined(&m, &b);
    obd_chaos::disarm();
    assert!(
        matches!(res, Err(LinalgError::Singular { .. })),
        "expected injected singularity, got {res:?}"
    );
    // Disarmed, the same system solves cleanly.
    let x = solve_refined(&m, &b).unwrap();
    assert!(x.iter().all(|v| v.is_finite()));
}

/// The NaN-poisoning point on the workspace solve path reports
/// `NonFinite` through the typed error channel.
#[test]
fn injected_nonfinite_solution_is_typed() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (m, b) = well_conditioned(4);
    let mut ws = LuWorkspace::with_order(4);
    // Rate 0 still arms the RNG machinery but never fires: factoring must
    // succeed so the solve path (where the nonfinite point lives) runs.
    obd_chaos::arm(5, 0);
    ws.factor_into(&m).unwrap();
    let mut x = Vec::new();
    obd_chaos::arm(5, 1000);
    // Full rate: the solve itself now hits the nonfinite injection.
    let res = ws.solve_into(&b, &mut x);
    obd_chaos::disarm();
    assert!(
        matches!(res, Err(LinalgError::NonFinite)),
        "expected injected NonFinite, got {res:?}"
    );
}

/// Both chaos points still fire once a workspace replays its recorded
/// structure, and a forced failure leaves the record intact.
#[test]
fn chaos_fires_on_replayed_factorizations() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obd_metrics::enable();
    let reuses = || {
        obd_metrics::snapshot()
            .counter("linalg.symbolic_reuse")
            .unwrap_or(0)
    };
    let (m, b) = well_conditioned(4);
    let mut ws = LuWorkspace::new();
    let mut x = Vec::new();
    ws.solve_refined_into(&m, &b, &mut x).unwrap();

    obd_chaos::arm(7, 1000);
    let res = ws.factor_into(&m);
    obd_chaos::disarm();
    assert!(
        matches!(res, Err(LinalgError::Singular { column: 0 })),
        "expected injected singularity, got {res:?}"
    );

    let before = reuses();
    ws.factor_into(&m).unwrap();
    assert_eq!(reuses(), before + 1, "the record survives the injection");
    obd_chaos::arm(7, 1000);
    let res = ws.solve_into(&b, &mut x);
    obd_chaos::disarm();
    assert!(
        matches!(res, Err(LinalgError::NonFinite)),
        "expected injected NonFinite, got {res:?}"
    );
    ws.solve_refined_into(&m, &b, &mut x).unwrap();
    assert_eq!(reuses(), before + 2);
}
