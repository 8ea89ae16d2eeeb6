//! Verifies the Newton hot path is allocation-free in steady state: once
//! a solver's workspaces are warm, repeated `newton_into` solves must not
//! touch the heap at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use obd_linalg::{LuWorkspace, Matrix};
use obd_spice::devices::{
    Capacitor, Diode, DiodeParams, EvalCtx, Integration, MosParams, MosPolarity, Mosfet, Resistor,
    SourceWave, Vsource,
};
use obd_spice::engine::Solver;
use obd_spice::options::GMIN;
use obd_spice::{Circuit, SimOptions};

/// Counts heap operations from the measured thread while `COUNTING` is
/// set; otherwise defers straight to the system allocator.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Set on the thread whose solves are being measured. The test
    /// harness's own threads (progress printing, result bookkeeping) may
    /// allocate at any moment; const-init keeps reading this flag itself
    /// allocation-free inside the allocator.
    static MEASURED_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING.load(Ordering::Relaxed) && MEASURED_THREAD.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The allocation-counting window and the global metrics switch are both
/// process-wide, so tests that touch either must not overlap.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// A circuit exercising every stamp class: source, resistor, capacitor
/// companion, diode and MOSFET. Each of the `stages` is one such mixed
/// stage (resistive-load NMOS inverter, a resistor into a clamp diode, an
/// output capacitor), gated by the previous stage's output, and adds two
/// MNA unknowns to the four of the shared supply and input.
fn mixed_chain(stages: usize) -> Circuit {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
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
        SourceWave::dc(1.8),
    ));
    let mut gate = vin;
    for k in 0..stages {
        let out = c.node(&format!("out{k}"));
        let mid = c.node(&format!("mid{k}"));
        c.add_resistor(Resistor::new(&format!("RL{k}"), vdd, out, 10e3));
        c.add_mosfet(Mosfet::new(
            &format!("M{k}"),
            MosPolarity::Nmos,
            out,
            gate,
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
        c.add_resistor(Resistor::new(&format!("R{k}"), out, mid, 2e3));
        c.add_diode(Diode::new(
            &format!("D{k}"),
            mid,
            Circuit::GROUND,
            DiodeParams::new(1e-14),
        ));
        c.add_capacitor(Capacitor::new(
            &format!("C{k}"),
            out,
            Circuit::GROUND,
            0.1e-12,
        ));
        gate = out;
    }
    c
}

/// Runs on a single mixed stage and on a 22-stage chain (48 unknowns),
/// so the proof also covers a system larger than the biggest one the
/// suite simulates (the 47-unknown Fig. 8 sum circuit).
#[test]
fn warm_newton_solves_do_not_allocate() {
    let _guard = TEST_LOCK.lock().unwrap();
    MEASURED_THREAD.with(|c| c.set(true));
    for (stages, min_dim) in [(1, 6), (22, 47)] {
        let ckt = mixed_chain(stages);
        let opts = SimOptions::new();
        let mut solver = Solver::new(&ckt, &opts).unwrap();
        assert!(solver.dim() >= min_dim, "{stages} stages: {}", solver.dim());

        let ctx = EvalCtx {
            time: 1e-9,
            source_scale: 1.0,
            gmin: GMIN,
            integ: Integration::Trapezoidal { h: 5e-12 },
            vt: obd_spice::THERMAL_VOLTAGE,
        };

        // Warm-up: the operating point sizes every solver buffer, then one
        // transient-context solve warms the caller-side buffers.
        let x0 = solver.operating_point().unwrap();
        let mut x = vec![0.0; solver.dim()];
        solver.newton_into(&ctx, &x0, &mut x).unwrap();

        ALLOC_CALLS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        for _ in 0..50 {
            solver.newton_into(&ctx, &x0, &mut x).unwrap();
        }
        COUNTING.store(false, Ordering::SeqCst);

        let calls = ALLOC_CALLS.load(Ordering::SeqCst);
        assert_eq!(
            calls,
            0,
            "{stages} stages ({} unknowns): steady-state newton_into performed \
             {calls} heap allocations over 50 solves",
            solver.dim()
        );
    }
}

/// The engine's Newton loop and the LU workspace are instrumented with
/// metric counters; with metrics disabled those call sites must stay
/// branch-only — zero heap traffic across the warm transient-shaped loop.
/// The enabled contrast run at the end proves the counters really sit on
/// this exact path (so the zero-allocation claim is not vacuous).
#[test]
fn metrics_disabled_path_does_not_allocate_in_hot_loop() {
    let _guard = TEST_LOCK.lock().unwrap();
    MEASURED_THREAD.with(|c| c.set(true));
    obd_metrics::disable();

    let ckt = mixed_chain(1);
    let opts = SimOptions::new();
    let mut solver = Solver::new(&ckt, &opts).unwrap();

    // Warm-up, then mimic the transient hot loop: repeated solves with a
    // step-sized trapezoidal context, seeds alternating like predictor
    // steps do.
    let x0 = solver.operating_point().unwrap();
    let mut x = vec![0.0; solver.dim()];
    let mk_ctx = |time: f64| EvalCtx {
        time,
        source_scale: 1.0,
        gmin: GMIN,
        integ: Integration::Trapezoidal { h: 5e-12 },
        vt: obd_spice::THERMAL_VOLTAGE,
    };
    solver.newton_into(&mk_ctx(1e-9), &x0, &mut x).unwrap();

    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for k in 0..50u32 {
        let t = 1e-9 + f64::from(k) * 5e-12;
        solver.newton_into(&mk_ctx(t), &x0, &mut x).unwrap();
    }
    COUNTING.store(false, Ordering::SeqCst);
    let calls = ALLOC_CALLS.load(Ordering::SeqCst);
    assert_eq!(
        calls, 0,
        "metrics-disabled hot loop performed {calls} heap allocations over 50 solves"
    );

    // Contrast: the same loop with metrics enabled must tick the Newton
    // counter, proving the disabled branch above guarded real call sites.
    obd_metrics::enable();
    let before = obd_metrics::snapshot()
        .counter("spice.newton_iterations")
        .unwrap_or(0);
    solver.newton_into(&mk_ctx(2e-9), &x0, &mut x).unwrap();
    let after = obd_metrics::snapshot()
        .counter("spice.newton_iterations")
        .unwrap_or(0);
    obd_metrics::disable();
    assert!(
        after > before,
        "enabled run must record newton iterations ({before} -> {after})"
    );
}

/// A warm `LuWorkspace` fed two matrices of one nonzero pattern whose
/// pivot orders differ rebuilds its replay record on every
/// factorization; the rebuilds reuse the record's buffers as well.
#[test]
fn alternating_pivot_orders_rebuild_without_allocating() {
    let _guard = TEST_LOCK.lock().unwrap();
    MEASURED_THREAD.with(|c| c.set(true));
    obd_metrics::enable();

    // A node chain with a voltage source on node 0: a strong conductance
    // there pivots column 0 on the node row, a weak one on the branch row.
    let nodes = 7;
    let matrix = |g0: f64| {
        let mut m = Matrix::zeros(nodes + 1, nodes + 1);
        m.add_at(0, 0, g0);
        for k in 0..nodes {
            m.add_at(k, k, 1e-12);
        }
        for k in 0..nodes - 1 {
            let g = 1e-3 * (k + 1) as f64;
            m.add_at(k, k, g);
            m.add_at(k + 1, k + 1, g);
            m.add_at(k, k + 1, -g);
            m.add_at(k + 1, k, -g);
        }
        m[(0, nodes)] = 1.0;
        m[(nodes, 0)] = 1.0;
        m
    };
    let pair = [matrix(50.0), matrix(0.02)];
    let b: Vec<f64> = (0..=nodes).map(|k| k as f64 - 3.0).collect();
    let mut ws = LuWorkspace::new();
    let mut x = Vec::new();
    for a in pair.iter().chain(&pair) {
        ws.factor_into(a).unwrap();
        ws.solve_into(&b, &mut x).unwrap();
    }

    let builds = || {
        obd_metrics::snapshot()
            .counter("linalg.symbolic_builds")
            .unwrap_or(0)
    };
    let before = builds();
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for k in 0..50 {
        ws.factor_into(&pair[k % 2]).unwrap();
        ws.solve_into(&b, &mut x).unwrap();
    }
    COUNTING.store(false, Ordering::SeqCst);
    let calls = ALLOC_CALLS.load(Ordering::SeqCst);
    let rebuilt = builds() - before;
    obd_metrics::disable();
    assert_eq!(rebuilt, 50, "every factorization must rebuild the record");
    assert_eq!(
        calls, 0,
        "warm rebuilding factorizations performed {calls} heap allocations over 50 solves"
    );
}
