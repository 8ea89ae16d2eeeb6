//! Kernels of the analog substrate: LU factorization (one-shot and
//! workspace-reusing), operating point, transient integration (including
//! the backward-Euler vs trapezoidal ablation called out in DESIGN.md).

use obd_bench::timing::{bench, bench_with, black_box, header, BenchOpts};
use obd_linalg::{solve_refined, LuWorkspace, Matrix};
use obd_spice::analysis::op::operating_point;
use obd_spice::analysis::tran::{transient_with_options, TranParams};
use obd_spice::devices::{Capacitor, Resistor, SourceWave, Vsource};
use obd_spice::{Circuit, SimOptions};

fn lu_matrix(n: usize) -> (Matrix, Vec<f64>) {
    let mut m = Matrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            if r == c {
                m[(r, c)] = 4.0 + (r % 3) as f64;
            } else {
                m[(r, c)] = 1.0 / (1.0 + (r as f64 - c as f64).abs());
            }
        }
    }
    let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    (m, b)
}

fn rc_ladder(stages: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.add_vsource(Vsource::new(
        "V1",
        vin,
        Circuit::GROUND,
        SourceWave::step(0.0, 1.0, 1e-9, 50e-12),
    ));
    let mut prev = vin;
    for i in 0..stages {
        let n = ckt.node(&format!("n{i}"));
        ckt.add_resistor(Resistor::new(&format!("R{i}"), prev, n, 1e3));
        ckt.add_capacitor(Capacitor::new(
            &format!("C{i}"),
            n,
            Circuit::GROUND,
            0.2e-12,
        ));
        prev = n;
    }
    ckt
}

fn bench_lu() {
    header("linalg");
    for n in [8usize, 32, 64] {
        let (m, b) = lu_matrix(n);
        bench(&format!("solve_refined_{n}x{n} (alloc per call)"), || {
            solve_refined(&m, &b).expect("nonsingular")
        });
        let mut ws = LuWorkspace::with_order(n);
        let mut x = vec![0.0; n];
        bench(&format!("workspace_solve_{n}x{n} (buffers reused)"), || {
            ws.solve_refined_into(&m, &b, &mut x).expect("nonsingular");
            black_box(x[0])
        });
    }
}

fn bench_op() {
    header("spice_op");
    let bench5 = obd_core::characterize::Fig5Bench::for_kind(obd_logic::netlist::GateKind::Nand)
        .expect("bench");
    let tech = obd_cmos::TechParams::date05();
    let mut exp = obd_cmos::expand::expand(&bench5.netlist, &tech).expect("expand");
    exp.drive_input(bench5.pis[0], SourceWave::dc(0.0));
    exp.drive_input(bench5.pis[1], SourceWave::dc(tech.vdd));
    bench("fig5_bench_operating_point", || {
        operating_point(&exp.circuit, &SimOptions::new()).expect("op")
    });
}

fn bench_transient() {
    header("spice_tran");
    let ckt = rc_ladder(10);
    let opts = BenchOpts::heavy();
    bench_with("rc10_trapezoidal_5ns_at_10ps", &opts, || {
        transient_with_options(&ckt, &TranParams::new(10e-12, 5e-9), &SimOptions::new())
            .expect("tran")
    });
    bench_with("rc10_backward_euler_5ns_at_10ps", &opts, || {
        transient_with_options(
            &ckt,
            &TranParams::new(10e-12, 5e-9).with_backward_euler(),
            &SimOptions::new(),
        )
        .expect("tran")
    });
}

fn main() {
    bench_lu();
    bench_op();
    bench_transient();
}
