//! Independent oracle for the Fig. 3b breakdown network on its own.
//!
//! A MOSFET whose drain, source and bulk all sit on one rail has its gate
//! driven by a DC source. With the defect injected, the only DC path out
//! of the gate is `R_bd` into the breakdown point `X`, which drains into
//! the rail through the two equal junctions and `R_SUBSTRATE`. In the
//! device's own frame (voltages measured from the rail, positive toward
//! the gate):
//!
//! ```text
//!   (Vg − Vx)/R_bd = 2·Isat·(e^{Vx/Vt} − 1) + Vx/R_SUBSTRATE
//! ```
//!
//! The test solves that scalar equation by plain bisection, with no MNA
//! and no Newton, and checks the gate source current of the analog
//! engine's operating point against `(Vg − Vx)/R_bd` at every ladder
//! stage, for NMOS and PMOS.

use obd_core::stage::R_SUBSTRATE;
use obd_core::{inject_obd, BreakdownStage, Polarity};
use obd_spice::analysis::op::operating_point;
use obd_spice::devices::{DiodeParams, MosParams, MosPolarity, Mosfet, SourceWave, Vsource};
use obd_spice::{thermal_voltage_at, Circuit, SimOptions};

const VDD: f64 = 3.3;

/// The breakdown-path current solved by hand: bisection on the
/// breakdown-point voltage `vx ∈ [0, vg]`, where the gate-side current
/// minus the rail-side current falls strictly from `vg/r_bd` to below 0.
fn hand_current(vg: f64, r_bd: f64, isat: f64, vt: f64) -> f64 {
    let excess = |vx: f64| (vg - vx) / r_bd - 2.0 * isat * (vx / vt).exp_m1() - vx / R_SUBSTRATE;
    let (mut lo, mut hi) = (0.0, vg);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if excess(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (vg - 0.5 * (lo + hi)) / r_bd
}

/// Gate source current of the engine's operating point for one defect.
fn engine_current(polarity: Polarity, stage: BreakdownStage, opts: &SimOptions) -> Option<f64> {
    let params = stage.params(polarity).ok()?;
    let (mos, rail_v, gate_v) = match polarity {
        Polarity::Nmos => (MosPolarity::Nmos, 0.0, VDD),
        Polarity::Pmos => (MosPolarity::Pmos, VDD, 0.0),
    };
    let mut ckt = Circuit::new();
    let gate = ckt.node("g");
    let rail = ckt.node("rail");
    ckt.add_vsource(Vsource::new(
        "VG",
        gate,
        Circuit::GROUND,
        SourceWave::dc(gate_v),
    ));
    ckt.add_vsource(Vsource::new(
        "VRAIL",
        rail,
        Circuit::GROUND,
        SourceWave::dc(rail_v),
    ));
    let m = ckt.add_mosfet(Mosfet::new(
        "M1",
        mos,
        rail,
        gate,
        rail,
        rail,
        MosParams {
            vt0: 0.6,
            kp: 1e-4,
            lambda: 0.0,
            gamma: 0.0,
            phi: 0.7,
            w: 1e-6,
            l: 0.35e-6,
        },
    ));
    inject_obd(&mut ckt, m, params, "t").unwrap();
    let op = operating_point(&ckt, opts).unwrap();
    Some(op.supply_current_magnitude(0).unwrap())
}

#[test]
fn breakdown_network_matches_hand_solved_operating_point() {
    // The solver's gmin shunts (1 pS on every node and across every
    // junction) are not part of the Fig. 3b network. At 3.3 V they carry
    // a few pA against a path current of at least 0.17 mA: a relative
    // 2e-8, fifty times inside the bound below.
    let opts = SimOptions::new();
    let vt = thermal_voltage_at(opts.temperature_c);
    let mut checked = 0;
    for polarity in [Polarity::Nmos, Polarity::Pmos] {
        for stage in BreakdownStage::ALL {
            let Some(got) = engine_current(polarity, stage, &opts) else {
                // PMOS HBD is N/A in Table 1.
                assert_eq!((polarity, stage), (Polarity::Pmos, BreakdownStage::Hbd));
                continue;
            };
            let params = stage.params(polarity).unwrap();
            // The engine applies the junction temperature law at its
            // simulation temperature; take the same effective Isat.
            let isat = DiodeParams::new(params.isat).isat_at(vt);
            let want = hand_current(VDD, params.r_bd.max(1e-3), isat, vt);
            let rel = (got - want).abs() / want;
            assert!(
                rel < 1e-6,
                "{polarity:?} {stage}: engine {got:e} A vs hand {want:e} A (rel {rel:e})"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 11, "six NMOS stages and five PMOS stages");
}
