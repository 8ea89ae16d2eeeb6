//! Analytic validation of the analog engine: every test has a
//! closed-form expected answer.

use obd_spice::analysis::dc::{dc_sweep, DcSweep};
use obd_spice::analysis::op::operating_point;
use obd_spice::analysis::tran::{transient, transient_with_options, TranParams};
use obd_spice::devices::{
    Capacitor, Diode, DiodeParams, Isource, MosParams, MosPolarity, Mosfet, Resistor, SourceWave,
    Vsource,
};
use obd_spice::{Circuit, SimOptions, THERMAL_VOLTAGE};

/// Minimal deterministic PRNG (xorshift64*) so the randomized validation
/// sweeps below run without external dependencies; the suite must build
/// offline.
struct TestRng(u64);

impl TestRng {
    fn new(seed: u64) -> Self {
        TestRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }

    /// Log-uniform sample, for ranges spanning orders of magnitude.
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        10f64.powf(self.uniform(lo.log10(), hi.log10()))
    }
}

/// Arbitrary resistor ladders solve to the analytic series-divider
/// voltages.
#[test]
fn resistor_ladder_matches_series_formula() {
    let rs = [1e3, 2.2e3, 4.7e3, 10e3, 330.0];
    let vtotal = 5.0;
    let mut ckt = Circuit::new();
    let top = ckt.node("top");
    ckt.add_vsource(Vsource::new(
        "V",
        top,
        Circuit::GROUND,
        SourceWave::dc(vtotal),
    ));
    let mut prev = top;
    let mut nodes = Vec::new();
    for (i, &r) in rs.iter().enumerate() {
        let n = if i + 1 == rs.len() {
            Circuit::GROUND
        } else {
            ckt.node(&format!("n{i}"))
        };
        ckt.add_resistor(Resistor::new(&format!("R{i}"), prev, n, r));
        nodes.push(n);
        prev = n;
    }
    let op = operating_point(&ckt, &SimOptions::new()).unwrap();
    let rsum: f64 = rs.iter().sum();
    let mut drop = 0.0;
    for (i, &r) in rs.iter().enumerate().take(rs.len() - 1) {
        drop += r;
        let expect = vtotal * (1.0 - drop / rsum);
        let got = op.voltage(nodes[i]);
        // gmin loading (1e-12 S per node) shifts results at the 1e-8 level.
        assert!(
            (got - expect).abs() < 1e-6 * expect,
            "node {i}: {got} vs {expect}"
        );
    }
}

/// A current source into a resistor: V = I·R, plus superposition with a
/// voltage divider.
#[test]
fn current_source_ohms_law() {
    let mut ckt = Circuit::new();
    let n = ckt.node("n");
    ckt.add_isource(Isource::new("I1", Circuit::GROUND, n, SourceWave::dc(1e-3)));
    ckt.add_resistor(Resistor::new("R1", n, Circuit::GROUND, 2.2e3));
    let op = operating_point(&ckt, &SimOptions::new()).unwrap();
    assert!((op.voltage(n) - 2.2).abs() < 1e-6); // gmin loading shifts ~nV
}

/// Diode + resistor: the solved junction voltage satisfies the Shockley
/// equation against the resistor current to high precision.
#[test]
fn diode_resistor_consistency() {
    for isat in [1e-14, 1e-20, 1e-27, 1e-30] {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let a = ckt.node("a");
        ckt.add_vsource(Vsource::new("V", vin, Circuit::GROUND, SourceWave::dc(3.3)));
        ckt.add_resistor(Resistor::new("R", vin, a, 1e3));
        ckt.add_diode(Diode::new("D", a, Circuit::GROUND, DiodeParams::new(isat)));
        let op = operating_point(&ckt, &SimOptions::new()).unwrap();
        let vd = op.voltage(a);
        let i_r = (3.3 - vd) / 1e3;
        let i_d = isat * ((vd / THERMAL_VOLTAGE).exp() - 1.0);
        // Newton converges voltages to vntol = 1 µV; through the diode
        // exponential that is a relative current error of vntol/VT ≈ 4e-5.
        assert!(
            (i_r - i_d).abs() < 1e-4 * i_r.abs().max(1e-12),
            "isat={isat}: KCL residual {i_r} vs {i_d}"
        );
    }
}

/// The CMOS inverter switching threshold follows the analytic
/// equal-current condition: VM where both devices saturate.
#[test]
fn inverter_switching_threshold_matches_analytic() {
    let vdd = 3.3;
    let (kn, kp) = (120e-6, 40e-6);
    let (vtn, vtp) = (0.7, 0.8);
    let (wn, wp) = (0.6e-6, 1.2e-6);
    let l = 0.35e-6;
    let mut ckt = Circuit::new();
    let nvdd = ckt.node("vdd");
    let nin = ckt.node("in");
    let nout = ckt.node("out");
    ckt.add_vsource(Vsource::new(
        "VDD",
        nvdd,
        Circuit::GROUND,
        SourceWave::dc(vdd),
    ));
    ckt.add_vsource(Vsource::new(
        "VIN",
        nin,
        Circuit::GROUND,
        SourceWave::dc(0.0),
    ));
    let params = |vt0: f64, kp_: f64, w: f64| MosParams {
        vt0,
        kp: kp_,
        lambda: 0.0,
        gamma: 0.0,
        phi: 0.7,
        w,
        l,
    };
    ckt.add_mosfet(Mosfet::new(
        "MN",
        MosPolarity::Nmos,
        nout,
        nin,
        Circuit::GROUND,
        Circuit::GROUND,
        params(vtn, kn, wn),
    ));
    ckt.add_mosfet(Mosfet::new(
        "MP",
        MosPolarity::Pmos,
        nout,
        nin,
        nvdd,
        nvdd,
        params(vtp, kp, wp),
    ));
    let res = dc_sweep(
        &ckt,
        &SimOptions::new(),
        &DcSweep::new("VIN", 0.0, vdd, 331),
    )
    .unwrap();
    // Find vin where vout crosses vdd/2.
    let curve = res.transfer_curve(nout);
    let vm_sim = curve
        .windows(2)
        .find(|w| w[0].1 >= vdd / 2.0 && w[1].1 < vdd / 2.0)
        .map(|w| 0.5 * (w[0].0 + w[1].0))
        .expect("VTC crosses half supply");
    // Analytic VM: kn'(VM-Vtn)^2 = kp'(VDD-VM-|Vtp|)^2 with both
    // saturated; kn' = kn W/L etc.
    let bn = kn * wn / l;
    let bp = kp * wp / l;
    let r = (bn / bp).sqrt();
    let vm = (vdd - vtp + r * vtn) / (1.0 + r);
    assert!(
        (vm_sim - vm).abs() < 0.03,
        "simulated VM {vm_sim:.3} vs analytic {vm:.3}"
    );
}

/// RC discharge: after a step down, the node follows V·e^{-t/RC}.
#[test]
fn rc_discharge_exponential() {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource(Vsource::new(
        "V",
        vin,
        Circuit::GROUND,
        SourceWave::step(2.0, 0.0, 1e-9, 5e-12),
    ));
    ckt.add_resistor(Resistor::new("R", vin, out, 10e3));
    ckt.add_capacitor(Capacitor::new("C", out, Circuit::GROUND, 0.1e-12)); // tau = 1 ns
    let wave = transient(&ckt, &TranParams::new(5e-12, 6e-9)).unwrap();
    for k in 1..=4 {
        let t = 1e-9 + k as f64 * 1e-9;
        let expect = 2.0 * (-(k as f64)).exp();
        let got = wave.sample_at(out, t);
        assert!((got - expect).abs() < 0.02, "t={k}tau: {got} vs {expect}");
    }
}

/// Options that pin the fixed grid of the nominal step: the tests below
/// measure the integrator, not the step control.
fn fixed_grid() -> SimOptions {
    SimOptions {
        predictor: false,
        ..SimOptions::new()
    }
}

/// Convergence order by step halving: an RC charge from 0 V toward a
/// 1 V supply (τ = 1 ns) is sampled at t = τ with steps h, h/2 and h/4,
/// and each error is taken against the closed form 1 − e^{−t/τ}.
/// Trapezoidal integration is second order, so each halving must cut its
/// error by about 4× (accepted: 3.5–4.5×); backward Euler is first
/// order, about 2× (accepted: 1.8–2.2×). Trapezoidal runs one
/// backward-Euler startup step, whose O(h²) local error keeps the global
/// order at two.
#[test]
fn step_halving_shows_integration_order() {
    let tau = 1e-9;
    let error_at_tau = |h: f64, backward_euler: bool| -> f64 {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource(Vsource::new("V", vin, Circuit::GROUND, SourceWave::dc(1.0)));
        ckt.add_resistor(Resistor::new("R", vin, out, 1e3));
        ckt.add_capacitor(Capacitor::new("C", out, Circuit::GROUND, 1e-12));
        let mut params = TranParams::new(h, tau).with_uic();
        if backward_euler {
            params = params.with_backward_euler();
        }
        let wave = transient_with_options(&ckt, &params, &fixed_grid()).unwrap();
        // The window ends exactly at `tau`, so no interpolation enters.
        (wave.final_value(out) - (1.0 - (-1.0f64).exp())).abs()
    };
    for (backward_euler, lo, hi) in [(false, 3.5, 4.5), (true, 1.8, 2.2)] {
        let errs: Vec<f64> = [0.1, 0.05, 0.025]
            .iter()
            .map(|&f| error_at_tau(f * tau, backward_euler))
            .collect();
        for pair in errs.windows(2) {
            let ratio = pair[0] / pair[1];
            assert!(
                (lo..=hi).contains(&ratio),
                "backward_euler={backward_euler}: errors {errs:?}, halving ratio {ratio:.3} \
                 outside [{lo}, {hi}]"
            );
        }
    }
}

/// Charge conservation on a capacitive transient: an RC (1 kΩ, 1 pF)
/// charged by a 0 → 1 V step over a 3 ns window. The charge the source
/// pushes through the resistor, summed with the integrator's own
/// quadrature — the trapezoid rule under trapezoidal integration, the
/// right-endpoint rule under backward Euler — must equal the charge C·ΔV
/// left on the capacitor. Each companion model makes this an identity up
/// to solver tolerance, so a companion stamped with the wrong rule misses
/// the 1e-6 bound by orders of magnitude.
#[test]
fn source_charge_equals_stored_charge() {
    let (r, c) = (1e3, 1e-12);
    for backward_euler in [false, true] {
        for h in [10e-12, 2e-12] {
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            let out = ckt.node("out");
            let step = SourceWave::step(0.0, 1.0, 100e-12, 20e-12);
            ckt.add_vsource(Vsource::new("V", vin, Circuit::GROUND, step));
            ckt.add_resistor(Resistor::new("R", vin, out, r));
            ckt.add_capacitor(Capacitor::new("C", out, Circuit::GROUND, c));
            let mut params = TranParams::new(h, 3e-9);
            if backward_euler {
                params = params.with_backward_euler();
            }
            let wave = transient_with_options(&ckt, &params, &fixed_grid()).unwrap();
            let (t, v_in, v_out) = (wave.time(), wave.trace(vin), wave.trace(out));
            let current = |k: usize| (v_in[k] - v_out[k]) / r;
            let delivered: f64 = (1..t.len())
                .map(|k| {
                    let dt = t[k] - t[k - 1];
                    if backward_euler {
                        dt * current(k)
                    } else {
                        dt * (current(k) + current(k - 1)) / 2.0
                    }
                })
                .sum();
            let stored = c * (v_out[t.len() - 1] - v_out[0]);
            let rel = (delivered - stored).abs() / stored;
            assert!(
                rel < 1e-6,
                "backward_euler={backward_euler} h={h:e}: delivered {delivered:e} C vs \
                 stored {stored:e} C (relative error {rel:e})"
            );
        }
    }
}

/// Two resistors in parallel equal the analytic combination, for any
/// positive values spanning the magnitudes in the OBD ladder.
#[test]
fn parallel_resistors_combine() {
    let mut rng = TestRng::new(0x51CE);
    for _ in 0..32 {
        let r1 = rng.log_uniform(1e-1, 1e7);
        let r2 = rng.log_uniform(1e-1, 1e7);
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        // 1 µA keeps node voltages inside the solver's ±20 V sanity
        // clamp across the whole resistance range.
        ckt.add_isource(Isource::new("I", Circuit::GROUND, n, SourceWave::dc(1e-6)));
        ckt.add_resistor(Resistor::new("R1", n, Circuit::GROUND, r1));
        ckt.add_resistor(Resistor::new("R2", n, Circuit::GROUND, r2));
        let op = operating_point(&ckt, &SimOptions::new()).unwrap();
        let rpar = r1 * r2 / (r1 + r2);
        let expect = 1e-6 * rpar;
        assert!(
            (op.voltage(n) - expect).abs() < 2e-5 * expect.max(1e-9),
            "r1={r1} r2={r2}: {} vs {expect}",
            op.voltage(n)
        );
    }
}

/// The supply current of a divider equals V/R_total for any supply
/// and resistor pair.
#[test]
fn supply_current_matches() {
    let mut rng = TestRng::new(0x5A17);
    for _ in 0..32 {
        let v = rng.uniform(0.1, 10.0);
        let r1 = rng.log_uniform(10.0, 1e6);
        let r2 = rng.log_uniform(10.0, 1e6);
        let mut ckt = Circuit::new();
        let top = ckt.node("t");
        let mid = ckt.node("m");
        ckt.add_vsource(Vsource::new("V", top, Circuit::GROUND, SourceWave::dc(v)));
        ckt.add_resistor(Resistor::new("R1", top, mid, r1));
        ckt.add_resistor(Resistor::new("R2", mid, Circuit::GROUND, r2));
        let op = operating_point(&ckt, &SimOptions::new()).unwrap();
        let expect = v / (r1 + r2);
        let got = op.supply_current_magnitude(0).unwrap();
        assert!(
            (got - expect).abs() < 1e-12 + 2e-5 * expect,
            "v={v} r1={r1} r2={r2}: i = {got} vs {expect}"
        );
    }
}

/// PWL sources always evaluate inside the hull of their points.
#[test]
fn pwl_stays_in_hull() {
    let mut rng = TestRng::new(0x9A11);
    for _ in 0..64 {
        let count = 2 + (rng.next_u64() % 6) as usize;
        let mut pts: Vec<(f64, f64)> = (0..count)
            .map(|_| (rng.uniform(0.0, 1e-6), rng.uniform(-5.0, 5.0)))
            .collect();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let t = rng.uniform(0.0, 2e-6);
        let lo = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        let w = SourceWave::pwl(pts);
        let v = w.value(t);
        assert!(
            v >= lo - 1e-12 && v <= hi + 1e-12,
            "t={t}: {v} outside [{lo}, {hi}]"
        );
    }
}

/// A single MOSFET biased by ideal sources carries the Shichman–Hodges
/// level-1 drain current, read back as the drain source's branch current:
/// in triode and in saturation, with channel-length modulation, for both
/// polarities. The 1e-12 S gmin paths carry the only other current.
#[test]
fn mosfet_drain_current_matches_shichman_hodges() {
    let params = MosParams {
        vt0: 0.6,
        kp: 100e-6,
        lambda: 0.05,
        gamma: 0.0,
        phi: 0.7,
        w: 2e-6,
        l: 0.5e-6,
    };
    let beta = params.kp * params.w / params.l;
    let vdd = 3.3;
    // (|Vgs|, |Vds|): triode (Vds < Vgs − Vt), then saturation.
    for (vgs, vds, triode) in [(2.0, 0.4, true), (1.5, 2.5, false)] {
        let vov = vgs - params.vt0;
        assert_eq!(vds < vov, triode);
        let clm = 1.0 + params.lambda * vds;
        let expect = if triode {
            beta * (vov * vds - 0.5 * vds * vds) * clm
        } else {
            0.5 * beta * vov * vov * clm
        };
        for polarity in [MosPolarity::Nmos, MosPolarity::Pmos] {
            // NMOS: source and bulk at ground. PMOS: at the supply, with
            // gate and drain mirrored below it.
            let (vs, sign) = match polarity {
                MosPolarity::Nmos => (0.0, 1.0),
                MosPolarity::Pmos => (vdd, -1.0),
            };
            let mut ckt = Circuit::new();
            let d = ckt.node("d");
            let g = ckt.node("g");
            let s = ckt.node("s");
            for (name, node, v) in [
                ("VD", d, vs + sign * vds),
                ("VG", g, vs + sign * vgs),
                ("VS", s, vs),
            ] {
                ckt.add_vsource(Vsource::new(name, node, Circuit::GROUND, SourceWave::dc(v)));
            }
            ckt.add_mosfet(Mosfet::new("M", polarity, d, g, s, s, params));
            let op = operating_point(&ckt, &SimOptions::new()).unwrap();
            // The drain current leaves VD's plus terminal for an NMOS and
            // enters it for a PMOS.
            let got = -sign * op.source_current(0).unwrap();
            assert!(
                (got - expect).abs() <= 1e-6 * expect,
                "{polarity:?} vgs={vgs} vds={vds}: {got} vs {expect}"
            );
        }
    }
}
