//! Monte Carlo engine integration proofs: thread-count-independent
//! byte-identical reports, metric accounting, and graceful degradation
//! of corners with non-physical parameters or failing measurements.
//!
//! Runs as an integration binary so the process-wide chaos/metrics state
//! is not shared with other suites; the file-local lock serializes the
//! tests that touch that state.

use std::sync::Mutex;

use obd_cmos::TechParams;
use obd_core::characterize::BenchConfig;
use obd_core::monte::{run_monte, sample_tech, MonteConfig};
use obd_core::BreakdownStage;
use obd_spice::SimOptions;

static GLOBAL_STATE_LOCK: Mutex<()> = Mutex::new(());

fn small_config(threads: usize) -> MonteConfig {
    MonteConfig {
        samples: 3,
        seed: 0xC0FF_EE00,
        threads,
        spread: 0.05,
        stages: vec![BreakdownStage::Mbd2],
        bench: BenchConfig {
            edge_ps: 50.0,
            launch_ps: 500.0,
            window_ps: 2500.0,
            step_ps: 4.0,
            at_speed_ps: None,
            sim_full_window: false,
        },
        at_speed_ps: 300.0,
    }
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap();
    let tech = TechParams::date05();
    let serial = run_monte(&tech, &small_config(1), &SimOptions::new())
        .unwrap()
        .render_json();
    let parallel = run_monte(&tech, &small_config(4), &SimOptions::new())
        .unwrap()
        .render_json();
    assert_eq!(serial, parallel);
    let wide = run_monte(&tech, &small_config(13), &SimOptions::new())
        .unwrap()
        .render_json();
    assert_eq!(serial, wide);
}

#[test]
fn defect_probes_detect_where_fault_free_does_not() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap();
    let tech = TechParams::date05();
    let report = run_monte(&tech, &small_config(2), &SimOptions::new()).unwrap();
    assert_eq!(report.degraded_total, 0);
    let probe = |label: &str| {
        report
            .probes
            .iter()
            .find(|p| p.label == label)
            .unwrap_or_else(|| panic!("probe {label} present"))
    };
    // Fault-free delays (~100-130 ps) sit far below the 300 ps limit.
    assert_eq!(probe("fault_free_fall").detected, 0);
    assert_eq!(probe("fault_free_rise").detected, 0);
    // MBD2 rows land past 300 ps at every corner (paper: 418/736 ps).
    let nm = probe("mbd2_nmos_fall");
    assert_eq!(nm.detected, report.samples, "{nm:?}");
    assert!((nm.detect_prob(report.samples) - 1.0).abs() < 1e-12);
    // Percentiles are ordered where defined.
    for p in &report.probes {
        if let (Some(lo), Some(mid), Some(hi)) = (p.p05_ps, p.p50_ps, p.p95_ps) {
            assert!(lo <= mid && mid <= hi, "{}: {lo} {mid} {hi}", p.label);
        }
    }
}

#[test]
fn monte_metrics_account_for_every_measurement() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap();
    obd_metrics::enable();
    obd_metrics::reset_all();
    let tech = TechParams::date05();
    let report = run_monte(&tech, &small_config(2), &SimOptions::new()).unwrap();
    let snap = obd_metrics::snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(c("monte.samples"), 3);
    // 3 corners x (2 fault-free + 2 MBD2 probes).
    assert_eq!(c("monte.measurements"), 12);
    assert_eq!(c("monte.degraded_measurements"), 0);
    assert_eq!(report.probes.len(), 4);
    obd_metrics::disable();
}

#[test]
fn chaos_corrupted_corners_degrade_instead_of_aborting() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap();
    // Rate 1000 permille: every evaluated injection point fires, so the
    // solver points fail every corner's transient.
    obd_chaos::arm(0xBAD, 1000);
    let tech = TechParams::date05();
    let report = run_monte(&tech, &small_config(2), &SimOptions::new()).unwrap();
    obd_chaos::disarm();
    obd_chaos::reset();
    assert_eq!(
        report.degraded_total, 12,
        "all (corner, probe) measurements must degrade: {report:?}"
    );
    for p in &report.probes {
        assert!(p.delays_ps.is_empty(), "{}", p.label);
        assert_eq!(p.degraded, report.samples);
        assert_eq!(p.detect_prob(report.samples), 0.0);
    }
    // The artifact still renders.
    let json = report.render_json();
    assert!(json.contains("\"degraded_total\": 12"));
}

/// The degraded path without chaos: a spread so large that the sampled
/// parameters overflow to infinity is outside input the corner guard
/// must reject. Those corners degrade, the campaign still returns `Ok`,
/// every probe accounts for every corner, and the report stays
/// byte-identical at any thread count.
#[test]
fn overflowing_spread_degrades_corners_without_chaos() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap();
    let tech = TechParams::date05();
    let run = |threads| {
        let cfg = MonteConfig {
            spread: 1e308,
            ..small_config(threads)
        };
        run_monte(&tech, &cfg, &SimOptions::new()).unwrap()
    };
    let report = run(1);
    assert!(report.degraded_total > 0, "{report:?}");
    for p in &report.probes {
        assert_eq!(
            p.stuck + p.degraded + p.delays_ps.len(),
            report.samples,
            "{}",
            p.label
        );
    }
    assert_eq!(report.render_json(), run(4).render_json());
}

/// Pins the corner stream bit for bit: corner `k` of seed 1 at 5 %
/// spread. A change to the seeding, the generator or the pseudo-Gaussian
/// that moves one sampled parameter by one ulp fails here before it
/// reaches a Monte Carlo percentile.
#[test]
fn corner_stream_is_pinned_bit_for_bit() {
    // nmos_vt0, pmos_vt0, nmos_kp, pmos_kp, nmos_w, pmos_w per corner.
    const EXPECTED: [[u64; 6]; 4] = [
        [
            0x3fe666c9562b5e61,
            0x3fe92db4df58adf8,
            0x3f1e4913c4146a20,
            0x3f0518e5eed1e3f3,
            0x3ea38c9b527d0356,
            0x3ea3da22528744dc,
        ],
        [
            0x3fe67a58ebdae206,
            0x3fe8a20a2a154903,
            0x3f1e1ac42c9304dc,
            0x3f05f09d89a52e37,
            0x3ea49d330ee10997,
            0x3ea4a78b60a24d1a,
        ],
        [
            0x3fe6697f3061cb23,
            0x3fe96282ecde8245,
            0x3f1e86995604c48d,
            0x3f053a620dbf1336,
            0x3ea4f2c169ecd113,
            0x3ea4a2f21f5c477d,
        ],
        [
            0x3fe6518e74082ebe,
            0x3fea25f9340aa81f,
            0x3f1ee6b1a121bb05,
            0x3f04f004d0e4c6e9,
            0x3ea4476627cd860b,
            0x3ea3444e14c2a968,
        ],
    ];
    let nominal = TechParams::date05();
    for (k, expected) in EXPECTED.iter().enumerate() {
        let t = sample_tech(&nominal, 1, k as u64, 0.05);
        let sampled = [
            t.nmos_vt0, t.pmos_vt0, t.nmos_kp, t.pmos_kp, t.nmos_w, t.pmos_w,
        ];
        for (field, (v, bits)) in sampled.iter().zip(expected).enumerate() {
            assert_eq!(v.to_bits(), *bits, "corner {k}, field {field}: {v}");
        }
        // The fields the sampler leaves alone stay nominal, bit for bit.
        for (v, n) in [
            (t.vdd, nominal.vdd),
            (t.lambda, nominal.lambda),
            (t.length, nominal.length),
            (t.c_gate, nominal.c_gate),
            (t.c_junction, nominal.c_junction),
            (t.c_wire, nominal.c_wire),
        ] {
            assert_eq!(v.to_bits(), n.to_bits(), "corner {k}");
        }
    }
}
