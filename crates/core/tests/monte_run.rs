//! Monte Carlo engine integration proofs: thread-count-independent
//! byte-identical reports, metric accounting, and graceful degradation
//! under chaos-corrupted corner parameters.
//!
//! Runs as an integration binary so the process-wide chaos/metrics state
//! is not shared with other suites; the file-local lock serializes the
//! tests that touch that state.

use std::sync::Mutex;

use obd_cmos::TechParams;
use obd_core::characterize::BenchConfig;
use obd_core::monte::{run_monte, MonteConfig};
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
    // Rate 1000 permille: every evaluated injection point fires, so every
    // corner's parameters are corrupted before the analog engine runs.
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
