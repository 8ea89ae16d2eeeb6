//! Small-fleet analytic oracle: a 100-device fleet with degenerate
//! (deterministic) onset/progression must match hand-computed session
//! counts, escape counts, and detection latencies *exactly*.
//!
//! Setup: every device is defective (`p_defect = 1`), onset is pinned to
//! hour 25 (`onset_frac = 0.25` of a 100 h horizon), the progression is
//! the paper's 27 h reference, and the site is a PMOS slack-ideal one:
//! PMOS SBD already adds 70 ps > 25 ps slack, so the detection window is
//! exactly `[onset, onset + 27) = [25, 52)` and the defect is detectable
//! at every in-window session. The scheduler is pinned with interval and
//! phase overrides, making every session time a small exact float.

use obd_core::faultmodel::Polarity;
use obd_fleet::{run_fleet, BistProfile, FleetConfig, FleetModel, LatencyTail, SchedulePolicy};

const DEVICES: u64 = 100;

fn degenerate_cfg(interval: f64) -> FleetConfig {
    FleetConfig {
        seed: 0xD0D0,
        devices: DEVICES,
        threads: 1,
        horizon_hours: 100.0,
        model: FleetModel {
            p_defect: 1.0,
            onset_min_frac: 0.25,
            onset_max_frac: 0.25, // onset == 25.0 exactly for everyone
            dur_min_hours: 27.0,
            dur_max_hours: 27.0, // the paper's reference progression
        },
        policy: SchedulePolicy {
            interval_override: Some(interval),
            phase_override: Some(0.0),
            ..SchedulePolicy::default()
        },
        ..FleetConfig::default()
    }
}

fn pmos_profile(cfg: &FleetConfig) -> BistProfile {
    BistProfile::slack_ideal(&cfg.table, Polarity::Pmos, cfg.slack_ps)
}

#[test]
fn detection_latency_matches_hand_computation() {
    // Interval 10, phase 0: sessions at 0, 10, 20, 30, … The window is
    // [25, 52), so session 30 is the first opportunity: every device is
    // detected at t = 30 with latency 30 − 25 = 5 h exactly, after 4
    // sessions (0, 10, 20 pass; 30 detects).
    let cfg = degenerate_cfg(10.0);
    let r = run_fleet(&cfg, &pmos_profile(&cfg)).expect("fleet");
    let a = &r.accum;
    assert_eq!(a.detected, DEVICES);
    assert_eq!(a.escaped, 0);
    assert_eq!(a.censored, 0);
    assert_eq!(a.healthy, 0);
    assert_eq!(a.sessions, 4 * DEVICES);
    assert_eq!(a.latencies_mh, vec![5_000; DEVICES as usize]);
    assert_eq!(
        r.latency_tail_mh,
        Some(LatencyTail {
            p50: 5_000,
            p95: 5_000,
            p99: 5_000,
            max: 5_000,
        })
    );
    assert!((r.escape_rate() - 0.0).abs() < 1e-12);
    assert!((r.sessions_per_device() - 4.0).abs() < 1e-12);
}

#[test]
fn interval_straddling_the_window_escapes_every_device() {
    // Interval 55, phase 0: sessions at 0 and 55. The window [25, 52)
    // closes before session 55, so every device escapes at hour 52, with
    // exactly one (pre-onset) session executed.
    let cfg = degenerate_cfg(55.0);
    let r = run_fleet(&cfg, &pmos_profile(&cfg)).expect("fleet");
    let a = &r.accum;
    assert_eq!(a.escaped, DEVICES);
    assert_eq!(a.detected, 0);
    assert_eq!(a.sessions, DEVICES); // the session at t = 0 only
    assert!((r.escape_rate() - 1.0).abs() < 1e-12);
    assert!(a.latencies_mh.is_empty());
}

#[test]
fn boundary_session_exactly_at_close_misses() {
    // Interval 26, phase 0: sessions at 0, 26, 52. Session 26 lies inside
    // [25, 52) and detects with latency 1 h exactly; a session exactly at
    // the close (52) would NOT count — the window is half-open. Shift the
    // phase to 26 to prove it: sessions at 26, 52 → only 26 detects.
    let mut cfg = degenerate_cfg(26.0);
    let r = run_fleet(&cfg, &pmos_profile(&cfg)).expect("fleet");
    assert_eq!(r.accum.detected, DEVICES);
    assert_eq!(r.accum.latencies_mh, vec![1_000; DEVICES as usize]);
    assert_eq!(r.accum.sessions, 2 * DEVICES); // 0 passes, 26 detects

    // Phase 27, interval 25: sessions at 27, 52, 77 — only 27 is inside
    // the half-open window.
    cfg.policy.interval_override = Some(25.0);
    cfg.policy.phase_override = Some(27.0);
    let r = run_fleet(&cfg, &pmos_profile(&cfg)).expect("fleet");
    assert_eq!(r.accum.detected, DEVICES);
    assert_eq!(r.accum.latencies_mh, vec![2_000; DEVICES as usize]);
    assert_eq!(r.accum.sessions, DEVICES); // the detecting session only
}

#[test]
fn window_closing_past_horizon_censors() {
    // Onset at 90 of a 100 h horizon: the window [90, 117) is still open
    // when the simulation ends, and with a 200 h interval (sessions at 0,
    // 200) no in-horizon session falls inside it. That device is
    // censored, not escaped: breakdown has not happened yet.
    let mut cfg = degenerate_cfg(200.0);
    cfg.model.onset_min_frac = 0.9;
    cfg.model.onset_max_frac = 0.9;
    let r = run_fleet(&cfg, &pmos_profile(&cfg)).expect("fleet");
    let a = &r.accum;
    assert_eq!(a.censored, DEVICES);
    assert_eq!(a.escaped, 0);
    assert_eq!(a.detected, 0);
    assert_eq!(a.sessions, DEVICES); // the session at t = 0 only
    assert!(
        (r.escape_rate() - 0.0).abs() < 1e-12,
        "censored is not escaped"
    );
}

#[test]
fn healthy_fleet_counts_grid_sessions_only() {
    // p_defect 0: no device is afflicted; sessions at 0, 55 within 100 h.
    let mut cfg = degenerate_cfg(55.0);
    cfg.model.p_defect = 0.0;
    let r = run_fleet(&cfg, &pmos_profile(&cfg)).expect("fleet");
    let a = &r.accum;
    assert_eq!(a.healthy, DEVICES);
    assert_eq!(a.afflicted, 0);
    assert_eq!(a.sessions, 2 * DEVICES);
    assert_eq!(r.latency_tail_mh, None);
}
