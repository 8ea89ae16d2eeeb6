//! One deployed device's lifecycle: sampled OBD parameters, the periodic
//! BIST session loop, and the chaos injection points of the fleet layer.
//!
//! Determinism contract: a device's entire behavior is a pure function
//! of `(fleet seed, device id, config)`. Sampling draws a **fixed
//! number** of RNG values in a **fixed order** regardless of which
//! branches they end up steering, so per-device streams never shear
//! when a config toggle changes one device's path.

use obd_chaos::InjectionPoint;
use obd_core::progression::ProgressionModel;
use obd_core::window::DetectionWindow;

use crate::coverage::BistProfile;
use crate::schedule::{first_session_at_or_after, session_count, WindowPlan};
use crate::sim::FleetConfig;
use crate::FleetError;

/// Chaos: the device's simulation state is corrupted beyond recovery;
/// the driver reports it as poisoned and excludes it from aggregates.
pub(crate) static DEVICE_FAULT: InjectionPoint = InjectionPoint::new("fleet.device_fault");
/// Chaos: the scheduler fires a session late/early enough that the
/// session yields no usable result (a degraded, skipped opportunity).
pub(crate) static SCHED_SKEW: InjectionPoint = InjectionPoint::new("fleet.sched_skew");
/// Chaos: a BIST session's pass/fail verdict is flipped in transit.
pub(crate) static TEST_CORRUPT: InjectionPoint = InjectionPoint::new("fleet.test_corrupt");

/// Per-device sampled parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceParams {
    /// Absolute hour the defect reaches SBD; `None` for a defect-free
    /// device.
    pub(crate) onset_hours: Option<f64>,
    /// SBD→terminal progression duration in hours.
    pub(crate) duration_hours: f64,
    /// OBD fault site index into the [`BistProfile`].
    pub(crate) site: usize,
    /// Scheduler phase as a fraction of the base interval.
    pub(crate) phase_frac: f64,
}

impl DeviceParams {
    /// Samples a device from the fleet model. Always draws exactly five
    /// values from `rng` (see module docs).
    pub(crate) fn sample(
        rng: &mut obd_logic::rng::XorShift64Star,
        model: &crate::sim::FleetModel,
        horizon_hours: f64,
        sites: usize,
    ) -> DeviceParams {
        let u_defect = rng.next_f64();
        let u_site = rng.next_f64();
        let u_onset = rng.next_f64();
        let u_duration = rng.next_f64();
        let phase_frac = rng.next_f64();
        let onset_frac =
            model.onset_min_frac + (model.onset_max_frac - model.onset_min_frac) * u_onset;
        let duration =
            model.dur_min_hours + (model.dur_max_hours - model.dur_min_hours) * u_duration;
        // Single-draw site pick (next_f64 < 1.0, so the product stays
        // below `sites`): `gen_range` would be unbiased but consumes a
        // variable number of draws under rejection.
        let site = ((u_site * sites.max(1) as f64) as usize).min(sites.saturating_sub(1));
        DeviceParams {
            onset_hours: (u_defect < model.p_defect).then_some(onset_frac * horizon_hours),
            duration_hours: duration,
            site,
            phase_frac,
        }
    }
}

/// Terminal classification of one device at the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceOutcome {
    /// No defect ever onset (or onset at/after the horizon).
    Healthy,
    /// A BIST session flagged the defect before hard breakdown.
    Detected,
    /// The defect reached its terminal stage inside the horizon without
    /// any session flagging it — the operational failure the paper's
    /// concurrent-test scheduling exists to prevent.
    Escaped,
    /// The defect was still progressing, undetected, when the horizon
    /// ended; its window closes beyond the simulated interval.
    Censored,
}

/// One device's simulated life.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceResult {
    /// Terminal classification.
    pub(crate) outcome: DeviceOutcome,
    /// BIST sessions executed (until detection, breakdown, or horizon).
    pub(crate) sessions: u64,
    /// The scheduler interval this device ran at, in hours.
    pub(crate) interval_hours: f64,
    /// Detection latency from window opening, in integer milli-hours
    /// (`Some` iff detected).
    pub(crate) latency_mh: Option<u64>,
    /// Chaos-degraded events survived (skewed sessions, masked detects).
    pub(crate) degraded_events: u64,
    /// Chaos events recovered transparently (false alarms cleared by an
    /// immediate retest).
    pub(crate) recovered_events: u64,
}

/// The scheduler interval and phase for a device, derived from its
/// modeled detection window per the fleet policy.
fn plan(
    window: Option<&DetectionWindow>,
    phase_frac: f64,
    cfg: &FleetConfig,
) -> Result<(f64, f64), FleetError> {
    let pol = &cfg.policy;
    let base = window
        .map(|w| w.test_interval_hours(pol.opportunities))
        .unwrap_or(pol.fallback_interval_hours)
        .clamp(pol.min_interval_hours, pol.max_interval_hours);
    let interval = pol.interval_override.unwrap_or(base * pol.interval_scale);
    if !crate::positive(interval) {
        return Err(FleetError::InvalidConfig(format!(
            "scheduler produced a non-positive interval ({interval})"
        )));
    }
    // The phase is a fraction of the *unscaled* base interval, so
    // shrinking `interval_scale` refines the session grid around a fixed
    // anchor instead of re-randomizing it — the property the
    // monotonicity test leans on.
    let phase = pol.phase_override.unwrap_or(phase_frac * base);
    Ok((interval, phase))
}

/// Simulates one device end to end against the campaign's window plan
/// (`WindowPlan::new(&cfg.table, cfg.slack_ps)`).
///
/// # Errors
///
/// [`FleetError::DevicePoisoned`] when the `fleet.device_fault` chaos
/// point fires; [`FleetError::InvalidConfig`] when the policy yields an
/// unusable interval.
pub(crate) fn simulate_device(
    params: &DeviceParams,
    cfg: &FleetConfig,
    profile: &BistProfile,
    window_plan: &WindowPlan,
) -> Result<DeviceResult, FleetError> {
    if DEVICE_FAULT.fire() {
        return Err(FleetError::DevicePoisoned);
    }
    let polarity = profile.polarity_of(params.site).ok_or_else(|| {
        FleetError::InvalidConfig(format!(
            "site {} out of range for profile with {} sites",
            params.site,
            profile.sites()
        ))
    })?;
    let progression = ProgressionModel::new(polarity, params.duration_hours);
    let window = window_plan.window(polarity, &progression);
    let (interval, phase) = plan(window.as_ref(), params.phase_frac, cfg)?;
    let horizon = cfg.horizon_hours;

    let Some(onset) = params.onset_hours.filter(|&o| o < horizon) else {
        // Defect-free for the whole horizon: every session passes.
        return Ok(DeviceResult {
            outcome: DeviceOutcome::Healthy,
            sessions: session_count(phase, interval, horizon),
            interval_hours: interval,
            latency_mh: None,
            degraded_events: 0,
            recovered_events: 0,
        });
    };

    // Absolute window bounds. A device whose ladder never beats the
    // slack (window `None`) is only observable at its terminal stage —
    // model that as a zero-length window at the close.
    let (abs_open, abs_close) = match &window {
        Some(w) => (onset + w.opens_hours, onset + w.closes_hours),
        None => {
            let close = onset + window_plan.close_hours(polarity, &progression);
            (close, close)
        }
    };

    // Sessions strictly before the first one at/after onset all pass on
    // a still-fault-free device; count them without simulating.
    let t0 = first_session_at_or_after(phase, interval, onset);
    let mut k = ((t0 - phase) / interval).round().max(0.0) as u64;
    let mut sessions = k;
    let mut degraded_events = 0u64;
    let mut recovered_events = 0u64;
    let mut detected_at: Option<f64> = None;

    // Session times are recomputed from the integer index (not
    // accumulated), so the grid of `interval` is *bit-exactly* a subset
    // of the grid of `interval / 2^n` — the monotonicity property test
    // relies on that nesting holding at the float level, not just
    // mathematically.
    loop {
        let t = phase + k as f64 * interval;
        if t >= abs_close || t > horizon {
            break;
        }
        sessions += 1;
        k += 1;
        if SCHED_SKEW.fire() {
            // The session ran outside its timing budget; its result is
            // discarded and the opportunity is lost.
            degraded_events += 1;
            continue;
        }
        let stage = progression.stage_at(t - onset);
        if profile.covered(stage, params.site) {
            if TEST_CORRUPT.fire() {
                // A true detection flipped to a pass in transit: the
                // opportunity is lost, later sessions may still catch it.
                degraded_events += 1;
            } else {
                detected_at = Some(t);
                break;
            }
        } else if TEST_CORRUPT.fire() {
            // A pass flipped to a fail: the immediate diagnostic retest
            // clears the false alarm transparently.
            recovered_events += 1;
        }
    }

    let (outcome, latency_mh) = match detected_at {
        Some(td) => {
            // Latency from the modeled window opening, floored at zero
            // (coverage can precede the conservative opening for sites
            // the BIST set excites below slack — treat as instant).
            let mh = ((td - abs_open).max(0.0) * 1000.0).round() as u64;
            (DeviceOutcome::Detected, Some(mh))
        }
        None if abs_close <= horizon => (DeviceOutcome::Escaped, None),
        None => (DeviceOutcome::Censored, None),
    };
    Ok(DeviceResult {
        outcome,
        sessions,
        interval_hours: interval,
        latency_mh,
        degraded_events,
        recovered_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FleetConfig, FleetModel};
    use obd_core::faultmodel::Polarity;

    fn test_config() -> FleetConfig {
        FleetConfig {
            horizon_hours: 100.0,
            ..FleetConfig::default()
        }
    }

    fn ideal_profile(cfg: &FleetConfig) -> BistProfile {
        BistProfile::slack_ideal(&cfg.table, Polarity::Nmos, cfg.slack_ps)
    }

    fn window_plan(cfg: &FleetConfig) -> WindowPlan {
        WindowPlan::new(&cfg.table, cfg.slack_ps)
    }

    #[test]
    fn healthy_device_counts_grid_sessions() {
        let mut cfg = test_config();
        cfg.policy.interval_override = Some(10.0);
        cfg.policy.phase_override = Some(5.0);
        let profile = ideal_profile(&cfg);
        let params = DeviceParams {
            onset_hours: None,
            duration_hours: 27.0,
            site: 0,
            phase_frac: 0.0,
        };
        let r = simulate_device(&params, &cfg, &profile, &window_plan(&cfg)).unwrap();
        assert_eq!(r.outcome, DeviceOutcome::Healthy);
        // Sessions at 5, 15, …, 95 within a 100 h horizon.
        assert_eq!(r.sessions, 10);
        assert_eq!(r.latency_mh, None);
    }

    #[test]
    fn in_window_interval_always_detects_ideal_coverage() {
        let mut cfg = test_config();
        let profile = ideal_profile(&cfg);
        // NMOS reference ladder at 27 h, slack 25 ps: window opens at the
        // MBD2 arrival. Pick the interval from the window itself.
        let params = DeviceParams {
            onset_hours: Some(10.0),
            duration_hours: 27.0,
            site: 0,
            phase_frac: 0.37,
        };
        cfg.policy.opportunities = 2;
        let r = simulate_device(&params, &cfg, &profile, &window_plan(&cfg)).unwrap();
        assert_eq!(r.outcome, DeviceOutcome::Detected);
        let lat = r.latency_mh.unwrap();
        // Detection within one interval of the opening.
        assert!((lat as f64) / 1000.0 <= r.interval_hours + 1e-6);
    }

    #[test]
    fn uncovered_site_escapes_within_horizon() {
        let mut cfg = test_config();
        cfg.policy.interval_override = Some(1.0);
        cfg.policy.phase_override = Some(0.0);
        // Coverage rows all false: BIST never sees this site.
        let profile =
            BistProfile::from_rows("blind", 0, vec![Polarity::Nmos], vec![vec![false]; 5]).unwrap();
        let params = DeviceParams {
            onset_hours: Some(5.0),
            duration_hours: 27.0,
            site: 0,
            phase_frac: 0.0,
        };
        let r = simulate_device(&params, &cfg, &profile, &window_plan(&cfg)).unwrap();
        assert_eq!(r.outcome, DeviceOutcome::Escaped);
        assert_eq!(r.latency_mh, None);
    }

    #[test]
    fn close_beyond_horizon_is_censored_not_escaped() {
        let mut cfg = test_config();
        cfg.horizon_hours = 20.0;
        cfg.policy.interval_override = Some(1.0);
        let profile =
            BistProfile::from_rows("blind", 0, vec![Polarity::Nmos], vec![vec![false]; 5]).unwrap();
        // Onset at 15 h with a 27 h progression: terminal stage lands
        // well past the 20 h horizon.
        let params = DeviceParams {
            onset_hours: Some(15.0),
            duration_hours: 27.0,
            site: 0,
            phase_frac: 0.0,
        };
        let r = simulate_device(&params, &cfg, &profile, &window_plan(&cfg)).unwrap();
        assert_eq!(r.outcome, DeviceOutcome::Censored);
    }

    #[test]
    fn sampling_draws_exactly_five_values() {
        let model = FleetModel::default();
        let mut a = obd_logic::rng::XorShift64Star::seed_from_u64(99);
        let mut b = obd_logic::rng::XorShift64Star::seed_from_u64(99);
        let _ = DeviceParams::sample(&mut a, &model, 1000.0, 24);
        for _ in 0..5 {
            b.next_f64();
        }
        assert_eq!(a.next_u64(), b.next_u64(), "sample must consume 5 draws");
    }

    #[test]
    fn onset_at_horizon_is_healthy() {
        let cfg = test_config();
        let profile = ideal_profile(&cfg);
        let params = DeviceParams {
            onset_hours: Some(cfg.horizon_hours),
            duration_hours: 27.0,
            site: 0,
            phase_frac: 0.5,
        };
        let r = simulate_device(&params, &cfg, &profile, &window_plan(&cfg)).unwrap();
        assert_eq!(r.outcome, DeviceOutcome::Healthy);
    }
}
