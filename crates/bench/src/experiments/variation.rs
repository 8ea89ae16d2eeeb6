//! Extension experiment — OBD delay signatures versus process variation.
//!
//! §3.3 notes "the detectability of an initial SBD defect is quite low
//! since the delay caused by it can be transient and/or small", and the
//! related path-delay literature exists precisely because process
//! variation also moves delays. This experiment quantifies the
//! separation: Monte Carlo samples of the fault-free NAND delay under
//! randomized (Vt, KP, W) process parameters, against the delay shifts
//! the breakdown ladder causes. A defect stage is *screenable* when its
//! shift clears the process spread.

use obd_atpg::rng::XorShift64Star;
use obd_cmos::TechParams;
use obd_core::characterize::{
    measure_cell_transition, BenchConfig, BenchDefect, TransitionOutcome,
};
use obd_core::faultmodel::Polarity;
use obd_core::{BreakdownStage, ObdError};
use obd_logic::netlist::GateKind;
use obd_spice::SimOptions;

/// Monte Carlo statistics of the fault-free delay plus per-stage defect
/// shifts.
#[derive(Debug, Clone)]
pub struct VariationReport {
    /// Fault-free delay samples (ps) across process corners.
    pub samples_ps: Vec<f64>,
    /// Mean fault-free delay (ps).
    pub mean_ps: f64,
    /// Standard deviation (ps).
    pub sigma_ps: f64,
    /// `(stage, delay shift at nominal process, shift ÷ sigma)` rows.
    pub stages: Vec<(BreakdownStage, f64, f64)>,
}

/// Perturbs the technology: ±`spread` relative 1-sigma on Vt, KP and W,
/// clamped to physical ranges.
fn perturb(tech: &TechParams, rng: &mut XorShift64Star, spread: f64) -> TechParams {
    let mut t = tech.clone();
    let mut jitter = |v: f64| -> f64 {
        let g: f64 = rng.gen_range_f64(-1.0, 1.0)
            + rng.gen_range_f64(-1.0, 1.0)
            + rng.gen_range_f64(-1.0, 1.0);
        (v * (1.0 + spread * g / 1.732)).max(v * 0.5)
    };
    t.nmos_vt0 = jitter(t.nmos_vt0);
    t.pmos_vt0 = jitter(t.pmos_vt0);
    t.nmos_kp = jitter(t.nmos_kp);
    t.pmos_kp = jitter(t.pmos_kp);
    t.nmos_w = jitter(t.nmos_w);
    t.pmos_w = jitter(t.pmos_w);
    t
}

/// Runs the Monte Carlo study.
///
/// # Errors
///
/// Propagates measurement errors.
pub fn run(
    samples: usize,
    spread: f64,
    cfg: &BenchConfig,
    seed: u64,
) -> Result<VariationReport, ObdError> {
    let nominal = TechParams::date05();
    let opts = SimOptions::new();
    // Every measurement is the excited NMOS fall (01,11).
    let fall = |tech: &TechParams, defect| {
        measure_cell_transition(
            tech,
            GateKind::Nand,
            defect,
            [false, true],
            [true, true],
            cfg,
            &opts,
        )
    };
    let mut rng = XorShift64Star::seed_from_u64(seed);
    let mut samples_ps = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = perturb(&nominal, &mut rng, spread);
        if let TransitionOutcome::Delay(d) = fall(&t, None)? {
            samples_ps.push(d);
        }
    }
    let n = samples_ps.len().max(1) as f64;
    let mean = samples_ps.iter().sum::<f64>() / n;
    let var = samples_ps.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n;
    let sigma = var.sqrt();

    let base = fall(&nominal, None)?.delay_ps().unwrap_or(f64::NAN);
    let mut stages = Vec::new();
    for stage in [
        BreakdownStage::Sbd,
        BreakdownStage::Mbd1,
        BreakdownStage::Mbd2,
        BreakdownStage::Mbd3,
    ] {
        let params = stage.params(Polarity::Nmos)?;
        let defect = BenchDefect {
            pin: 0,
            polarity: Polarity::Nmos,
            params,
        };
        let shift = match fall(&nominal, Some(defect))? {
            TransitionOutcome::Delay(d) => d - base,
            TransitionOutcome::Stuck => f64::INFINITY,
        };
        stages.push((stage, shift, shift / sigma.max(1e-9)));
    }
    Ok(VariationReport {
        samples_ps,
        mean_ps: mean,
        sigma_ps: sigma,
        stages,
    })
}

/// Renders the report.
pub fn render(r: &VariationReport) -> String {
    let mut s = format!(
        "fault-free NAND fall delay across {} process corners: mean {:.0} ps, sigma {:.1} ps\n",
        r.samples_ps.len(),
        r.mean_ps,
        r.sigma_ps
    );
    s.push_str("stage   delay shift    shift/sigma   screenable at 3-sigma?\n");
    for (stage, shift, z) in &r.stages {
        s.push_str(&format!(
            "{:<6} {:>9.0} ps   {:>9.1}    {}\n",
            stage.to_string(),
            shift,
            z,
            if *z > 3.0 {
                "yes"
            } else {
                "no — hides in process noise"
            }
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quick_bench_config;

    #[test]
    fn mbd_stages_clear_process_noise() {
        let report = run(24, 0.05, &quick_bench_config(), 0xFAB5).unwrap();
        assert!(report.sigma_ps > 0.5, "5% spread must move delays");
        let z_of = |s: BreakdownStage| {
            report
                .stages
                .iter()
                .find(|(st, _, _)| *st == s)
                .map(|(_, _, z)| *z)
                .expect("stage present")
        };
        // The paper's point: MBD-class defects are clearly screenable…
        assert!(z_of(BreakdownStage::Mbd1) > 3.0);
        assert!(z_of(BreakdownStage::Mbd2) > z_of(BreakdownStage::Mbd1));
        // …and every stage's shift is at least positive.
        for (_, shift, _) in &report.stages {
            assert!(*shift > 0.0);
        }
    }
}
