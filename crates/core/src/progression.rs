//! The breakdown progression law: exponential leakage growth between the
//! first soft breakdown and hard breakdown (§3.3, §4.2; growth data after
//! Linder et al. \[7\]).
//!
//! Time is measured in hours of operational stress. The model
//! log-interpolates the saturation current between its SBD and HBD values
//! (exponential growth ⇒ linear in log-space) and pins the breakdown
//! resistance ladder to the same progress coordinate.

use std::sync::OnceLock;

use crate::faultmodel::Polarity;
use crate::stage::{BreakdownStage, ObdParams};

/// Hours between first SBD and final HBD for the paper's reference device
/// (a PFET with 15 Å oxide, from Linder et al.).
pub const REFERENCE_SBD_TO_HBD_HOURS: f64 = 27.0;

/// The ladder stages past SBD that [`ProgressionModel::stage_at`] can
/// report, in progression order.
const LATER_STAGES: [BreakdownStage; 4] = [
    BreakdownStage::Mbd1,
    BreakdownStage::Mbd2,
    BreakdownStage::Mbd3,
    BreakdownStage::Hbd,
];

/// The duration-free half of the progression law for one polarity:
/// endpoint parameters and their logarithms, each later stage's progress
/// coordinate and each `stage_at` threshold. Computed once per polarity
/// (see [`Ladder::of`]), each with the expression a query would otherwise
/// evaluate, so cached and recomputed values have the same bits
/// (`tests/progression_oracle.rs` pins this).
#[derive(Debug)]
struct Ladder {
    isat_start: f64,
    isat_end: f64,
    ln_isat_start: f64,
    ln_isat_end: f64,
    ln_r_start: f64,
    ln_r_end: f64,
    /// Progress coordinate of each [`LATER_STAGES`] entry; `None` when the
    /// polarity has no parameters for it or its current lies outside the
    /// modeled range.
    stage_u: [Option<f64>; 4],
    /// Saturation current at which [`ProgressionModel::stage_at`] reports
    /// each [`LATER_STAGES`] entry; `None` when the stage is unavailable.
    thresholds: [Option<f64>; 4],
}

impl Ladder {
    /// The cached ladder of `polarity`.
    fn of(polarity: Polarity) -> &'static Ladder {
        static LADDERS: OnceLock<[Ladder; 2]> = OnceLock::new();
        let [nmos, pmos] =
            LADDERS.get_or_init(|| [Ladder::new(Polarity::Nmos), Ladder::new(Polarity::Pmos)]);
        match polarity {
            Polarity::Nmos => nmos,
            Polarity::Pmos => pmos,
        }
    }

    fn new(polarity: Polarity) -> Ladder {
        // The ladder defines SBD and a terminal stage for both polarities;
        // should that invariant ever break, fall back to the published
        // NMOS SBD/HBD endpoints rather than panicking mid-campaign.
        let start = BreakdownStage::Sbd
            .params(polarity)
            .unwrap_or_else(|_| ObdParams::new(5e-29, 2e3));
        let end = BreakdownStage::Hbd
            .params(polarity)
            .or_else(|_| BreakdownStage::Mbd3.params(polarity))
            .unwrap_or_else(|_| ObdParams::new(2e-24, 0.05));
        let mut ladder = Ladder {
            isat_start: start.isat,
            isat_end: end.isat,
            ln_isat_start: start.isat.ln(),
            ln_isat_end: end.isat.ln(),
            ln_r_start: start.r_bd.ln(),
            ln_r_end: end.r_bd.ln(),
            stage_u: [None; 4],
            thresholds: [None; 4],
        };
        for (i, s) in LATER_STAGES.into_iter().enumerate() {
            if let Ok(p) = s.params(polarity) {
                ladder.stage_u[i] = ladder.progress_of_isat(p.isat);
                // Small relative tolerance absorbs the rounding of the
                // log-space interpolation at the endpoints.
                ladder.thresholds[i] = Some(p.isat * (1.0 - 1e-9));
            }
        }
        ladder
    }

    /// Progress coordinate at which the saturation current reaches
    /// `isat`, or `None` outside the modeled range.
    fn progress_of_isat(&self, isat: f64) -> Option<f64> {
        if isat < self.isat_start.min(self.isat_end) || isat > self.isat_start.max(self.isat_end) {
            return None;
        }
        Some((isat.ln() - self.ln_isat_start) / (self.ln_isat_end - self.ln_isat_start))
    }

    /// Saturation current at progress coordinate `u` (log-linear).
    fn isat_at(&self, u: f64) -> f64 {
        (self.ln_isat_start + (self.ln_isat_end - self.ln_isat_start) * u).exp()
    }
}

/// Exponential progression of one defect from SBD to HBD.
#[derive(Debug, Clone)]
pub struct ProgressionModel {
    ladder: &'static Ladder,
    /// Total SBD→HBD duration in hours.
    pub duration_hours: f64,
}

impl ProgressionModel {
    /// A progression over `duration_hours` between this polarity's SBD
    /// parameters and its terminal parameters (HBD for NMOS; the MBD3
    /// endpoint for PMOS, whose hard breakdown the paper marks N/A).
    pub fn new(polarity: Polarity, duration_hours: f64) -> Self {
        ProgressionModel {
            ladder: Ladder::of(polarity),
            duration_hours,
        }
    }

    /// The paper's reference timeline (27 h SBD→HBD).
    pub fn reference(polarity: Polarity) -> Self {
        ProgressionModel::new(polarity, REFERENCE_SBD_TO_HBD_HOURS)
    }

    /// Progress coordinate in `[0, 1]` at time `t` hours after SBD.
    fn progress(&self, t_hours: f64) -> f64 {
        (t_hours / self.duration_hours).clamp(0.0, 1.0)
    }

    /// Model parameters at `t` hours after the first SBD event.
    /// Exponential growth: log-linear interpolation in both parameters.
    pub fn params_at(&self, t_hours: f64) -> ObdParams {
        let u = self.progress(t_hours);
        let l = self.ladder;
        let r_bd = (l.ln_r_start + (l.ln_r_end - l.ln_r_start) * u).exp();
        ObdParams::new(l.isat_at(u), r_bd)
    }

    /// The discrete stage the defect has reached at `t` hours: the latest
    /// ladder stage whose saturation current has been crossed.
    pub fn stage_at(&self, t_hours: f64) -> BreakdownStage {
        let isat = self.ladder.isat_at(self.progress(t_hours));
        let mut stage = BreakdownStage::Sbd;
        for (s, threshold) in LATER_STAGES.into_iter().zip(self.ladder.thresholds) {
            if threshold.is_some_and(|th| isat >= th) {
                stage = s;
            }
        }
        stage
    }

    /// The time (hours after SBD) at which a given saturation current is
    /// reached, inverting the exponential law. Returns `None` if the value
    /// lies outside the modeled range.
    pub fn time_of_isat(&self, isat: f64) -> Option<f64> {
        Some(self.ladder.progress_of_isat(isat)? * self.duration_hours)
    }

    /// The time (hours after SBD) at which the defect enters a ladder
    /// stage.
    pub fn time_of_stage(&self, stage: BreakdownStage) -> Option<f64> {
        let i = match stage {
            BreakdownStage::FaultFree => return None,
            BreakdownStage::Sbd => return Some(0.0),
            BreakdownStage::Mbd1 => 0,
            BreakdownStage::Mbd2 => 1,
            BreakdownStage::Mbd3 => 2,
            BreakdownStage::Hbd => 3,
        };
        Some(self.ladder.stage_u[i]? * self.duration_hours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_match_ladder() {
        let m = ProgressionModel::reference(Polarity::Nmos);
        let p0 = m.params_at(0.0);
        let p1 = m.params_at(REFERENCE_SBD_TO_HBD_HOURS);
        let sbd = BreakdownStage::Sbd.params(Polarity::Nmos).unwrap();
        let hbd = BreakdownStage::Hbd.params(Polarity::Nmos).unwrap();
        assert!((p0.isat / sbd.isat - 1.0).abs() < 1e-9);
        assert!((p1.isat / hbd.isat - 1.0).abs() < 1e-9);
        assert!((p1.r_bd / hbd.r_bd - 1.0).abs() < 1e-9);
    }

    #[test]
    fn growth_is_exponential() {
        // Equal time steps multiply isat by equal factors.
        let m = ProgressionModel::reference(Polarity::Nmos);
        let r1 = m.params_at(9.0).isat / m.params_at(0.0).isat;
        let r2 = m.params_at(18.0).isat / m.params_at(9.0).isat;
        assert!((r1 / r2 - 1.0).abs() < 1e-9, "{r1} vs {r2}");
        assert!(r1 > 10.0, "appreciable growth per 9h: {r1}");
    }

    #[test]
    fn stage_sequence_is_monotone() {
        let m = ProgressionModel::reference(Polarity::Nmos);
        let mut prev = BreakdownStage::Sbd;
        for k in 0..=27 {
            let s = m.stage_at(k as f64);
            assert!(s >= prev, "hour {k}: {s} >= {prev}");
            prev = s;
        }
        assert_eq!(prev, BreakdownStage::Hbd);
    }

    #[test]
    fn time_of_stage_inverts_params_at() {
        let m = ProgressionModel::reference(Polarity::Nmos);
        for s in [
            BreakdownStage::Mbd1,
            BreakdownStage::Mbd2,
            BreakdownStage::Mbd3,
        ] {
            let t = m.time_of_stage(s).unwrap();
            assert!(t > 0.0 && t < REFERENCE_SBD_TO_HBD_HOURS);
            let p = m.params_at(t);
            let ladder = s.params(Polarity::Nmos).unwrap();
            assert!((p.isat / ladder.isat - 1.0).abs() < 1e-6);
        }
        // Stages arrive in ladder order.
        let t1 = m.time_of_stage(BreakdownStage::Mbd1).unwrap();
        let t3 = m.time_of_stage(BreakdownStage::Mbd3).unwrap();
        assert!(t1 < t3);
    }

    #[test]
    fn pmos_progression_uses_mbd3_terminal() {
        let m = ProgressionModel::reference(Polarity::Pmos);
        let end = m.params_at(27.0);
        let mbd3 = BreakdownStage::Mbd3.params(Polarity::Pmos).unwrap();
        assert!((end.isat / mbd3.isat - 1.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_isat_gives_none() {
        let m = ProgressionModel::reference(Polarity::Nmos);
        assert!(m.time_of_isat(1e-40).is_none());
        assert!(m.time_of_isat(1.0).is_none());
    }
}
