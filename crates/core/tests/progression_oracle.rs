//! Bit-exact oracle for the progression law.
//!
//! `ProgressionModel` caches each polarity's duration-free ladder
//! (endpoint logarithms, stage progress coordinates and `stage_at`
//! thresholds). The cache must not move a single bit: every query is
//! compared with `to_bits` against the closed form below, which
//! recomputes every logarithm and ladder lookup on each call.

use obd_core::faultmodel::Polarity;
use obd_core::progression::ProgressionModel;
use obd_core::stage::{BreakdownStage, ObdParams};

/// The closed-form progression law, evaluated from scratch on every
/// query.
struct ClosedForm {
    polarity: Polarity,
    duration_hours: f64,
    isat_start: f64,
    isat_end: f64,
    r_start: f64,
    r_end: f64,
}

impl ClosedForm {
    fn new(polarity: Polarity, duration_hours: f64) -> Self {
        let start = BreakdownStage::Sbd
            .params(polarity)
            .unwrap_or_else(|_| ObdParams::new(5e-29, 2e3));
        let end = BreakdownStage::Hbd
            .params(polarity)
            .or_else(|_| BreakdownStage::Mbd3.params(polarity))
            .unwrap_or_else(|_| ObdParams::new(2e-24, 0.05));
        ClosedForm {
            polarity,
            duration_hours,
            isat_start: start.isat,
            isat_end: end.isat,
            r_start: start.r_bd,
            r_end: end.r_bd,
        }
    }

    fn progress(&self, t_hours: f64) -> f64 {
        (t_hours / self.duration_hours).clamp(0.0, 1.0)
    }

    fn params_at(&self, t_hours: f64) -> ObdParams {
        let u = self.progress(t_hours);
        let isat = log_interp(self.isat_start, self.isat_end, u);
        let r_bd = log_interp(self.r_start, self.r_end, u);
        ObdParams::new(isat, r_bd)
    }

    fn stage_at(&self, t_hours: f64) -> BreakdownStage {
        let isat = self.params_at(t_hours).isat;
        let mut stage = BreakdownStage::Sbd;
        for s in [
            BreakdownStage::Mbd1,
            BreakdownStage::Mbd2,
            BreakdownStage::Mbd3,
            BreakdownStage::Hbd,
        ] {
            match s.params(self.polarity) {
                Ok(p) if isat >= p.isat * (1.0 - 1e-9) => stage = s,
                _ => {}
            }
        }
        stage
    }

    fn time_of_isat(&self, isat: f64) -> Option<f64> {
        if isat < self.isat_start.min(self.isat_end) || isat > self.isat_start.max(self.isat_end) {
            return None;
        }
        let u = (isat.ln() - self.isat_start.ln()) / (self.isat_end.ln() - self.isat_start.ln());
        Some(u * self.duration_hours)
    }

    fn time_of_stage(&self, stage: BreakdownStage) -> Option<f64> {
        match stage {
            BreakdownStage::FaultFree => None,
            BreakdownStage::Sbd => Some(0.0),
            other => {
                let p = other.params(self.polarity).ok()?;
                self.time_of_isat(p.isat)
            }
        }
    }
}

fn log_interp(a: f64, b: f64, u: f64) -> f64 {
    (a.ln() + (b.ln() - a.ln()) * u).exp()
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// Probe times for one progression: onset, every stage arrival and its
/// floating-point neighbours, a few interior points, and points at and
/// past the duration.
fn probe_times(oracle: &ClosedForm) -> Vec<f64> {
    let d = oracle.duration_hours;
    let mut times = vec![-1.0, 0.0, 0.0f64.next_up(), 0.25 * d, 0.5 * d, 0.75 * d];
    for s in BreakdownStage::ALL {
        if let Some(t) = oracle.time_of_stage(s) {
            times.extend([t.next_down(), t, t.next_up()]);
        }
    }
    times.extend([d.next_down(), d, d.next_up(), 1.5 * d, 1e6]);
    times
}

/// Asserts every query of the cached model equals the closed form bit
/// for bit at `duration_hours`.
fn assert_bit_identical(polarity: Polarity, duration_hours: f64) {
    let model = ProgressionModel::new(polarity, duration_hours);
    let oracle = ClosedForm::new(polarity, duration_hours);
    assert_eq!(model.duration_hours.to_bits(), duration_hours.to_bits());
    let ctx = |what: &str| format!("{polarity} at {duration_hours} h: {what}");

    for s in BreakdownStage::ALL {
        assert_eq!(
            bits(model.time_of_stage(s)),
            bits(oracle.time_of_stage(s)),
            "{}",
            ctx(&format!("time_of_stage({s})"))
        );
        if let Ok(p) = s.params(polarity) {
            for isat in [p.isat.next_down(), p.isat, p.isat.next_up()] {
                assert_eq!(
                    bits(model.time_of_isat(isat)),
                    bits(oracle.time_of_isat(isat)),
                    "{}",
                    ctx(&format!("time_of_isat({isat:e})"))
                );
            }
        }
    }
    for isat in [1e-40, 1.0, 0.0, f64::NAN] {
        assert_eq!(
            bits(model.time_of_isat(isat)),
            bits(oracle.time_of_isat(isat)),
            "{}",
            ctx(&format!("time_of_isat({isat:e})"))
        );
    }
    for t in probe_times(&oracle) {
        let (got, want) = (model.params_at(t), oracle.params_at(t));
        assert_eq!(
            got.isat.to_bits(),
            want.isat.to_bits(),
            "{}",
            ctx(&format!("params_at({t}).isat"))
        );
        assert_eq!(
            got.r_bd.to_bits(),
            want.r_bd.to_bits(),
            "{}",
            ctx(&format!("params_at({t}).r_bd"))
        );
        assert_eq!(
            model.stage_at(t),
            oracle.stage_at(t),
            "{}",
            ctx(&format!("stage_at({t})"))
        );
    }
}

#[test]
fn cached_law_is_bit_identical_at_fleet_durations() {
    for polarity in Polarity::BOTH {
        for duration in [13.5, 27.0, 54.0] {
            assert_bit_identical(polarity, duration);
        }
    }
}

#[test]
fn cached_law_is_bit_identical_over_a_seeded_sweep() {
    // A golden-ratio (Weyl) sequence from a fixed seed covers the fleet's
    // default duration range evenly, without an RNG.
    const GOLDEN_FRAC: f64 = 0.618_033_988_749_894_8;
    let mut x = 0.137_f64;
    for _ in 0..200 {
        x = (x + GOLDEN_FRAC).fract();
        let duration = 13.5 + (54.0 - 13.5) * x;
        for polarity in Polarity::BOTH {
            assert_bit_identical(polarity, duration);
        }
    }
}

#[test]
fn stage_arrivals_land_on_their_stage() {
    // The cached thresholds keep the closed form's 1e-9 tolerance: a
    // session exactly at a stage's arrival already sees that stage.
    for polarity in Polarity::BOTH {
        let model = ProgressionModel::reference(polarity);
        for s in [
            BreakdownStage::Mbd1,
            BreakdownStage::Mbd2,
            BreakdownStage::Mbd3,
        ] {
            let t = model.time_of_stage(s).unwrap();
            assert_eq!(model.stage_at(t), s, "{polarity} {s} at {t} h");
        }
    }
}
