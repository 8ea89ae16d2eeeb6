//! Prognosis: from a *measured* extra delay back to the progression
//! state and the remaining time before hard breakdown.
//!
//! §4.2's scheduling argument runs forward (time → delay); a concurrent
//! monitor observes the inverse problem: an at-speed comparator reports
//! a timing violation of some magnitude, and the system must decide how
//! urgently to repair. This module interpolates the stage ladder to
//! answer that.

use crate::characterize::DelayTable;
use crate::faultmodel::Polarity;
use crate::progression::ProgressionModel;
use crate::stage::BreakdownStage;

/// An estimated progression state.
#[derive(Debug, Clone, PartialEq)]
pub struct Prognosis {
    /// The latest ladder stage whose extra delay the measurement has
    /// reached.
    pub stage: BreakdownStage,
    /// Estimated hours since the first soft breakdown.
    pub elapsed_hours: f64,
    /// Estimated hours until the terminal (stuck) stage.
    pub remaining_hours: f64,
}

/// The ladder stages with finite extra delays, in order, as
/// `(stage, extra_ps)` pairs.
fn delay_ladder(table: &DelayTable, polarity: Polarity) -> Vec<(BreakdownStage, f64)> {
    [
        BreakdownStage::Sbd,
        BreakdownStage::Mbd1,
        BreakdownStage::Mbd2,
        BreakdownStage::Mbd3,
        BreakdownStage::Hbd,
    ]
    .into_iter()
    .filter_map(|s| table.extra_delay_ps(polarity, s).map(|d| (s, d)))
    .collect()
}

/// Estimates the stage a defect has reached given a measured extra delay
/// (picoseconds above the fault-free baseline). Returns
/// [`BreakdownStage::FaultFree`] for non-positive measurements.
pub(crate) fn infer_stage(table: &DelayTable, polarity: Polarity, extra_ps: f64) -> BreakdownStage {
    if extra_ps <= 0.0 {
        return BreakdownStage::FaultFree;
    }
    let mut stage = BreakdownStage::Sbd;
    for (s, d) in delay_ladder(table, polarity) {
        if extra_ps >= d {
            stage = s;
        }
    }
    stage
}

/// Full prognosis: estimated elapsed time and time remaining before the
/// defect becomes a hard (stuck) fault, interpolating between stage
/// arrival times on the given progression model.
///
/// Returns `None` when the measurement does not indicate a defect.
pub fn prognose(
    table: &DelayTable,
    progression: &ProgressionModel,
    polarity: Polarity,
    extra_ps: f64,
) -> Option<Prognosis> {
    if extra_ps <= 0.0 {
        return None;
    }
    let ladder = delay_ladder(table, polarity);
    // Terminal time: first stuck stage, else end of progression.
    let stages = [
        BreakdownStage::Sbd,
        BreakdownStage::Mbd1,
        BreakdownStage::Mbd2,
        BreakdownStage::Mbd3,
        BreakdownStage::Hbd,
    ];
    let terminal = stages
        .iter()
        .find(|&&s| table.is_stuck(polarity, s))
        .and_then(|&s| progression.time_of_stage(s))
        .unwrap_or(progression.duration_hours);

    // Piecewise-linear inversion of delay(time) over the known stages.
    let mut prev_t = 0.0;
    let mut prev_d = 0.0;
    for (s, d) in ladder {
        let t = progression.time_of_stage(s)?;
        if extra_ps <= d {
            let elapsed = if d > prev_d {
                prev_t + (t - prev_t) * (extra_ps - prev_d) / (d - prev_d)
            } else {
                t
            };
            let elapsed = elapsed.clamp(0.0, terminal);
            return Some(Prognosis {
                stage: infer_stage(table, polarity, extra_ps),
                elapsed_hours: elapsed,
                remaining_hours: (terminal - elapsed).max(0.0),
            });
        }
        prev_t = t;
        prev_d = d;
    }
    // Beyond the last finite-delay stage: at the edge of going stuck.
    Some(Prognosis {
        stage: infer_stage(table, polarity, extra_ps),
        elapsed_hours: prev_t.min(terminal),
        remaining_hours: (terminal - prev_t).max(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_delay_means_no_defect() {
        let table = DelayTable::paper();
        assert_eq!(
            infer_stage(&table, Polarity::Nmos, 0.0),
            BreakdownStage::FaultFree
        );
        let prog = ProgressionModel::reference(Polarity::Nmos);
        assert!(prognose(&table, &prog, Polarity::Nmos, -5.0).is_none());
    }

    #[test]
    fn stage_inference_matches_ladder() {
        let table = DelayTable::paper();
        // Paper NMOS extras: SBD 9, MBD1 22, MBD2 54, MBD3 114.
        assert_eq!(
            infer_stage(&table, Polarity::Nmos, 10.0),
            BreakdownStage::Sbd
        );
        assert_eq!(
            infer_stage(&table, Polarity::Nmos, 30.0),
            BreakdownStage::Mbd1
        );
        assert_eq!(
            infer_stage(&table, Polarity::Nmos, 60.0),
            BreakdownStage::Mbd2
        );
        assert_eq!(
            infer_stage(&table, Polarity::Nmos, 500.0),
            BreakdownStage::Mbd3
        );
    }

    #[test]
    fn prognosis_roundtrips_stage_times() {
        let table = DelayTable::paper();
        let prog = ProgressionModel::reference(Polarity::Nmos);
        // Measuring exactly the MBD2 extra delay should place us at the
        // MBD2 arrival time.
        let extra = table
            .extra_delay_ps(Polarity::Nmos, BreakdownStage::Mbd2)
            .unwrap();
        let p = prognose(&table, &prog, Polarity::Nmos, extra).unwrap();
        let t_mbd2 = prog.time_of_stage(BreakdownStage::Mbd2).unwrap();
        assert!((p.elapsed_hours - t_mbd2).abs() < 0.2, "{p:?}");
        assert!(p.remaining_hours > 0.0);
        assert!((p.elapsed_hours + p.remaining_hours - prog.duration_hours).abs() < 1e-9);
    }

    #[test]
    fn bigger_delay_means_less_remaining_time() {
        let table = DelayTable::paper();
        let prog = ProgressionModel::reference(Polarity::Nmos);
        let early = prognose(&table, &prog, Polarity::Nmos, 15.0).unwrap();
        let late = prognose(&table, &prog, Polarity::Nmos, 100.0).unwrap();
        assert!(late.elapsed_hours > early.elapsed_hours);
        assert!(late.remaining_hours < early.remaining_hours);
    }

    #[test]
    fn pmos_terminal_is_mbd3_collapse() {
        let table = DelayTable::paper();
        let prog = ProgressionModel::reference(Polarity::Pmos);
        let p = prognose(&table, &prog, Polarity::Pmos, 300.0).unwrap();
        // PMOS goes stuck at MBD3 in the paper's table, which is this
        // progression's terminal point.
        let t_mbd3 = prog.time_of_stage(BreakdownStage::Mbd3).unwrap();
        assert!(p.elapsed_hours <= t_mbd3 + 1e-9);
    }
}
