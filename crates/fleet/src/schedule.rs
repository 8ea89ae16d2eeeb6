//! Pure scheduler math: periodic BIST session grids and the
//! window-derived test interval.
//!
//! A device's scheduler runs BIST sessions at `phase + k·interval` for
//! `k = 0, 1, 2, …`. Two facts about that grid carry the fleet's
//! correctness arguments, and the property suite pins both:
//!
//! * **In-window guarantee.** Any half-open window `[open, close)` of
//!   length ≥ `interval` contains a session: consecutive sessions are
//!   `interval` apart, so the first session at or after `open` lands
//!   strictly before `open + interval ≤ close`.
//! * **Nesting.** For the same `phase`, the grid of `interval / m`
//!   (integer `m ≥ 1`) is a superset of the grid of `interval`, so
//!   shrinking an interval by an integer divisor can only move the first
//!   detection opportunity earlier — escape counts are monotone under
//!   such shrinks.

use obd_core::characterize::DelayTable;
use obd_core::faultmodel::Polarity;
use obd_core::progression::ProgressionModel;
use obd_core::stage::BreakdownStage;
use obd_core::window::DetectionWindow;

/// The stage ladder walked by the window analysis, in progression order.
pub const LADDER: [BreakdownStage; 5] = [
    BreakdownStage::Sbd,
    BreakdownStage::Mbd1,
    BreakdownStage::Mbd2,
    BreakdownStage::Mbd3,
    BreakdownStage::Hbd,
];

/// Where the detection window the *scheduler* plans against opens and
/// closes, resolved once for both polarities and shared by every device
/// of a campaign block.
///
/// The window opens at the arrival of the first ladder stage whose extra
/// delay strictly exceeds the slack (the same `delay > slack` criterion
/// the PPSFP grading applies, so a covered site is detectable at every
/// session inside the window) and closes when the defect goes stuck.
/// Which stages those are depends only on the delay table, the slack and
/// the polarity's ladder; a device's progression duration only scales
/// their arrival times. The plan therefore keeps the two stages, and
/// `WindowPlan::window` turns them into hours for one device.
///
/// This is deliberately more conservative than
/// [`obd_core::window::detection_window`], which interpolates the
/// opening *between* stage arrivals: in the interpolated span the defect
/// is still at the previous (sub-slack) stage and a BIST session cannot
/// see it yet. Planning on stage arrivals keeps the in-window guarantee
/// exact instead of probabilistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WindowPlan {
    nmos: StagePair,
    pmos: StagePair,
}

/// One polarity's opening and closing stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StagePair {
    /// First pre-stuck stage beating the slack, if it has an arrival
    /// time; `None` means no window (the defect is only ever observable
    /// as a hard fault).
    opens: Option<BreakdownStage>,
    /// First stuck stage, if it has an arrival time; `None` closes the
    /// window at the full progression duration.
    closes: Option<BreakdownStage>,
}

impl WindowPlan {
    /// Resolves the opening and closing stages of both polarities.
    pub(crate) fn new(table: &DelayTable, slack_ps: f64) -> WindowPlan {
        let side = |polarity| {
            // Whether a stage has an arrival time at all is a property of
            // the polarity's ladder, not of the duration.
            let arrives = |s| {
                ProgressionModel::new(polarity, 1.0)
                    .time_of_stage(s)
                    .is_some()
            };
            let stuck = LADDER.into_iter().find(|&s| table.is_stuck(polarity, s));
            let beats = LADDER
                .into_iter()
                .map_while(|s| Some((s, table.extra_delay_ps(polarity, s)?)))
                .find(|&(_, d)| d > slack_ps);
            StagePair {
                opens: beats.map(|(s, _)| s).filter(|&s| arrives(s)),
                closes: stuck.filter(|&s| arrives(s)),
            }
        };
        WindowPlan {
            nmos: side(Polarity::Nmos),
            pmos: side(Polarity::Pmos),
        }
    }

    fn side(&self, polarity: Polarity) -> &StagePair {
        match polarity {
            Polarity::Nmos => &self.nmos,
            Polarity::Pmos => &self.pmos,
        }
    }

    /// The planned window of a device of this polarity, in hours after
    /// onset; `None` when no pre-stuck stage ever beats the slack and no
    /// delay-test interval helps.
    pub(crate) fn window(
        &self,
        polarity: Polarity,
        progression: &ProgressionModel,
    ) -> Option<DetectionWindow> {
        let opens = progression.time_of_stage(self.side(polarity).opens?)?;
        let closes = self.close_hours(polarity, progression);
        Some(DetectionWindow {
            opens_hours: opens.min(closes),
            closes_hours: closes,
        })
    }

    /// Hours after onset at which the defect stops being a delay defect:
    /// the arrival of the first stuck ladder stage, or the full
    /// progression duration when no stage in the table goes stuck.
    pub(crate) fn close_hours(&self, polarity: Polarity, progression: &ProgressionModel) -> f64 {
        self.side(polarity)
            .closes
            .and_then(|s| progression.time_of_stage(s))
            .unwrap_or(progression.duration_hours)
    }
}

/// Number of sessions of the grid `phase + k·interval` (`k ≥ 0`) with
/// session time ≤ `until`. Zero when `until < phase` or the interval is
/// not a finite positive number.
pub(crate) fn session_count(phase: f64, interval: f64, until: f64) -> u64 {
    if !crate::positive(interval) || until < phase {
        return 0;
    }
    ((until - phase) / interval).floor() as u64 + 1
}

/// The first session of the grid at or after time `t`.
pub(crate) fn first_session_at_or_after(phase: f64, interval: f64, t: f64) -> f64 {
    if t <= phase {
        return phase;
    }
    let k = ((t - phase) / interval).ceil();
    // Floating-point ceil can land one grid slot short of `t` when the
    // quotient is epsilon below an integer; bump once if so.
    let s = phase + k * interval;
    if s < t {
        s + interval
    } else {
        s
    }
}

/// The first session inside the half-open window `[open, close)`, if the
/// grid has one. Guaranteed `Some` whenever `interval ≤ close − open`
/// *and* the grid has started by the close (`phase < close`) — the grid
/// has no sessions before `phase`, so a window that ends before the
/// first session ever fires is unreachable by construction. Fleet
/// schedules satisfy the proviso: the phase is below one base interval,
/// which never exceeds the window close.
#[cfg(test)]
pub(crate) fn first_session_in_window(
    phase: f64,
    interval: f64,
    open: f64,
    close: f64,
) -> Option<f64> {
    if !crate::positive(interval) || close <= open {
        return None;
    }
    let s = first_session_at_or_after(phase, interval, open);
    (s < close).then_some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_logic::rng::XorShift64Star;

    #[test]
    fn session_count_matches_enumeration() {
        let (phase, interval) = (0.75, 2.5);
        for until in [0.0, 0.74, 0.75, 0.76, 3.24, 3.25, 10.0, 100.3] {
            let mut n = 0u64;
            let mut t = phase;
            while t <= until {
                n += 1;
                t += interval;
            }
            assert_eq!(session_count(phase, interval, until), n, "until {until}");
        }
        assert_eq!(session_count(0.0, 0.0, 10.0), 0, "degenerate interval");
    }

    #[test]
    fn first_session_is_on_grid_and_minimal() {
        let mut rng = XorShift64Star::seed_from_u64(0xF1EE7);
        for _ in 0..500 {
            let phase = rng.gen_range_f64(0.0, 10.0);
            let interval = rng.gen_range_f64(0.01, 5.0);
            let t = rng.gen_range_f64(0.0, 200.0);
            let s = first_session_at_or_after(phase, interval, t);
            assert!(s >= t, "session {s} must not precede {t}");
            // Minimal: either the grid's very first session, or the
            // previous grid slot would land before `t`.
            assert!(
                s == phase || s - interval < t,
                "session {s} must be the first one after {t}"
            );
            let k = ((s - phase) / interval).round();
            assert!(
                (s - (phase + k * interval)).abs() < 1e-9 * interval.max(1.0),
                "session {s} must lie on the grid"
            );
        }
    }

    #[test]
    fn window_of_length_interval_always_holds_a_session() {
        let mut rng = XorShift64Star::seed_from_u64(42);
        for _ in 0..2000 {
            let phase = rng.gen_range_f64(0.0, 30.0);
            let interval = rng.gen_range_f64(0.01, 8.0);
            let open = rng.gen_range_f64(0.0, 500.0);
            let width = interval * rng.gen_range_f64(1.0, 3.0);
            let close = open + width;
            if close <= phase {
                continue; // window over before the grid's first session
            }
            let s = first_session_in_window(phase, interval, open, close);
            assert!(
                s.is_some(),
                "window [{open}, {close}) of width {width} >= interval {interval} must hold a session",
            );
        }
    }

    #[test]
    fn integer_divisor_grids_nest() {
        let mut rng = XorShift64Star::seed_from_u64(7);
        for _ in 0..1000 {
            let phase = rng.gen_range_f64(0.0, 20.0);
            let interval = rng.gen_range_f64(0.1, 6.0);
            let m = 1 + rng.gen_range(4) as u32;
            let fine = interval / f64::from(m);
            let open = rng.gen_range_f64(0.0, 300.0);
            let close = open + rng.gen_range_f64(0.0, 40.0);
            let coarse = first_session_in_window(phase, interval, open, close);
            let nested = first_session_in_window(phase, fine, open, close);
            if let Some(c) = coarse {
                let n = nested.expect("finer grid must keep every coarse session");
                assert!(n <= c + 1e-9, "finer grid found {n} after coarse {c}");
            }
        }
    }

    /// Reference: the ladder walked for one device at a time, which the
    /// plan must reproduce bit for bit.
    fn device_window_reference(
        table: &DelayTable,
        progression: &ProgressionModel,
        polarity: Polarity,
        slack_ps: f64,
    ) -> Option<DetectionWindow> {
        let closes = terminal_close_reference(table, progression, polarity);
        for &s in &LADDER {
            let d = table.extra_delay_ps(polarity, s)?;
            if d > slack_ps {
                let opens = progression.time_of_stage(s)?;
                return Some(DetectionWindow {
                    opens_hours: opens.min(closes),
                    closes_hours: closes,
                });
            }
        }
        None
    }

    fn terminal_close_reference(
        table: &DelayTable,
        progression: &ProgressionModel,
        polarity: Polarity,
    ) -> f64 {
        for &s in &LADDER {
            if table.is_stuck(polarity, s) {
                if let Some(t) = progression.time_of_stage(s) {
                    return t;
                }
                break;
            }
        }
        progression.duration_hours
    }

    fn window_bits(w: Option<&DetectionWindow>) -> Option<(u64, u64)> {
        w.map(|w| (w.opens_hours.to_bits(), w.closes_hours.to_bits()))
    }

    /// Asserts the plan reproduces the reference bit for bit at a spread
    /// of durations, and returns each duration with its reference window.
    fn assert_plan_matches(
        table: &DelayTable,
        polarity: Polarity,
        slack_ps: f64,
    ) -> Vec<(f64, Option<DetectionWindow>)> {
        let plan = WindowPlan::new(table, slack_ps);
        let mut seen = Vec::new();
        for duration in [13.5, 20.25, 27.0, 41.0, 54.0] {
            let prog = ProgressionModel::new(polarity, duration);
            let want = device_window_reference(table, &prog, polarity, slack_ps);
            assert_eq!(
                window_bits(plan.window(polarity, &prog).as_ref()),
                window_bits(want.as_ref()),
                "{polarity} window at {duration} h, slack {slack_ps}"
            );
            assert_eq!(
                plan.close_hours(polarity, &prog).to_bits(),
                terminal_close_reference(table, &prog, polarity).to_bits(),
                "{polarity} close at {duration} h"
            );
            seen.push((duration, want));
        }
        seen
    }

    #[test]
    fn plan_matches_reference_on_the_default_table() {
        let table = DelayTable::paper();
        for (duration, w) in assert_plan_matches(&table, Polarity::Nmos, 25.0) {
            let w = w.unwrap();
            assert!(w.opens_hours > 0.0 && w.opens_hours < w.closes_hours);
            // HBD, the NMOS terminal, arrives as the duration ends.
            assert_eq!(w.closes_hours, duration);
        }
    }

    #[test]
    fn plan_matches_reference_without_a_stuck_stage() {
        // Every NMOS stage a delay: the window closes at the duration.
        let mut table = DelayTable::paper();
        table.nmos.retain(|&(s, _)| s != BreakdownStage::Hbd);
        table.nmos.push((
            BreakdownStage::Hbd,
            obd_core::characterize::TransitionOutcome::Delay(400.0),
        ));
        assert_eq!(WindowPlan::new(&table, 25.0).nmos.closes, None);
        for (duration, w) in assert_plan_matches(&table, Polarity::Nmos, 25.0) {
            assert_eq!(w.unwrap().closes_hours, duration);
        }
    }

    #[test]
    fn plan_matches_reference_when_an_early_stage_goes_stuck() {
        // NMOS stuck from MBD3: the window closes at its arrival, before
        // the progression ends.
        let mut table = DelayTable::paper();
        for entry in &mut table.nmos {
            if entry.0 == BreakdownStage::Mbd3 {
                entry.1 = obd_core::characterize::TransitionOutcome::Stuck;
            }
        }
        for (duration, w) in assert_plan_matches(&table, Polarity::Nmos, 25.0) {
            let w = w.unwrap();
            let prog = ProgressionModel::new(Polarity::Nmos, duration);
            assert_eq!(
                Some(w.closes_hours),
                prog.time_of_stage(BreakdownStage::Mbd3)
            );
            assert!(w.closes_hours < duration);
        }
    }

    #[test]
    fn plan_matches_reference_when_slack_beats_every_stage() {
        let table = DelayTable::paper();
        for polarity in Polarity::BOTH {
            for (_, w) in assert_plan_matches(&table, polarity, 5_000.0) {
                assert!(w.is_none());
            }
        }
    }

    #[test]
    fn plan_matches_reference_for_pmos() {
        let table = DelayTable::paper();
        for slack in [25.0, 100.0, 300.0] {
            for (duration, w) in assert_plan_matches(&table, Polarity::Pmos, slack) {
                // MBD3, the PMOS terminal, is stuck and ends the ladder.
                assert_eq!(w.unwrap().closes_hours, duration, "slack {slack}");
            }
        }
    }

    #[test]
    fn window_uses_stage_arrivals() {
        let table = DelayTable::paper();
        let prog = ProgressionModel::reference(Polarity::Nmos);
        // Paper NMOS extras: SBD 9, MBD1 22, MBD2 54, MBD3 114; slack 25
        // makes MBD2 the first detectable stage.
        let plan = WindowPlan::new(&table, 25.0);
        let w = plan.window(Polarity::Nmos, &prog).unwrap();
        let t_mbd2 = prog.time_of_stage(BreakdownStage::Mbd2).unwrap();
        let t_hbd = prog.time_of_stage(BreakdownStage::Hbd).unwrap();
        assert!((w.opens_hours - t_mbd2).abs() < 1e-9);
        assert!((w.closes_hours - t_hbd).abs() < 1e-9);
        // The interpolated core window opens earlier (or equal) by
        // construction; the scheduler window must be nested inside it.
        let core = obd_core::window::detection_window(&table, &prog, Polarity::Nmos, 25.0).unwrap();
        assert!(core.opens_hours <= w.opens_hours + 1e-9);
        assert!((core.closes_hours - w.closes_hours).abs() < 1e-9);
    }

    #[test]
    fn window_none_when_only_hard_faults_detect() {
        let table = DelayTable::paper();
        let prog = ProgressionModel::reference(Polarity::Nmos);
        // Slack above the largest NMOS extra delay (114 ps): no delay
        // regime stage ever beats it.
        let plan = WindowPlan::new(&table, 500.0);
        assert!(plan.window(Polarity::Nmos, &prog).is_none());
    }

    #[test]
    fn pmos_window_spans_the_whole_progression_at_loose_slack() {
        let table = DelayTable::paper();
        let prog = ProgressionModel::reference(Polarity::Pmos);
        // PMOS SBD already adds 70 ps; the window opens at onset and
        // closes at the MBD3 collapse (the PMOS terminal).
        let plan = WindowPlan::new(&table, 25.0);
        let w = plan.window(Polarity::Pmos, &prog).unwrap();
        assert!((w.opens_hours - 0.0).abs() < 1e-9);
        assert!((w.closes_hours - prog.duration_hours).abs() < 1e-9);
    }
}
