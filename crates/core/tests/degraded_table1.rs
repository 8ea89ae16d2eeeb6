//! Graceful degradation of the Table 1 campaign, in its own test binary
//! (arming fault injection is process-global).
//!
//! The contract: cells whose measurement fails are recorded as degraded
//! with their typed error and left empty; every cell whose measurement no
//! injection reached is **bit-identical** to the strict, chaos-free run.

use std::ops::Range;
use std::sync::Mutex;

use obd_cmos::TechParams;
use obd_core::characterize::{
    characterize_table1, measure_cell_transition, BenchConfig, BenchDefect, RunOptions, Table1,
    Table1Report, TransitionOutcome,
};
use obd_core::{BreakdownStage, Polarity};
use obd_logic::netlist::GateKind;
use obd_spice::SimOptions;

/// Chaos arming is process-global; tests in this binary serialize here.
static GATE: Mutex<()> = Mutex::new(());

/// Per-solve Newton iteration budget under which some, but not all,
/// Table 1 cells exhaust their budget at [`quick_cfg`].
const BUDGET: u64 = 12;

/// Cells in the Table 1 grid.
const TOTAL_CELLS: usize = 36;

fn quick_cfg() -> BenchConfig {
    BenchConfig {
        edge_ps: 50.0,
        launch_ps: 500.0,
        window_ps: 2500.0,
        step_ps: 8.0,
        at_speed_ps: Some(800.0),
        sim_full_window: false,
    }
}

/// One run of the grid on `threads` workers under `sim`.
fn run(threads: usize, sim: SimOptions) -> Table1Report {
    characterize_table1(
        &TechParams::date05(),
        &quick_cfg(),
        &RunOptions { threads, sim },
    )
}

fn cell(t: &Table1, row: usize, slot: usize) -> Option<TransitionOutcome> {
    if slot < 4 {
        t.rows[row].nmos[slot]
    } else {
        t.rows[row].pmos[slot - 4]
    }
}

#[test]
fn disarmed_run_is_clean() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obd_chaos::disarm();
    let report = run(1, SimOptions::new());
    assert!(!report.is_degraded(), "clean run must not degrade");
    assert_eq!(report.render(), report.table.render());
    let strict = report.clone().into_result().unwrap();
    assert_eq!(strict.render(), report.table.render());
}

/// A per-solve Newton budget is a deterministic failure source: the same
/// cells exhaust it on every run, at any thread count, and the strict
/// view reports the lowest-indexed one.
#[test]
fn budget_failures_are_thread_independent() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obd_chaos::disarm();
    let sim = SimOptions::new().with_iteration_budget(BUDGET);
    let (one, four) = (run(1, sim), run(4, sim));
    assert!(
        !one.failures.is_empty() && one.failures.len() < TOTAL_CELLS,
        "budget {BUDGET} must fail some cells but not all: {}",
        one.failures.len()
    );
    assert_eq!(one.failures, four.failures);
    let coords: Vec<_> = one.failures.iter().map(|f| (f.row, f.slot)).collect();
    assert!(
        coords.windows(2).all(|w| w[0] < w[1]),
        "grid order: {coords:?}"
    );
    assert_eq!(one.table.render(), four.table.render());
    let first = one.failures[0].error.clone();
    assert_eq!(one.into_result().unwrap_err(), first);
    assert_eq!(four.into_result().unwrap_err(), first);
}

/// One Table 1 measurement in grid order: its row, the slots its outcome
/// fills (both pins of a fault-free sequence are one defect-free circuit)
/// and its inputs.
struct Measurement {
    row: usize,
    slots: Range<usize>,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
}

/// The grid's measurements in the order a one-thread run makes them.
fn measurements() -> Vec<Measurement> {
    let nmos_seqs = [([false, true], [true, true]), ([true, false], [true, true])];
    let pmos_seqs = [([true, true], [true, false]), ([true, true], [false, true])];
    let mut out = Vec::new();
    for (row, stage) in BreakdownStage::TABLE1.into_iter().enumerate() {
        let halves = [
            (0, Polarity::Nmos, nmos_seqs),
            (4, Polarity::Pmos, pmos_seqs),
        ];
        for (base, polarity, seqs) in halves {
            for (si, (v1, v2)) in seqs.into_iter().enumerate() {
                let first = base + si * 2;
                if stage == BreakdownStage::FaultFree {
                    out.push(Measurement {
                        row,
                        slots: first..first + 2,
                        defect: None,
                        v1,
                        v2,
                    });
                    continue;
                }
                let Ok(params) = stage.params(polarity) else {
                    continue;
                };
                for pin in 0..2 {
                    out.push(Measurement {
                        row,
                        slots: first + pin..first + pin + 1,
                        defect: Some(BenchDefect {
                            pin,
                            polarity,
                            params,
                        }),
                        v1,
                        v2,
                    });
                }
            }
        }
    }
    out
}

/// Bit-level equality of two outcomes.
fn same_bits(a: Option<TransitionOutcome>, b: Option<TransitionOutcome>) -> bool {
    match (a, b) {
        (Some(TransitionOutcome::Delay(x)), Some(TransitionOutcome::Delay(y))) => {
            x.to_bits() == y.to_bits()
        }
        (a, b) => a == b,
    }
}

#[test]
fn chaos_degrades_cells_but_keeps_surviving_cells_identical() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obd_chaos::disarm();
    let clean = run(1, SimOptions::new());
    assert!(!clean.is_degraded());
    let (tech, cfg, sim) = (TechParams::date05(), quick_cfg(), SimOptions::new());
    let grid = measurements();
    let covered: usize = grid.iter().map(|m| m.slots.len()).sum();
    assert_eq!((grid.len(), covered), (32, TOTAL_CELLS));

    // Scan seeds for one that degrades at least one cell but not all of
    // them, so both sides of the contract are observable.
    let mut verified = false;
    for seed in 0..64 {
        obd_chaos::arm(seed, 8);
        let report = run(1, sim);
        obd_chaos::disarm();
        let failed = report.failures.len();
        if failed == 0 || failed >= TOTAL_CELLS {
            continue;
        }
        // Every failure carries its typed error into the rendering.
        let text = report.render();
        for f in &report.failures {
            assert!(text.contains(&f.error.to_string()), "{text}");
        }
        for f in &report.failures {
            assert!(
                cell(&report.table, f.row, f.slot).is_none(),
                "degraded cell must stay empty"
            );
        }

        // Attribute injections per measurement: one thread makes the
        // measurements in grid order, so re-arming the seed and making
        // them again one by one replays the same injections in the same
        // places. Each replayed outcome must be the report's, and every
        // measurement no injection reached must equal the clean run.
        obd_chaos::arm(seed, 8);
        let mut untouched = 0;
        for m in &grid {
            let before = obd_chaos::injected_total();
            let outcome =
                measure_cell_transition(&tech, GateKind::Nand, m.defect, m.v1, m.v2, &cfg, &sim);
            let injected = obd_chaos::injected_total() - before;
            for slot in m.slots.clone() {
                let at = (m.row, slot);
                let got = cell(&report.table, m.row, slot);
                match &outcome {
                    Ok(o) => assert!(
                        same_bits(got, Some(*o)),
                        "{at:?}: replay {o:?} vs report {got:?}"
                    ),
                    Err(e) => {
                        let f = report.failures.iter().find(|f| (f.row, f.slot) == at);
                        assert_eq!(f.map(|f| &f.error), Some(e), "{at:?}: replayed failure");
                    }
                }
                if injected == 0 {
                    assert!(outcome.is_ok(), "{at:?} failed with no injection");
                    assert!(
                        same_bits(got, cell(&clean.table, m.row, slot)),
                        "{at:?}: no injection reached it, yet {got:?} differs from the clean run"
                    );
                }
            }
            untouched += usize::from(injected == 0);
        }
        obd_chaos::disarm();
        assert!(
            untouched > 0,
            "seed {seed}: every measurement saw an injection"
        );
        verified = true;
        break;
    }
    assert!(
        verified,
        "no seed in 0..64 produced a partially degraded table"
    );
}
