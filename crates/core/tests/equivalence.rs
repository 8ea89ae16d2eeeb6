//! Equivalence guarantees for the performance paths: the parallel
//! characterization driver and the stop-when-decided transient must
//! reproduce the serial, full-window results exactly (bit-identical
//! outcomes), so the fast paths can stand in for the reference ones
//! everywhere.

use obd_cmos::TechParams;
use obd_core::characterize::BenchDefect;
use obd_core::characterize::{
    characterize_table1, characterize_table1_parallel, measure_cell_transition, BenchConfig,
    RunOptions, Table1, TransitionOutcome,
};
use obd_core::faultmodel::Polarity;
use obd_core::monte::{sample_tech, MonteConfig};
use obd_core::BreakdownStage;
use obd_logic::netlist::GateKind;
use obd_spice::SimOptions;

/// Coarse, fast settings — equivalence holds at any resolution.
fn fast_cfg() -> BenchConfig {
    BenchConfig {
        edge_ps: 50.0,
        launch_ps: 500.0,
        window_ps: 2500.0,
        step_ps: 8.0,
        at_speed_ps: Some(800.0),
        sim_full_window: false,
    }
}

fn assert_outcomes_identical(
    a: Option<TransitionOutcome>,
    b: Option<TransitionOutcome>,
    ctx: &str,
) {
    match (a, b) {
        (None, None) => {}
        (Some(TransitionOutcome::Stuck), Some(TransitionOutcome::Stuck)) => {}
        (Some(TransitionOutcome::Delay(x)), Some(TransitionOutcome::Delay(y))) => {
            // Same transients in the same engine: bit-identical, not merely close.
            assert!(x == y, "{ctx}: {x} != {y}");
        }
        other => panic!("{ctx}: outcome shape diverged: {other:?}"),
    }
}

fn assert_tables_identical(a: &Table1, b: &Table1) {
    assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
        assert_eq!(ra.stage, rb.stage);
        for slot in 0..4 {
            assert_outcomes_identical(
                ra.nmos[slot],
                rb.nmos[slot],
                &format!("{} nmos[{slot}]", ra.stage),
            );
            assert_outcomes_identical(
                ra.pmos[slot],
                rb.pmos[slot],
                &format!("{} pmos[{slot}]", ra.stage),
            );
        }
    }
    assert_eq!(a.render(), b.render());
}

#[test]
fn table1_report_is_identical_across_threads() {
    let tech = TechParams::date05();
    let cfg = fast_cfg();
    let run = |threads| {
        let sim = SimOptions::new();
        characterize_table1(&tech, &cfg, &RunOptions { threads, sim })
    };
    let serial = run(1);
    assert!(!serial.is_degraded());
    let shim = characterize_table1_parallel(&tech, &cfg, 4).unwrap();
    assert_tables_identical(&serial.table, &shim);
    for other in [run(4), run(0)] {
        assert_tables_identical(&serial.table, &other.table);
        assert!(!other.is_degraded());
    }
}

/// The reference driver: every transient runs its whole window.
fn full_window(cfg: &BenchConfig) -> BenchConfig {
    BenchConfig {
        sim_full_window: true,
        ..cfg.clone()
    }
}

/// Stopping a transient once its verdict is decided changes no outcome:
/// every Table 1 cell at the paper configuration, at the nominal process
/// and at Monte Carlo corners 0–3, equals its full-window measurement
/// bit for bit.
#[test]
fn stopped_table1_cells_equal_full_window_cells() {
    let nominal = TechParams::date05();
    let seed = MonteConfig::new().seed;
    let cfg = BenchConfig::table1();
    let opts = RunOptions {
        threads: 2,
        ..RunOptions::default()
    };
    let techs = std::iter::once(nominal.clone())
        .chain((0..4).map(|corner| sample_tech(&nominal, seed, corner, 0.05)));
    for (i, tech) in techs.enumerate() {
        let stopped = characterize_table1(&tech, &cfg, &opts)
            .into_result()
            .unwrap();
        let full = characterize_table1(&tech, &full_window(&cfg), &opts)
            .into_result()
            .unwrap();
        assert_eq!(stopped.rows.len(), full.rows.len());
        for (a, b) in stopped.rows.iter().zip(&full.rows) {
            assert_eq!(a.nmos, b.nmos, "tech {i} {} nmos", a.stage);
            assert_eq!(a.pmos, b.pmos, "tech {i} {} pmos", a.stage);
        }
    }
}

/// The same on the NOR2 bench, for every single-input sequence (the
/// ones that leave the output unchanged included), fault-free and under
/// an NMOS and a PMOS defect.
#[test]
fn stopped_nor2_sequences_equal_full_window() {
    let tech = TechParams::date05();
    let cfg = BenchConfig::table1();
    let opts = SimOptions::new();
    let defect = |polarity, stage: BreakdownStage| {
        Some(BenchDefect {
            pin: 0,
            polarity,
            params: stage.params(polarity).unwrap(),
        })
    };
    let defects = [
        None,
        defect(Polarity::Nmos, BreakdownStage::Mbd2),
        defect(Polarity::Pmos, BreakdownStage::Mbd2),
    ];
    let vectors = [[false, false], [false, true], [true, false], [true, true]];
    for d in defects {
        for v1 in vectors {
            for pin in 0..2 {
                let mut v2 = v1;
                v2[pin] = !v2[pin];
                let measure = |cfg: &BenchConfig| {
                    measure_cell_transition(&tech, GateKind::Nor, d, v1, v2, cfg, &opts).unwrap()
                };
                assert_eq!(
                    measure(&cfg),
                    measure(&full_window(&cfg)),
                    "{d:?} {v1:?} -> {v2:?}"
                );
            }
        }
    }
}
