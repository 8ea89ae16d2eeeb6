//! Step-size oracle for Table 1: regenerating the table on a fixed
//! 0.25 ps grid (8× finer than the default 2 ps nominal step, with the
//! predictor and so the step control off) must give the same verdicts as
//! the default adaptive run and move no delay by more than 0.1 ps. Any
//! change to the transient stepping, step control, stopping or lead-in
//! has to keep this passing.
//!
//! Ignored by default because it runs about eight default tables' worth
//! of steps; run it at release optimization:
//!
//! ```text
//! cargo test --release --offline -q -p obd-core --test table1_step_oracle -- --ignored
//! ```

use obd_cmos::TechParams;
use obd_core::characterize::{characterize_table1, BenchConfig, RunOptions, Table1};
use obd_spice::SimOptions;

/// Largest delay difference (ps) allowed between the default and the
/// fine-step table.
const MAX_DELAY_DELTA_PS: f64 = 0.1;

fn regenerate(cfg: &BenchConfig, sim: SimOptions) -> Table1 {
    let opts = RunOptions { threads: 2, sim };
    characterize_table1(&TechParams::date05(), cfg, &opts)
        .into_result()
        .expect("Table 1 regenerates cleanly")
}

#[test]
#[ignore = "release-mode oracle; run with --ignored"]
fn table1_matches_a_quarter_picosecond_step() {
    let default_cfg = BenchConfig::table1();
    let fine_cfg = BenchConfig {
        step_ps: 0.25,
        ..BenchConfig::table1()
    };
    let fixed_grid = SimOptions {
        predictor: false,
        ..SimOptions::new()
    };
    let default = regenerate(&default_cfg, SimOptions::new());
    let fine = regenerate(&fine_cfg, fixed_grid);
    assert_eq!(default.rows.len(), fine.rows.len());
    let mut worst: f64 = 0.0;
    for (a, b) in default.rows.iter().zip(&fine.rows) {
        assert_eq!(a.stage, b.stage);
        let cells = a
            .nmos
            .iter()
            .chain(&a.pmos)
            .zip(b.nmos.iter().chain(&b.pmos));
        for (slot, (x, y)) in cells.enumerate() {
            let ctx = format!("{} slot {slot}: default {x:?}, fine {y:?}", a.stage);
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => match (x.delay_ps(), y.delay_ps()) {
                    (None, None) => {}
                    (Some(dx), Some(dy)) => {
                        let delta = (dx - dy).abs();
                        assert!(delta <= MAX_DELAY_DELTA_PS, "{ctx}: moved {delta} ps");
                        worst = worst.max(delta);
                    }
                    _ => panic!("{ctx}: verdict differs"),
                },
                _ => panic!("{ctx}: cell presence differs"),
            }
        }
    }
    eprintln!("largest delay move against a fixed 0.25 ps grid: {worst:.4} ps");
}
