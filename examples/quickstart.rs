//! Quickstart: inject a gate-oxide-breakdown defect into a NAND gate and
//! watch its transition delay grow stage by stage.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use obd_suite::cmos::TechParams;
use obd_suite::logic::netlist::GateKind;
use obd_suite::obd::characterize::{measure_cell_transition, BenchConfig, BenchDefect};
use obd_suite::obd::faultmodel::Polarity;
use obd_suite::obd::BreakdownStage;
use obd_suite::spice::SimOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The calibrated 3.3 V / 0.35 µm-class technology of the reproduction.
    let tech = TechParams::date05();
    let cfg = BenchConfig::new();
    let sim = SimOptions::new();
    let measure =
        |defect, v1, v2| measure_cell_transition(&tech, GateKind::Nand, defect, v1, v2, &cfg, &sim);

    // Fault-free baseline: the NAND of the paper's Fig. 5 bench,
    // exercised with the two-pattern sequence (01 -> 11): input A rises,
    // the output falls.
    let baseline = measure(None, [false, true], [true, true])?;
    println!("fault-free NAND fall delay: {baseline:?}");

    // Now progressively break down the oxide of the NMOS transistor on
    // input A (Table 1's parameter ladder) and re-measure.
    for stage in [
        BreakdownStage::Sbd,
        BreakdownStage::Mbd1,
        BreakdownStage::Mbd2,
        BreakdownStage::Mbd3,
        BreakdownStage::Hbd,
    ] {
        let params = stage.params(Polarity::Nmos)?;
        let defect = BenchDefect {
            pin: 0,
            polarity: Polarity::Nmos,
            params,
        };
        let outcome = measure(Some(defect), [false, true], [true, true])?;
        println!(
            "{stage:>10}: isat={:.1e} A, r_bd={:>7.2} Ω  ->  {}",
            params.isat,
            params.r_bd,
            outcome.render(false)
        );
    }

    // The same defect in a PMOS transistor is only visible for the one
    // input sequence in which that transistor charges the output alone.
    let params = BreakdownStage::Mbd2.params(Polarity::Pmos)?;
    let defect = BenchDefect {
        pin: 0,
        polarity: Polarity::Pmos,
        params,
    };
    let excited = measure(Some(defect), [true, true], [false, true])?;
    let masked = measure(Some(defect), [true, true], [true, false])?;
    println!("\nPMOS-A defect at MBD2:");
    println!("  (11,01) — A falls alone:  {}", excited.render(true));
    println!(
        "  (11,10) — B falls instead: {} (defect invisible)",
        masked.render(true)
    );
    Ok(())
}
