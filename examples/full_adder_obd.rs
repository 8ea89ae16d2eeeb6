//! The paper's §4.3 experiment end to end: build the unoptimized
//! full-adder sum circuit (14 NAND2 + 11 INV, depth 9), enumerate its 56
//! OBD defect sites, generate two-pattern tests with the OBD-aware ATPG,
//! prove the redundancy-induced untestable faults, and extract a minimal
//! necessary-and-sufficient test set.
//!
//! ```text
//! cargo run --release --example full_adder_obd
//! ```

use obd_suite::atpg::fault::{DetectionCriterion, Fault};
use obd_suite::atpg::generate::{exhaustive_obd_analysis, generate_obd_tests};
use obd_suite::atpg::twoframe::{GenOutcome, TwoFrameAtpg};
use obd_suite::logic::circuits::fig8_sum_circuit;
use obd_suite::logic::netlist::GateKind;
use obd_suite::obd::faultmodel::enumerate_sites;
use obd_suite::obd::BreakdownStage;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nl = fig8_sum_circuit();
    println!(
        "circuit: {} NAND2 + {} INV, logic depth {}",
        nl.count_kind(GateKind::Nand),
        nl.count_kind(GateKind::Inv),
        nl.max_depth()?
    );

    let stage = BreakdownStage::Mbd2;
    let sites = enumerate_sites(&nl, stage, true);
    println!(
        "OBD defect sites in the NAND gates: {} (paper: 56)",
        sites.len()
    );

    // ATPG over every site, with per-fault verdicts.
    let mut atpg = TwoFrameAtpg::new(&nl)?;
    let mut untestable = Vec::new();
    for f in &sites {
        if let GenOutcome::Untestable = atpg.generate(&Fault::Obd(*f))? {
            untestable.push(f.describe(&nl));
        }
    }
    println!(
        "untestable due to intentional redundancy: {} -> {:?}",
        untestable.len(),
        untestable
    );

    // Full flow with fault dropping and coverage accounting.
    let report = generate_obd_tests(&nl, stage, &DetectionCriterion::ideal(), true)?;
    println!(
        "\nATPG: {} tests cover {}/{} faults ({} untestable), coverage of testable = {:.1}%",
        report.tests.len(),
        report.detected,
        report.total_faults,
        report.untestable,
        100.0 * report.testable_coverage()
    );
    for t in &report.tests {
        println!("  {}", t.render());
    }

    // Exhaustive ground truth + minimal necessary-and-sufficient set.
    let exhaustive = exhaustive_obd_analysis(&nl, stage, &DetectionCriterion::ideal(), true)?;
    println!(
        "\nexhaustive: {} of {} faults testable (paper: 32); minimal set of {} of {} candidate transitions (paper: 18 of 72):",
        exhaustive.testable,
        exhaustive.total_faults,
        exhaustive.minimal_set.len(),
        exhaustive.tests.len()
    );
    for &t in &exhaustive.minimal_set {
        println!("  {}", exhaustive.tests[t].render());
    }
    Ok(())
}
