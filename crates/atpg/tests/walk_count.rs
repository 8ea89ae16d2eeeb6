//! Deterministic guard on walk sharing in the dropping grader.
//!
//! Grades csa32's full mixed fault universe on 4,096 seeded tests at one
//! thread with metrics on and bounds `atpg.blocks_graded`, which counts
//! one packed block evaluation per (walk unit, block) the grader
//! reaches. Faults that share an output stuck-at or a held net share
//! their walks, so a change that quietly stops sharing them multiplies
//! the count and fails here, however fast the host.
//!
//! The only test of its binary: the metrics registry is process-wide.

mod common;

use common::mixed_faults;
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::random::random_two_pattern;
use obd_logic::circuits::carry_select_adder;

#[test]
fn csa32_dropping_grader_shares_its_walks() {
    obd_metrics::enable();
    let nl = carry_select_adder(32, 8);
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    let tests = random_two_pattern(nl.inputs().len(), 4096, 0xA78);
    let before = obd_metrics::snapshot();
    let detected = sim.grade_parallel(&faults, &tests, 1).unwrap();
    let after = obd_metrics::snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let blocks = delta("atpg.blocks_graded");
    println!(
        "csa32: {} faults, {} detected, {blocks} blocks graded",
        faults.len(),
        detected.iter().filter(|&&d| d).count()
    );
    // 3,041 with stuck-at and held-net units; 8,909 when only the
    // stuck-at faults shared their walks.
    assert!(
        blocks <= 3_041,
        "{blocks} blocks graded, above 3,041: are walks still shared?"
    );
}
