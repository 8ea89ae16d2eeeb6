//! Deterministic guard on walk sharing in the dropping grader.
//!
//! Grades csa32's full mixed fault universe on 4,096 seeded tests at one
//! thread with metrics on and bounds `atpg.blocks_graded`, which counts
//! one packed block evaluation per (net, block) the grader reaches. All
//! the faults on a net share its walks, so a change that quietly stops
//! sharing them multiplies the count and fails here, however fast the
//! host. Each walk flips the net only on the lanes its pending members
//! read; `logic.soa_gates_simulated` is bounded too, and catches a change
//! that keeps the walk count but widens the walks. Every fault is dropped
//! once, when it is detected, so `atpg.faults_dropped` equals the
//! detections.
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
    let gates = delta("logic.soa_gates_simulated");
    let dropped = delta("atpg.faults_dropped");
    let detections = detected.iter().filter(|&&d| d).count() as u64;
    println!(
        "csa32: {} faults, {detections} detected, {dropped} dropped, {blocks} blocks graded, \
         {gates} gates evaluated",
        faults.len(),
    );
    // 1,494 with one unit per net; 3,041 with one unit per stuck value
    // and held net, 8,909 when only the stuck-at faults shared their
    // walks.
    assert!(
        blocks <= 1_494,
        "{blocks} blocks graded, above 1,494: does every fault on a net share its walks?"
    );
    // 49,590, of which 9,600 are the good-machine sims (both frames of
    // eight 512-test sweeps over 600 gates); 65,717 with one unit per
    // stuck value and held net.
    assert_eq!(nl.num_gates(), 600);
    assert!(
        gates <= 49_590,
        "{gates} gates evaluated, above 49,590: do the walks flip only the lanes they read?"
    );
    // Every detection leaves blocks ungraded, and no fault is counted
    // twice.
    assert_eq!(dropped, detections, "one drop per detected fault");
    assert_eq!(detections, 9_607);
}
