//! Deterministic guard on walk sharing in the no-drop detection matrix.
//!
//! Builds the matrix of every 16th fault of mult16's mixed universe
//! (2,530 faults) on 512 seeded tests, one packed block at the
//! super-lane width, at one thread with metrics on. It bounds
//! `atpg.blocks_graded`, which counts one packed block evaluation per
//! (net, block): every fault on a net reads the same walks, so a change
//! that quietly walks per stuck value and held net, or per fault, raises
//! the count and fails here, however fast the host. Each walk flips the
//! net only on the lanes its members read; `logic.soa_gates_simulated`
//! is bounded too, and catches a change that keeps the walk count but
//! widens the walks (flipping the net on every lane evaluates 1,183,659
//! gates).
//!
//! The only test of its binary: the metrics registry is process-wide.

mod common;

use common::mixed_faults;
use obd_atpg::fault::Fault;
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::ppsfp::{PpsfpEngine, SUPERLANE_WIDTH};
use obd_atpg::random::random_two_pattern;
use obd_logic::circuits::array_multiplier;

#[test]
fn mult16_detection_matrix_shares_its_walks() {
    obd_metrics::enable();
    let nl = array_multiplier(16);
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults: Vec<Fault> = mixed_faults(&nl).into_iter().step_by(16).collect();
    assert_eq!(faults.len(), 2_530);
    let tests = random_two_pattern(nl.inputs().len(), 512, 0x3A7);
    let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    assert_eq!(engine.num_blocks(), 1);
    let before = obd_metrics::snapshot();
    let matrix = engine.detection_matrix(&faults, 1).unwrap();
    let after = obd_metrics::snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let blocks = delta("atpg.blocks_graded");
    let gates = delta("logic.soa_gates_simulated");
    let detections = matrix.iter().flatten().filter(|&&d| d).count();
    println!(
        "mult16: {} faults, {detections} detections, {blocks} blocks graded, {gates} gates evaluated",
        faults.len(),
    );
    assert_eq!(detections, 432_055);
    // 781 with one unit per net (the sample's faults sit on 781 nets);
    // 1,735 with one unit per stuck value and held net, 2,530 when every
    // fault walks on its own.
    assert!(
        blocks <= 781,
        "{blocks} blocks graded, above 781: does every fault on a net share its walks?"
    );
    // 1,050,213 with walks flipped on the lanes their members read;
    // 1,183,659 flipped on every lane, 1,670,681 with one unit per stuck
    // value and held net.
    assert!(
        gates <= 1_050_213,
        "{gates} gates evaluated, above 1,050,213: do the walks flip only the lanes they read?"
    );
}
