//! Warm-start coverage for the persistent good-response store: with
//! `OBD_STORE_DIR` armed, a second engine over the same circuit and
//! test set serves every packed block from disk and grades bit-exactly
//! against both the cold run and the scalar reference.
//!
//! The global store handle latches the env var once per process, so
//! this binary is dedicated to the armed path (the rest of the suite
//! runs with persistence disarmed).

use obd_atpg::fault::{obd_faults, stuck_at_faults, transition_faults, Fault};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::ppsfp::{PpsfpEngine, PpsfpScratch, SUPERLANE_WIDTH};
use obd_atpg::random::random_two_pattern;
use obd_core::BreakdownStage;
use obd_logic::circuits::c17;
use obd_logic::netlist::Netlist;
use std::sync::Mutex;

/// The env-armed global store is process-wide; serialize the tests so
/// neither observes the other mid-flight.
static GATE: Mutex<()> = Mutex::new(());

fn store_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("obd-atpg-store-warm-{}", std::process::id()))
}

fn mixed_faults(nl: &Netlist) -> Vec<Fault> {
    let mut faults = stuck_at_faults(nl);
    faults.extend(transition_faults(nl));
    faults.extend(obd_faults(nl, BreakdownStage::Mbd2, false));
    faults
}

#[test]
fn warm_engine_serves_good_responses_from_disk_bit_exactly() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = store_dir();
    std::env::set_var(obd_store::STORE_DIR_ENV, &dir);
    assert!(
        obd_store::global().is_some(),
        "store must arm from the env var"
    );

    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    // Two blocks' worth of tests so the multi-block path is exercised.
    let tests = random_two_pattern(nl.inputs().len(), 64 * SUPERLANE_WIDTH + 5, 0x5703E);

    let cold = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    assert_eq!(cold.store_hits(), 0, "these frames were never stored");
    assert_eq!(cold.store_misses(), cold.num_blocks() as u64);
    let cold_grades = cold.grade_parallel(&faults, 1).unwrap();

    let warm = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    assert_eq!(
        warm.store_hits(),
        warm.num_blocks() as u64,
        "every block must come from disk on the warm pass"
    );
    assert_eq!(warm.store_misses(), 0);
    assert_eq!(warm.grade_parallel(&faults, 1).unwrap(), cold_grades);
    // Disk-served good responses must be bit-exact: the scalar reference
    // agrees test-by-test, not just on the dropped-grade summary.
    let mut scratch = PpsfpScratch::default();
    for f in &faults {
        let row = warm.detection_row(f, &mut scratch).unwrap();
        for (i, t) in tests.iter().enumerate() {
            assert_eq!(row[i], sim.detects(f, t).unwrap(), "fault {f:?} test {i}");
        }
    }

    // A different test set misses (content addressing, not path naming).
    let other = random_two_pattern(nl.inputs().len(), 70, 0xD1FF);
    let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &other).unwrap();
    assert_eq!(engine.store_hits(), 0, "different frames must not collide");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Threaded prepare over a warm store: hits equal blocks regardless of
/// how the fill was spread over threads.
#[test]
fn threaded_fill_counts_hits_consistently() {
    // Same process as the test above: the global handle latches on first
    // use, so both tests share one store dir (distinct digests keep
    // their records apart).
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = store_dir();
    std::env::set_var(obd_store::STORE_DIR_ENV, &dir);
    assert!(obd_store::global().is_some());

    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let tests = random_two_pattern(nl.inputs().len(), 3 * 64 * SUPERLANE_WIDTH, 0x7EAD);
    let cold = PpsfpEngine::<SUPERLANE_WIDTH>::prepare_with_threads(&sim, &tests, 3).unwrap();
    assert_eq!(cold.store_hits() + cold.store_misses(), 3);
    let warm = PpsfpEngine::<SUPERLANE_WIDTH>::prepare_with_threads(&sim, &tests, 3).unwrap();
    assert_eq!(warm.store_hits(), 3);
    assert_eq!(warm.store_misses(), 0);
    // Best-effort cleanup: the latched handle keeps its fd, so whichever
    // test finishes last can unlink the dir without disturbing the other.
    let _ = std::fs::remove_dir_all(&dir);
}
