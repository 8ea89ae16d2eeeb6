//! Proves the packed grading inner loops are allocation-free in steady
//! state: the dropping grader's heap calls do not grow with the number
//! of blocks it walks, and once an engine and a scratch arena are warm,
//! the no-drop row loop touches the heap only for the rows it hands
//! back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

mod common;

use common::{mixed_cells, mixed_faults};
use obd_atpg::fault::obd_faults;
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::ppsfp::{PpsfpEngine, PpsfpScratch, SUPERLANE_WIDTH};
use obd_atpg::random::random_two_pattern;
use obd_core::BreakdownStage;
use obd_logic::circuits::{c17, ripple_carry_adder};

/// Counts heap operations from the measured thread while `COUNTING` is
/// set; otherwise defers straight to the system allocator.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Set on the thread whose grading loop is being measured, so the
    /// test harness's own threads cannot leak allocations into the
    /// window. Const-init keeps reading the flag allocation-free inside
    /// the allocator.
    static MEASURED_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING.load(Ordering::Relaxed) && MEASURED_THREAD.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The allocation-counting window and the global metrics switch are both
/// process-wide, so tests in this binary must not overlap.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Runs `pass` once to warm up, then counts the heap calls of a second
/// run.
fn warm_heap_calls(mut pass: impl FnMut()) -> u64 {
    pass();
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    pass();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOC_CALLS.load(Ordering::SeqCst)
}

/// With metrics disabled (branch-only counters), the warm width-1
/// dropping grader makes as many heap calls over 16 blocks as over 4:
/// its per-call buffers (walk units, job lists, member lists, the cone
/// overlay) do not depend on the blocks, and the cone walks reuse the
/// overlay across nets and blocks. The 16-block test set repeats the
/// 4-block one four times and so detects the same faults, and the faults
/// neither detects walk four times the blocks for the same heap calls.
#[test]
fn warm_dropping_grading_does_not_allocate_per_block() {
    let _guard = TEST_LOCK.lock().unwrap();
    MEASURED_THREAD.with(|c| c.set(true));
    obd_metrics::disable();

    let mut undetected = 0;
    for nl in [c17(), ripple_carry_adder(8), mixed_cells()] {
        let sim = FaultSimulator::new(&nl).unwrap();
        let faults = mixed_faults(&nl);
        let base = random_two_pattern(nl.inputs().len(), 4 * 64, 0xFEED);
        let mut calls = Vec::new();
        let mut detected = Vec::new();
        for blocks in [4, 16] {
            let tests: Vec<_> = base.iter().cycle().take(64 * blocks).cloned().collect();
            let engine = PpsfpEngine::<1>::prepare(&sim, &tests).unwrap();
            assert_eq!(engine.num_blocks(), blocks);
            assert_eq!(engine.scalar_fallback_tests(), 0);
            detected.push(engine.grade_parallel(&faults, 1).unwrap());
            calls.push(warm_heap_calls(|| {
                engine.grade_parallel(&faults, 1).unwrap();
            }));
        }
        assert_eq!(detected[0], detected[1]);
        undetected += detected[0].iter().filter(|&&d| !d).count();
        assert_eq!(
            calls[0],
            calls[1],
            "dropping grading made {} heap calls over 4 blocks, {} over 16 ({} faults)",
            calls[0],
            calls[1],
            faults.len()
        );
    }
    assert!(
        undetected > 0,
        "every fault is detected, so none walks every block"
    );
    obd_metrics::enable();
}

/// The width-8 no-drop row loop touches the heap only for the row it
/// returns: one allocation per fault, none inside the block walk.
#[test]
fn warm_detection_rows_allocate_only_the_returned_row() {
    let _guard = TEST_LOCK.lock().unwrap();
    MEASURED_THREAD.with(|c| c.set(true));
    obd_metrics::disable();

    for nl in [ripple_carry_adder(8), mixed_cells()] {
        let sim = FaultSimulator::new(&nl).unwrap();
        let faults = mixed_faults(&nl);
        let tests = random_two_pattern(nl.inputs().len(), 1024, 0xD0E5);
        let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
        assert_eq!(engine.num_blocks(), 1024 / (64 * SUPERLANE_WIDTH));
        let mut scratch = PpsfpScratch::default();
        let calls = warm_heap_calls(|| {
            for f in &faults {
                let row = engine.detection_row(f, &mut scratch).unwrap();
                assert_eq!(row.len(), tests.len());
            }
        });
        assert_eq!(
            calls,
            faults.len() as u64,
            "detection rows allocated beyond their own row over {} faults",
            faults.len()
        );
    }
    obd_metrics::enable();
}

/// Contrast run proving the counters really sit on the counted path: the
/// same width-1 dropping grader with metrics enabled moves
/// `atpg.blocks_graded`,
/// `atpg.good_sim_cache_hits`, `atpg.faults_dropped` and the cone
/// kernel's `logic.soa_gates_simulated` (so the zero-allocation claim
/// above is not measuring a dead path).
#[test]
fn enabled_metrics_sit_on_the_graded_path() {
    let _guard = TEST_LOCK.lock().unwrap();
    obd_metrics::enable();

    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    // Many 64-test blocks, so a detection in an early block still has
    // later blocks to skip and `faults_dropped` can move.
    let tests = random_two_pattern(nl.inputs().len(), 1024, 0xBEEF);
    let engine = PpsfpEngine::<1>::prepare(&sim, &tests).unwrap();
    assert!(engine.num_blocks() > 1);

    let before = obd_metrics::snapshot();
    engine.grade_parallel(&faults, 1).unwrap();
    let after = obd_metrics::snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert!(delta("atpg.blocks_graded") > 0);
    assert!(delta("atpg.good_sim_cache_hits") > 0);
    assert!(
        delta("atpg.faults_dropped") > 0,
        "c17 drops detected faults"
    );
    // Held values propagate through the cone kernel, so its gate
    // counter moves during grading too.
    assert!(delta("logic.soa_gates_simulated") > 0);
    // The SoA compile and engine prepare published their gauges.
    assert_eq!(after.gauge("atpg.superlane_width"), Some(1.0));
    assert!(
        after.gauge("logic.levels").unwrap_or(0.0) > 0.0,
        "c17 has depth"
    );
}

/// The block counters stay exact on the pooled no-drop matrix graded by
/// two workers, and the disabled path leaves the blocks' cache-hit flags
/// alone: a matrix graded with metrics off and then again with them on
/// counts every (net, block) evaluation once and every block's first
/// evaluation as a miss.
#[test]
fn matrix_block_counters_are_exact_and_disabled_path_stores_nothing() {
    let _guard = TEST_LOCK.lock().unwrap();

    let nl = ripple_carry_adder(8);
    let sim = FaultSimulator::new(&nl).unwrap();
    let mut faults = mixed_faults(&nl);
    faults.extend(obd_faults(&nl, BreakdownStage::Mbd1, false));
    let tests = random_two_pattern(nl.inputs().len(), 1100, 0xB10C);
    let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    let blocks = engine.num_blocks() as u64;
    assert_eq!(blocks, 3);

    obd_metrics::disable();
    let quiet = engine.detection_matrix(&faults, 2).unwrap();
    obd_metrics::enable();
    let before = obd_metrics::snapshot();
    let counted = engine.detection_matrix(&faults, 2).unwrap();
    let after = obd_metrics::snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(counted, quiet);
    // rca8 is 72 NAND2 gates over 89 nets, and no fault is slack-gated.
    // Each net is one walk unit: its stuck-at faults, its transition
    // faults, and the HBD, MBD1, MBD2 and EM faults of its driving NAND.
    // Each unit walks every block once, not each of its faults.
    assert_eq!(nl.num_nets(), 89);
    assert_eq!(faults.len(), 178 + 178 + 4 * 288);
    let units = 89;
    assert!(units > 64, "one pool job grades 64 units: {units} make two");
    let evaluations = units * blocks;
    assert_eq!(delta("atpg.blocks_graded"), evaluations);
    assert_eq!(delta("atpg.good_sim_cache_hits"), evaluations - blocks);
    assert_eq!(delta("core.pool_parallel_runs"), 1, "two workers ran");
}
