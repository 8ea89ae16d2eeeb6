//! Speed floor of the packed fault graders against the scalar reference.
//!
//! Times, on identical fault universes and seeded two-pattern test sets:
//!
//! * per circuit (c17, mux4, rca32, csa32, mult16): the scalar reference
//!   grader, the default width-1 dropping grader serial and on the
//!   work-stealing pool (a row reads `inline: true` when one untimed
//!   pooled run never spawned a worker);
//! * the full c17 detection matrix (no dropping): per-pair scalar
//!   `detects` against `detection_matrix`;
//! * full mult16 detection rows (no dropping) at width 1 against the
//!   super-lane width;
//! * csa32 engine preparation on 4,096 tests against serial dropping
//!   grading of its full mixed universe on the prepared engine.
//!
//! Every pair of graders must agree bit for bit, and the packed engine
//! must keep its margins:
//!
//! * packed serial beats scalar on every circuit with at least 40 gates;
//! * the best packed speedup (circuits and the c17 matrix) is at least 8×;
//! * the largest circuit has at least 2,000 gates and 1,000 faults;
//! * super-lane rows are at least 2× width-1 rows on mult16;
//! * the pool is at least 2× serial on the largest circuit, on hosts
//!   with at least 4 threads;
//! * csa32 preparation takes at most 0.32 of its dropping grading time.
//!
//! Each time is the minimum over its repetitions: the work is identical
//! every repetition, so the minimum is the least noise-contaminated
//! estimate on a shared host. Large circuits sample the fault universe
//! with a stride so the scalar reference stays affordable.
//!
//! Ignored by default: timings mean nothing without optimization. Run
//! it at release optimization:
//!
//! ```text
//! cargo test --release --offline -q -p obd-atpg --test grading_speed -- --ignored
//! ```

mod common;

use std::time::Instant;

use common::{grade_scalar, mixed_faults};
use obd_atpg::fault::Fault;
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::ppsfp::{PpsfpEngine, PpsfpScratch, SUPERLANE_WIDTH};
use obd_atpg::random::random_two_pattern;
use obd_logic::circuits::{
    array_multiplier, c17, carry_select_adder, mux_tree, ripple_carry_adder,
};
use obd_logic::netlist::Netlist;

/// Runs `f` `reps` times and returns its last result and its fastest
/// wall time in seconds.
fn min_time<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (out.expect("reps > 0"), best)
}

/// The mixed fault universe of `nl`, every `stride`-th fault.
fn sampled_faults(nl: &Netlist, stride: usize) -> Vec<Fault> {
    mixed_faults(nl).into_iter().step_by(stride).collect()
}

/// One circuit's grading speedups.
#[derive(Debug)]
struct Row {
    name: &'static str,
    gates: usize,
    faults: usize,
    /// Scalar reference → packed serial.
    packed: f64,
    /// Packed serial → packed on the pool.
    parallel: f64,
    /// The pooled run never spawned a worker: `parallel` compares two
    /// inline runs.
    inline: bool,
}

/// Grades `tests` seeded random tests against the stride-sampled fault
/// universe with every grader, min over `reps`, and checks they agree.
fn grade_circuit(
    name: &'static str,
    nl: &Netlist,
    tests: usize,
    seed: u64,
    stride: usize,
    reps: usize,
    threads: usize,
) -> Row {
    let sim = FaultSimulator::new(nl).unwrap();
    let faults = sampled_faults(nl, stride);
    let patterns = random_two_pattern(nl.inputs().len(), tests, seed);
    let (scalar, scalar_s) = min_time(reps, || grade_scalar(&sim, &faults, &patterns).unwrap());
    let (packed, packed_s) = min_time(reps, || sim.grade(&faults, &patterns).unwrap());
    obd_metrics::enable();
    let runs = || obd_metrics::snapshot().counter("core.pool_parallel_runs");
    let before = runs();
    sim.grade_parallel(&faults, &patterns, threads).unwrap();
    let inline = runs() == before;
    obd_metrics::disable();
    let (parallel, parallel_s) = min_time(reps, || {
        sim.grade_parallel(&faults, &patterns, threads).unwrap()
    });
    let wide = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &patterns)
        .and_then(|engine| engine.grade_parallel(&faults, 1))
        .unwrap();
    assert!(
        packed == scalar && parallel == scalar && wide == scalar,
        "{name}: packed/parallel detection vectors diverge from the scalar reference"
    );
    Row {
        name,
        gates: nl.num_gates(),
        faults: faults.len(),
        packed: scalar_s / packed_s,
        parallel: packed_s / parallel_s,
        inline,
    }
}

/// Speedup of the full detection matrix over per-pair scalar `detects`
/// on c17, min over three repetitions each. One packed matrix takes well
/// under a millisecond, so each of its repetitions times a batch of
/// `BATCH` calls, and a call's time is its share of the batch.
fn matrix_speedup() -> f64 {
    const BATCH: u32 = 100;
    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    let patterns = random_two_pattern(nl.inputs().len(), 1024, 0xA73);
    let (scalar, scalar_s) = min_time(3, || {
        patterns
            .iter()
            .map(|t| faults.iter().map(|f| sim.detects(f, t).unwrap()).collect())
            .collect::<Vec<Vec<bool>>>()
    });
    let (packed, batch_s) = min_time(3, || {
        let mut matrix = Vec::new();
        for _ in 0..BATCH {
            matrix = sim.detection_matrix(&faults, &patterns).unwrap();
        }
        matrix
    });
    assert!(
        packed == scalar,
        "c17: packed detection matrix diverges from per-pair scalar detects"
    );
    scalar_s / (batch_s / f64::from(BATCH))
}

/// Speedup of super-lane over width-1 full detection rows on mult16
/// (every 16th fault, 512 tests); each sweep is warmed once, then timed
/// as the minimum over five repetitions.
fn superlane_speedup() -> f64 {
    let nl = array_multiplier(16);
    let gates = nl.num_gates();
    assert!(gates >= 2000, "mult16 has {gates} gates");
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = sampled_faults(&nl, 16);
    let patterns = random_two_pattern(nl.inputs().len(), 512, 0xA77);
    fn rows<const N: usize>(engine: &PpsfpEngine<'_, '_, N>, faults: &[Fault]) -> Vec<Vec<bool>> {
        let mut scratch = PpsfpScratch::default();
        faults
            .iter()
            .map(|f| engine.detection_row(f, &mut scratch).unwrap())
            .collect()
    }
    let narrow = PpsfpEngine::<1>::prepare(&sim, &patterns).unwrap();
    let wide = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &patterns).unwrap();
    let narrow_rows = rows(&narrow, &faults);
    let wide_rows = rows(&wide, &faults);
    let (_, narrow_s) = min_time(5, || rows(&narrow, &faults));
    let (_, wide_s) = min_time(5, || rows(&wide, &faults));
    assert!(
        narrow_rows == wide_rows,
        "mult16: super-lane detection rows diverge from single-lane rows"
    );
    narrow_s / wide_s
}

/// Serial preparation time over serial dropping grading time for the
/// full mixed csa32 universe on 4,096 tests at width 1 (the dropping
/// graders' width), min over five repetitions each.
fn prepare_share() -> f64 {
    let nl = carry_select_adder(32, 8);
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    let patterns = random_two_pattern(nl.inputs().len(), 4096, 0xA78);
    let (engine, prepare_s) = min_time(5, || PpsfpEngine::<1>::prepare(&sim, &patterns).unwrap());
    let (_, grade_s) = min_time(5, || engine.grade_parallel(&faults, 1).unwrap());
    println!(
        "csa32 prepare {:.2} ms, grade {:.2} ms ({} faults, 4096 tests)",
        prepare_s * 1e3,
        grade_s * 1e3,
        faults.len()
    );
    prepare_s / grade_s
}

#[test]
#[ignore = "release-mode timing floor; run with --ignored"]
fn packed_grading_keeps_its_speed_floor() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // (name, netlist, tests, seed, fault stride, reps): reps drop to 1
    // where one run is already long enough to dominate timer noise.
    let rows: Vec<Row> = [
        ("c17", c17(), 1024, 0xA71, 1, 3),
        ("mux4", mux_tree(4), 1024, 0xA72, 1, 3),
        ("rca32", ripple_carry_adder(32), 512, 0xA74, 4, 1),
        ("csa32", carry_select_adder(32, 8), 512, 0xA75, 4, 1),
        ("mult16", array_multiplier(16), 512, 0xA76, 16, 1),
    ]
    .into_iter()
    .map(|(name, nl, tests, seed, stride, reps)| {
        grade_circuit(name, &nl, tests, seed, stride, reps, threads)
    })
    .collect();
    let matrix = matrix_speedup();
    let superlane = superlane_speedup();
    let prepare = prepare_share();
    for r in &rows {
        println!("{r:?}");
    }
    println!(
        "c17 matrix {matrix:.1}x, mult16 super-lane {superlane:.2}x, csa32 prepare/grade {prepare:.3}"
    );

    // c17 is small enough that packing wastes work against the scalar
    // path; every real circuit must show the bit-parallel win.
    for r in rows.iter().filter(|r| r.gates >= 40) {
        assert!(r.packed > 1.0, "{}: no bit-parallel win: {r:?}", r.name);
    }
    let largest = rows.iter().max_by_key(|r| r.gates).unwrap();
    assert!(
        largest.gates >= 2000 && largest.faults >= 1000,
        "largest circuit too small: {largest:?}"
    );
    assert!(
        superlane >= 2.0,
        "super-lane speedup {superlane:.2}x is below the 2x target"
    );
    // Real multi-core scaling is only observable on a multi-core host.
    if threads >= 4 {
        assert!(
            !largest.inline && largest.parallel >= 2.0,
            "{threads} threads: {largest:?}"
        );
    }
    // Packing and the good-machine sims must stay a small share of a
    // dropping run, or preparation, not fault evaluation, bounds it.
    assert!(
        prepare <= 0.32,
        "csa32 preparation takes {prepare:.3} of its grading time, above 0.32"
    );
    let best = rows.iter().map(|r| r.packed).fold(matrix, f64::max);
    assert!(
        best >= 8.0,
        "best packed speedup {best:.2}x is below the 8x target"
    );
}
