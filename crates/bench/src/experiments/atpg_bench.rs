//! Fault-grading throughput benchmark behind `BENCH_atpg.json`.
//!
//! Four graders run over identical fault universes and two-pattern test
//! sets, on the paper's small circuits plus parameterized generator
//! circuits large enough (thousands of gates, 10k+ fault sites) to keep
//! every worker busy:
//!
//! * `grade_scalar` — the retained pre-PPSFP reference: fault-major, one
//!   scalar two-frame forced simulation per (fault, test) pair,
//! * `grade` — the default dropping engine, serial: width 1 (64 tests
//!   per block) with cached good-machine block responses and cone
//!   propagation of each fault effect,
//! * wide dropping PPSFP (`PpsfpEngine::<SUPERLANE_WIDTH>`) — the same
//!   dropping loop on `[u64; 8]` super-lanes, 512 tests per block: the
//!   contrast that records why the dropping default is narrow,
//! * `grade_parallel` — the default engine on the shared work-stealing
//!   pool: 64-fault chunks per job, and one good-response fill job per
//!   block.
//!
//! Every variant must return byte-identical detection vectors; the run
//! panics otherwise, so a written artifact is itself the equivalence
//! proof. Wall-clock timings take the minimum over a few repetitions —
//! the work is identical each repetition, so the minimum is the least
//! noise-contaminated estimate on a shared host. Large circuits sample
//! the fault universe with a stride so the scalar reference stays
//! affordable; the sampled set is what all four graders see.

use std::time::Instant;

use obd_atpg::fault::{em_faults, obd_faults, stuck_at_faults, transition_faults, Fault};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::ppsfp::{PpsfpEngine, SUPERLANE_WIDTH};
use obd_atpg::random::random_two_pattern;
use obd_atpg::AtpgError;
use obd_core::BreakdownStage;
use obd_logic::circuits::{
    array_multiplier, c17, carry_select_adder, mux_tree, ripple_carry_adder,
};
use obd_logic::netlist::Netlist;

/// Per-circuit timing row.
#[derive(Debug, Clone)]
pub struct AtpgBenchRow {
    /// Circuit label (`c17`, `mult16`, …).
    pub name: String,
    /// Gates in the circuit.
    pub gates: usize,
    /// Faults graded (stuck-at + transition + OBD + EM, sampled by
    /// `fault_stride` on the large generator circuits).
    pub faults: usize,
    /// Two-pattern tests in the graded set.
    pub tests: usize,
    /// 64-test pattern blocks the default grader packed the tests into.
    pub blocks: usize,
    /// Faults the test set detects (identical across variants).
    pub detected: usize,
    /// Scalar reference wall time (s).
    pub scalar_s: f64,
    /// Super-lane (`N = SUPERLANE_WIDTH`) dropping engine wall time,
    /// serial (s).
    pub wide_serial_s: f64,
    /// Default (width-1) dropping engine wall time, serial (s).
    pub packed_serial_s: f64,
    /// Default engine wall time, work-stealing threads (s).
    pub packed_parallel_s: f64,
}

impl AtpgBenchRow {
    /// Scalar reference → packed serial: the bit-parallel win.
    pub fn packed_speedup(&self) -> f64 {
        self.scalar_s / self.packed_serial_s
    }

    /// Super-lane dropping → width-1 dropping: what the narrow default
    /// saves on a dropping campaign.
    pub fn narrow_speedup(&self) -> f64 {
        self.wide_serial_s / self.packed_serial_s
    }

    /// Packed serial → packed parallel: the thread win.
    pub fn parallel_speedup(&self) -> f64 {
        self.packed_serial_s / self.packed_parallel_s
    }

    /// Scalar reference → packed parallel: the end-to-end number.
    pub fn total_speedup(&self) -> f64 {
        self.scalar_s / self.packed_parallel_s
    }
}

/// Detection-matrix timing: the no-dropping workload behind test-set
/// compaction, where every (fault, test) pair is evaluated.
///
/// Fault dropping makes plain grading of a small circuit like c17 almost
/// free in *both* paths (every fault dies in its first block), so the
/// matrix is where the 64-way packing shows its raw per-pair win.
#[derive(Debug, Clone)]
pub struct MatrixBench {
    /// Circuit label.
    pub name: String,
    /// Faults in the matrix.
    pub faults: usize,
    /// Tests in the matrix.
    pub tests: usize,
    /// Scalar per-pair `detects` wall time (s).
    pub scalar_s: f64,
    /// PPSFP `detection_matrix` wall time (s).
    pub packed_s: f64,
}

impl MatrixBench {
    /// Scalar per-pair sweep → packed matrix.
    pub fn speedup(&self) -> f64 {
        self.scalar_s / self.packed_s
    }
}

/// Super-lane widening benchmark on a no-dropping workload.
///
/// Fault dropping biases plain grading toward *narrow* blocks: an easy
/// fault caught by the first 64 patterns pays for all `64 * N` packed
/// patterns at width `N`. Throughput workloads — detection matrices,
/// compaction, BIST response modeling — evaluate every (fault, test) pair
/// regardless, and there the `[u64; N]` inner loop's SIMD and per-gate
/// overhead amortization pay off. This times full detection rows for
/// every fault at `N = 1` against the default super-lane width on a
/// generator circuit with thousands of gates.
#[derive(Debug, Clone)]
pub struct SuperlaneBench {
    /// Circuit label.
    pub name: String,
    /// Gates in the circuit.
    pub gates: usize,
    /// Faults in the sweep.
    pub faults: usize,
    /// Tests per detection row.
    pub tests: usize,
    /// Single-lane (`N = 1`) full-row sweep wall time (s).
    pub narrow_s: f64,
    /// Default super-lane full-row sweep wall time (s).
    pub packed_s: f64,
}

impl SuperlaneBench {
    /// Single-lane → super-lane on the no-dropping sweep.
    pub fn speedup(&self) -> f64 {
        self.narrow_s / self.packed_s
    }
}

/// Full grading-throughput report.
#[derive(Debug, Clone)]
pub struct AtpgBenchReport {
    /// One row per benchmarked circuit.
    pub rows: Vec<AtpgBenchRow>,
    /// Full detection-matrix timing on c17.
    pub matrix: MatrixBench,
    /// Narrow-vs-wide no-dropping sweep on the largest generator circuit.
    pub superlane: SuperlaneBench,
    /// Worker count used for the parallel runs.
    pub threads: usize,
    /// All three graders returned byte-identical detection vectors.
    pub bit_exact: bool,
}

/// Every fault model at once, mirroring the PPSFP equivalence suite.
fn mixed_faults(nl: &Netlist) -> Vec<Fault> {
    let mut faults = stuck_at_faults(nl);
    faults.extend(transition_faults(nl));
    faults.extend(obd_faults(nl, BreakdownStage::Mbd2, false));
    faults.extend(obd_faults(nl, BreakdownStage::Hbd, false));
    faults.extend(em_faults(nl, false));
    faults
}

/// Times one circuit: `tests` random fully-specified two-pattern tests
/// against the (possibly stride-sampled) mixed fault universe, all four
/// graders, min over `reps`.
fn bench_circuit(
    name: &str,
    nl: &Netlist,
    tests: usize,
    seed: u64,
    fault_stride: usize,
    reps: usize,
    threads: usize,
) -> Result<(AtpgBenchRow, bool), AtpgError> {
    let sim = FaultSimulator::new(nl)?;
    let faults: Vec<Fault> = mixed_faults(nl)
        .into_iter()
        .step_by(fault_stride.max(1))
        .collect();
    let patterns = random_two_pattern(nl.inputs().len(), tests, seed);
    let blocks = PpsfpEngine::<1>::prepare(&sim, &patterns)?.num_blocks();

    let mut scalar_s = f64::INFINITY;
    let mut wide_serial_s = f64::INFINITY;
    let mut packed_serial_s = f64::INFINITY;
    let mut packed_parallel_s = f64::INFINITY;
    let mut scalar = Vec::new();
    let mut wide = Vec::new();
    let mut packed = Vec::new();
    let mut parallel = Vec::new();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        scalar = sim.grade_scalar(&faults, &patterns)?;
        scalar_s = scalar_s.min(t0.elapsed().as_secs_f64());
        let tw = Instant::now();
        wide =
            PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &patterns)?.grade_parallel(&faults, 1)?;
        wide_serial_s = wide_serial_s.min(tw.elapsed().as_secs_f64());
        let t1 = Instant::now();
        packed = sim.grade(&faults, &patterns)?;
        packed_serial_s = packed_serial_s.min(t1.elapsed().as_secs_f64());
        let t2 = Instant::now();
        parallel = sim.grade_parallel(&faults, &patterns, threads)?;
        packed_parallel_s = packed_parallel_s.min(t2.elapsed().as_secs_f64());
    }

    let bit_exact = wide == scalar && packed == scalar && parallel == scalar;
    assert!(
        bit_exact,
        "{name}: packed/parallel detection vectors diverge from the scalar reference"
    );
    Ok((
        AtpgBenchRow {
            name: name.to_string(),
            gates: nl.num_gates(),
            faults: faults.len(),
            tests,
            blocks,
            detected: scalar.iter().filter(|&&d| d).count(),
            scalar_s,
            wide_serial_s,
            packed_serial_s,
            packed_parallel_s,
        },
        bit_exact,
    ))
}

/// Times the full detection matrix on one circuit: scalar per-pair
/// `detects` against the engine-backed `detection_matrix`, asserting the
/// two matrices are identical.
fn bench_matrix(
    name: &str,
    nl: &Netlist,
    tests: usize,
    seed: u64,
) -> Result<(MatrixBench, bool), AtpgError> {
    const REPS: usize = 3;
    let sim = FaultSimulator::new(nl)?;
    let faults = mixed_faults(nl);
    let patterns = random_two_pattern(nl.inputs().len(), tests, seed);

    let mut scalar_s = f64::INFINITY;
    let mut packed_s = f64::INFINITY;
    let mut scalar = Vec::new();
    let mut packed = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        scalar = patterns
            .iter()
            .map(|t| {
                faults
                    .iter()
                    .map(|f| sim.detects(f, t))
                    .collect::<Result<Vec<bool>, AtpgError>>()
            })
            .collect::<Result<Vec<_>, AtpgError>>()?;
        scalar_s = scalar_s.min(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        packed = sim.detection_matrix(&faults, &patterns)?;
        packed_s = packed_s.min(t1.elapsed().as_secs_f64());
    }

    let bit_exact = packed == scalar;
    assert!(
        bit_exact,
        "{name}: packed detection matrix diverges from per-pair scalar detects"
    );
    Ok((
        MatrixBench {
            name: name.to_string(),
            faults: faults.len(),
            tests,
            scalar_s,
            packed_s,
        },
        bit_exact,
    ))
}

/// Times full detection rows for every (stride-sampled) fault at
/// `N = 1` and at the default super-lane width, asserting the rows are
/// identical bit for bit.
fn bench_superlane(
    name: &str,
    nl: &Netlist,
    tests: usize,
    seed: u64,
    fault_stride: usize,
) -> Result<(SuperlaneBench, bool), AtpgError> {
    let sim = FaultSimulator::new(nl)?;
    let faults: Vec<Fault> = mixed_faults(nl)
        .into_iter()
        .step_by(fault_stride.max(1))
        .collect();
    let patterns = random_two_pattern(nl.inputs().len(), tests, seed);

    let narrow_engine = PpsfpEngine::<1>::prepare(&sim, &patterns)?;
    let wide_engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &patterns)?;
    let rows = |rows_out: &mut Vec<Vec<bool>>, wide: bool| -> Result<f64, AtpgError> {
        let t0 = Instant::now();
        rows_out.clear();
        let mut narrow_scratch = obd_atpg::ppsfp::PpsfpScratch::default();
        let mut wide_scratch = obd_atpg::ppsfp::PpsfpScratch::default();
        for f in &faults {
            rows_out.push(if wide {
                wide_engine.detection_row(f, &mut wide_scratch)?
            } else {
                narrow_engine.detection_row(f, &mut narrow_scratch)?
            });
        }
        Ok(t0.elapsed().as_secs_f64())
    };

    let mut narrow_rows = Vec::new();
    let mut wide_rows = Vec::new();
    // Warm both paths once, then time.
    rows(&mut narrow_rows, false)?;
    rows(&mut wide_rows, true)?;
    let narrow_s = rows(&mut narrow_rows, false)?;
    let packed_s = rows(&mut wide_rows, true)?;

    let bit_exact = narrow_rows == wide_rows;
    assert!(
        bit_exact,
        "{name}: super-lane detection rows diverge from single-lane rows"
    );
    Ok((
        SuperlaneBench {
            name: name.to_string(),
            gates: nl.num_gates(),
            faults: faults.len(),
            tests,
            narrow_s,
            packed_s,
        },
        bit_exact,
    ))
}

/// Runs the full grading benchmark: the paper's small circuits plus the
/// parameterized generator circuits (32-bit adders, a 16×16 array
/// multiplier) whose fault universes are large enough to exercise the
/// super-lane blocks and the work-stealing pool.
///
/// # Errors
///
/// Propagates fault-simulator construction and grading errors.
pub fn run() -> Result<AtpgBenchReport, AtpgError> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::new();
    let mut bit_exact = true;
    // (name, netlist, tests, seed, fault_stride, reps): the stride
    // samples the fault universe on the big circuits so the scalar
    // reference finishes in seconds; reps drop to 1 where one run is
    // already long enough to dominate timer noise.
    for (name, nl, tests, seed, stride, reps) in [
        ("c17", c17(), 1024usize, 0xA71u64, 1usize, 3usize),
        ("mux4", mux_tree(4), 1024, 0xA72, 1, 3),
        ("rca32", ripple_carry_adder(32), 512, 0xA74, 4, 1),
        ("csa32", carry_select_adder(32, 8), 512, 0xA75, 4, 1),
        ("mult16", array_multiplier(16), 512, 0xA76, 16, 1),
    ] {
        let (row, exact) = bench_circuit(name, &nl, tests, seed, stride, reps, threads)?;
        bit_exact &= exact;
        rows.push(row);
    }
    let (matrix, exact) = bench_matrix("c17", &c17(), 1024, 0xA73)?;
    bit_exact &= exact;
    let (superlane, exact) = bench_superlane("mult16", &array_multiplier(16), 512, 0xA77, 16)?;
    bit_exact &= exact;
    Ok(AtpgBenchReport {
        rows,
        matrix,
        superlane,
        threads,
        bit_exact,
    })
}

/// Hand-rolled JSON (the workspace builds offline, with no serializer
/// crate); circuit names are ASCII identifiers, so no escaping is needed.
pub fn to_json(r: &AtpgBenchReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"threads\": {},\n", r.threads));
    out.push_str(&format!("  \"bit_exact\": {},\n", r.bit_exact));
    out.push_str("  \"circuits\": [\n");
    for (i, row) in r.rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{ \"name\": \"{}\", \"gates\": {}, \"faults\": {}, \"tests\": {}, ",
                "\"blocks\": {}, \"detected\": {},\n",
                "      \"scalar_s\": {:.6}, \"wide_serial_s\": {:.6}, ",
                "\"packed_serial_s\": {:.6}, \"packed_parallel_s\": {:.6},\n",
                "      \"packed_speedup\": {:.3}, \"narrow_speedup\": {:.3}, ",
                "\"parallel_speedup\": {:.3}, \"total_speedup\": {:.3} }}{}\n"
            ),
            row.name,
            row.gates,
            row.faults,
            row.tests,
            row.blocks,
            row.detected,
            row.scalar_s,
            row.wide_serial_s,
            row.packed_serial_s,
            row.packed_parallel_s,
            row.packed_speedup(),
            row.narrow_speedup(),
            row.parallel_speedup(),
            row.total_speedup(),
            if i + 1 < r.rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        concat!(
            "  \"matrix\": {{ \"name\": \"{}\", \"faults\": {}, \"tests\": {},\n",
            "    \"scalar_s\": {:.6}, \"packed_s\": {:.6}, \"speedup\": {:.3} }},\n"
        ),
        r.matrix.name,
        r.matrix.faults,
        r.matrix.tests,
        r.matrix.scalar_s,
        r.matrix.packed_s,
        r.matrix.speedup(),
    ));
    out.push_str(&format!(
        concat!(
            "  \"superlane\": {{ \"name\": \"{}\", \"gates\": {}, \"faults\": {}, ",
            "\"tests\": {},\n",
            "    \"narrow_s\": {:.6}, \"packed_s\": {:.6}, \"speedup\": {:.3} }}\n"
        ),
        r.superlane.name,
        r.superlane.gates,
        r.superlane.faults,
        r.superlane.tests,
        r.superlane.narrow_s,
        r.superlane.packed_s,
        r.superlane.speedup(),
    ));
    out.push_str("}\n");
    out
}

/// Human-readable summary for the repro log.
pub fn render(r: &AtpgBenchReport) -> String {
    let mut out = String::new();
    for row in &r.rows {
        out.push_str(&format!(
            concat!(
                "  {:<6} {} gates, {} faults x {} tests ({} blocks, {} detected)\n",
                "         scalar {:.4} s, wide {:.4} s, packed {:.4} s, ",
                "parallel {:.4} s on {} threads\n",
                "         speedup: packed {:.2}x, narrow {:.2}x, ",
                "threads {:.2}x, total {:.2}x\n"
            ),
            row.name,
            row.gates,
            row.faults,
            row.tests,
            row.blocks,
            row.detected,
            row.scalar_s,
            row.wide_serial_s,
            row.packed_serial_s,
            row.packed_parallel_s,
            r.threads,
            row.packed_speedup(),
            row.narrow_speedup(),
            row.parallel_speedup(),
            row.total_speedup(),
        ));
    }
    out.push_str(&format!(
        concat!(
            "  matrix {} ({} faults x {} tests, no dropping): ",
            "scalar {:.4} s, packed {:.4} s, speedup {:.2}x\n"
        ),
        r.matrix.name,
        r.matrix.faults,
        r.matrix.tests,
        r.matrix.scalar_s,
        r.matrix.packed_s,
        r.matrix.speedup(),
    ));
    out.push_str(&format!(
        concat!(
            "  superlane {} ({} gates, {} faults x {} tests, full rows): ",
            "narrow {:.4} s, wide {:.4} s, speedup {:.2}x\n"
        ),
        r.superlane.name,
        r.superlane.gates,
        r.superlane.faults,
        r.superlane.tests,
        r.superlane.narrow_s,
        r.superlane.packed_s,
        r.superlane.speedup(),
    ));
    out.push_str(&format!(
        "  detection vectors bit-exact across all graders: {}",
        r.bit_exact
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> AtpgBenchReport {
        AtpgBenchReport {
            rows: vec![
                AtpgBenchRow {
                    name: "c17".to_string(),
                    gates: 6,
                    faults: 116,
                    tests: 1024,
                    blocks: 2,
                    detected: 100,
                    scalar_s: 0.8,
                    wide_serial_s: 0.2,
                    packed_serial_s: 0.05,
                    packed_parallel_s: 0.0125,
                },
                AtpgBenchRow {
                    name: "mux4".to_string(),
                    gates: 50,
                    faults: 400,
                    tests: 1024,
                    blocks: 2,
                    detected: 350,
                    scalar_s: 2.0,
                    wide_serial_s: 0.4,
                    packed_serial_s: 0.1,
                    packed_parallel_s: 0.025,
                },
            ],
            matrix: MatrixBench {
                name: "c17".to_string(),
                faults: 116,
                tests: 1024,
                scalar_s: 0.5,
                packed_s: 0.01,
            },
            superlane: SuperlaneBench {
                name: "mult16".to_string(),
                gates: 2624,
                faults: 2530,
                tests: 512,
                narrow_s: 0.4,
                packed_s: 0.1,
            },
            threads: 8,
            bit_exact: true,
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let r = sample_report();
        assert_eq!(r.rows[0].packed_speedup(), 16.0);
        assert_eq!(r.rows[0].narrow_speedup(), 4.0);
        assert_eq!(r.rows[0].parallel_speedup(), 4.0);
        assert_eq!(r.rows[0].total_speedup(), 64.0);
        let j = to_json(&r);
        assert!(j.contains("\"bit_exact\": true"));
        assert!(j.contains("\"name\": \"c17\""));
        assert!(j.contains("\"gates\": 6"));
        assert!(j.contains("\"wide_serial_s\": 0.200000"));
        assert!(j.contains("\"packed_speedup\": 16.000"));
        assert!(j.contains("\"narrow_speedup\": 4.000"));
        assert!(j.contains("\"total_speedup\": 64.000"));
        assert_eq!(r.matrix.speedup(), 50.0);
        assert!(j.contains("\"speedup\": 50.000"));
        assert_eq!(r.superlane.speedup(), 4.0);
        assert!(j.contains("\"superlane\""));
        assert!(j.contains("\"narrow_s\": 0.400000"));
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        // Balanced braces/brackets — the artifact must stay machine-parseable.
        let open = j.matches('{').count();
        assert_eq!(open, j.matches('}').count());
        assert_eq!(open, 3 + r.rows.len());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    /// A scaled-down end-to-end run: the graders agree and the report
    /// carries real counts. (The repro verb runs the full-size version.)
    #[test]
    fn small_bench_is_bit_exact() {
        let nl = c17();
        let threads = 2;
        let (row, exact) = bench_circuit("c17", &nl, 130, 7, 1, 2, threads).unwrap();
        assert!(exact);
        assert_eq!(row.blocks, 130usize.div_ceil(64));
        assert_eq!(row.tests, 130);
        assert_eq!(row.gates, 6);
        assert!(row.faults > 0);
        assert!(row.scalar_s.is_finite() && row.packed_serial_s.is_finite());
        assert!(row.wide_serial_s.is_finite());
    }

    /// The fault stride really thins the graded universe (and the graders
    /// still agree on the sampled set).
    #[test]
    fn fault_stride_samples_universe() {
        let nl = c17();
        let full = mixed_faults(&nl).len();
        let (row, exact) = bench_circuit("c17", &nl, 64, 9, 3, 1, 1).unwrap();
        assert!(exact);
        assert_eq!(row.faults, full.div_ceil(3));
    }
}
