//! Randomized scalar-vs-packed equivalence for the PPSFP grading engine.
//!
//! The packed path must be *bit-exact* with the scalar reference
//! (`common::grade_scalar` / `FaultSimulator::detects`) across every fault model,
//! every block-boundary test count (1, 63, 64, 65, …), X-bearing test
//! sets (which fall back to the scalar path), and the parallel
//! work-stealing grader.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::{grade_scalar, mixed_cells, mixed_faults};
use obd_atpg::bist::run_bist;
use obd_atpg::fault::{
    obd_faults, stuck_at_faults, DetectionCriterion, Fault, SlowTo, TwoPatternTest,
};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::ppsfp::{PpsfpEngine, PpsfpScratch, SUPERLANE_WIDTH};
use obd_atpg::random::random_two_pattern;
use obd_atpg::AtpgError;
use obd_core::characterize::DelayTable;
use obd_core::{BreakdownStage, ObdFault, Polarity};
use obd_logic::circuits::{c17, fig8_sum_circuit, mux_tree, ripple_carry_adder};
use obd_logic::netlist::{GateKind, NetId, Netlist};
use obd_logic::value::Lv;

fn circuits() -> Vec<(&'static str, Netlist)> {
    vec![
        ("c17", c17()),
        ("fig8", fig8_sum_circuit()),
        ("rca2", ripple_carry_adder(2)),
        ("mux2", mux_tree(2)),
        ("mixed", mixed_cells()),
    ]
}

/// The core randomized equivalence sweep, hitting the 1/63/64/65 block
/// boundaries the packing logic must get right.
#[test]
fn packed_grade_matches_scalar_at_block_boundaries() {
    for (name, nl) in circuits() {
        let sim = FaultSimulator::new(&nl).unwrap();
        let faults = mixed_faults(&nl);
        for (seed, count) in [(11u64, 1usize), (12, 63), (13, 64), (14, 65), (15, 130)] {
            let tests = random_two_pattern(nl.inputs().len(), count, seed);
            let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
            assert_eq!(
                engine.num_blocks(),
                count.div_ceil(64 * SUPERLANE_WIDTH),
                "{name}/{count}"
            );
            assert_eq!(engine.scalar_fallback_tests(), 0, "{name}/{count}");
            let scalar = grade_scalar(&sim, &faults, &tests).unwrap();
            let packed = sim.grade(&faults, &tests).unwrap();
            assert_eq!(packed, scalar, "{name} with {count} tests");
        }
    }
}

/// Generic width sweep: at every supported super-lane width the packed
/// grader (serial and work-stealing parallel) is bit-exact with the
/// scalar reference, and the block count honors the widened capacity.
fn sweep_width<const N: usize>(counts: &[usize]) {
    for (name, nl) in circuits() {
        let sim = FaultSimulator::new(&nl).unwrap();
        let faults = mixed_faults(&nl);
        for (i, &count) in counts.iter().enumerate() {
            let tests = random_two_pattern(nl.inputs().len(), count, 0x51EE + i as u64);
            let engine = PpsfpEngine::<N>::prepare(&sim, &tests).unwrap();
            assert_eq!(
                engine.num_blocks(),
                count.div_ceil(64 * N),
                "{name}/{count}/N={N}"
            );
            assert_eq!(engine.scalar_fallback_tests(), 0, "{name}/{count}/N={N}");
            let scalar = grade_scalar(&sim, &faults, &tests).unwrap();
            assert_eq!(
                engine.grade_parallel(&faults, 1).unwrap(),
                scalar,
                "{name}/{count}/N={N}"
            );
            assert_eq!(
                engine.grade_parallel(&faults, 3).unwrap(),
                scalar,
                "{name}/{count}/N={N} parallel"
            );
        }
    }
}

/// N=1 degenerates to the old single-`u64` engine; its boundaries sit
/// at 63/64/65.
#[test]
fn width_1_matches_scalar_at_its_boundaries() {
    sweep_width::<1>(&[1, 63, 64, 65, 130]);
}

/// N=4 blocks hold 256 patterns; straddle that boundary.
#[test]
fn width_4_matches_scalar_at_its_boundaries() {
    sweep_width::<4>(&[1, 255, 256, 257]);
}

/// N=8 (the default) blocks hold 512 patterns; straddle that boundary.
#[test]
fn width_8_matches_scalar_at_its_boundaries() {
    sweep_width::<8>(&[1, 511, 512, 513]);
}

/// Satellite: `grade`, `grade_scalar` and `grade_parallel` all agree —
/// the loop-order asymmetry (test-major scalar vs fault-major parallel)
/// is gone; everything is fault-major with dropping on the engine.
#[test]
fn loop_order_unified_across_all_graders() {
    let nl = fig8_sum_circuit();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    let tests = random_two_pattern(nl.inputs().len(), 100, 77);
    let scalar = grade_scalar(&sim, &faults, &tests).unwrap();
    assert_eq!(sim.grade(&faults, &tests).unwrap(), scalar);
    for threads in [1usize, 2, 4, 7] {
        assert_eq!(
            sim.grade_parallel(&faults, &tests, threads).unwrap(),
            scalar,
            "threads = {threads}"
        );
    }
}

/// X-bearing tests cannot be packed two-valued (X packs as 0, which
/// would change detection); they must route through the scalar fallback
/// and still produce identical results.
#[test]
fn x_bearing_tests_fall_back_to_scalar_path() {
    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    let mut tests = random_two_pattern(nl.inputs().len(), 70, 99);
    // Poke X bits into a third of the tests, in both frames.
    for (i, t) in tests.iter_mut().enumerate() {
        match i % 3 {
            0 => t.v1[i % 5] = Lv::X,
            1 => t.v2[(i + 2) % 5] = Lv::X,
            _ => {}
        }
    }
    let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    assert!(engine.scalar_fallback_tests() > 0, "X tests must not pack");
    assert!(engine.num_blocks() > 0, "specified tests must still pack");
    let scalar = grade_scalar(&sim, &faults, &tests).unwrap();
    assert_eq!(sim.grade(&faults, &tests).unwrap(), scalar);
    assert_eq!(sim.grade_parallel(&faults, &tests, 4).unwrap(), scalar);
    // The X fallback partition is width-independent: narrow widths agree.
    let narrow = PpsfpEngine::<1>::prepare(&sim, &tests).unwrap();
    assert_eq!(
        narrow.scalar_fallback_tests(),
        engine.scalar_fallback_tests()
    );
    assert_eq!(narrow.grade_parallel(&faults, 1).unwrap(), scalar);
    let mid = PpsfpEngine::<4>::prepare(&sim, &tests).unwrap();
    assert_eq!(mid.grade_parallel(&faults, 1).unwrap(), scalar);
}

/// An all-X test set leaves the packed path completely empty and still
/// grades correctly.
#[test]
fn all_x_test_set_grades_scalar_only() {
    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = stuck_at_faults(&nl);
    let tests = vec![
        TwoPatternTest {
            v1: vec![Lv::X; 5],
            v2: vec![Lv::X; 5],
        };
        3
    ];
    let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    assert_eq!(engine.num_blocks(), 0);
    assert_eq!(engine.scalar_fallback_tests(), 3);
    let scalar = grade_scalar(&sim, &faults, &tests).unwrap();
    assert_eq!(sim.grade(&faults, &tests).unwrap(), scalar);
}

/// The engine-backed detection matrix equals direct per-pair `detects`,
/// X-bearing tests (the scalar fallback) included.
#[test]
fn detection_matrix_matches_direct_detects() {
    for nl in [fig8_sum_circuit(), mixed_cells()] {
        let sim = FaultSimulator::new(&nl).unwrap();
        let faults = mixed_faults(&nl);
        let mut tests = random_two_pattern(nl.inputs().len(), 70, 5);
        tests[3].v2[1] = Lv::X;
        let matrix = sim.detection_matrix(&faults, &tests).unwrap();
        assert_eq!(matrix.len(), tests.len());
        for (t, row) in matrix.iter().enumerate() {
            assert_eq!(row.len(), faults.len());
            for (f, &hit) in row.iter().enumerate() {
                assert_eq!(
                    hit,
                    sim.detects(&faults[f], &tests[t]).unwrap(),
                    "matrix[{t}][{f}]"
                );
            }
        }
    }
}

/// The pooled engine matrix equals per-pair scalar `detects` at 1, 2, 3
/// and 7 threads, on test sets with X-bearing (scalar fallback) tests,
/// at the super-lane width and at width 1 (where the 70 tests span two
/// packed blocks). The matrix walks each net once per frame and block
/// for all the faults on it, so the fault lists cover:
/// * units whose members lie in different 64-fault chunks, and more
///   units than one pool job grades (64, on rca8's 89 nets);
/// * units that mix held members that never walk (NMOS MBD1 faults,
///   22 ps of extra delay, gated by 30 ps of slack) with detected ones.
#[test]
fn pooled_detection_matrix_matches_scalar_at_any_thread_count() {
    let (mut split, mut gated_mix, mut multi_job) = (0, 0, 0);
    for nl in [c17(), mixed_cells(), ripple_carry_adder(8)] {
        let sim = FaultSimulator::with_criterion(
            &nl,
            DelayTable::paper(),
            DetectionCriterion::with_slack(30.0),
        )
        .unwrap();
        let mut faults = mixed_faults(&nl);
        faults.extend(obd_faults(&nl, BreakdownStage::Mbd1, false));
        assert!(
            faults.len() > 64 && !faults.len().is_multiple_of(64),
            "{} faults do not make a ragged multi-chunk matrix",
            faults.len()
        );
        let mut tests = random_two_pattern(nl.inputs().len(), 70, 0x57A1);
        tests[3].v2[1] = Lv::X;
        tests[41].v1[0] = Lv::X;
        let scalar: Vec<Vec<bool>> = tests
            .iter()
            .map(|t| faults.iter().map(|f| sim.detects(f, t).unwrap()).collect())
            .collect();
        assert!(scalar.iter().flatten().any(|&d| d), "nothing detected");

        let mut units: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, f) in faults.iter().enumerate() {
            units.entry(unit_net(&nl, f)).or_default().push(i);
        }
        multi_job += usize::from(units.len() > 64);
        split += units
            .values()
            .filter(|m| m[0] / 64 != m[m.len() - 1] / 64)
            .count();
        let gated = |i: usize| {
            matches!(faults[i], Fault::Obd(o)
                if o.stage == BreakdownStage::Mbd1 && o.polarity == Polarity::Nmos)
        };
        let detected = |i: usize| scalar.iter().any(|row| row[i]);
        gated_mix += units
            .values()
            .filter(|m| m.iter().any(|&i| gated(i)) && m.iter().any(|&i| detected(i)))
            .count();

        let wide = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
        let narrow = PpsfpEngine::<1>::prepare(&sim, &tests).unwrap();
        assert_eq!(wide.scalar_fallback_tests(), 2);
        assert_eq!(narrow.num_blocks(), 2);
        for threads in [1, 2, 3, 7] {
            assert_eq!(
                wide.detection_matrix(&faults, threads).unwrap(),
                scalar,
                "threads = {threads}"
            );
            assert_eq!(
                narrow.detection_matrix(&faults, threads).unwrap(),
                scalar,
                "N=1, threads = {threads}"
            );
        }
        assert_eq!(sim.detection_matrix(&faults, &tests).unwrap(), scalar);
    }
    assert!(split > 0, "no unit spans two 64-fault chunks");
    assert!(multi_job > 0, "no fault list has more units than one job");
    assert!(
        gated_mix > 0,
        "no unit mixes a gated member with a detected one"
    );
}

/// Matrix jobs grade their units block by block; at the super-lane
/// width that takes more than one 512-test block. Of 1,100 tests two
/// carry X bits, so 1,098 pack into blocks of 512, 512 and a ragged 74.
/// On rca8 with two XOR gates, the matrix of every eleventh mixed fault
/// (140 faults on 74 nets, two pool jobs), MBD1 faults under 30 ps of
/// slack included, equals per-pair scalar `detects` at 1, 2, 3 and 7
/// threads. With two faults that fail to plan appended, the
/// lower-indexed one, whose unit is graded in the second job, is
/// reported.
#[test]
fn multi_block_wide_matrix_matches_scalar() {
    let (nl, [xa, xb]) = rca8_with_xors();
    let sim = FaultSimulator::with_criterion(
        &nl,
        DelayTable::paper(),
        DetectionCriterion::with_slack(30.0),
    )
    .unwrap();
    let transition = |net, slow_to| Fault::Transition { net, slow_to };
    // `xa`'s unit comes first and `xb`'s after every rca8 net's.
    let mut universe = mixed_faults(&nl);
    universe.extend(obd_faults(&nl, BreakdownStage::Mbd1, false));
    let mut faults = vec![transition(xa, SlowTo::Fall)];
    faults.extend(universe.into_iter().step_by(11));
    faults.push(transition(xb, SlowTo::Rise));
    let nets: std::collections::BTreeSet<usize> = faults.iter().map(|f| unit_net(&nl, f)).collect();
    assert!(nets.len() > 64, "{} units make one pool job", nets.len());

    let width = nl.inputs().len();
    let mut tests = random_two_pattern(width, 1_100, 0x3B10);
    tests[100].v1[0] = Lv::X;
    tests[900].v2[width - 1] = Lv::X;
    let scalar: Vec<Vec<bool>> = tests
        .iter()
        .map(|t| faults.iter().map(|f| sim.detects(f, t).unwrap()).collect())
        .collect();
    let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    assert_eq!(engine.num_blocks(), 3);
    assert_eq!(engine.scalar_fallback_tests(), 2);
    // The ragged block and each X-bearing test detect something.
    let detects_any = |t: usize| scalar[t].iter().any(|&d| d);
    assert!(
        (1_024..1_100).any(detects_any),
        "the ragged block detects nothing"
    );
    assert!(detects_any(100) && detects_any(900));
    for threads in [1, 2, 3, 7] {
        assert_eq!(
            engine.detection_matrix(&faults, threads).unwrap(),
            scalar,
            "threads = {threads}"
        );
    }
    assert_eq!(sim.detection_matrix(&faults, &tests).unwrap(), scalar);

    let em = |net| Fault::Em {
        gate: nl.driver(net).unwrap(),
        pin: 0,
        polarity: Polarity::Pmos,
    };
    faults.extend([em(xb), em(xa)]);
    let want = Err(AtpgError::UnsupportedGate { gate: "xb".into() });
    for threads in [1, 2, 3, 7] {
        assert_eq!(
            engine.detection_matrix(&faults, threads),
            want,
            "threads = {threads}"
        );
    }
    assert_eq!(sim.detection_matrix(&faults, &tests), want);
}

/// The net whose walk unit a fault joins in the detection matrix: the
/// net it forces to a stuck value or holds through the capture frame.
fn unit_net(nl: &Netlist, f: &Fault) -> usize {
    stuck_plan(nl, f)
        .map(|(net, _)| net)
        .or_else(|| held_net(nl, f))
        .expect("every fault forces or holds a net")
}

/// The detection matrix walks each net once per frame and block for all
/// the faults on it, and every member reads its own lanes. The matrix
/// equals per-pair scalar `detects` at 1, 2, 3 and 7 threads, at widths
/// 1 and 8, with X-bearing tests mixed in, on nets whose units are:
/// * only stuck-at members (`n3`: its stuck-at and HBD faults);
/// * only held members (`r2`: its transition, MBD2 and EM faults);
/// * slack-gated held members next to live stuck-at members (`a3`: its
///   stuck-at and NMOS MBD1 faults, 22 ps gated by 30 ps of slack);
/// * every fault on a primary output that also feeds gates (`o4`, `b1`);
/// * every fault on a primary input (`a`).
///
/// The list is reversed, so no unit's members are contiguous.
#[test]
fn per_net_matrix_units_match_scalar_on_edge_nets() {
    let nl = mixed_cells();
    let sim = FaultSimulator::with_criterion(
        &nl,
        DelayTable::paper(),
        DetectionCriterion::with_slack(30.0),
    )
    .unwrap();
    let net = |name| nl.find_net(name).unwrap().index();
    let stuck = |f: &Fault| stuck_plan(&nl, f).is_some();
    let gated = |f: &Fault| {
        matches!(f, Fault::Obd(o)
            if o.stage == BreakdownStage::Mbd1 && o.polarity == Polarity::Nmos)
    };
    let mut universe = mixed_faults(&nl);
    universe.extend(obd_faults(&nl, BreakdownStage::Mbd1, false));
    let mut faults: Vec<Fault> = universe
        .iter()
        .filter(|f| {
            let n = unit_net(&nl, f);
            (n == net("n3") && stuck(f))
                || (n == net("r2") && !stuck(f) && !gated(f))
                || (n == net("a3") && (stuck(f) || gated(f)))
                || [net("o4"), net("b1"), net("a")].contains(&n)
        })
        .cloned()
        .collect();
    faults.reverse();

    // The edge nets are what the docs say they are.
    let fans_out = |n: usize| {
        nl.gate_ids()
            .any(|g| nl.gate(g).inputs.iter().any(|i| i.index() == n))
    };
    let is_po = |n: usize| nl.outputs().iter().any(|o| o.index() == n);
    assert!(is_po(net("o4")) && fans_out(net("o4")));
    assert!(is_po(net("b1")) && fans_out(net("b1")));
    assert!(nl.inputs().iter().any(|i| i.index() == net("a")));
    let nl_ref = &nl;
    let on = |name| {
        let n = net(name);
        move |f: &&Fault| unit_net(nl_ref, f) == n
    };
    assert!(faults.iter().filter(on("n3")).all(stuck));
    assert!(faults.iter().filter(on("r2")).all(|f| !stuck(f)));
    let a3: Vec<&Fault> = faults.iter().filter(on("a3")).collect();
    assert!(a3.iter().any(|f| gated(f)) && a3.iter().all(|f| stuck(f) || gated(f)));

    let width = nl.inputs().len();
    let mut tests = random_two_pattern(width, 150, 0xED6E);
    for i in (5..140).step_by(11) {
        tests[i].v1[i % width] = Lv::X;
        tests[i + 3].v2[(i + 1) % width] = Lv::X;
    }
    let scalar: Vec<Vec<bool>> = tests
        .iter()
        .map(|t| faults.iter().map(|f| sim.detects(f, t).unwrap()).collect())
        .collect();
    let detected = |f: &Fault| {
        let i = faults.iter().position(|g| g == f).unwrap();
        scalar.iter().any(|row| row[i])
    };
    for name in ["n3", "r2", "o4", "b1", "a"] {
        assert!(
            faults.iter().filter(on(name)).any(detected),
            "nothing on {name} is detected"
        );
    }
    assert!(a3.iter().any(|f| stuck(f) && detected(f)));
    assert!(a3.iter().all(|f| !gated(f) || !detected(f)));

    let wide = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    let narrow = PpsfpEngine::<1>::prepare(&sim, &tests).unwrap();
    assert!(wide.scalar_fallback_tests() > 0);
    assert_eq!(narrow.num_blocks(), 2);
    for threads in [1, 2, 3, 7] {
        assert_eq!(
            wide.detection_matrix(&faults, threads).unwrap(),
            scalar,
            "threads = {threads}"
        );
        assert_eq!(
            narrow.detection_matrix(&faults, threads).unwrap(),
            scalar,
            "N=1, threads = {threads}"
        );
    }
    assert_eq!(sim.detection_matrix(&faults, &tests).unwrap(), scalar);
}

/// A matrix whose failing faults sit in two nets' walk units, after the
/// stuck-at faults of all seven nets, reports the lowest-indexed one at
/// every thread count, through the engine and through
/// `FaultSimulator::detection_matrix`. Its seven units make one pool
/// job, so this checks the error kept across units within a job;
/// `shared_held_net_plan_keeps_the_lowest_index_error` checks it across
/// jobs.
#[test]
fn detection_matrix_reports_lowest_failing_fault_at_any_thread_count() {
    let mut nl = Netlist::new();
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let n1 = nl.add_gate(GateKind::Nand, "n1", &[a, b]).unwrap();
    let x1 = nl.add_gate(GateKind::Xor, "x1", &[n1, c]).unwrap();
    let x2 = nl.add_gate(GateKind::Xor, "x2", &[a, c]).unwrap();
    let y = nl.add_gate(GateKind::Nor, "y", &[x1, x2]).unwrap();
    nl.mark_output(y);
    let sim = FaultSimulator::new(&nl).unwrap();
    let xor_fault = |net| {
        Fault::Obd(ObdFault {
            gate: nl.driver(net).unwrap(),
            pin: 0,
            polarity: Polarity::Nmos,
            stage: BreakdownStage::Mbd2,
        })
    };
    let mut faults: Vec<Fault> = stuck_at_faults(&nl).into_iter().cycle().take(260).collect();
    // x2's held-net unit holds the lowest failure; x1's unit fails at
    // three higher indices.
    faults[150] = xor_fault(x2);
    faults[170] = xor_fault(x1);
    faults[200] = xor_fault(x1);
    faults[259] = xor_fault(x1);
    let tests = random_two_pattern(3, 80, 0x0B0F);
    let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    let want = Err(AtpgError::UnsupportedGate { gate: "x2".into() });
    for threads in [1, 2, 3, 7] {
        assert_eq!(
            engine.detection_matrix(&faults, threads),
            want,
            "threads = {threads}"
        );
    }
    assert_eq!(sim.detection_matrix(&faults, &tests), want);
}

/// A single fault's packed detection row equals per-test `detects`.
#[test]
fn detection_row_matches_per_test_detects() {
    let nl = fig8_sum_circuit();
    let sim = FaultSimulator::new(&nl).unwrap();
    let tests = random_two_pattern(nl.inputs().len(), 130, 21);
    let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    let mut scratch = PpsfpScratch::default();
    for fault in mixed_faults(&nl).iter().step_by(7) {
        let row = engine.detection_row(fault, &mut scratch).unwrap();
        for (t, &hit) in row.iter().enumerate() {
            assert_eq!(hit, sim.detects(fault, &tests[t]).unwrap(), "test {t}");
        }
    }
}

/// Malformed vectors surface as the same typed error the scalar path
/// produced.
#[test]
fn vector_width_errors_preserved() {
    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = stuck_at_faults(&nl);
    let bad = vec![TwoPatternTest::from_bools(&[true, false], &[true, false])];
    assert!(matches!(
        sim.grade(&faults, &bad),
        Err(AtpgError::VectorWidth {
            expected: 5,
            found: 2
        })
    ));
    assert!(matches!(
        sim.grade_parallel(&faults, &bad, 4),
        Err(AtpgError::VectorWidth { .. })
    ));

    // Two unsupported-gate faults in different 64-fault chunks: the
    // lower-indexed one is reported at every thread count.
    let mut nl = Netlist::new();
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let n1 = nl.add_gate(GateKind::Nand, "n1", &[a, b]).unwrap();
    let x1 = nl.add_gate(GateKind::Xor, "x1", &[n1, c]).unwrap();
    let x2 = nl.add_gate(GateKind::Xor, "x2", &[a, c]).unwrap();
    let y = nl.add_gate(GateKind::Nor, "y", &[x1, x2]).unwrap();
    nl.mark_output(y);
    let sim = FaultSimulator::new(&nl).unwrap();
    let xor_fault = |net| {
        Fault::Obd(ObdFault {
            gate: nl.driver(net).unwrap(),
            pin: 0,
            polarity: Polarity::Nmos,
            stage: BreakdownStage::Mbd2,
        })
    };
    let (i, j) = (10, 100);
    let mut faults: Vec<Fault> = stuck_at_faults(&nl).into_iter().cycle().take(130).collect();
    faults[i] = xor_fault(x2);
    faults[j] = xor_fault(x1);
    let tests = random_two_pattern(3, 80, 0x0B0E);
    for threads in [1, 2, 4, 7] {
        assert_eq!(
            sim.grade_parallel(&faults, &tests, threads),
            Err(AtpgError::UnsupportedGate { gate: "x2".into() }),
            "threads = {threads}"
        );
    }
}

/// The `(net, value)` output stuck-at a fault grades as, if any: a
/// stuck-at fault, or an HBD OBD fault (Table 1's stuck regime).
fn stuck_plan(nl: &Netlist, f: &Fault) -> Option<(usize, bool)> {
    match f {
        Fault::StuckAt { net, value } => Some((net.index(), *value)),
        Fault::Obd(o) if o.stage == BreakdownStage::Hbd => {
            let gate = nl.gate(o.gate);
            // An NMOS defect kills the pull-down: an inverting output
            // sticks at 1, and AND/OR's extra inverter flips it to 0.
            let nmos = o.polarity == Polarity::Nmos;
            let flipped = matches!(gate.kind, GateKind::And | GateKind::Or);
            Some((gate.output.index(), nmos != flipped))
        }
        _ => None,
    }
}

/// Stuck-at and HBD OBD faults that force the same output net to the
/// same value share their net's walks in the dropping grader. Every
/// member must still get its scalar verdict, also when only an
/// X-bearing test (each member's own scalar fallback) detects it, at 1
/// and 4 threads, with the group's first fault a stuck-at or an OBD
/// fault.
#[test]
fn shared_stuck_at_plans_match_scalar() {
    for (name, nl) in circuits() {
        let sim = FaultSimulator::new(&nl).unwrap();
        let sa = stuck_at_faults(&nl);
        let hbd = obd_faults(&nl, BreakdownStage::Hbd, false);
        // Stuck-at faults lead half the groups, OBD faults the rest.
        let (lo, hi) = hbd.split_at(hbd.len() / 2);
        let faults: Vec<Fault> = lo.iter().chain(&sa).chain(hi).cloned().collect();
        let plans: Vec<_> = faults.iter().map(|f| stuck_plan(&nl, f)).collect();
        let shared = |i: usize| plans[..i].contains(&plans[i]);
        assert!(
            (0..faults.len()).filter(|&i| shared(i)).count() >= hbd.len() / 2,
            "{name}: too few faults share a stuck-at plan"
        );
        let width = nl.inputs().len();
        let mut tests = random_two_pattern(width, 96, 0x5AED);
        // One X bit in every test but the first leaves one packed block
        // of a single test.
        for (i, t) in tests.iter_mut().enumerate().skip(1) {
            if i % 2 == 0 {
                t.v1[i % width] = Lv::X;
            } else {
                t.v2[i % width] = Lv::X;
            }
        }
        let specified = &tests[..1];
        let scalar = grade_scalar(&sim, &faults, &tests).unwrap();
        let packed_only = grade_scalar(&sim, &faults, specified).unwrap();
        assert!(
            (0..faults.len()).any(|i| shared(i) && scalar[i] && !packed_only[i]),
            "{name}: no shared-plan fault is detected by an X-bearing test alone"
        );
        let engine = PpsfpEngine::<1>::prepare(&sim, &tests).unwrap();
        assert_eq!(engine.num_blocks(), 1, "{name}");
        assert_eq!(engine.scalar_fallback_tests(), 95, "{name}");
        for threads in [1, 4] {
            assert_eq!(
                engine.grade_parallel(&faults, threads).unwrap(),
                scalar,
                "{name}, threads = {threads}"
            );
            assert_eq!(
                sim.grade_parallel(&faults, &tests, threads).unwrap(),
                scalar,
                "{name}, threads = {threads}"
            );
        }
    }
}

/// A fault on a gate without a cell model whose stuck-at plan another
/// fault already leads is still planned on its own, so its error is
/// the one reported when it is the lowest-indexed failing fault.
#[test]
fn shared_stuck_at_plan_keeps_the_lowest_index_error() {
    let nl = mixed_cells();
    let sim = FaultSimulator::new(&nl).unwrap();
    let xor = nl.driver(nl.find_net("x1").unwrap()).unwrap();
    let buf = nl.driver(nl.find_net("b1").unwrap()).unwrap();
    let hbd_nmos = |gate| {
        Fault::Obd(ObdFault {
            gate,
            pin: 0,
            polarity: Polarity::Nmos,
            stage: BreakdownStage::Hbd,
        })
    };
    let mut faults = stuck_at_faults(&nl);
    faults.extend(obd_faults(&nl, BreakdownStage::Hbd, false));
    let mut faults: Vec<Fault> = faults.into_iter().cycle().take(150).collect();
    // x1 stuck-at-1 leads the group an HBD NMOS fault on x1 would join;
    // that fault sits in the second 64-fault chunk, and the buffer's
    // fault fails later, in the third.
    let lead = faults
        .iter()
        .position(|f| stuck_plan(&nl, f) == stuck_plan(&nl, &hbd_nmos(xor)))
        .unwrap();
    assert!(lead < 100 && matches!(faults[lead], Fault::StuckAt { value: true, .. }));
    faults.insert(100, hbd_nmos(xor));
    faults.push(hbd_nmos(buf));
    let mut tests = random_two_pattern(nl.inputs().len(), 70, 0x5AEE);
    tests[5].v1[2] = Lv::X;
    let want = Err(AtpgError::UnsupportedGate { gate: "x1".into() });
    assert_eq!(grade_scalar(&sim, &faults, &tests), want);
    let engine = PpsfpEngine::<1>::prepare(&sim, &tests).unwrap();
    for threads in [1, 4] {
        assert_eq!(
            engine.grade_parallel(&faults, threads),
            want,
            "threads = {threads}"
        );
        assert_eq!(
            sim.grade_parallel(&faults, &tests, threads),
            want,
            "threads = {threads}"
        );
    }
}

/// The net whose launch-frame word a fault holds through the capture
/// frame, if any: a transition fault's net, or the output of the gate
/// carrying an EM fault or an OBD fault below the stuck stages (MBD1 and
/// MBD2 here).
fn held_net(nl: &Netlist, f: &Fault) -> Option<usize> {
    match f {
        Fault::Transition { net, .. } => Some(net.index()),
        Fault::Obd(o) if o.stage != BreakdownStage::Hbd => Some(nl.gate(o.gate).output.index()),
        Fault::Em { gate, .. } => Some(nl.gate(*gate).output.index()),
        Fault::Obd(_) | Fault::StuckAt { .. } => None,
    }
}

/// `y = AND(n, a)` over `n = NAND(a, b)`, and `w = NOR(b, c)`. `n` is
/// seen only while `a` is 1, so a fault on `n` excited only while `a` is
/// 0 in the capture frame is never detected: the NAND's PMOS on pin `a`
/// is one, excited when `a` falls alone. Faults on `n` excited while `a`
/// is 1, such as its transition faults, are detected.
fn masked_nand() -> Netlist {
    let mut nl = Netlist::new();
    let [a, b, c] = ["a", "b", "c"].map(|n| nl.add_input(n));
    let n = nl.add_gate(GateKind::Nand, "n", &[a, b]).unwrap();
    let y = nl.add_gate(GateKind::And, "y", &[n, a]).unwrap();
    let w = nl.add_gate(GateKind::Nor, "w", &[b, c]).unwrap();
    nl.mark_output(y);
    nl.mark_output(w);
    nl
}

/// The engine's and the simulator's dropping graders at 1 and 4 threads
/// against the scalar verdicts `want`.
fn assert_dropping_graders_match(
    sim: &FaultSimulator,
    faults: &[Fault],
    tests: &[TwoPatternTest],
    want: &[bool],
    what: &str,
) {
    let engine = PpsfpEngine::<1>::prepare(sim, tests).unwrap();
    for threads in [1, 4] {
        assert_eq!(
            engine.grade_parallel(faults, threads).unwrap(),
            want,
            "{what}, engine, threads = {threads}"
        );
        assert_eq!(
            sim.grade_parallel(faults, tests, threads).unwrap(),
            want,
            "{what}, simulator, threads = {threads}"
        );
    }
}

/// Transition, OBD (MBD1 and MBD2) and EM faults that hold the same net
/// share one capture-frame walk per block in the dropping grader. Every
/// member must still get its scalar verdict at 1 and 4 threads: members
/// a block detects drop out while the rest walk on, a slack-gated member
/// never walks, an undetectable member walks every block, and members
/// only an X-bearing test detects get it from their own scalar fallback.
#[test]
fn shared_held_net_plans_match_scalar() {
    let mut nets = circuits();
    nets.push(("masked", masked_nand()));
    // (nets held by a transition, an OBD and an EM fault at once, slack-
    // gated members, members detected after another member of their net,
    // members detected only by an X-bearing test)
    let (mut mixed, mut gated, mut late, mut x_only) = (0, 0, 0, 0);
    for (name, nl) in nets {
        // 30 ps of slack gates every NMOS MBD1 fault (22 ps of extra
        // delay) and no MBD2 fault (54 ps and more).
        let sim = FaultSimulator::with_criterion(
            &nl,
            DelayTable::paper(),
            DetectionCriterion::with_slack(30.0),
        )
        .unwrap();
        let mut faults = mixed_faults(&nl);
        faults.extend(obd_faults(&nl, BreakdownStage::Mbd1, false));
        let held: Vec<_> = faults.iter().map(|f| held_net(&nl, f)).collect();
        for net in 0..nl.num_nets() {
            let on_net = |kind: fn(&Fault) -> bool| {
                faults
                    .iter()
                    .zip(&held)
                    .any(|(f, &h)| h == Some(net) && kind(f))
            };
            if on_net(|f| matches!(f, Fault::Transition { .. }))
                && on_net(|f| matches!(f, Fault::Obd(_)))
                && on_net(|f| matches!(f, Fault::Em { .. }))
            {
                mixed += 1;
            }
        }
        gated += faults
            .iter()
            .filter(|f| {
                matches!(f, Fault::Obd(o)
                    if o.stage == BreakdownStage::Mbd1 && o.polarity == Polarity::Nmos)
            })
            .count();
        let width = nl.inputs().len();

        // Three 64-test blocks at width 1, the first one test repeated:
        // on a net that test toggles visibly, it detects one transition
        // direction and leaves the other to later blocks. On the masked
        // NAND it excites the PMOS on pin `a` (`ab` goes 11 → 01), so
        // that member is excited in every block and walks them all.
        let random = random_two_pattern(width, 129, 0x4E1D);
        let lead = if name == "masked" {
            TwoPatternTest::from_bools(&[true, true, false], &[false, true, false])
        } else {
            random[0].clone()
        };
        let mut walked = vec![lead; 64];
        walked.extend_from_slice(&random[1..]);
        let scalar = grade_scalar(&sim, &faults, &walked).unwrap();
        let first_block = grade_scalar(&sim, &faults, &walked[..64]).unwrap();
        late += (0..faults.len())
            .filter(|&j| {
                scalar[j]
                    && !first_block[j]
                    && held[j].is_some()
                    && (0..faults.len()).any(|i| first_block[i] && held[i] == held[j])
            })
            .count();
        if name == "masked" {
            let pmos_a = faults
                .iter()
                .position(|f| {
                    matches!(f, Fault::Obd(o) if o.stage == BreakdownStage::Mbd2
                        && o.polarity == Polarity::Pmos && o.pin == 0
                        && nl.gate(o.gate).name == "n")
                })
                .unwrap();
            assert!(!scalar[pmos_a], "masked: the PMOS on pin a is detected");
            let excites = |t: &TwoPatternTest| {
                t.v1[..2] == [Lv::One, Lv::One] && t.v2[..2] == [Lv::Zero, Lv::One]
            };
            assert!(
                walked.chunks(64).all(|block| block.iter().any(excites)),
                "masked: a block never excites the PMOS on pin a"
            );
        }
        assert_dropping_graders_match(&sim, &faults, &walked, &scalar, name);

        // One packed test; X bits in the other 95.
        let mut tests = random_two_pattern(width, 96, 0x5AEF);
        for (i, t) in tests.iter_mut().enumerate().skip(1) {
            if i % 2 == 0 {
                t.v1[i % width] = Lv::X;
            } else {
                t.v2[i % width] = Lv::X;
            }
        }
        let scalar = grade_scalar(&sim, &faults, &tests).unwrap();
        let packed_only = grade_scalar(&sim, &faults, &tests[..1]).unwrap();
        x_only += (0..faults.len())
            .filter(|&i| held[i].is_some() && scalar[i] && !packed_only[i])
            .count();
        assert_dropping_graders_match(&sim, &faults, &tests, &scalar, name);
    }
    assert!(mixed > 0, "no net is held by all three fault kinds");
    assert!(gated > 0, "no slack-gated member");
    assert!(late > 0, "no member is detected after another of its net");
    assert!(
        x_only > 0,
        "no member is detected by an X-bearing test alone"
    );
}

/// rca8 (89 nets) with two XOR gates, which have no cell model, so
/// their OBD and EM faults fail to plan: `xa = a0 ^ b3` and the extra
/// output `xb = xa ^ b0`. Returns the netlist and `[xa, xb]`.
fn rca8_with_xors() -> (Netlist, [NetId; 2]) {
    let mut nl = ripple_carry_adder(8);
    let [a0, b0, b3] = ["a0", "b0", "b3"].map(|n| nl.find_net(n).unwrap());
    let xa = nl.add_gate(GateKind::Xor, "xa", &[a0, b3]).unwrap();
    let xb = nl.add_gate(GateKind::Xor, "xb", &[xa, b0]).unwrap();
    nl.mark_output(xb);
    (nl, [xa, xb])
}

/// A fault on a gate without a cell model is planned on its own even
/// inside a unit whose leader has a lower index, and the
/// lowest-indexed failing fault's error is reported although a unit
/// graded earlier, in another pool job, fails at a higher index: by the
/// dropping graders and by the detection matrix.
#[test]
fn shared_held_net_plan_keeps_the_lowest_index_error() {
    let (nl, [xa, xb]) = rca8_with_xors();
    let sim = FaultSimulator::new(&nl).unwrap();
    let transition = |net, slow_to| Fault::Transition { net, slow_to };
    let obd = |net| {
        Fault::Obd(ObdFault {
            gate: nl.driver(net).unwrap(),
            pin: 0,
            polarity: Polarity::Pmos,
            stage: BreakdownStage::Mbd2,
        })
    };
    let em = |net| Fault::Em {
        gate: nl.driver(net).unwrap(),
        pin: 0,
        polarity: Polarity::Pmos,
    };
    // `xa`'s unit is the first. The stuck-at faults of rca8's 89 nets
    // come next, so `xb`'s unit comes after more than 64 others, in the
    // dropping grader and in the matrix alike (a unit per net). Its EM
    // fault sits between two of its transition faults and fails first;
    // `xa`'s OBD fault fails later, in the unit graded first.
    let mut faults = vec![transition(xa, SlowTo::Rise)];
    faults.extend(stuck_at_faults(&nl));
    assert!(nl.num_nets() > 65, "too few units before xb's");
    faults.extend([
        transition(xb, SlowTo::Rise),
        em(xb),
        transition(xb, SlowTo::Fall),
        obd(xa),
    ]);
    let tests = random_two_pattern(nl.inputs().len(), 200, 0x0B10);
    let want = Err(AtpgError::UnsupportedGate { gate: "xb".into() });
    assert_eq!(grade_scalar(&sim, &faults, &tests), want);
    let engine = PpsfpEngine::<1>::prepare(&sim, &tests).unwrap();
    for threads in [1, 4] {
        assert_eq!(
            engine.grade_parallel(&faults, threads),
            want,
            "threads = {threads}"
        );
        assert_eq!(
            sim.grade_parallel(&faults, &tests, threads),
            want,
            "threads = {threads}"
        );
    }
    let want: Result<Vec<Vec<bool>>, _> = Err(AtpgError::UnsupportedGate { gate: "xb".into() });
    let wide = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    for threads in [1, 2, 3, 7] {
        assert_eq!(
            wide.detection_matrix(&faults, threads),
            want,
            "matrix, threads = {threads}"
        );
    }
    assert_eq!(sim.detection_matrix(&faults, &tests), want);
}

/// Every packed grader against per-pair scalar `detects` on `tests`:
/// the dropping graders (the engine at widths 1 and 8, and the
/// simulator's) and the engines' detection matrices at 1, 2, 3 and 7
/// threads, and each fault's detection row at both widths.
fn assert_every_grader_matches(
    sim: &FaultSimulator,
    faults: &[Fault],
    tests: &[TwoPatternTest],
    what: &str,
) {
    let matrix: Vec<Vec<bool>> = tests
        .iter()
        .map(|t| faults.iter().map(|f| sim.detects(f, t).unwrap()).collect())
        .collect();
    let verdicts = grade_scalar(sim, faults, tests).unwrap();
    let narrow = PpsfpEngine::<1>::prepare(sim, tests).unwrap();
    let wide = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(sim, tests).unwrap();
    for threads in [1, 2, 3, 7] {
        let at = |grader| format!("{what}: {grader}, threads = {threads}");
        assert_eq!(
            narrow.grade_parallel(faults, threads).unwrap(),
            verdicts,
            "{}",
            at("N=1 dropping")
        );
        assert_eq!(
            wide.grade_parallel(faults, threads).unwrap(),
            verdicts,
            "{}",
            at("N=8 dropping")
        );
        assert_eq!(
            sim.grade_parallel(faults, tests, threads).unwrap(),
            verdicts,
            "{}",
            at("simulator dropping")
        );
        assert_eq!(
            narrow.detection_matrix(faults, threads).unwrap(),
            matrix,
            "{}",
            at("N=1 matrix")
        );
        assert_eq!(
            wide.detection_matrix(faults, threads).unwrap(),
            matrix,
            "{}",
            at("N=8 matrix")
        );
    }
    let mut scratch = PpsfpScratch::default();
    let mut narrow_scratch = PpsfpScratch::default();
    for (i, f) in faults.iter().enumerate() {
        let column: Vec<bool> = matrix.iter().map(|row| row[i]).collect();
        assert_eq!(
            wide.detection_row(f, &mut scratch).unwrap(),
            column,
            "{what}: N=8 row of {f:?}"
        );
        assert_eq!(
            narrow.detection_row(f, &mut narrow_scratch).unwrap(),
            column,
            "{what}: N=1 row of {f:?}"
        );
    }
}

/// `masked_nand`'s faults on net `n`: every fault model at once.
fn faults_on_n(nl: &Netlist) -> Vec<Fault> {
    let n = nl.find_net("n").unwrap().index();
    mixed_faults(nl)
        .into_iter()
        .filter(|f| unit_net(nl, f) == n)
        .collect()
}

/// One net that carries SA0, SA1, both transition faults, OBD delay
/// (MBD2), HBD OBD and EM faults at once walks as one unit in every
/// grader, and every member keeps its scalar verdict and its own
/// detecting tests. Its members are detected in different blocks (at
/// width 1, the 200 tests make four blocks, the last ragged), two X
/// bits send two tests to the scalar fallback, and the other nets'
/// faults ride along, in reverse order.
#[test]
fn one_net_carrying_every_fault_model_matches_scalar() {
    let nl = masked_nand();
    let sim = FaultSimulator::new(&nl).unwrap();
    let on_n = faults_on_n(&nl);
    let kind = |f: &Fault| match f {
        Fault::StuckAt { value: false, .. } => "SA0",
        Fault::StuckAt { value: true, .. } => "SA1",
        Fault::Transition {
            slow_to: SlowTo::Rise,
            ..
        } => "slow-to-rise",
        Fault::Transition { .. } => "slow-to-fall",
        Fault::Obd(o) if o.stage == BreakdownStage::Hbd => "HBD",
        Fault::Obd(_) => "MBD2",
        Fault::Em { .. } => "EM",
    };
    let kinds: BTreeSet<&str> = on_n.iter().map(kind).collect();
    assert_eq!(kinds.len(), 7, "n carries only {kinds:?}");
    // The first block repeats one test on which `n` falls visibly (`ab`
    // goes 10 → 11 with `a` = 1): it detects `n`'s stuck-at faults and
    // its slow-to-fall fault, and leaves the rest to later blocks.
    let lead = TwoPatternTest::from_bools(&[true, false, false], &[true, true, false]);
    let mut tests = vec![lead; 64];
    tests.extend(random_two_pattern(3, 136, 0x0E7));
    tests[70].v1[2] = Lv::X;
    tests[130].v2[0] = Lv::X;
    let verdicts = grade_scalar(&sim, &on_n, &tests).unwrap();
    let first_block = grade_scalar(&sim, &on_n, &tests[..64]).unwrap();
    for (f, &hit) in on_n.iter().zip(&first_block) {
        if ["SA0", "SA1", "slow-to-fall"].contains(&kind(f)) {
            assert!(hit, "the lead test misses {f:?}");
        }
    }
    assert!(
        (0..on_n.len()).any(|i| verdicts[i] && !first_block[i]),
        "every fault on n is detected in the first block"
    );
    let mut faults = mixed_faults(&nl);
    faults.reverse();
    assert_every_grader_matches(&sim, &faults, &tests, "masked NAND");
}

/// A stuck-at fault only the capture frame detects: `b` is 0 in every
/// launch frame, so `n` is 1 there and `n` stuck-at-1 is seen only when
/// `a` and `b` are both 1 in the capture frame. `n` stuck-at-0 is
/// detected in launch frames (`a` = 1), so in the dropping grader it
/// leaves the capture-frame walk that `n` stuck-at-1 and the held
/// members share.
#[test]
fn capture_frame_only_stuck_at_matches_scalar() {
    let nl = masked_nand();
    let sim = FaultSimulator::new(&nl).unwrap();
    let n = nl.find_net("n").unwrap();
    let mut tests = random_two_pattern(3, 150, 0xCA7);
    for t in &mut tests {
        t.v1[1] = Lv::Zero;
    }
    let launch_only = |f: &Fault| {
        tests.iter().any(|t| {
            let frame = TwoPatternTest {
                v1: t.v1.clone(),
                v2: t.v1.clone(),
            };
            sim.detects(f, &frame).unwrap()
        })
    };
    let sa1 = Fault::StuckAt {
        net: n,
        value: true,
    };
    let sa0 = Fault::StuckAt {
        net: n,
        value: false,
    };
    assert!(!launch_only(&sa1), "a launch frame detects n stuck-at-1");
    assert!(launch_only(&sa0), "no launch frame detects n stuck-at-0");
    assert_eq!(
        grade_scalar(&sim, &[sa1, sa0], &tests).unwrap(),
        [true, true]
    );
    assert_every_grader_matches(&sim, &faults_on_n(&nl), &tests, "capture-frame SA1");
    assert_every_grader_matches(&sim, &mixed_faults(&nl), &tests, "capture-frame SA1, all");
}

/// A fault first detected on the last block: three blocks of one test
/// (`abc` = 100 in both frames, so `n` is 1 and only its stuck-at-0 is
/// seen) and a ragged fourth block of 10 random tests, at width 1. `n`
/// stuck-at-1 is detected only there, while its unit's stuck-at-0 drops
/// out in the first block.
#[test]
fn fault_first_detected_on_the_last_block_matches_scalar() {
    let nl = masked_nand();
    let sim = FaultSimulator::new(&nl).unwrap();
    let n = nl.find_net("n").unwrap();
    let filler = TwoPatternTest::from_bools(&[true, false, false], &[true, false, false]);
    let mut tests = vec![filler; 3 * 64];
    tests.extend(random_two_pattern(3, 10, 0x1A57));
    let sa = |value| Fault::StuckAt { net: n, value };
    let pair = [sa(true), sa(false)];
    assert_eq!(
        grade_scalar(&sim, &pair, &tests[..192]).unwrap(),
        [false, true]
    );
    assert_eq!(grade_scalar(&sim, &pair, &tests).unwrap(), [true, true]);
    assert_eq!(
        PpsfpEngine::<1>::prepare(&sim, &tests)
            .unwrap()
            .num_blocks(),
        4
    );
    assert_every_grader_matches(&sim, &faults_on_n(&nl), &tests, "last block");
    assert_every_grader_matches(&sim, &mixed_faults(&nl), &tests, "last block, all");
}

/// The lowest-indexed error wins inside units that mix stuck-at and held
/// members. In `rca8_with_xors`, `xa`'s unit (graded first) and `xb`'s
/// (graded in the second pool job, after rca8's 89 nets) each hold
/// stuck-at faults, transition faults and OBD and EM faults of their XOR
/// gate, which fail to plan. The lowest failure sits in `xb`'s unit: its
/// HBD fault, a stuck-at member, in the first case; its EM fault, a
/// held member, in the second. Every grader reports it, as the scalar
/// grader does.
#[test]
fn lowest_error_in_a_mixed_unit_is_reported() {
    let (nl, [xa, xb]) = rca8_with_xors();
    let sim = FaultSimulator::new(&nl).unwrap();
    let obd = |net, stage| {
        Fault::Obd(ObdFault {
            gate: nl.driver(net).unwrap(),
            pin: 1,
            polarity: Polarity::Nmos,
            stage,
        })
    };
    let em = |net| Fault::Em {
        gate: nl.driver(net).unwrap(),
        pin: 1,
        polarity: Polarity::Nmos,
    };
    let sa = |net, value| Fault::StuckAt { net, value };
    let tr = |net, slow_to| Fault::Transition { net, slow_to };
    let head = [sa(xa, false), tr(xa, SlowTo::Fall)];
    let tail = [em(xa), obd(xa, BreakdownStage::Hbd)];
    let stuck_first = [
        sa(xb, true),
        tr(xb, SlowTo::Rise),
        obd(xb, BreakdownStage::Hbd),
        em(xb),
        sa(xb, false),
    ];
    let held_first = [
        tr(xb, SlowTo::Rise),
        em(xb),
        sa(xb, true),
        obd(xb, BreakdownStage::Hbd),
        obd(xb, BreakdownStage::Mbd2),
    ];
    let mut tests = random_two_pattern(nl.inputs().len(), 150, 0x0B11);
    tests[3].v2[4] = Lv::X;
    let want = Some(AtpgError::UnsupportedGate { gate: "xb".into() });
    let narrow = PpsfpEngine::<1>::prepare(&sim, &tests).unwrap();
    let wide = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    for (case, unit) in [("stuck-at first", stuck_first), ("held first", held_first)] {
        let mut faults = head.to_vec();
        faults.extend(stuck_at_faults(&nl));
        faults.extend(unit);
        faults.extend(tail);
        assert_eq!(grade_scalar(&sim, &faults, &tests).err(), want, "{case}");
        for threads in [1, 2, 3, 7] {
            let at = format!("{case}, threads = {threads}");
            assert_eq!(narrow.grade_parallel(&faults, threads).err(), want, "{at}");
            assert_eq!(wide.grade_parallel(&faults, threads).err(), want, "{at}");
            let err = sim.grade_parallel(&faults, &tests, threads).err();
            assert_eq!(err, want, "{at}");
            let err = narrow.detection_matrix(&faults, threads).err();
            assert_eq!(err, want, "{at}");
            let err = wide.detection_matrix(&faults, threads).err();
            assert_eq!(err, want, "{at}");
        }
        let err = sim.detection_matrix(&faults, &tests).err();
        assert_eq!(err, want, "{case}");
    }
}

/// Empty fault lists and empty test sets keep the scalar contract.
#[test]
fn degenerate_inputs_match_scalar() {
    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = stuck_at_faults(&nl);
    let tests = random_two_pattern(5, 10, 3);
    assert_eq!(sim.grade(&[], &tests).unwrap(), Vec::<bool>::new());
    assert_eq!(
        sim.grade(&faults, &[]).unwrap(),
        vec![false; faults.len()],
        "no tests detect nothing"
    );
}

/// BIST signatures are unchanged by the engine rewiring: a healthy run
/// passes and a run with a detectable fault fails, with per-test failure
/// flags identical to scalar `detects`.
#[test]
fn bist_row_rewiring_keeps_signatures() {
    let nl = fig8_sum_circuit();
    let sim = FaultSimulator::new(&nl).unwrap();
    let tests = obd_atpg::bist::lfsr_two_pattern_tests(3, 128, 8, 0x33);
    let healthy = run_bist(&nl, None, &tests).unwrap();
    assert!(!healthy.fails());
    let faults = obd_faults(&nl, BreakdownStage::Mbd2, true);
    let f = faults
        .iter()
        .find(|f| {
            let det = grade_scalar(&sim, std::slice::from_ref(f), &tests).unwrap();
            det[0]
        })
        .expect("some OBD fault detectable by 128 LFSR patterns");
    let faulty = run_bist(&nl, Some(f), &tests).unwrap();
    assert!(faulty.fails());
}

/// The mixed netlist is not a vacuous case: every NAND/NOR/AND/OR gate
/// of arity three or more has OBD sites (MBD2) that some two-pattern
/// test detects, so the equivalence sweeps above compare real
/// excitations on those cells.
#[test]
fn mixed_netlist_excites_every_wide_gate() {
    let nl = mixed_cells();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults: Vec<Fault> = mixed_faults(&nl)
        .into_iter()
        .filter(|f| matches!(f, Fault::Obd(o) if o.stage == BreakdownStage::Mbd2))
        .collect();
    let tests = obd_atpg::random::exhaustive_two_pattern(nl.inputs().len());
    let detected = sim.grade(&faults, &tests).unwrap();
    for g in nl.gate_ids() {
        let gate = nl.gate(g);
        if gate.inputs.len() < 3 {
            continue;
        }
        let hits = faults
            .iter()
            .zip(&detected)
            .filter(|(f, &d)| d && matches!(f, Fault::Obd(o) if o.gate == g))
            .count();
        assert!(hits > 0, "no OBD site of {} is detectable", gate.name);
    }
}
