//! Step-control oracle on the largest circuit the suite simulates: the
//! Fig. 8 sum circuit (47 MNA unknowns), run under the transient's
//! local-error step control and again on the fixed grid of the same
//! nominal step (predictor off). For each (defect, sequence) pair, every
//! node's adaptive trace, resampled onto the fixed grid, must stay within
//! 1 mV of the fixed-grid trace, and the sum delay within 0.05 ps.

use obd_cmos::expand::expand;
use obd_cmos::TechParams;
use obd_core::characterize::BenchConfig;
use obd_core::faultmodel::Polarity;
use obd_core::injection::inject_obd;
use obd_core::BreakdownStage;
use obd_logic::circuits::fig8_sum_circuit;
use obd_spice::analysis::tran::{transient_with_options, TranParams};
use obd_spice::{EdgeKind, NodeId, SimOptions, Waveform};

const PS: f64 = 1e-12;
/// Largest node-voltage difference (V) between the two runs.
const MAX_NODE_DELTA_V: f64 = 1e-3;
/// Largest sum-delay difference (ps) between the two runs.
const MAX_DELAY_DELTA_PS: f64 = 0.05;

/// A defect on one pin of the mid-cone `g6` NAND (the Fig. 9 gate) and
/// the primary-input sequence `(v1, v2)` applied to `A B C`.
type Case = ((usize, Polarity), [bool; 3], [bool; 3]);

/// The four Fig. 9 rows at MBD2: their sum delays span 1.2 ns to stuck.
const CASES: [Case; 4] = [
    (
        (0, Polarity::Nmos),
        [false, false, false],
        [false, false, true],
    ),
    (
        (1, Polarity::Nmos),
        [false, false, false],
        [false, false, true],
    ),
    (
        (0, Polarity::Pmos),
        [false, false, true],
        [true, false, true],
    ),
    (
        (1, Polarity::Pmos),
        [false, false, true],
        [false, false, false],
    ),
];

/// Simulates one case; returns the waveform, every non-ground node and
/// the sum delay from the launch edge's midpoint (`None` when
/// the sum never crosses).
fn simulate(case: &Case, opts: &SimOptions) -> (Waveform, Vec<NodeId>, Option<f64>) {
    let (defect, v1, v2) = *case;
    let (tech, cfg) = (TechParams::date05(), BenchConfig::new());
    let nl = fig8_sum_circuit();
    let mut exp = expand(&nl, &tech).unwrap();
    let (pin, polarity) = defect;
    let g6 = nl.driver(nl.find_net("g6").unwrap()).unwrap();
    let params = BreakdownStage::Mbd2.params(polarity).unwrap();
    let device = exp.find_transistors(g6, pin, polarity.mos())[0].device;
    inject_obd(&mut exp.circuit, device, params, "g6").unwrap();
    for (i, &pi) in nl.inputs().iter().enumerate() {
        exp.drive_input(pi, cfg.input_wave(tech.vdd, v1[i], v2[i]));
    }
    let params = TranParams::new(cfg.step_ps * PS, (cfg.launch_ps + cfg.window_ps) * PS);
    let wave = transient_with_options(&exp.circuit, &params, opts).unwrap();
    let rising = v2.iter().fold(false, |acc, &b| acc ^ b);
    let edge = if rising {
        EdgeKind::Rising
    } else {
        EdgeKind::Falling
    };
    let t_ref = (cfg.launch_ps + 0.5 * cfg.edge_ps) * PS;
    let sum = exp.node(nl.outputs()[0]);
    let delay = wave
        .first_crossing(sum, tech.half_vdd(), edge, t_ref)
        .map(|t| (t - t_ref) / PS);
    let ckt = &exp.circuit;
    let nodes = (1..ckt.num_nodes()).map(|i| ckt.node_by_index(i)).collect();
    (wave, nodes, delay)
}

#[test]
fn adaptive_steps_match_the_fixed_grid_on_the_sum_circuit() {
    let fixed_grid = SimOptions {
        predictor: false,
        ..SimOptions::new()
    };
    for case in &CASES {
        let (adaptive, nodes, d_adaptive) = simulate(case, &SimOptions::new());
        let (fixed, _, d_fixed) = simulate(case, &fixed_grid);
        assert!(
            adaptive.time().len() < fixed.time().len() / 2,
            "{case:?}: {} adaptive steps against {} fixed ones",
            adaptive.time().len(),
            fixed.time().len()
        );
        let mut worst: f64 = 0.0;
        for &node in &nodes {
            for (&t, &v) in fixed.time().iter().zip(fixed.trace(node)) {
                worst = worst.max((adaptive.sample_at(node, t) - v).abs());
            }
        }
        eprintln!(
            "{case:?}: {} adaptive samples, {} fixed, largest node move {worst:.2e} V, \
             delays {d_adaptive:?} / {d_fixed:?} ps",
            adaptive.time().len(),
            fixed.time().len()
        );
        assert!(
            worst <= MAX_NODE_DELTA_V,
            "{case:?}: a node moved {worst:e} V"
        );
        match (d_adaptive, d_fixed) {
            (Some(a), Some(f)) => assert!(
                (a - f).abs() <= MAX_DELAY_DELTA_PS,
                "{case:?}: sum delay {a} ps adaptive, {f} ps fixed"
            ),
            (None, None) => {}
            other => panic!("{case:?}: verdicts differ: {other:?}"),
        }
    }
}
