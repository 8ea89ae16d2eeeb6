//! E5 — Fig. 9: propagation of OBD transition-fault effects through the
//! full-adder sum circuit.
//!
//! A single defect is injected into one of the four transistors of a
//! mid-cone NAND gate (`g6`, whose inputs sit at logic depth 4 and whose
//! output is three stages from the sum — the closest analogue of the
//! paper's "four stages in both the upstream and downstream logic" gate
//! that has all four of its OBD defects testable; the deeper `g5` is one
//! of the intentionally redundant duplicates whose PMOS defects are
//! untestable). The required excitation sequences are justified to
//! the primary inputs by the two-pattern ATPG, then the full 25-gate
//! circuit (78 transistors plus the defect network) is simulated in the
//! analog domain and the delayed sum transition observed at the primary
//! output — the degraded internal level is restored, the timing error
//! survives.

use obd_atpg::fault::Fault;
use obd_atpg::twoframe::{GenOutcome, TwoFrameAtpg};
use obd_cmos::expand::expand;
use obd_cmos::TechParams;
use obd_core::characterize::BenchConfig;
use obd_core::faultmodel::{ObdFault, Polarity};
use obd_core::injection::inject_obd;
use obd_core::{BreakdownStage, ObdError};
use obd_logic::circuits::fig8_sum_circuit;
use obd_logic::value::Lv;
use obd_spice::analysis::tran::{transient_with_options, TranParams};
use obd_spice::{EdgeKind, SimOptions};

/// Result for one injected defect.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Defect label, e.g. `"NMOS pin0"`.
    pub label: String,
    /// The PI sequence used, e.g. `"(110,100)"`.
    pub sequence: String,
    /// Fault-free sum delay for the same sequence (ps, PI edge to sum
    /// 50 %).
    pub fault_free_ps: Option<f64>,
    /// Defective sum delay (ps); `None` = never switched (stuck).
    pub faulty_ps: Option<f64>,
    /// Sum output samples `(t, v)` for the defective run.
    pub output_trace: Vec<(f64, f64)>,
}

/// Runs the Fig. 9 experiment: all four defects of the `g6` NAND at the
/// given stage.
///
/// # Errors
///
/// Propagates ATPG, expansion and simulation errors.
pub fn run(
    tech: &TechParams,
    stage: BreakdownStage,
    cfg: &BenchConfig,
) -> Result<Vec<Fig9Row>, ObdError> {
    let nl = fig8_sum_circuit();
    let g6 = nl
        .driver(
            nl.find_net("g6")
                .map_err(|e| ObdError::Logic(e.to_string()))?,
        )
        .expect("g6 driven");
    let mut atpg = TwoFrameAtpg::new(&nl).map_err(|e| ObdError::Logic(e.to_string()))?;

    let mut rows = Vec::new();
    for polarity in [Polarity::Nmos, Polarity::Pmos] {
        for pin in 0..2 {
            let fault = ObdFault {
                gate: g6,
                pin,
                polarity,
                stage,
            };
            let outcome = atpg
                .generate(&Fault::Obd(fault))
                .map_err(|e| ObdError::Logic(e.to_string()))?;
            // Prefer a test whose good-machine sum actually toggles, so
            // the figure shows a delayed output *transition* (an ATPG
            // test may instead detect via a level error at capture).
            let outcome = match outcome {
                GenOutcome::Test(t) if !sum_toggles(&t) => {
                    match find_toggling_test(&nl, &fault)
                        .map_err(|e| ObdError::Logic(e.to_string()))?
                    {
                        Some(t2) => GenOutcome::Test(t2),
                        None => GenOutcome::Test(t),
                    }
                }
                other => other,
            };
            let test = match outcome {
                GenOutcome::Test(t) => t,
                other => {
                    rows.push(Fig9Row {
                        label: format!("{polarity} pin{pin}"),
                        sequence: format!("{other:?}"),
                        fault_free_ps: None,
                        faulty_ps: None,
                        output_trace: Vec::new(),
                    });
                    continue;
                }
            };
            let v1: Vec<bool> = test.v1.iter().map(|&v| v == Lv::One).collect();
            let v2: Vec<bool> = test.v2.iter().map(|&v| v == Lv::One).collect();
            let (ff, _) = simulate_sum(tech, &nl, None, &v1, &v2, cfg)?;
            let (faulty, trace) =
                simulate_sum(tech, &nl, Some((g6, pin, polarity, stage)), &v1, &v2, cfg)?;
            rows.push(Fig9Row {
                label: format!("{polarity} pin{pin}"),
                sequence: test.render(),
                fault_free_ps: ff,
                faulty_ps: faulty,
                output_trace: trace,
            });
        }
    }
    Ok(rows)
}

/// Whether the good-machine sum output toggles between the frames.
fn sum_toggles(test: &obd_atpg::fault::TwoPatternTest) -> bool {
    let sum = |v: &[Lv]| v.iter().fold(false, |acc, &b| acc ^ (b == Lv::One));
    sum(&test.v1) != sum(&test.v2)
}

/// Scans the exhaustive two-pattern universe for a test that detects the
/// fault *and* toggles the sum.
fn find_toggling_test(
    nl: &obd_logic::Netlist,
    fault: &ObdFault,
) -> Result<Option<obd_atpg::fault::TwoPatternTest>, obd_atpg::AtpgError> {
    let sim = obd_atpg::faultsim::FaultSimulator::new(nl)?;
    for t in obd_atpg::random::exhaustive_two_pattern(nl.inputs().len()) {
        if sum_toggles(&t) && sim.detects(&Fault::Obd(*fault), &t)? {
            return Ok(Some(t));
        }
    }
    Ok(None)
}

/// Analog simulation of the full circuit; returns the sum-output delay
/// (ps from the launch edge's midpoint) plus the output trace.
#[allow(clippy::type_complexity)]
fn simulate_sum(
    tech: &TechParams,
    nl: &obd_logic::Netlist,
    defect: Option<(obd_logic::GateId, usize, Polarity, BreakdownStage)>,
    v1: &[bool],
    v2: &[bool],
    cfg: &BenchConfig,
) -> Result<(Option<f64>, Vec<(f64, f64)>), ObdError> {
    let mut exp = expand(nl, tech)?;
    if let Some((gate, pin, polarity, stage)) = defect {
        let params = stage.params(polarity)?;
        let trs = exp.find_transistors(gate, pin, polarity.mos());
        let tr = trs
            .first()
            .ok_or_else(|| ObdError::BadSite(format!("no transistor at pin {pin}")))?;
        inject_obd(&mut exp.circuit, tr.device, params, "fig9")?;
    }
    let ps = 1e-12;
    let launch = cfg.launch_ps * ps;
    for (i, &pi) in nl.inputs().iter().enumerate() {
        exp.drive_input(pi, cfg.input_wave(tech.vdd, v1[i], v2[i]));
    }
    let params = TranParams::new(cfg.step_ps * ps, launch + cfg.window_ps * ps);
    let wave = transient_with_options(&exp.circuit, &params, &SimOptions::new())?;

    let s_net = nl.outputs()[0];
    let s_node = exp.node(s_net);
    // Expected sum direction.
    let sum = |v: &[bool]| v.iter().fold(false, |acc, &b| acc ^ b);
    let (s1, s2) = (sum(v1), sum(v2));
    let trace: Vec<(f64, f64)> = wave
        .time()
        .iter()
        .zip(wave.trace(s_node).iter())
        .map(|(&t, &v)| (t, v))
        .collect();
    if s1 == s2 {
        return Ok((None, trace));
    }
    let edge = if s2 {
        EdgeKind::Rising
    } else {
        EdgeKind::Falling
    };
    let t_ref = launch + 0.5 * cfg.edge_ps * ps;
    let delay = wave
        .first_crossing(s_node, tech.half_vdd(), edge, t_ref)
        .map(|t| (t - t_ref) / ps);
    Ok((delay, trace))
}

/// Renders the rows as a text table.
pub fn render(rows: &[Fig9Row]) -> String {
    let mut s = String::from("defect      sequence      fault-free    faulty\n");
    for r in rows {
        let ff = r
            .fault_free_ps
            .map_or("n/a".to_string(), |d| format!("{d:.0}ps"));
        let fy = r
            .faulty_ps
            .map_or("stuck".to_string(), |d| format!("{d:.0}ps"));
        s.push_str(&format!(
            "{:<11} {:<13} {:>10}    {:>8}\n",
            r.label, r.sequence, ff, fy
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline claim: a defect buried mid-cone is observable at the
    /// primary output as a delayed sum transition.
    #[test]
    fn defect_effects_visible_at_primary_output() {
        let tech = TechParams::date05();
        let mut cfg = crate::quick_bench_config();
        cfg.step_ps = 6.0;
        cfg.window_ps = 3000.0;
        let rows = run(&tech, BreakdownStage::Mbd2, &cfg).unwrap();
        assert_eq!(rows.len(), 4);
        let mut slowed = 0;
        for r in &rows {
            let ff = r
                .fault_free_ps
                .unwrap_or_else(|| panic!("{}: fault-free run must switch", r.label));
            match r.faulty_ps {
                Some(f) => {
                    assert!(
                        f > ff - 20.0,
                        "{}: faulty {f} should not be faster than {ff}",
                        r.label
                    );
                    if f > ff + 40.0 {
                        slowed += 1;
                    }
                }
                None => slowed += 1, // even stronger: stuck at the output
            }
        }
        assert!(
            slowed >= 3,
            "at least 3 of 4 defects must visibly delay the sum: {}",
            render(&rows)
        );
    }
}
