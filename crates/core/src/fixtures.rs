//! Multi-cell characterization fixtures — a breakdown site embedded in
//! more circuit than one cell.
//!
//! The Fig. 5 bench is a single NAND2 with inverter drivers (≈ 15 MNA
//! unknowns). These fixtures embed a breakdown site in substantially
//! larger surroundings:
//!
//! * [`MultiCellBench::nand_context`] — the NAND2 device under test
//!   driven through four-inverter fanin chains and loaded by a real
//!   NAND/inverter fanout tree, so the defect's injected current interacts
//!   with several stages of real CMOS on both sides.
//! * [`MultiCellBench::full_adder`] — a transistor-level nine-NAND full
//!   adder with buffered inputs and loaded outputs (≥ 40 MNA unknowns).
//!
//! Measurements mirror [`crate::characterize`]: two-pattern sequences,
//! 50 %-crossing delays, stuck detection — but the expected output
//! direction comes from the logic-level simulator, so the same driver
//! works for any fixture topology.

use obd_cmos::expand::{expand, ExpandedCircuit};
use obd_cmos::TechParams;
use obd_logic::circuits::fa_block;
use obd_logic::netlist::{GateId, GateKind, NetId, Netlist};
use obd_logic::sim::simulate;
use obd_logic::value::Lv;
use obd_spice::analysis::tran::{transient_with_options, TranParams};
use obd_spice::devices::Device;
use obd_spice::{Circuit, EdgeKind, SimOptions, Waveform};

use crate::characterize::{BenchConfig, TransitionOutcome};
use crate::faultmodel::Polarity;
use crate::injection::inject_obd;
use crate::stage::ObdParams;
use crate::ObdError;

/// An OBD defect at an arbitrary fixture site: gate, input pin, polarity
/// and the model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixtureDefect {
    /// The logic gate holding the defective transistor.
    pub gate: GateId,
    /// The cell input pin controlling the transistor.
    pub pin: usize,
    /// Transistor polarity.
    pub polarity: Polarity,
    /// Model parameters at the assumed progression point.
    pub params: ObdParams,
}

/// A multi-cell characterization bench: a netlist, the device under test
/// and the observed output.
#[derive(Debug, Clone)]
pub struct MultiCellBench {
    /// Fixture name (used in reports).
    pub name: &'static str,
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// The breakdown device under test (a NAND2).
    pub dut: GateId,
    /// Primary inputs, in drive order.
    pub pis: Vec<NetId>,
    /// The net observed for delay measurements.
    pub observed: NetId,
}

impl MultiCellBench {
    /// The NAND2 device under test inside deep fanin/fanout context: each
    /// input arrives through a four-inverter chain (logic-preserving) and
    /// the output drives an inverter plus two NAND2 reconvergent branches,
    /// each loaded by its own inverter.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction failures.
    pub fn nand_context() -> Result<Self, ObdError> {
        let mut nl = Netlist::new();
        let a = nl.add_input("A");
        let b = nl.add_input("B");
        let mut chain = |pi: NetId, tag: &str| -> Result<NetId, ObdError> {
            let mut n = pi;
            for k in 0..4 {
                n = nl.add_gate(GateKind::Inv, &format!("d{tag}{k}"), &[n])?;
            }
            Ok(n)
        };
        let a4 = chain(a, "a")?;
        let b4 = chain(b, "b")?;
        let y = nl.add_gate(GateKind::Nand, "dut", &[a4, b4])?;
        let inv = nl.add_gate(GateKind::Inv, "l0", &[y])?;
        let n1 = nl.add_gate(GateKind::Nand, "f1", &[y, inv])?;
        let n2 = nl.add_gate(GateKind::Nand, "f2", &[y, inv])?;
        let l1 = nl.add_gate(GateKind::Inv, "l1", &[n1])?;
        let l2 = nl.add_gate(GateKind::Inv, "l2", &[n2])?;
        nl.mark_output(l1);
        nl.mark_output(l2);
        let dut = nl
            .driver(y)
            .ok_or_else(|| ObdError::BadSite("fixture DUT has no driver".into()))?;
        Ok(MultiCellBench {
            name: "nand_context",
            netlist: nl,
            dut,
            pis: vec![a, b],
            observed: y,
        })
    }

    /// A transistor-level nine-NAND full adder with four-inverter driver
    /// chains on every input and two-inverter loads on both outputs. The
    /// breakdown site is the first NAND (`fa_t1`, inputs A and B); the
    /// observed net is the sum output.
    ///
    /// With 26 cells and 9 series pull-down internal nodes this fixture
    /// reaches 42 MNA unknowns (see [`mna_unknowns`]).
    ///
    /// # Errors
    ///
    /// Propagates netlist construction failures.
    pub fn full_adder() -> Result<Self, ObdError> {
        let mut nl = Netlist::new();
        let a = nl.add_input("A");
        let b = nl.add_input("B");
        let cin = nl.add_input("Cin");
        let mut buffered = |pi: NetId, tag: &str| -> Result<NetId, ObdError> {
            let mut n = pi;
            for k in 0..4 {
                n = nl.add_gate(GateKind::Inv, &format!("d{tag}{k}"), &[n])?;
            }
            Ok(n)
        };
        let ab = buffered(a, "a")?;
        let bb = buffered(b, "b")?;
        let cb = buffered(cin, "c")?;
        let (s, co) = fa_block(&mut nl, "fa", ab, bb, cb);
        let ls0 = nl.add_gate(GateKind::Inv, "ls0", &[s])?;
        let ls = nl.add_gate(GateKind::Inv, "ls1", &[ls0])?;
        let lc0 = nl.add_gate(GateKind::Inv, "lc0", &[co])?;
        let lc = nl.add_gate(GateKind::Inv, "lc1", &[lc0])?;
        nl.mark_output(ls);
        nl.mark_output(lc);
        let t1 = nl.find_net("fa_t1")?;
        let dut = nl
            .driver(t1)
            .ok_or_else(|| ObdError::BadSite("full adder t1 has no driver".into()))?;
        Ok(MultiCellBench {
            name: "full_adder",
            netlist: nl,
            dut,
            pis: vec![a, b, cin],
            observed: s,
        })
    }

    /// Number of logic cells in the fixture.
    pub fn num_cells(&self) -> usize {
        self.netlist.gates().len()
    }
}

/// The MNA system dimension of an expanded-and-driven circuit: one row
/// per non-ground node plus one branch-current row per voltage source.
pub fn mna_unknowns(ckt: &Circuit) -> usize {
    let branches = ckt
        .devices()
        .iter()
        .filter(|d| matches!(d, Device::Vsource(_)))
        .count();
    ckt.num_nodes() - 1 + branches
}

/// Expands a fixture, injects an optional defect, drives the two-pattern
/// sequence and runs the transient. Returns the waveform and the expanded
/// circuit for node lookups.
///
/// # Errors
///
/// Propagates expansion, injection and simulation errors;
/// [`ObdError::BadSite`] when the vector lengths don't match the fixture.
pub fn run_fixture(
    tech: &TechParams,
    bench: &MultiCellBench,
    defect: Option<FixtureDefect>,
    v1: &[bool],
    v2: &[bool],
    cfg: &BenchConfig,
    opts: &SimOptions,
) -> Result<(Waveform, ExpandedCircuit), ObdError> {
    if v1.len() != bench.pis.len() || v2.len() != bench.pis.len() {
        return Err(ObdError::BadSite(format!(
            "fixture '{}' takes {} inputs, got {}/{}",
            bench.name,
            bench.pis.len(),
            v1.len(),
            v2.len()
        )));
    }
    let mut exp = expand(&bench.netlist, tech)?;
    if let Some(d) = defect {
        let trs = exp.find_transistors(d.gate, d.pin, d.polarity.mos());
        let tr = trs.first().ok_or_else(|| {
            ObdError::BadSite(format!("no {} transistor at pin {}", d.polarity, d.pin))
        })?;
        inject_obd(&mut exp.circuit, tr.device, d.params, bench.name)?;
    }
    let ps = 1e-12;
    for (i, &pi) in bench.pis.iter().enumerate() {
        exp.drive_input(pi, cfg.input_wave(tech.vdd, v1[i], v2[i]));
    }
    let params = TranParams::new(cfg.step_ps * ps, cfg.launch_ps * ps + cfg.window_ps * ps);
    let wave = transient_with_options(&exp.circuit, &params, opts)?;
    Ok((wave, exp))
}

/// Measures the fixture's propagation delay for one two-pattern sequence:
/// the reference edge is the first switching primary input crossing 50 %,
/// the measured edge is the observed net crossing 50 % in the direction
/// the logic simulator predicts. Includes the fanin-chain delay by
/// construction — fixtures compare outcomes relatively (defect versus
/// fault-free), not against Table 1 absolutes.
///
/// # Errors
///
/// Propagates [`run_fixture`] errors; [`ObdError::BadSite`]
/// when no input switches.
pub fn measure_fixture_transition(
    tech: &TechParams,
    bench: &MultiCellBench,
    defect: Option<FixtureDefect>,
    v1: &[bool],
    v2: &[bool],
    cfg: &BenchConfig,
    opts: &SimOptions,
) -> Result<TransitionOutcome, ObdError> {
    if v1.len() != bench.pis.len() || v2.len() != bench.pis.len() {
        return Err(ObdError::BadSite(format!(
            "fixture '{}' takes {} inputs, got {}/{}",
            bench.name,
            bench.pis.len(),
            v1.len(),
            v2.len()
        )));
    }
    let lv = |bits: &[bool]| -> Vec<Lv> {
        bits.iter()
            .map(|&b| if b { Lv::One } else { Lv::Zero })
            .collect()
    };
    let o1 = simulate(&bench.netlist, &lv(v1))?.value(bench.observed);
    let o2 = simulate(&bench.netlist, &lv(v2))?.value(bench.observed);
    if o1 == o2 {
        // The observed net does not switch; delay is undefined.
        return Ok(TransitionOutcome::Stuck);
    }
    let (wave, exp) = run_fixture(tech, bench, defect, v1, v2, cfg, opts)?;
    let half = tech.half_vdd();
    let switching_pin = (0..v1.len())
        .find(|&i| v1[i] != v2[i])
        .ok_or_else(|| ObdError::BadSite("no input switches in the sequence".into()))?;
    let in_node = exp.node(bench.pis[switching_pin]);
    let in_edge = if v2[switching_pin] {
        EdgeKind::Rising
    } else {
        EdgeKind::Falling
    };
    let out_edge = if o2 == Lv::One {
        EdgeKind::Rising
    } else {
        EdgeKind::Falling
    };
    let out_node = exp.node(bench.observed);
    let t_start = cfg.launch_ps * 1e-12 * 0.5;
    let t_in = wave.first_crossing(in_node, half, in_edge, t_start);
    let t_out = t_in.and_then(|ti| wave.first_crossing(out_node, half, out_edge, ti));
    match (t_in, t_out) {
        (Some(ti), Some(to)) => {
            let ps = (to - ti) / 1e-12;
            if !ps.is_finite() || ps < 0.0 {
                return Err(ObdError::CorruptMeasurement(format!(
                    "non-physical propagation delay {ps} ps"
                )));
            }
            match cfg.at_speed_ps {
                Some(limit) if ps > limit => Ok(TransitionOutcome::Stuck),
                _ => Ok(TransitionOutcome::Delay(ps)),
            }
        }
        _ => Ok(TransitionOutcome::Stuck),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::BreakdownStage;
    use obd_spice::devices::SourceWave;

    fn fast_cfg() -> BenchConfig {
        BenchConfig {
            edge_ps: 50.0,
            launch_ps: 500.0,
            window_ps: 2500.0,
            step_ps: 4.0,
            at_speed_ps: None,
            sim_full_window: false,
        }
    }

    #[test]
    fn full_adder_fixture_has_at_least_40_unknowns() {
        let fx = MultiCellBench::full_adder().unwrap();
        assert!(fx.num_cells() >= 3, "cells = {}", fx.num_cells());
        let tech = TechParams::date05();
        let mut exp = expand(&fx.netlist, &tech).unwrap();
        for &pi in &fx.pis {
            exp.drive_input(pi, SourceWave::dc(0.0));
        }
        let dim = mna_unknowns(&exp.circuit);
        assert!(dim >= 40, "full adder fixture has {dim} MNA unknowns");
    }

    #[test]
    fn full_adder_defect_slows_the_sum() {
        let fx = MultiCellBench::full_adder().unwrap();
        let tech = TechParams::date05();
        let cfg = fast_cfg();
        let opts = SimOptions::new();
        // B->sum path with A=1, Cin=0: sum = !B, and the DUT NAND
        // (fa_t1 = NAND(A, B)) switches 1 -> 0 — the classic (01,11)
        // NMOS excitation of Table 1, here embedded in the adder.
        let v1 = [true, false, false];
        let v2 = [true, true, false];
        let clean = measure_fixture_transition(&tech, &fx, None, &v1, &v2, &cfg, &opts)
            .unwrap()
            .delay_ps()
            .expect("fault-free adder switches");
        let defect = FixtureDefect {
            gate: fx.dut,
            pin: 1,
            polarity: Polarity::Nmos,
            params: BreakdownStage::Mbd2.params(Polarity::Nmos).unwrap(),
        };
        let hurt =
            measure_fixture_transition(&tech, &fx, Some(defect), &v1, &v2, &cfg, &opts).unwrap();
        match hurt {
            TransitionOutcome::Delay(d) => {
                assert!(d > clean, "MBD2 must slow the path: {d} vs {clean}")
            }
            TransitionOutcome::Stuck => {} // even stronger signature
        }
    }

    #[test]
    fn non_switching_observed_net_reports_stuck() {
        let fx = MultiCellBench::nand_context().unwrap();
        let tech = TechParams::date05();
        // B stays 0, so the NAND output is stuck high no matter what A does.
        let o = measure_fixture_transition(
            &tech,
            &fx,
            None,
            &[false, false],
            &[true, false],
            &fast_cfg(),
            &SimOptions::new(),
        )
        .unwrap();
        assert_eq!(o, TransitionOutcome::Stuck);
    }

    #[test]
    fn vector_length_mismatch_is_a_typed_error() {
        let fx = MultiCellBench::full_adder().unwrap();
        let err = measure_fixture_transition(
            &TechParams::date05(),
            &fx,
            None,
            &[false],
            &[true],
            &fast_cfg(),
            &SimOptions::new(),
        )
        .unwrap_err();
        assert!(matches!(err, ObdError::BadSite(_)));
    }
}
