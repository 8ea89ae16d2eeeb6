//! E3/E4 — Figs. 6 and 7: NAND input/output waveform families across the
//! breakdown progression (NMOS) and the input-specific PMOS pair.

use obd_cmos::TechParams;
use obd_core::characterize::{run_cell_bench, BenchConfig, BenchDefect};
use obd_core::faultmodel::Polarity;
use obd_core::{BreakdownStage, ObdError};
use obd_logic::netlist::GateKind;
use obd_spice::SimOptions;

/// One labeled waveform trace.
#[derive(Debug, Clone)]
pub struct LabeledTrace {
    /// Curve label, e.g. `"MBD2"` or `"PMOS-A (11,01)"`.
    pub label: String,
    /// `(time_s, volts)` samples of the NAND output.
    pub output: Vec<(f64, f64)>,
    /// `(time_s, volts)` samples of the switching NAND input.
    pub input: Vec<(f64, f64)>,
}

fn extract(
    tech: &TechParams,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
    cfg: &BenchConfig,
    label: &str,
) -> Result<LabeledTrace, ObdError> {
    let sim = SimOptions::new();
    let (wave, exp, bench) = run_cell_bench(tech, GateKind::Nand, defect, v1, v2, cfg, &sim)?;
    let pin = (0..2).find(|&i| v1[i] != v2[i]).unwrap_or(0);
    let in_node = exp.node(bench.nand_inputs[pin]);
    let out_node = exp.node(bench.output);
    let sample = |node| -> Vec<(f64, f64)> {
        wave.time()
            .iter()
            .zip(wave.trace(node).iter())
            .map(|(&t, &v)| (t, v))
            .collect()
    };
    Ok(LabeledTrace {
        label: label.to_string(),
        output: sample(out_node),
        input: sample(in_node),
    })
}

/// Fig. 6: NMOS OBD progression for the NAND under (01,11) — the output
/// fall slows stage by stage and finally sticks high.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig6(tech: &TechParams, cfg: &BenchConfig) -> Result<Vec<LabeledTrace>, ObdError> {
    let mut out = Vec::new();
    out.push(extract(
        tech,
        None,
        [false, true],
        [true, true],
        cfg,
        "FaultFree",
    )?);
    for stage in [
        BreakdownStage::Sbd,
        BreakdownStage::Mbd1,
        BreakdownStage::Mbd2,
        BreakdownStage::Hbd,
    ] {
        let params = stage.params(Polarity::Nmos)?;
        out.push(extract(
            tech,
            Some(BenchDefect {
                pin: 0,
                polarity: Polarity::Nmos,
                params,
            }),
            [false, true],
            [true, true],
            cfg,
            &stage.to_string(),
        )?);
    }
    Ok(out)
}

/// Fig. 7: the input-specific PMOS pair — a defect on PMOS-A is visible
/// under (11,01) and invisible under (11,10), and vice versa for PMOS-B.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig7(tech: &TechParams, cfg: &BenchConfig) -> Result<Vec<LabeledTrace>, ObdError> {
    let params = BreakdownStage::Mbd2.params(Polarity::Pmos)?;
    let defect_a = BenchDefect {
        pin: 0,
        polarity: Polarity::Pmos,
        params,
    };
    let defect_b = BenchDefect {
        pin: 1,
        polarity: Polarity::Pmos,
        params,
    };
    Ok(vec![
        extract(
            tech,
            None,
            [true, true],
            [false, true],
            cfg,
            "FaultFree (11,01)",
        )?,
        extract(
            tech,
            Some(defect_a),
            [true, true],
            [false, true],
            cfg,
            "PMOS-A (11,01) excited",
        )?,
        extract(
            tech,
            Some(defect_a),
            [true, true],
            [true, false],
            cfg,
            "PMOS-A (11,10) masked",
        )?,
        extract(
            tech,
            Some(defect_b),
            [true, true],
            [true, false],
            cfg,
            "PMOS-B (11,10) excited",
        )?,
        extract(
            tech,
            Some(defect_b),
            [true, true],
            [false, true],
            cfg,
            "PMOS-B (11,01) masked",
        )?,
    ])
}

/// Renders traces to CSV: `time,<label outputs...>` (uses the common time
/// axis of the first trace; all traces share the fixed transient step).
pub fn to_csv(traces: &[LabeledTrace]) -> String {
    let mut s = String::from("time");
    for t in traces {
        s.push_str(&format!(",{}", t.label.replace(',', ";")));
    }
    s.push('\n');
    if traces.is_empty() {
        return s;
    }
    let n = traces.iter().map(|t| t.output.len()).min().unwrap_or(0);
    for i in 0..n {
        s.push_str(&format!("{:.4e}", traces[0].output[i].0));
        for t in traces {
            s.push_str(&format!(",{:.4}", t.output[i].1));
        }
        s.push('\n');
    }
    s
}

/// Half-crossing time of a trace after `t_start`, if any.
fn crossing(points: &[(f64, f64)], level: f64, t_start: f64, rising: bool) -> Option<f64> {
    for w in points.windows(2) {
        let ((t0, y0), (t1, y1)) = (w[0], w[1]);
        if t1 < t_start {
            continue;
        }
        let hit = if rising {
            y0 < level && y1 >= level
        } else {
            y0 > level && y1 <= level
        };
        if hit {
            let frac = if (y1 - y0).abs() < f64::EPSILON {
                0.0
            } else {
                (level - y0) / (y1 - y0)
            };
            return Some(t0 + frac * (t1 - t0));
        }
    }
    None
}

/// Output 50 %-crossing time of a trace (seconds), in the given direction.
pub fn output_crossing(trace: &LabeledTrace, half: f64, rising: bool) -> Option<f64> {
    crossing(&trace.output, half, 0.0, rising)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quick_bench_config;

    #[test]
    fn fig6_family_slows_then_sticks() {
        let tech = TechParams::date05();
        let traces = fig6(&tech, &quick_bench_config()).unwrap();
        assert_eq!(traces.len(), 5);
        let half = tech.half_vdd();
        let mut last = 0.0;
        for t in &traces[..4] {
            let c = output_crossing(t, half, false)
                .unwrap_or_else(|| panic!("{} should fall", t.label));
            assert!(c >= last, "{}: {c} >= {last}", t.label);
            last = c;
        }
        // HBD: output never falls through 50 %.
        assert!(
            output_crossing(&traces[4], half, false).is_none(),
            "HBD output must stay high"
        );
    }

    #[test]
    fn fig7_excited_vs_masked() {
        let tech = TechParams::date05();
        let traces = fig7(&tech, &quick_bench_config()).unwrap();
        let half = tech.half_vdd();
        let t_ff = output_crossing(&traces[0], half, true).unwrap();
        let t_exc = output_crossing(&traces[1], half, true).unwrap();
        let t_msk = output_crossing(&traces[2], half, true).unwrap();
        assert!(t_exc > t_ff + 100e-12, "excited must be slower");
        assert!((t_msk - t_ff).abs() < 100e-12, "masked ~ fault-free");
    }

    #[test]
    fn csv_has_one_column_per_trace() {
        let tech = TechParams::date05();
        let mut cfg = quick_bench_config();
        cfg.step_ps = 20.0;
        cfg.window_ps = 1000.0;
        let traces = fig7(&tech, &cfg).unwrap();
        let csv = to_csv(&traces);
        assert_eq!(csv.lines().next().unwrap().split(',').count(), 6);
    }
}
