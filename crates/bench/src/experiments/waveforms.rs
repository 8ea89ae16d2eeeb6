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
    let out = wave.trace(exp.node(bench.output));
    Ok(LabeledTrace {
        label: label.to_string(),
        output: wave.time().iter().zip(out).map(|(&t, &v)| (t, v)).collect(),
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

/// Renders the traces' outputs as CSV, `time,<labels...>`, on the print
/// grid `k·step_s` (see [`grid_csv`]).
pub fn to_csv(traces: &[LabeledTrace], step_s: f64) -> String {
    let columns: Vec<(&str, &[(f64, f64)])> = traces
        .iter()
        .map(|t| (t.label.as_str(), t.output.as_slice()))
        .collect();
    grid_csv(&columns, step_s)
}

/// Renders labelled `(time_s, volts)` traces as CSV, `time,<labels...>`,
/// on the print grid `k·step_s` from 0 to the end of the shortest
/// non-empty trace. The transient chooses its own steps, so each trace
/// has its own time grid: every trace is resampled onto the print grid
/// by linear interpolation, never paired with the others by sample
/// index. An empty trace prints empty cells.
pub fn grid_csv(columns: &[(&str, &[(f64, f64)])], step_s: f64) -> String {
    let mut s = String::from("time");
    for (label, _) in columns {
        s.push_str(&format!(",{}", label.replace(',', ";")));
    }
    s.push('\n');
    let t_end = columns
        .iter()
        .filter_map(|(_, points)| points.last().map(|&(t, _)| t))
        .reduce(f64::min);
    let Some(t_end) = t_end else {
        return s;
    };
    // The tolerance keeps a grid point that floating-point rounding puts a
    // hair past the end of the window.
    let rows = (t_end / step_s + 1e-6).floor() as usize + 1;
    for k in 0..rows {
        let t = k as f64 * step_s;
        s.push_str(&format!("{t:.4e}"));
        for (_, points) in columns {
            if points.is_empty() {
                s.push(',');
            } else {
                s.push_str(&format!(",{:.4}", value_at(points, t)));
            }
        }
        s.push('\n');
    }
    s
}

/// Value of `(time, value)` samples at `t`: linear interpolation between
/// the bracketing samples, clamped at the ends, as
/// [`obd_spice::Waveform::sample_at`] does. `points` must be non-empty.
fn value_at(points: &[(f64, f64)], t: f64) -> f64 {
    let i = points.partition_point(|&(ti, _)| ti < t);
    match (i.checked_sub(1).map(|j| points[j]), points.get(i)) {
        (Some((t0, y0)), Some(&(t1, y1))) if t1 > t && t1 > t0 => {
            y0 + (y1 - y0) * (t - t0) / (t1 - t0)
        }
        (_, Some(&(_, y))) | (Some((_, y)), None) => y,
        (None, None) => f64::NAN,
    }
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
        let csv = to_csv(&traces, cfg.step_ps * 1e-12);
        assert_eq!(csv.lines().next().unwrap().split(',').count(), 6);
    }

    /// Traces on different time grids are resampled onto the print grid,
    /// not paired by sample index: a ramp sampled every 1 s and the same
    /// ramp sampled at 0, 1.5 and 3 s print the same values.
    #[test]
    fn csv_resamples_traces_on_different_grids() {
        let ramp = |times: &[f64]| times.iter().map(|&t| (t, 2.0 * t)).collect();
        let traces = [
            LabeledTrace {
                label: "fine".into(),
                output: ramp(&[0.0, 1.0, 2.0, 3.0, 4.0]),
            },
            LabeledTrace {
                label: "coarse, uneven".into(),
                output: ramp(&[0.0, 1.5, 3.0]),
            },
        ];
        let csv = to_csv(&traces, 0.5);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time,fine,coarse; uneven");
        // The grid ends with the shorter trace, at 3 s.
        assert_eq!(lines.len(), 1 + 7);
        for (k, line) in lines[1..].iter().enumerate() {
            let want = 2.0 * 0.5 * k as f64;
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells[0], format!("{:.4e}", 0.5 * k as f64));
            assert_eq!(cells[1], format!("{want:.4}"), "row {k}: {line}");
            assert_eq!(cells[2], format!("{want:.4}"), "row {k}: {line}");
        }
    }

    /// An empty trace prints empty cells; one sample clamps to its value.
    #[test]
    fn grid_csv_handles_empty_and_single_sample_traces() {
        let single = [(0.0, 1.25)];
        let ramp = [(0.0, 0.0), (2.0, 2.0)];
        let csv = grid_csv(&[("a", &ramp), ("b", &[]), ("c", &single)], 1.0);
        assert_eq!(csv, "time,a,b,c\n0.0000e0,0.0000,,1.2500\n");
        assert_eq!(grid_csv(&[("b", &[])], 1.0), "time,b\n");
    }
}
