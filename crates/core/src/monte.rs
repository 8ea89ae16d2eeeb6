//! Batched Monte Carlo variation engine: Table 1 delay signatures across
//! randomized process corners.
//!
//! §3.3 of the paper notes that an early breakdown's delay shift competes
//! with process variation. This engine quantifies the competition at
//! scale: every *sample* is a process corner (a perturbed [`TechParams`]),
//! and every corner measures a fixed probe set — the fault-free NAND fall
//! and rise plus, per configured breakdown stage, the classic excited
//! NMOS-fall and PMOS-rise transitions of Table 1. Aggregates are
//! nearest-rank percentiles per probe and the fraction of corners where
//! the defect is *detected* at an at-speed capture limit (delay above the
//! limit, or stuck outright — §4.2's detection-window argument).
//!
//! Determinism is a hard guarantee: corner `k` derives its parameters
//! from `splitmix64(seed, k)` feeding the suite's xorshift64* stream —
//! *counter seeding*, no shared RNG state — and jobs fan out over the
//! work-stealing pool ([`crate::pool`]) with per-index result slots, so
//! [`MonteReport::render_json`] is byte-identical at any thread count.
//! (Armed chaos injection intentionally breaks this: the global injection
//! sequence depends on scheduling, which is the point of a chaos run.)
//!
//! A corner whose measurement fails — including a corner the parameter
//! sanity guard rejects, such as the infinities an overflowing `spread`
//! samples — degrades to an explicit per-probe accounting entry instead
//! of aborting the campaign.

use obd_cmos::TechParams;
use obd_logic::netlist::GateKind;
use obd_logic::rng::XorShift64Star;
use obd_metrics::Counter;
use obd_spice::SimOptions;

use crate::characterize::{measure_cell_transition, BenchConfig, BenchDefect, TransitionOutcome};
use crate::faultmodel::Polarity;
use crate::pool;
use crate::stage::BreakdownStage;
use crate::ObdError;

/// Process corners sampled.
static MONTE_SAMPLES: Counter = Counter::new("monte.samples");
/// Individual probe measurements executed (corners × probes).
static MONTE_MEASUREMENTS: Counter = Counter::new("monte.measurements");
/// Measurements that came back stuck (no crossing, or past the bench's
/// own capture limit).
static MONTE_STUCK: Counter = Counter::new("monte.stuck_outcomes");
/// Measurements degraded by a typed error (the corner is accounted, not
/// tabulated).
static MONTE_DEGRADED: Counter = Counter::new("monte.degraded_measurements");

/// An xorshift64* stream with splitmix64 counter seeding: corner `k` gets
/// an independent, reproducible stream from `(seed, k)` alone, so samples
/// can run in any order on any thread.
fn corner_rng(seed: u64, sample: u64) -> XorShift64Star {
    // splitmix64 finalizer over the (seed, counter) pair; the final
    // `| 1` keeps the xorshift state nonzero.
    let mut z = seed ^ sample.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    XorShift64Star::from_state(z | 1)
}

/// Pseudo-Gaussian: sum of three `[-1, 1)` uniforms, unit variance.
fn gauss(rng: &mut XorShift64Star) -> f64 {
    (rng.gen_range_f64(-1.0, 1.0) + rng.gen_range_f64(-1.0, 1.0) + rng.gen_range_f64(-1.0, 1.0))
        / 1.732
}

/// Configuration of one Monte Carlo campaign.
#[derive(Debug, Clone)]
pub struct MonteConfig {
    /// Number of process corners.
    pub samples: usize,
    /// Base seed; corner `k` derives its stream from `(seed, k)`.
    pub seed: u64,
    /// Worker threads for the job fan-out (results are thread-count
    /// independent).
    pub threads: usize,
    /// Relative 1-sigma applied to Vt, KP and W of both polarities.
    pub spread: f64,
    /// Breakdown stages probed at every corner (fault-free is always
    /// probed).
    pub stages: Vec<BreakdownStage>,
    /// Transient timing for every measurement. Leave `at_speed_ps` unset
    /// here — detection is judged afterwards against
    /// [`MonteConfig::at_speed_ps`], so the engine sees true delays.
    pub bench: BenchConfig,
    /// At-speed capture limit (ps) used for the detection verdicts.
    pub at_speed_ps: f64,
}

impl MonteConfig {
    /// Defaults: 12 corners, 5 % spread, SBD + MBD2 probes, the paper's
    /// 800 ps at-speed limit.
    pub fn new() -> Self {
        MonteConfig {
            samples: 12,
            seed: 0x0BD0_DA7E,
            threads: 1,
            spread: 0.05,
            stages: vec![BreakdownStage::Sbd, BreakdownStage::Mbd2],
            bench: BenchConfig::new(),
            at_speed_ps: 800.0,
        }
    }
}

impl Default for MonteConfig {
    fn default() -> Self {
        MonteConfig::new()
    }
}

/// Outcome of one (corner, probe) measurement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MonteOutcome {
    /// Measured 50 %-to-50 % delay (ps).
    Delay(f64),
    /// The transition never completed.
    Stuck,
    /// The measurement failed with a typed error; the corner is accounted
    /// but not tabulated.
    Degraded(String),
}

/// One probe of the fixed per-corner measurement set.
#[derive(Debug, Clone)]
struct MonteProbe {
    label: String,
    defect: Option<(BreakdownStage, Polarity)>,
    v1: [bool; 2],
    v2: [bool; 2],
}

/// Aggregate statistics of one probe across all corners.
#[derive(Debug, Clone)]
pub struct MonteProbeStats {
    /// Probe label (`fault_free_fall`, `mbd2_nmos_fall`, …).
    pub label: String,
    /// The probed stage, `None` for fault-free probes.
    pub(crate) stage: Option<BreakdownStage>,
    /// The defective polarity, `None` for fault-free probes.
    pub(crate) polarity: Option<Polarity>,
    /// Completed delays (ps), ascending.
    pub delays_ps: Vec<f64>,
    /// Corners where the transition never completed.
    pub stuck: usize,
    /// Corners whose measurement degraded.
    pub degraded: usize,
    /// Nearest-rank 5th / 50th / 95th percentile of the completed delays.
    pub p05_ps: Option<f64>,
    pub p50_ps: Option<f64>,
    pub p95_ps: Option<f64>,
    /// Corners detected at the at-speed limit (stuck, or delay above it).
    pub detected: usize,
}

impl MonteProbeStats {
    /// Detection probability over the decided (non-degraded) corners.
    pub fn detect_prob(&self, samples: usize) -> f64 {
        let decided = samples.saturating_sub(self.degraded);
        if decided == 0 {
            0.0
        } else {
            self.detected as f64 / decided as f64
        }
    }
}

/// The full campaign result.
#[derive(Debug, Clone)]
pub struct MonteReport {
    /// Corners sampled.
    pub samples: usize,
    /// Base seed.
    pub(crate) seed: u64,
    /// Relative 1-sigma spread.
    pub(crate) spread: f64,
    /// At-speed limit used for detection verdicts (ps).
    pub(crate) at_speed_ps: f64,
    /// Per-probe aggregates, in probe order.
    pub probes: Vec<MonteProbeStats>,
    /// Total degraded (corner, probe) measurements.
    pub degraded_total: usize,
}

/// Perturbs the technology for corner `sample` of the campaign seeded
/// with `seed`: ±`spread` relative pseudo-Gaussian on Vt, KP and W of
/// both polarities, clamped at half nominal. The one corner sampler —
/// callers checking other properties at the campaign's corners reuse it.
pub fn sample_tech(nominal: &TechParams, seed: u64, sample: u64, spread: f64) -> TechParams {
    let mut rng = corner_rng(seed, sample);
    let mut t = nominal.clone();
    let mut jitter = |v: f64| -> f64 { (v * (1.0 + spread * gauss(&mut rng))).max(v * 0.5) };
    t.nmos_vt0 = jitter(t.nmos_vt0);
    t.pmos_vt0 = jitter(t.pmos_vt0);
    t.nmos_kp = jitter(t.nmos_kp);
    t.pmos_kp = jitter(t.pmos_kp);
    t.nmos_w = jitter(t.nmos_w);
    t.pmos_w = jitter(t.pmos_w);
    t
}

/// Rejects non-physical corner parameters (NaN, infinite or not
/// positive) before they reach the analog engine. `spread` is outside
/// input, and a large enough one samples infinities.
fn validate_tech(t: &TechParams) -> Result<(), ObdError> {
    let fields = [
        ("vdd", t.vdd),
        ("nmos_vt0", t.nmos_vt0),
        ("pmos_vt0", t.pmos_vt0),
        ("nmos_kp", t.nmos_kp),
        ("pmos_kp", t.pmos_kp),
        ("nmos_w", t.nmos_w),
        ("pmos_w", t.pmos_w),
    ];
    for (name, v) in fields {
        if !v.is_finite() || v <= 0.0 {
            return Err(ObdError::CorruptMeasurement(format!(
                "sampled corner has non-physical {name} = {v}"
            )));
        }
    }
    Ok(())
}

/// Builds the fixed probe list for a configuration.
fn probes(config: &MonteConfig) -> Vec<MonteProbe> {
    let mut out = vec![
        MonteProbe {
            label: "fault_free_fall".into(),
            defect: None,
            v1: [false, true],
            v2: [true, true],
        },
        MonteProbe {
            label: "fault_free_rise".into(),
            defect: None,
            v1: [true, true],
            v2: [true, false],
        },
    ];
    for &stage in &config.stages {
        if stage == BreakdownStage::FaultFree {
            continue; // always probed above
        }
        if stage.params(Polarity::Nmos).is_ok() {
            out.push(MonteProbe {
                label: format!("{stage}_nmos_fall").to_lowercase(),
                defect: Some((stage, Polarity::Nmos)),
                v1: [false, true],
                v2: [true, true],
            });
        }
        if stage.params(Polarity::Pmos).is_ok() {
            out.push(MonteProbe {
                label: format!("{stage}_pmos_rise").to_lowercase(),
                defect: Some((stage, Polarity::Pmos)),
                v1: [true, true],
                v2: [true, false],
            });
        }
    }
    out
}

/// Runs the campaign around the given nominal technology under the
/// solver options `opts`.
///
/// # Errors
///
/// Configuration errors only (a failing *measurement* degrades its corner
/// instead); a worker panic surfaces as [`ObdError::Spice`].
pub fn run_monte(
    nominal: &TechParams,
    config: &MonteConfig,
    opts: &SimOptions,
) -> Result<MonteReport, ObdError> {
    let probe_list = probes(config);
    MONTE_SAMPLES.add(config.samples as u64);

    // One job per (corner, probe); corner-major order so per-probe
    // aggregation walks samples in order.
    let jobs: Vec<(u64, usize)> = (0..config.samples as u64)
        .flat_map(|s| (0..probe_list.len()).map(move |p| (s, p)))
        .collect();

    let outcomes: Vec<MonteOutcome> = pool::run_jobs(&jobs, config.threads, |_, &(sample, p)| {
        MONTE_MEASUREMENTS.inc();
        let probe = &probe_list[p];
        let tech = sample_tech(nominal, config.seed, sample, config.spread);
        let measured = validate_tech(&tech).and_then(|()| {
            let defect = match probe.defect {
                None => None,
                Some((stage, polarity)) => Some(BenchDefect {
                    pin: 0,
                    polarity,
                    params: stage.params(polarity)?,
                }),
            };
            measure_cell_transition(
                &tech,
                GateKind::Nand,
                defect,
                probe.v1,
                probe.v2,
                &config.bench,
                opts,
            )
        });
        Ok::<_, ObdError>(match measured {
            Ok(TransitionOutcome::Delay(d)) => MonteOutcome::Delay(d),
            Ok(TransitionOutcome::Stuck) => {
                MONTE_STUCK.inc();
                MonteOutcome::Stuck
            }
            Err(e) => {
                MONTE_DEGRADED.inc();
                MonteOutcome::Degraded(e.to_string())
            }
        })
    })?;

    let mut stats: Vec<MonteProbeStats> = probe_list
        .iter()
        .map(|probe| MonteProbeStats {
            label: probe.label.clone(),
            stage: probe.defect.map(|(s, _)| s),
            polarity: probe.defect.map(|(_, p)| p),
            delays_ps: Vec::new(),
            stuck: 0,
            degraded: 0,
            p05_ps: None,
            p50_ps: None,
            p95_ps: None,
            detected: 0,
        })
        .collect();
    let mut degraded_total = 0usize;
    for (&(_, p), outcome) in jobs.iter().zip(&outcomes) {
        let st = &mut stats[p];
        match outcome {
            MonteOutcome::Delay(d) => {
                st.delays_ps.push(*d);
                if *d > config.at_speed_ps {
                    st.detected += 1;
                }
            }
            MonteOutcome::Stuck => {
                st.stuck += 1;
                st.detected += 1;
            }
            MonteOutcome::Degraded(_) => {
                st.degraded += 1;
                degraded_total += 1;
            }
        }
    }
    for st in &mut stats {
        st.delays_ps.sort_unstable_by(f64::total_cmp);
        st.p05_ps = percentile(&st.delays_ps, 0.05);
        st.p50_ps = percentile(&st.delays_ps, 0.50);
        st.p95_ps = percentile(&st.delays_ps, 0.95);
    }

    Ok(MonteReport {
        samples: config.samples,
        seed: config.seed,
        spread: config.spread,
        at_speed_ps: config.at_speed_ps,
        probes: stats,
        degraded_total,
    })
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

impl MonteReport {
    /// Renders the report as deterministic JSON (no timing, no thread
    /// count — the artifact is byte-identical across schedulings).
    pub fn render_json(&self) -> String {
        let f = |v: f64| format!("{v:?}");
        let opt = |v: Option<f64>| v.map_or("null".to_string(), f);
        let mut s = String::from("{\n");
        s.push_str("  \"engine\": \"monte\",\n");
        s.push_str(&format!("  \"samples\": {},\n", self.samples));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"spread\": {},\n", f(self.spread)));
        s.push_str(&format!("  \"at_speed_ps\": {},\n", f(self.at_speed_ps)));
        s.push_str(&format!("  \"degraded_total\": {},\n", self.degraded_total));
        s.push_str("  \"probes\": [");
        for (i, p) in self.probes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"label\": \"{}\", ", p.label));
            s.push_str(&format!(
                "\"stage\": {}, ",
                p.stage.map_or("null".to_string(), |st| format!("\"{st}\""))
            ));
            s.push_str(&format!(
                "\"polarity\": {}, ",
                p.polarity
                    .map_or("null".to_string(), |pl| format!("\"{pl}\""))
            ));
            s.push_str(&format!(
                "\"p05_ps\": {}, \"p50_ps\": {}, \"p95_ps\": {}, ",
                opt(p.p05_ps),
                opt(p.p50_ps),
                opt(p.p95_ps)
            ));
            s.push_str(&format!(
                "\"stuck\": {}, \"degraded\": {}, \"detected\": {}, \"detect_prob\": {}, ",
                p.stuck,
                p.degraded,
                p.detected,
                f(p.detect_prob(self.samples))
            ));
            s.push_str("\"delays_ps\": [");
            for (j, d) in p.delays_ps.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&f(*d));
            }
            s.push_str("]}");
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Renders a human-readable summary table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "monte: {} corners, spread {:.1}%, at-speed {:.0} ps\n",
            self.samples,
            self.spread * 100.0,
            self.at_speed_ps
        );
        s.push_str("probe                 p05      p50      p95   stuck  degr  detect\n");
        for p in &self.probes {
            let fmt = |v: Option<f64>| v.map_or("   --".to_string(), |d| format!("{d:5.0}"));
            s.push_str(&format!(
                "{:<18} {} ps {} ps {} ps   {:>3}   {:>3}   {:.2}\n",
                p.label,
                fmt(p.p05_ps),
                fmt(p.p50_ps),
                fmt(p.p95_ps),
                p.stuck,
                p.degraded,
                p.detect_prob(self.samples)
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn counter_seeding_is_reproducible_and_decorrelated() {
        let nominal = TechParams::date05();
        let a = sample_tech(&nominal, 7, 0, 0.05);
        let b = sample_tech(&nominal, 7, 0, 0.05);
        let c = sample_tech(&nominal, 7, 1, 0.05);
        assert_eq!(a, b, "same (seed, counter) must give the same corner");
        assert_ne!(a, c, "different counters must give different corners");
        assert_ne!(a, nominal, "spread must move parameters");
    }

    #[test]
    fn validate_rejects_corrupt_corners() {
        let mut t = TechParams::date05();
        assert!(validate_tech(&t).is_ok());
        t.nmos_vt0 = f64::NAN;
        assert!(matches!(
            validate_tech(&t),
            Err(ObdError::CorruptMeasurement(_))
        ));
        t.nmos_vt0 = -0.3;
        assert!(validate_tech(&t).is_err());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.05), Some(1.0));
        assert_eq!(percentile(&v, 0.50), Some(2.0));
        assert_eq!(percentile(&v, 0.95), Some(4.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn probe_list_covers_config_stages() {
        let mut cfg = MonteConfig::new();
        cfg.stages = vec![BreakdownStage::Mbd2, BreakdownStage::Hbd];
        let ps = probes(&cfg);
        let labels: Vec<&str> = ps.iter().map(|p| p.label.as_str()).collect();
        assert!(labels.contains(&"fault_free_fall"));
        assert!(labels.contains(&"fault_free_rise"));
        assert!(labels.contains(&"mbd2_nmos_fall"));
        assert!(labels.contains(&"mbd2_pmos_rise"));
        // The paper's PMOS ladder ends at MBD3: HBD has no PMOS probe.
        assert!(labels.contains(&"hbd_nmos_fall"));
        assert!(!labels.iter().any(|l| l.starts_with("hbd_pmos")));
    }

    #[test]
    fn fault_free_campaign_spreads_but_never_detects() {
        let mut cfg = MonteConfig::new();
        cfg.samples = 3;
        cfg.stages = vec![];
        cfg.spread = 0.05;
        cfg.bench = fast_cfg();
        let report = run_monte(&TechParams::date05(), &cfg, &SimOptions::new()).unwrap();
        assert_eq!(report.probes.len(), 2);
        assert_eq!(report.degraded_total, 0);
        for p in &report.probes {
            assert_eq!(p.delays_ps.len(), 3, "{}", p.label);
            assert_eq!(p.detected, 0, "{}", p.label);
            let lo = p.delays_ps.first().copied().unwrap();
            let hi = p.delays_ps.last().copied().unwrap();
            assert!(hi > lo, "{}: corners must spread the delay", p.label);
        }
        let json = report.render_json();
        assert!(json.contains("\"fault_free_fall\""));
        assert!(json.ends_with("}\n"));
    }
}
