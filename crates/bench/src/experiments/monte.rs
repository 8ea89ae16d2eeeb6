//! `repro monte`: the batched Monte Carlo variation campaign.
//!
//! Samples process corners around the DATE-05 technology and measures
//! the Table 1 probe set at every corner (engine:
//! [`obd_core::monte`]). Writes `results/MONTE_run.json`, which is
//! byte-identical for a fixed seed regardless of `OBD_MONTE_THREADS` —
//! corner `k` derives its RNG stream from `(seed, k)` alone and results
//! land in per-index slots, so scheduling never reorders the artifact.

use obd_core::monte::MonteConfig;
use obd_core::pool::host_threads;
use obd_core::BreakdownStage;

/// Builds the campaign configuration from a key → value lookup;
/// [`config_from_env`] feeds it the process environment, tests feed it a
/// map. Unset or malformed values keep the library defaults.
///
/// Keys: `OBD_MONTE_SAMPLES`, `OBD_MONTE_SEED` (decimal or 0x-hex),
/// `OBD_MONTE_THREADS`, `OBD_MONTE_SPREAD` (relative 1-sigma, e.g.
/// `0.05`), `OBD_MONTE_AT_SPEED_PS`, `OBD_MONTE_STEP_PS` (transient step
/// for fast smoke runs), `OBD_MONTE_STAGES` (comma-separated stage names,
/// e.g. `sbd,mbd2`).
pub fn config_from(get: impl Fn(&str) -> Option<String>) -> MonteConfig {
    let mut cfg = MonteConfig::new();
    cfg.threads = host_threads();
    let trimmed = |name: &str| get(name).map(|s| s.trim().to_string());
    let u64_of = |name: &str| crate::parse_u64(&get(name)?);
    let f64_of = |name: &str| -> Option<f64> { trimmed(name)?.parse().ok() };
    if let Some(samples) = u64_of("OBD_MONTE_SAMPLES") {
        cfg.samples = (samples.max(1)) as usize;
    }
    if let Some(seed) = u64_of("OBD_MONTE_SEED") {
        cfg.seed = seed;
    }
    if let Some(threads) = u64_of("OBD_MONTE_THREADS") {
        cfg.threads = (threads.max(1)) as usize;
    }
    if let Some(spread) = f64_of("OBD_MONTE_SPREAD") {
        if spread.is_finite() && spread >= 0.0 {
            cfg.spread = spread;
        }
    }
    if let Some(limit) = f64_of("OBD_MONTE_AT_SPEED_PS") {
        if limit.is_finite() && limit > 0.0 {
            cfg.at_speed_ps = limit;
        }
    }
    if let Some(step) = f64_of("OBD_MONTE_STEP_PS") {
        if step.is_finite() && step > 0.0 {
            cfg.bench.step_ps = step;
        }
    }
    if let Some(stages) = parse_stages(trimmed("OBD_MONTE_STAGES").as_deref()) {
        cfg.stages = stages;
    }
    cfg
}

/// The campaign configuration the verb runs: library defaults, machine-
/// sized thread count, plus the `OBD_MONTE_*` environment overrides.
pub fn config_from_env() -> MonteConfig {
    config_from(|name| std::env::var(name).ok())
}

/// Parses a comma-separated stage list (`sbd,mbd2`); `None` when the
/// variable is unset or any name is unknown (keep the default rather
/// than silently dropping probes).
fn parse_stages(spec: Option<&str>) -> Option<Vec<BreakdownStage>> {
    let spec = spec?;
    let mut out = Vec::new();
    for name in spec.split(',') {
        let stage = match name.trim().to_ascii_lowercase().as_str() {
            "sbd" => BreakdownStage::Sbd,
            "mbd1" => BreakdownStage::Mbd1,
            "mbd2" => BreakdownStage::Mbd2,
            "mbd3" => BreakdownStage::Mbd3,
            "hbd" => BreakdownStage::Hbd,
            _ => return None,
        };
        out.push(stage);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn cfg_of(pairs: &[(&str, &str)]) -> MonteConfig {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        config_from(|name| map.get(name).cloned())
    }

    #[test]
    fn defaults_survive_an_empty_environment() {
        let base = MonteConfig::new();
        let cfg = cfg_of(&[]);
        assert_eq!(cfg.samples, base.samples);
        assert_eq!(cfg.seed, base.seed);
        assert_eq!(cfg.spread, base.spread);
        assert!(cfg.threads >= 1);
    }

    #[test]
    fn overrides_parse_and_clamp() {
        let cfg = cfg_of(&[
            ("OBD_MONTE_SAMPLES", " 3 "),
            ("OBD_MONTE_SEED", "0xBEEF"),
            ("OBD_MONTE_THREADS", "0X2"),
            ("OBD_MONTE_SPREAD", "0.1"),
            ("OBD_MONTE_AT_SPEED_PS", "700"),
            ("OBD_MONTE_STEP_PS", "8"),
            ("OBD_MONTE_STAGES", "mbd2, hbd"),
        ]);
        assert_eq!(cfg.samples, 3);
        assert_eq!(cfg.seed, 0xBEEF);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.spread, 0.1);
        assert_eq!(cfg.at_speed_ps, 700.0);
        assert_eq!(cfg.bench.step_ps, 8.0);
        assert_eq!(cfg.stages, vec![BreakdownStage::Mbd2, BreakdownStage::Hbd]);
    }

    #[test]
    fn malformed_values_keep_defaults() {
        let base = MonteConfig::new();
        let cfg = cfg_of(&[
            ("OBD_MONTE_SAMPLES", "zero"),
            ("OBD_MONTE_SEED", "0xBEEFG"),
            ("OBD_MONTE_THREADS", "18446744073709551616"),
            ("OBD_MONTE_SPREAD", "NaN"),
            ("OBD_MONTE_STEP_PS", "-4"),
            ("OBD_MONTE_STAGES", "sbd,unknown"),
        ]);
        assert_eq!(cfg.samples, base.samples);
        assert_eq!(cfg.seed, base.seed);
        assert_eq!(cfg.threads, host_threads());
        assert_eq!(cfg.spread, base.spread);
        assert_eq!(cfg.bench.step_ps, base.bench.step_ps);
        assert_eq!(cfg.stages, base.stages);
    }

    #[test]
    fn zero_counts_clamp_to_one() {
        let cfg = cfg_of(&[("OBD_MONTE_SAMPLES", "0"), ("OBD_MONTE_THREADS", "0")]);
        assert_eq!(cfg.samples, 1);
        assert_eq!(cfg.threads, 1);
    }
}
