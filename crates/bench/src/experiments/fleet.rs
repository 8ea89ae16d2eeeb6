//! `repro fleet`: the serving-scale concurrent-test workload.
//!
//! Simulates ≥1,000,000 deployed devices (ROADMAP item 2), each with a
//! seeded stochastic OBD onset/progression and a window-driven BIST
//! scheduler, detection resolved against a PPSFP-graded c17 BIST set.
//! Writes `results/FLEET_run.json`, which is byte-identical for a fixed
//! `OBD_FLEET_SEED` regardless of `OBD_FLEET_THREADS` — the determinism
//! golden test in `crates/fleet/tests/determinism.rs` pins that.

use obd_atpg::bist::phased_lfsr_two_pattern_tests;
use obd_fleet::{
    run_fleet, run_fleet_resumable, BistProfile, FleetConfig, FleetError, FleetReport,
};
use obd_logic::circuits::{array_multiplier, c17, carry_select_adder, ripple_carry_adder};
use obd_logic::Netlist;

/// Default BIST pattern-set size: enough phased two-pattern tests for
/// c17 to cover every site somewhere in the ladder. The escapes the
/// default campaign reports all come from one site, c17's PMOS site 3
/// (NAND "10", input "3"): the set covers it only at MBD3, the last PMOS
/// stage, which arrives just as the PMOS window closes. No NMOS site
/// escapes, so the set's SBD/MBD1 gap on the NMOS sites costs nothing —
/// the escapes are §4.1's point that a pattern set blind to which input
/// switches misses PMOS OBD.
pub const DEFAULT_BIST_TESTS: usize = 48;

/// LFSR seed for the BIST pattern set (fixed: part of the artifact).
pub const BIST_SEED: u64 = 0x0BD_B157;

/// Parses an env var as u64 (decimal or 0x-hex), `None` when unset or
/// malformed.
fn env_u64(name: &str) -> Option<u64> {
    crate::parse_u64(&std::env::var(name).ok()?)
}

/// The fleet configuration the verb runs: library defaults plus the
/// `OBD_FLEET_SEED` / `OBD_FLEET_DEVICES` / `OBD_FLEET_THREADS`
/// environment overrides.
pub fn config_from_env() -> FleetConfig {
    let mut cfg = FleetConfig::default();
    if let Some(seed) = env_u64("OBD_FLEET_SEED") {
        cfg.seed = seed;
    }
    if let Some(devices) = env_u64("OBD_FLEET_DEVICES") {
        cfg.devices = devices.max(1);
    }
    if let Some(threads) = env_u64("OBD_FLEET_THREADS") {
        cfg.threads = threads as usize;
    }
    cfg
}

/// Fleet circuits selectable by name (`OBD_FLEET_CIRCUIT`). The canonical name list lives in
/// [`obd_fleet::VALID_CIRCUITS`]; this maps each name to its netlist.
///
/// # Errors
///
/// [`FleetError::UnknownCircuit`] — a typed error whose rendering lists
/// every valid choice — on an unknown name.
pub fn netlist_by_name(name: &str) -> Result<Netlist, FleetError> {
    match name {
        "c17" => Ok(c17()),
        "rca32" => Ok(ripple_carry_adder(32)),
        "csa32" => Ok(carry_select_adder(32, 8)),
        "mult16" => Ok(array_multiplier(16)),
        other => Err(FleetError::UnknownCircuit {
            name: other.to_string(),
        }),
    }
}

/// Grades the BIST profile for the named circuit at the config's slack:
/// a phased-LFSR two-pattern set sized to the circuit's input count.
///
/// # Errors
///
/// Unknown circuit names and grading failures as strings.
pub fn profile_for_circuit(cfg: &FleetConfig, name: &str) -> Result<BistProfile, String> {
    let nl = netlist_by_name(name).map_err(|e| e.to_string())?;
    let tests = phased_lfsr_two_pattern_tests(nl.inputs().len(), DEFAULT_BIST_TESTS, 16, BIST_SEED);
    BistProfile::grade(&nl, name, &tests, &cfg.table, cfg.slack_ps).map_err(|e| e.to_string())
}

/// Grades the verb's BIST profile: c17 by default, or the circuit named
/// by `OBD_FLEET_CIRCUIT` (c17, rca32, csa32, mult16).
///
/// # Errors
///
/// Propagates grading failures as strings (the repro CLI prints them);
/// an unknown `OBD_FLEET_CIRCUIT` is an error, not a silent fallback.
pub fn default_profile(cfg: &FleetConfig) -> Result<BistProfile, String> {
    let name = std::env::var("OBD_FLEET_CIRCUIT").unwrap_or_else(|_| "c17".to_string());
    profile_for_circuit(cfg, &name)
}

/// Whether `OBD_FLEET_CKPT` arms checkpointing: any nonzero value
/// does; unset, `0` or unparsable leaves it off.
fn ckpt_armed() -> bool {
    env_u64("OBD_FLEET_CKPT").is_some_and(|n| n != 0)
}

/// Runs the full fleet workload for the `repro fleet` verb. With
/// `OBD_FLEET_CKPT` set (and the process-wide store armed), the run
/// checkpoints accumulators in blocks of
/// [`DEFAULT_BLOCK_DEVICES`](obd_fleet::checkpoint::DEFAULT_BLOCK_DEVICES)
/// devices and resumes any campaign the store already holds — a killed
/// run continues where it stopped, with byte-identical final JSON.
///
/// # Errors
///
/// Config and grading failures as strings.
pub fn run(cfg: &FleetConfig) -> Result<FleetReport, String> {
    let profile = default_profile(cfg)?;
    if ckpt_armed() {
        let store = obd_store::global();
        run_fleet_resumable(
            cfg,
            &profile,
            store.as_deref(),
            obd_fleet::checkpoint::DEFAULT_BLOCK_DEVICES,
        )
    } else {
        run_fleet(cfg, &profile)
    }
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_covers_every_site_somewhere() {
        let cfg = FleetConfig::default();
        let p = default_profile(&cfg).unwrap();
        assert!(p.sites() > 0);
        assert_eq!(p.tests(), DEFAULT_BIST_TESTS);
        // Every site must be detectable at some ladder stage, otherwise
        // that site can only ever escape and the workload is mis-tuned.
        let covered_somewhere = (0..p.sites())
            .filter(|&s| {
                obd_fleet::schedule::LADDER
                    .iter()
                    .any(|&stage| p.covered(stage, s))
            })
            .count();
        assert_eq!(
            covered_somewhere,
            p.sites(),
            "default BIST set leaves sites permanently invisible"
        );
    }

    #[test]
    fn circuit_override_selects_real_netlists() {
        let cfg = FleetConfig::default();
        for name in ["c17", "rca32", "csa32", "mult16"] {
            let nl = netlist_by_name(name).unwrap();
            assert!(!nl.inputs().is_empty(), "{name} must have inputs");
        }
        assert!(netlist_by_name("c18").is_err());
        assert!(netlist_by_name("").is_err());
        // A non-default circuit grades into a usable profile.
        let p = profile_for_circuit(&cfg, "rca32").unwrap();
        assert!(p.sites() > 0);
        assert_eq!(p.tests(), DEFAULT_BIST_TESTS);
    }

    #[test]
    fn unknown_circuit_error_is_typed_and_lists_valid_names() {
        let err = netlist_by_name("c18").unwrap_err();
        assert!(
            matches!(err, FleetError::UnknownCircuit { ref name } if name == "c18"),
            "expected UnknownCircuit, got {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("c18"), "message must echo the bad name: {msg}");
        for valid in obd_fleet::VALID_CIRCUITS {
            assert!(msg.contains(valid), "message must list '{valid}': {msg}");
        }
        // The string path callers use surfaces the same rendering.
        let via_profile = profile_for_circuit(&FleetConfig::default(), "c18").unwrap_err();
        assert_eq!(via_profile, msg);
    }

    #[test]
    fn small_fleet_runs_clean() {
        let cfg = FleetConfig {
            devices: 2_000,
            threads: 1,
            ..FleetConfig::default()
        };
        let r = run_fleet(&cfg, &default_profile(&cfg).unwrap()).unwrap();
        let a = &r.accum;
        assert_eq!(a.devices, 2_000);
        assert_eq!(a.poisoned, 0, "chaos disarmed: no poisoned devices");
        assert!(a.afflicted > 0, "default p_defect must afflict someone");
        assert!(a.detected > 0, "graded coverage must catch someone");
        assert!(r.escape_rate().is_finite());
        let j = r.to_json();
        assert!(j.contains("\"escape_rate\""));
        assert!(j.contains("\"p99\""));
    }
}
