//! The paper's experiments: one module per table/figure of its
//! evaluation, each producing the same rows/series the paper reports.
//!
//! The `repro` binary drives these modules and writes text/CSV artifacts.
//! Timing lives in one place, the `obd-benchmark` crate
//! (`crates/benchmark`); this crate measures nothing.
//!
//! | Experiment | Paper artifact | Module |
//! |---|---|---|
//! | E1 | Fig. 4 inverter VTC | [`experiments::fig4`] |
//! | E2 | Table 1 delay ladder | [`experiments::table1`] |
//! | E3/E4 | Fig. 6 / Fig. 7 waveforms | [`experiments::waveforms`] |
//! | E5 | Fig. 9 full-adder propagation | [`experiments::fig9`] |
//! | E6 | §4.3 statistics | [`experiments::stats`] |
//! | E7 | §4.1/§5 excitation sets | [`experiments::excitation`] |
//! | E8 | traditional-TPG comparison | [`experiments::tpg_compare`] |
//! | E9 | ATPG complexity scaling | [`experiments::scaling`] |
//! | E10 | §4.2 detection windows | [`experiments::window`] |
//! | E11 | §5 EM contrast | [`experiments::em_contrast`] |
//! | X1 | IDDQ ladder | [`experiments::iddq`] |
//! | X2 | BIST session length + LOC correlation | [`experiments::bist_eval`] |
//! | X3 | detectability vs capture clock | [`experiments::clock_sweep`] |
//! | X5 | scan (LOS) delivery + chain ordering | [`experiments::scan_eval`] |
//! | X8 | OBD shifts vs process variation | [`experiments::variation`] |

pub mod experiments;

/// A fast-but-faithful bench configuration used by tests and CI-style
/// runs; the `repro` binary uses the full-resolution defaults instead.
pub fn quick_bench_config() -> obd_core::characterize::BenchConfig {
    obd_core::characterize::BenchConfig {
        edge_ps: 50.0,
        launch_ps: 500.0,
        window_ps: 2500.0,
        step_ps: 4.0,
        at_speed_ps: Some(800.0),
        sim_full_window: false,
    }
}

/// Parses a `u64` written in decimal or `0x`-hex (surrounding whitespace
/// ignored), as the `repro` verbs read their seed and count overrides;
/// `None` when malformed.
pub fn parse_u64(s: &str) -> Option<u64> {
    let t = s.trim();
    match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => t.parse().ok(),
    }
}
