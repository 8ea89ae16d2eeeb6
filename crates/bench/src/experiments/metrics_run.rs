//! Observability run: drive the Table 1 characterization and an ATPG
//! flow with metrics enabled and snapshot every counter/histogram.
//!
//! The `repro stats` verb calls [`run`] and writes the snapshot to
//! `results/METRICS_run.json`; the smoke test in `scripts/check.sh`
//! asserts the Newton-iteration, LU-factorization, gate-simulation,
//! fleet, store and Monte Carlo counters come back nonzero, which pins the
//! instrumentation end to end.

use obd_atpg::bist::phased_lfsr_two_pattern_tests;
use obd_atpg::fault::{obd_faults, stuck_at_faults, transition_faults, DetectionCriterion};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::generate::generate_obd_tests;
use obd_cmos::TechParams;
use obd_core::characterize::{characterize_table1, BenchConfig, RunOptions};
use obd_core::pool::host_threads;
use obd_core::BreakdownStage;
use obd_fleet::{run_fleet_resumable, FleetConfig};
use obd_logic::circuits::{array_multiplier, fig8_sum_circuit};
use obd_metrics::MetricsSnapshot;

/// Everything the observability run produced.
#[derive(Debug)]
pub struct MetricsRunReport {
    /// Snapshot of every metric after the flows completed.
    pub snapshot: MetricsSnapshot,
    /// Rendered Table 1 (proof the characterization really ran).
    pub table1_rows: usize,
    /// OBD faults targeted by the ATPG flow.
    pub atpg_faults: usize,
    /// OBD faults detected by the generated tests.
    pub atpg_detected: usize,
    /// Devices simulated by the mini fleet flow.
    pub fleet_devices: u64,
    /// Process corners sampled by the mini Monte Carlo campaign.
    pub monte_corners: usize,
}

/// Runs the Table 1 + ATPG flows with metrics on.
///
/// Metrics are enabled and reset up front, so the snapshot reflects only
/// this run.
///
/// # Errors
///
/// Propagates characterization and ATPG errors.
pub fn run(tech: &TechParams, cfg: &BenchConfig) -> Result<MetricsRunReport, String> {
    obd_metrics::enable();
    obd_metrics::reset_all();

    // Real Table 1 ladder: the paper's NAND delay measurements across all
    // breakdown stages, through the analog engine.
    let threads = host_threads();
    let table1 = characterize_table1(
        tech,
        cfg,
        &RunOptions {
            threads,
            ..RunOptions::default()
        },
    )
    .into_result()
    .map_err(|e| e.to_string())?;

    // Grading on a circuit of thousands of gates: the four-model
    // universe of mult16 (2,624 gates) against 16 phased-LFSR tests.
    // Nearly every block this flow grades is one of these, which is what
    // gives check.sh's gates-per-block bound against mult16 its meaning.
    let mult16 = array_multiplier(16);
    let mult16_tests = phased_lfsr_two_pattern_tests(mult16.inputs().len(), 16, 16, 9);
    let mut mult16_faults = stuck_at_faults(&mult16);
    mult16_faults.extend(transition_faults(&mult16));
    mult16_faults.extend(obd_faults(&mult16, BreakdownStage::Mbd2, false));
    FaultSimulator::new(&mult16)
        .and_then(|sim| sim.grade(&mult16_faults, &mult16_tests))
        .map_err(|e| e.to_string())?;

    // ATPG flow on the paper's Fig. 8 sum circuit: PODEM generation plus
    // fault-simulation grading of the generated set.
    let nl = fig8_sum_circuit();
    let stage = BreakdownStage::Mbd2;
    let report = generate_obd_tests(&nl, stage, &DetectionCriterion::ideal(), true)
        .map_err(|e| e.to_string())?;
    let faults = obd_faults(&nl, stage, true);
    let sim = FaultSimulator::new(&nl).map_err(|e| e.to_string())?;
    let detected = sim
        .grade(&faults, &report.tests)
        .map_err(|e| e.to_string())?;

    // Mini fleet flow, checkpointed into a throwaway on-disk store and
    // then resumed from it: the first pass drives every fleet.* metric
    // and writes one checkpoint per block (store.puts), the resume
    // serves every block from disk (store.hits), simulates nothing (so
    // adds nothing to the campaign counters) and must report the same
    // bytes.
    let store_dir = std::env::temp_dir().join(format!("obd-metrics-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = obd_store::Store::open(&store_dir).map_err(|e| e.to_string())?;
    let fleet_cfg = FleetConfig {
        devices: 4_000,
        threads: 1,
        ..FleetConfig::default()
    };
    let profile = crate::experiments::fleet::default_profile(&fleet_cfg)?;
    let fleet_run = || {
        run_fleet_resumable(&fleet_cfg, &profile, Some(&store), 1_000).map_err(|e| e.to_string())
    };
    let fleet = fleet_run()?;
    if fleet_run()?.to_json() != fleet.to_json() {
        return Err("resumed mini fleet differs from its checkpointed run".to_string());
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    // Mini Monte Carlo campaign: two corners over the fault-free + MBD2
    // probe set drives monte.samples and monte.measurements.
    let monte_cfg = obd_core::monte::MonteConfig {
        samples: 2,
        threads: 1,
        stages: vec![BreakdownStage::Mbd2],
        bench: BenchConfig {
            at_speed_ps: None,
            ..cfg.clone()
        },
        ..obd_core::monte::MonteConfig::new()
    };
    let monte = obd_core::monte::run_monte(tech, &monte_cfg, &obd_spice::SimOptions::new())
        .map_err(|e| e.to_string())?;

    Ok(MetricsRunReport {
        snapshot: obd_metrics::snapshot(),
        table1_rows: table1.rows.len(),
        atpg_faults: faults.len(),
        atpg_detected: detected.iter().filter(|&&d| d).count(),
        fleet_devices: fleet.accum.devices,
        monte_corners: monte.samples,
    })
}

/// Human-readable summary printed by the `repro stats` verb.
pub fn render(r: &MetricsRunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "observability run: {} Table 1 rows, {} OBD faults ({} detected), {} fleet devices, {} monte corners\n",
        r.table1_rows, r.atpg_faults, r.atpg_detected, r.fleet_devices, r.monte_corners
    ));
    let key_counters = [
        "spice.newton_iterations",
        "spice.newton_solves",
        "linalg.lu_factorizations",
        "linalg.symbolic_builds",
        "linalg.symbolic_reuse",
        "atpg.podem_runs",
        "atpg.podem_backtracks",
        "atpg.faults_graded",
        "atpg.blocks_graded",
        "atpg.good_sim_cache_hits",
        "atpg.faults_dropped",
        "logic.soa_gates_simulated",
        "fleet.devices_simulated",
        "fleet.bist_sessions",
        "fleet.detections",
        "fleet.escapes",
        "store.hits",
        "store.misses",
        "store.puts",
        "monte.samples",
        "monte.measurements",
        "monte.stuck_outcomes",
        "monte.degraded_measurements",
    ];
    for name in key_counters {
        let v = r.snapshot.counter(name).unwrap_or(0);
        out.push_str(&format!("  {name:<32} {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quick_bench_config;

    #[test]
    fn metrics_run_produces_nonzero_key_counters() {
        let tech = TechParams::date05();
        let r = run(&tech, &quick_bench_config()).unwrap();
        for name in [
            "spice.newton_iterations",
            "linalg.lu_factorizations",
            "linalg.symbolic_builds",
            "linalg.symbolic_reuse",
            "atpg.podem_runs",
            "logic.soa_gates_simulated",
            "fleet.devices_simulated",
            "fleet.bist_sessions",
            "fleet.detections",
            "store.hits",
            "store.puts",
            "monte.samples",
            "monte.measurements",
        ] {
            assert!(
                r.snapshot.counter(name).unwrap_or(0) > 0,
                "counter {name} must be nonzero after the run"
            );
        }
        assert!(r.table1_rows > 0);
        assert!(r.atpg_faults > 0);
        assert_eq!(r.monte_corners, 2);
        let json = r.snapshot.to_json();
        assert!(json.contains("spice.newton_iterations"));
    }
}
