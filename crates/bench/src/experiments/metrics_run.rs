//! Observability run: drive the Table 1 characterization and an ATPG
//! flow with metrics enabled and snapshot every counter/histogram.
//!
//! The `repro stats` verb calls [`run`] and writes the snapshot to
//! `results/METRICS_run.json`; the smoke test in `scripts/check.sh`
//! asserts the Newton-iteration, LU-factorization and DelayCache-hit
//! counters come back nonzero, which pins the instrumentation end to end.

use obd_atpg::fault::{obd_faults, DetectionCriterion};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::generate::generate_obd_tests;
use obd_cmos::TechParams;
use obd_core::cache::DelayCache;
use obd_core::characterize::{characterize_table1, BenchConfig, DelayTable, RunOptions};
use obd_core::BreakdownStage;
use obd_logic::circuits::fig8_sum_circuit;
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
    /// Jobs drained by the mini serve batch.
    pub serve_jobs: usize,
    /// Process corners sampled by the mini Monte Carlo campaign.
    pub monte_corners: usize,
}

/// Runs the Table 1 + ATPG flows with metrics on.
///
/// Metrics are enabled and reset up front, so the snapshot reflects only
/// this run. The delay-model annotation pass runs twice through one
/// [`DelayCache`] — the second pass is served entirely from memory,
/// which is what puts the cache-hit counter above zero.
///
/// # Errors
///
/// Propagates characterization and ATPG errors.
pub fn run(tech: &TechParams, cfg: &BenchConfig) -> Result<MetricsRunReport, String> {
    obd_metrics::enable();
    obd_metrics::reset_all();

    // Real Table 1 ladder: the paper's NAND delay measurements across all
    // breakdown stages, through the analog engine.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
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

    // Delay-model annotation through a shared cache, twice: first pass
    // misses and simulates, second pass hits on every key.
    let cache = DelayCache::new();
    for _ in 0..2 {
        DelayTable::from_characterization(tech, cfg, &cache).map_err(|e| e.to_string())?;
    }

    // Persistent-store round trip: two persistent caches sharing one
    // throwaway on-disk store. The first pass populates it (store.puts),
    // the second — with a cold memory map — is served entirely from disk,
    // which drives core.delay_store_hits and store.hits above zero.
    let store_dir = std::env::temp_dir().join(format!("obd-metrics-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = std::sync::Arc::new(obd_store::Store::open(&store_dir).map_err(|e| e.to_string())?);
    let cold = DelayCache::persistent(std::sync::Arc::clone(&store));
    DelayTable::from_characterization(tech, cfg, &cold).map_err(|e| e.to_string())?;
    let warm = DelayCache::persistent(std::sync::Arc::clone(&store));
    DelayTable::from_characterization(tech, cfg, &warm).map_err(|e| e.to_string())?;

    // Mini serve batch: one real grade job plus a poisoned one, a single
    // worker — enough to drive the serve.* counters, the workers gauge,
    // and the job-wall-time histogram without writing any artifacts.
    let batch = concat!(
        "{\"id\": \"m-grade\", \"kind\": \"grade\", \"circuit\": \"c17\", \"tests\": 16, \"seed\": 9}\n",
        "{\"id\": \"m-poison\", \"kind\": \"grade\", \"circuit\": \"no-such-circuit\"}\n",
    );
    let serve_jobs = crate::experiments::serve::parse_batch(batch);
    let serve = crate::experiments::serve::run_batch(&serve_jobs, 1);

    // Supervised serve flows, chaos-free. First a checkpoint round trip:
    // the same noop batch twice through a ledger on the throwaway store
    // — the second pass is served entirely from the ledger, which is
    // what drives serve.jobs_replayed.
    let ledger_batch = concat!(
        "{\"id\": \"m-ck1\", \"kind\": \"noop\", \"spins\": 1024}\n",
        "{\"id\": \"m-ck2\", \"kind\": \"noop\", \"spins\": 2048}\n",
    );
    let ledger_jobs = crate::experiments::serve::parse_batch(ledger_batch);
    let digest = crate::experiments::serve::batch_digest(ledger_batch);
    let mut ledger_opts = crate::experiments::serve::ServeOptions::new(1);
    ledger_opts.ledger = Some((&store, digest));
    let _ = crate::experiments::serve::run_supervised(&ledger_jobs, &ledger_opts);
    let _ = crate::experiments::serve::run_supervised(&ledger_jobs, &ledger_opts);

    // Then the watchdog path: one grade job far slower than a 2 ms
    // heartbeat deadline (grades only beat at attempt start). The first
    // stale attempt is requeued (serve.retries, serve.watchdog_restarts),
    // the second exhausts the single-retry budget and the job is
    // quarantined (serve.dead_lettered) — all deterministic, no chaos.
    let slow_batch = "{\"id\": \"m-slow\", \"kind\": \"grade\", \"circuit\": \"csa32\", \"tests\": 64, \"seed\": 9}\n";
    let slow_jobs = crate::experiments::serve::parse_batch(slow_batch);
    let mut slow_opts = crate::experiments::serve::ServeOptions::new(1);
    slow_opts.deadline_ms = 2;
    slow_opts.max_retries = 1;
    slow_opts.backoff_base_ms = 1;
    let _ = crate::experiments::serve::run_supervised(&slow_jobs, &slow_opts);

    // Store maintenance: overwrite a record so compaction has something
    // to reclaim (store.compactions, store.compact_reclaimed_bytes).
    let dead_key = obd_store::Digest::new("metrics.compact").u64(1).finish();
    let _ = store.put(dead_key, b"superseded payload");
    let _ = store.put(dead_key, b"live payload");
    store.compact().map_err(|e| e.to_string())?;

    // Size-capped maintenance: cap the store below its live size and
    // compact again, which must evict the oldest frames
    // (store.evicted_frames). The store is throwaway at this point.
    let live = store.file_stats().map_err(|e| e.to_string())?.live_bytes;
    store.set_max_bytes(Some(live / 2));
    store.compact().map_err(|e| e.to_string())?;
    store.set_max_bytes(None);
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    // ATPG flow on the paper's Fig. 8 sum circuit: PODEM generation plus
    // fault-simulation grading of the generated set.
    let nl = fig8_sum_circuit();
    let stage = BreakdownStage::Mbd2;
    let report = generate_obd_tests(&nl, stage, &DetectionCriterion::ideal(), true)
        .map_err(|e| e.to_string())?;
    let faults = obd_faults(&nl, stage, true);
    let sim = FaultSimulator::new(&nl).map_err(|e| e.to_string())?;
    let detected = sim
        .grade_auto(&faults, &report.tests)
        .map_err(|e| e.to_string())?;

    // Mini fleet flow: a few thousand devices is enough to drive every
    // fleet.* counter, gauge, and the detection-latency histogram.
    let fleet = crate::experiments::fleet::run_small(4_000)?;

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
        serve_jobs: serve.jobs.len(),
        monte_corners: monte.samples,
    })
}

/// Human-readable summary printed by the `repro stats` verb.
pub fn render(r: &MetricsRunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "observability run: {} Table 1 rows, {} OBD faults ({} detected), {} fleet devices, {} serve jobs, {} monte corners\n",
        r.table1_rows, r.atpg_faults, r.atpg_detected, r.fleet_devices, r.serve_jobs, r.monte_corners
    ));
    let key_counters = [
        "spice.newton_iterations",
        "spice.newton_solves",
        "linalg.lu_factorizations",
        "linalg.memo_full_hits",
        "linalg.memo_solve_hits",
        "core.delay_cache_hits",
        "core.delay_cache_misses",
        "core.delay_store_hits",
        "core.delay_store_misses",
        "core.window_escalations",
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
        "store.compactions",
        "store.compact_reclaimed_bytes",
        "store.evicted_frames",
        "monte.samples",
        "monte.measurements",
        "monte.stuck_outcomes",
        "monte.degraded_measurements",
        "serve.jobs_done",
        "serve.jobs_degraded",
        "serve.jobs_replayed",
        "serve.retries",
        "serve.watchdog_restarts",
        "serve.dead_lettered",
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
            "core.delay_cache_hits",
            "atpg.podem_runs",
            "logic.soa_gates_simulated",
            "fleet.devices_simulated",
            "fleet.bist_sessions",
            "fleet.detections",
            "core.delay_store_hits",
            "store.hits",
            "store.puts",
            "store.compactions",
            "store.evicted_frames",
            "monte.samples",
            "monte.measurements",
            "serve.jobs_done",
            "serve.jobs_degraded",
            "serve.jobs_replayed",
            "serve.retries",
            "serve.watchdog_restarts",
            "serve.dead_lettered",
        ] {
            assert!(
                r.snapshot.counter(name).unwrap_or(0) > 0,
                "counter {name} must be nonzero after the run"
            );
        }
        assert!(r.table1_rows > 0);
        assert!(r.atpg_faults > 0);
        assert_eq!(r.serve_jobs, 2);
        assert_eq!(r.monte_corners, 2);
        let json = r.snapshot.to_json();
        assert!(json.contains("spice.newton_iterations"));
    }
}
