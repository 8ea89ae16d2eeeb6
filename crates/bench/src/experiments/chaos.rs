//! `repro chaos`: seeded fault-injection campaigns across the solver
//! stack (`obd-linalg`, `obd-spice`, `obd-core`, `obd-atpg`,
//! `obd-fleet`, `obd-store`, the supervised serve engine, and the Monte
//! Carlo variation engine), asserting the panic-free contract end to
//! end.
//!
//! Every operation runs under `catch_unwind` with chaos armed at a
//! layer-specific rate. The injection counter is read before and after
//! each operation, and the delta is attributed to exactly one bucket:
//!
//! * **recovered** — the operation still returned a clean result (the
//!   escalation ladder or retry logic absorbed the faults);
//! * **degraded** — the operation completed but recorded per-item
//!   failures (degraded Table 1 cells, degraded fault grades);
//! * **reported** — the operation returned a typed error.
//!
//! The campaign invariant is `injected == recovered + degraded +
//! reported` with zero panics — checked by [`ChaosReport::accounted`]
//! and asserted by the smoke test in `scripts/check.sh`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use obd_cmos::TechParams;
use obd_core::characterize::{characterize_table1, RunOptions};
use obd_linalg::{solve_refined, Matrix};
use obd_spice::analysis::op::operating_point;
use obd_spice::analysis::tran::{transient_with_options, TranParams};
use obd_spice::devices::{Capacitor, Resistor, SourceWave, Vsource};
use obd_spice::{Circuit, SimOptions};

/// Default campaign seed; override with `OBD_CHAOS_SEED`.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// How one operation ended (the process not panicking is implicit —
/// panics are counted separately by the harness).
enum OpOutcome {
    /// Clean result despite any injected faults.
    Clean,
    /// Completed with explicit per-item degradation.
    Degraded,
    /// Returned a typed error.
    Reported,
}

/// Accounting for one layer's campaign.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Layer name (`linalg` / `spice` / `core` / `atpg`).
    pub layer: &'static str,
    /// Injection rate the layer ran at (permille of evaluations).
    pub rate_permille: u32,
    /// Operations attempted.
    pub ops: u64,
    /// Faults injected while this layer ran.
    pub injected: u64,
    /// Injected faults absorbed by clean operations.
    pub recovered: u64,
    /// Injected faults surfacing as per-item degradation.
    pub degraded: u64,
    /// Injected faults surfacing as typed errors.
    pub reported: u64,
    /// Operations that panicked (must stay zero).
    pub panics: u64,
}

impl LayerReport {
    fn new(layer: &'static str, rate_permille: u32) -> Self {
        LayerReport {
            layer,
            rate_permille,
            ops: 0,
            injected: 0,
            recovered: 0,
            degraded: 0,
            reported: 0,
            panics: 0,
        }
    }

    /// Whether every injected fault landed in exactly one bucket.
    pub fn accounted(&self) -> bool {
        self.panics == 0 && self.injected == self.recovered + self.degraded + self.reported
    }

    /// Runs one operation under `catch_unwind` and attributes its
    /// injection delta.
    fn account(&mut self, op: impl FnOnce() -> OpOutcome) {
        let before = obd_chaos::injected_total();
        self.ops += 1;
        let res = catch_unwind(AssertUnwindSafe(op));
        let delta = obd_chaos::injected_total().saturating_sub(before);
        self.injected += delta;
        match res {
            Err(_) => self.panics += 1,
            Ok(OpOutcome::Clean) => self.recovered += delta,
            Ok(OpOutcome::Degraded) => self.degraded += delta,
            Ok(OpOutcome::Reported) => self.reported += delta,
        }
    }
}

/// The full campaign result.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Campaign seed (each layer re-arms with a per-layer derivation).
    pub seed: u64,
    /// Per-layer accounting.
    pub layers: Vec<LayerReport>,
    /// Per-point `(name, evaluated, injected)` rows summed over layers.
    pub points: Vec<(String, u64, u64)>,
}

impl ChaosReport {
    /// Total faults injected across all layers.
    pub fn injected_total(&self) -> u64 {
        self.layers.iter().map(|l| l.injected).sum()
    }

    /// Total recovered faults.
    pub fn recovered_total(&self) -> u64 {
        self.layers.iter().map(|l| l.recovered).sum()
    }

    /// Total panics (must be zero).
    pub fn panics_total(&self) -> u64 {
        self.layers.iter().map(|l| l.panics).sum()
    }

    /// Whether every layer fully accounted for its injections.
    pub fn accounted(&self) -> bool {
        self.layers.iter().all(LayerReport::accounted)
    }

    /// Renders the campaign summary table.
    pub fn render(&self) -> String {
        let mut s = format!("chaos campaign, seed {:#x}\n", self.seed);
        s.push_str(&format!(
            "{:<8} {:>5} {:>5} {:>9} {:>10} {:>9} {:>9} {:>7}\n",
            "layer", "rate", "ops", "injected", "recovered", "degraded", "reported", "panics"
        ));
        for l in &self.layers {
            s.push_str(&format!(
                "{:<8} {:>5} {:>5} {:>9} {:>10} {:>9} {:>9} {:>7}\n",
                l.layer,
                l.rate_permille,
                l.ops,
                l.injected,
                l.recovered,
                l.degraded,
                l.reported,
                l.panics
            ));
        }
        s.push_str(&format!(
            "total: {} injected, {} recovered, {} panics, accounted = {}\n",
            self.injected_total(),
            self.recovered_total(),
            self.panics_total(),
            self.accounted()
        ));
        s
    }

    /// Renders the campaign as `results/CHAOS_run.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"injected_total\": {},\n",
            self.injected_total()
        ));
        s.push_str(&format!(
            "  \"recovered_total\": {},\n",
            self.recovered_total()
        ));
        s.push_str(&format!("  \"panics\": {},\n", self.panics_total()));
        s.push_str(&format!("  \"accounted\": {},\n", self.accounted()));
        s.push_str("  \"layers\": [");
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"layer\": \"{}\", \"rate_permille\": {}, \"ops\": {}, \"injected\": {}, \"recovered\": {}, \"degraded\": {}, \"reported\": {}, \"panics\": {}}}",
                l.layer, l.rate_permille, l.ops, l.injected, l.recovered, l.degraded, l.reported,
                l.panics
            ));
        }
        s.push_str("\n  ],\n  \"points\": {");
        for (i, (name, ev, inj)) in self.points.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{name}\": {{\"evaluated\": {ev}, \"injected\": {inj}}}"
            ));
        }
        s.push_str("\n  }\n}");
        s
    }
}

/// Merges a per-layer chaos snapshot into the campaign's point rows
/// (each [`obd_chaos::arm`] clears the per-point counters, so the rows
/// are summed across layers here).
fn merge_points(into: &mut Vec<(String, u64, u64)>, snap: &obd_chaos::ChaosSnapshot) {
    for (name, ev, inj) in &snap.points {
        match into.iter_mut().find(|(n, _, _)| n == name) {
            Some(row) => {
                row.1 += ev;
                row.2 += inj;
            }
            None => into.push((name.clone(), *ev, *inj)),
        }
    }
    into.sort();
}

/// A small RC ladder driven by a step — enough structure for the
/// transient stepper, cheap enough to re-solve hundreds of times.
fn rc_ladder(stages: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.add_vsource(Vsource::new(
        "V1",
        vin,
        Circuit::GROUND,
        SourceWave::step(0.0, 1.0, 0.2e-9, 50e-12),
    ));
    let mut prev = vin;
    for i in 0..stages {
        let n = ckt.node(&format!("n{i}"));
        ckt.add_resistor(Resistor::new(&format!("R{i}"), prev, n, 1e3));
        ckt.add_capacitor(Capacitor::new(
            &format!("C{i}"),
            n,
            Circuit::GROUND,
            0.2e-12,
        ));
        prev = n;
    }
    ckt
}

fn lu_system(n: usize) -> (Matrix, Vec<f64>) {
    let mut m = Matrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            m[(r, c)] = if r == c {
                4.0 + (r % 3) as f64
            } else {
                1.0 / (1.0 + (r as f64 - c as f64).abs())
            };
        }
    }
    let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    (m, b)
}

/// A quick bench configuration for the core layer: coarse steps keep the
/// per-cell transients short while still exercising the full pipeline.
fn core_config() -> obd_core::characterize::BenchConfig {
    obd_core::characterize::BenchConfig {
        edge_ps: 50.0,
        launch_ps: 500.0,
        window_ps: 2500.0,
        step_ps: 8.0,
        at_speed_ps: Some(800.0),
        sim_full_window: false,
    }
}

fn run_linalg_layer(seed: u64, ops: u64) -> (LayerReport, obd_chaos::ChaosSnapshot) {
    let rate = 300;
    obd_chaos::arm(seed ^ 0x1111_1111, rate);
    let mut rep = LayerReport::new("linalg", rate);
    let (m, b) = lu_system(8);
    for _ in 0..ops {
        rep.account(|| match solve_refined(&m, &b) {
            Ok(_) => OpOutcome::Clean,
            Err(_) => OpOutcome::Reported,
        });
    }
    let snap = obd_chaos::snapshot();
    obd_chaos::disarm();
    (rep, snap)
}

fn run_spice_layer(seed: u64, ops: u64) -> (LayerReport, obd_chaos::ChaosSnapshot) {
    let rate = 25;
    obd_chaos::arm(seed ^ 0x2222_2222, rate);
    let mut rep = LayerReport::new("spice", rate);
    let ckt = rc_ladder(4);
    let opts = SimOptions::new().with_iteration_budget(50_000);
    let params = TranParams::new(50e-12, 2e-9);
    for i in 0..ops {
        if i % 2 == 0 {
            rep.account(|| match operating_point(&ckt, &opts) {
                Ok(_) => OpOutcome::Clean,
                Err(_) => OpOutcome::Reported,
            });
        } else {
            rep.account(|| match transient_with_options(&ckt, &params, &opts) {
                Ok(_) => OpOutcome::Clean,
                Err(_) => OpOutcome::Reported,
            });
        }
    }
    let snap = obd_chaos::snapshot();
    obd_chaos::disarm();
    (rep, snap)
}

fn run_core_layer(seed: u64, ops: u64) -> (LayerReport, obd_chaos::ChaosSnapshot) {
    let rate = 12;
    obd_chaos::arm(seed ^ 0x3333_3333, rate);
    let mut rep = LayerReport::new("core", rate);
    let tech = TechParams::date05();
    let cfg = core_config();
    // One thread: per-cell recovery attribution is exact only inline.
    let run_opts = RunOptions {
        threads: 1,
        sim: SimOptions::new().with_iteration_budget(200_000),
        ..RunOptions::default()
    };
    for _ in 0..ops {
        rep.account(|| {
            let report = characterize_table1(&tech, &cfg, &run_opts);
            if report.is_degraded() {
                OpOutcome::Degraded
            } else {
                OpOutcome::Clean
            }
        });
    }
    let snap = obd_chaos::snapshot();
    obd_chaos::disarm();
    (rep, snap)
}

fn run_atpg_layer(seed: u64, ops: u64) -> (LayerReport, obd_chaos::ChaosSnapshot) {
    use obd_atpg::fault::obd_faults;
    use obd_atpg::faultsim::FaultSimulator;

    let rate = 150;
    obd_chaos::arm(seed ^ 0x4444_4444, rate);
    let mut rep = LayerReport::new("atpg", rate);
    let nl = obd_logic::circuits::fig8_sum_circuit();
    let faults = obd_faults(&nl, obd_core::BreakdownStage::Mbd2, true);
    let tests = obd_atpg::random::exhaustive_two_pattern(nl.inputs().len());
    for _ in 0..ops {
        rep.account(|| match FaultSimulator::new(&nl) {
            Ok(sim) => {
                let outcomes = sim.grade_degraded(&faults, &tests);
                if outcomes.iter().any(|o| o.is_degraded()) {
                    OpOutcome::Degraded
                } else {
                    OpOutcome::Clean
                }
            }
            Err(_) => OpOutcome::Reported,
        });
    }
    let snap = obd_chaos::snapshot();
    obd_chaos::disarm();
    (rep, snap)
}

/// The fleet layer differs from the solver layers: one "op" is one
/// simulated device, and the device loop attributes every injection at
/// its fire site (`fleet.device_fault` poisons the device — a typed,
/// *reported* error; `fleet.sched_skew` and a masked `fleet.test_corrupt`
/// are *degraded* opportunities; a false-alarm `fleet.test_corrupt` on a
/// healthy session is cleared by the retest — *recovered*). The ledger
/// is therefore exact by construction rather than per-op delta
/// attribution. The BIST profile is the synthetic slack-ideal one: it
/// keeps the armed region free of `atpg.grade_error`/`core.delay_corrupt`
/// fire sites, so every injection observed here is a fleet-layer one.
fn run_fleet_layer(seed: u64, devices: u64) -> (LayerReport, obd_chaos::ChaosSnapshot) {
    let rate = 40;
    let cfg = obd_fleet::FleetConfig {
        devices,
        threads: 1,
        horizon_hours: 500.0,
        ..obd_fleet::FleetConfig::default()
    };
    let profile = obd_fleet::BistProfile::slack_ideal(
        &cfg.table,
        obd_core::faultmodel::Polarity::Nmos,
        cfg.slack_ps,
    );
    obd_chaos::arm(seed ^ 0x5555_5555, rate);
    let mut rep = LayerReport::new("fleet", rate);
    rep.ops = devices;
    let before = obd_chaos::injected_total();
    let result = catch_unwind(AssertUnwindSafe(|| obd_fleet::run_fleet(&cfg, &profile)));
    rep.injected = obd_chaos::injected_total().saturating_sub(before);
    match result {
        Err(_) => rep.panics += 1,
        // A config/grading error with injections outstanding: surfaced as
        // a typed error, so the whole delta is reported.
        Ok(Err(_)) => rep.reported = rep.injected,
        Ok(Ok(r)) => {
            rep.recovered = r.accum.recovered_events;
            rep.degraded = r.accum.degraded_events;
            rep.reported = r.accum.poisoned;
        }
    }
    let snap = obd_chaos::snapshot();
    obd_chaos::disarm();
    (rep, snap)
}

/// The persistence layer: puts and gets against a throwaway store with
/// `store.write_torn` / `store.read_corrupt` armed hot. Attribution:
///
/// * a torn append surfaces as the typed [`StoreError::TornWrite`] —
///   **reported** (the caller recomputes; the next put heals the tail);
/// * a flipped payload bit surfaces as [`StoreError::Corrupt`] and drops
///   the record, so a caching caller sees a plain miss afterwards —
///   **degraded** (both the error and the later `Ok(None)` land here);
/// * a flip injected into an *empty* payload has nothing to touch and
///   the read stays clean — **recovered**.
fn run_store_layer(seed: u64, ops: u64) -> (LayerReport, obd_chaos::ChaosSnapshot) {
    use obd_store::{Digest, Store, StoreError};

    let rate = 500;
    let mut rep = LayerReport::new("store", rate);
    let dir = std::env::temp_dir().join(format!("obd-chaos-store-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = match Store::open(&dir) {
        Ok(s) => s,
        Err(_) => {
            // No usable temp dir: an empty, trivially accounted layer.
            obd_chaos::arm(seed ^ 0x6666_6666, rate);
            let snap = obd_chaos::snapshot();
            obd_chaos::disarm();
            return (rep, snap);
        }
    };
    let key = |i: u64| Digest::new("chaos.store").u64(i).finish();
    // Committed records to read back under fire; every fourth payload is
    // empty so some injected flips land harmlessly.
    for i in 0..16u64 {
        let payload = if i % 4 == 3 {
            Vec::new()
        } else {
            vec![i as u8; 64 + (i as usize * 13) % 200]
        };
        let _ = store.put(key(i), &payload);
    }
    obd_chaos::arm(seed ^ 0x6666_6666, rate);
    let mut fresh = 1_000u64;
    for op in 0..ops {
        match op % 4 {
            0 => {
                let k = key(fresh);
                fresh += 1;
                rep.account(|| match store.put(k, b"chaos payload") {
                    Ok(()) => OpOutcome::Clean,
                    // TornWrite and any other I/O failure alike: a typed
                    // error the caller sees and recomputes around.
                    Err(_) => OpOutcome::Reported,
                });
            }
            1 => {
                // Non-empty committed records: a flip is caught by the
                // checksum and the record is dropped to a miss.
                let k = key(1 + (op % 2) * 4); // keys 1 and 5: never empty
                rep.account(|| match store.get(k) {
                    Ok(Some(_)) => OpOutcome::Clean,
                    Ok(None) => OpOutcome::Degraded,
                    Err(StoreError::Corrupt { .. }) => OpOutcome::Degraded,
                    Err(_) => OpOutcome::Reported,
                });
            }
            2 => {
                let k = key(3 + 4 * (op % 4)); // keys 3, 7, 11, 15: empty
                rep.account(|| match store.get(k) {
                    Ok(_) => OpOutcome::Clean,
                    Err(StoreError::Corrupt { .. }) => OpOutcome::Degraded,
                    Err(_) => OpOutcome::Reported,
                });
            }
            _ => {
                // Compaction under fire: a torn rewrite (the typed
                // `CompactTorn`, or any I/O failure) aborts before the
                // atomic swap — the live store is untouched and stays
                // in service, so the error is cleanly *reported*.
                rep.account(|| match store.compact() {
                    Ok(_) => OpOutcome::Clean,
                    Err(_) => OpOutcome::Reported,
                });
            }
        }
    }
    let snap = obd_chaos::snapshot();
    obd_chaos::disarm();
    let _ = std::fs::remove_dir_all(&dir);
    (rep, snap)
}

/// The serving layer: single-job noop batches under full supervision
/// with `serve.worker_hang` armed hot. The hang point rolls once per
/// job (on its first attempt) and the rolled bits plan how many
/// consecutive attempts hang, so the outcome is a pure function of the
/// chaos seed:
///
/// * plan within the retry budget — the watchdog requeues past the hung
///   attempts and a later attempt completes the job — **recovered**;
/// * plan exhausting the budget — the job is dead-lettered with a typed
///   quarantine detail — **reported**.
fn run_serve_layer(seed: u64, jobs: u64) -> (LayerReport, obd_chaos::ChaosSnapshot) {
    use super::serve::{parse_batch, run_supervised, JobStatus, ServeOptions};

    let rate = 700;
    obd_chaos::arm(seed ^ 0x7777_7777, rate);
    let mut rep = LayerReport::new("serve", rate);
    for i in 0..jobs {
        let batch = parse_batch(&format!(
            "{{\"id\": \"chaos-{i}\", \"kind\": \"noop\", \"spins\": 512}}\n"
        ));
        let mut opts = ServeOptions::new(1);
        opts.deadline_ms = 40;
        opts.max_retries = 2;
        opts.backoff_base_ms = 4;
        rep.account(|| {
            let report = run_supervised(&batch, &opts);
            match report.jobs.first().map(|j| j.status) {
                Some(JobStatus::Done) => OpOutcome::Clean,
                Some(JobStatus::Degraded) => OpOutcome::Degraded,
                _ => OpOutcome::Reported,
            }
        });
    }
    let snap = obd_chaos::snapshot();
    obd_chaos::disarm();
    (rep, snap)
}

/// The variation layer: small single-threaded Monte Carlo campaigns
/// with `monte.params_corrupt` (and the solver-level points underneath
/// the per-corner transients) armed. A corrupted corner parameter set is
/// rejected by the sanity guard and the corner *degrades* — an explicit
/// accounting entry in the report — as do corners whose measurement dies
/// of a solver-level injection; `run_monte` itself returning a typed
/// error is *reported*. Threads are pinned to 1: an armed chaos sequence
/// is schedule-dependent, and the layer replay must be exact.
fn run_monte_layer(seed: u64, ops: u64) -> (LayerReport, obd_chaos::ChaosSnapshot) {
    use obd_core::monte::{run_monte, MonteConfig};

    let rate = 12;
    obd_chaos::arm(seed ^ 0x8888_8888, rate);
    let mut rep = LayerReport::new("monte", rate);
    let tech = TechParams::date05();
    let cfg = MonteConfig {
        samples: 3,
        threads: 1,
        stages: vec![obd_core::BreakdownStage::Mbd2],
        bench: obd_core::characterize::BenchConfig {
            at_speed_ps: None,
            ..core_config()
        },
        ..MonteConfig::new()
    };
    let opts = SimOptions::new().with_iteration_budget(200_000);
    for _ in 0..ops {
        rep.account(|| match run_monte(&tech, &cfg, &opts) {
            Ok(r) if r.degraded_total > 0 => OpOutcome::Degraded,
            Ok(_) => OpOutcome::Clean,
            Err(_) => OpOutcome::Reported,
        });
    }
    let snap = obd_chaos::snapshot();
    obd_chaos::disarm();
    (rep, snap)
}

/// Runs the full campaign at the given seed with per-layer op counts
/// scaled by `scale` (1 = the `repro chaos` defaults, which inject well
/// over 200 faults; tests use a smaller scale).
pub fn run_with_scale(seed: u64, scale: u64) -> ChaosReport {
    let scale = scale.max(1);
    let mut layers = Vec::new();
    let mut points = Vec::new();
    for (rep, snap) in [
        run_linalg_layer(seed, 200 * scale),
        run_spice_layer(seed, 12 * scale),
        run_core_layer(seed, scale.div_ceil(4)),
        run_atpg_layer(seed, 4 * scale),
        run_fleet_layer(seed, 500 * scale),
        run_store_layer(seed, 120 * scale),
        run_serve_layer(seed, 4 * scale),
        run_monte_layer(seed, scale.div_ceil(2)),
    ] {
        merge_points(&mut points, &snap);
        layers.push(rep);
    }
    ChaosReport {
        seed,
        layers,
        points,
    }
}

/// The `repro chaos` campaign at full scale.
pub fn run(seed: u64) -> ChaosReport {
    run_with_scale(seed, 4)
}
