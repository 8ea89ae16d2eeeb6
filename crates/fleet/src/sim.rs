//! The fleet driver.
//!
//! Devices are split into contiguous id blocks that run as jobs on the
//! shared [`obd_core::pool`]. Every device seeds its own xorshift64*
//! stream from `seed + id · GOLDEN` (SplitMix64-scrambled inside
//! `seed_from_u64`), so the stream depends only on the fleet seed and the
//! device id — never on which block or worker simulated it. Block
//! accumulators are integers (counts and milli-hour latencies) merged in
//! block order, so the aggregate — and the JSON artifact built from it —
//! is byte-identical across thread counts and block sizes.

use obd_core::characterize::DelayTable;
use obd_core::pool::{host_threads, run_jobs};
use obd_metrics::{Counter, Gauge, Histogram};

use crate::coverage::BistProfile;
use crate::device::{simulate_device, DeviceOutcome, DeviceParams};
use crate::report::FleetReport;
use crate::schedule::WindowPlan;
use crate::FleetError;

static DEVICES_SIMULATED: Counter = Counter::new("fleet.devices_simulated");
static BIST_SESSIONS: Counter = Counter::new("fleet.bist_sessions");
static DETECTIONS: Counter = Counter::new("fleet.detections");
static ESCAPES: Counter = Counter::new("fleet.escapes");
static DEVICES_POISONED: Counter = Counter::new("fleet.devices_poisoned");
static SHARDS: Gauge = Gauge::new("fleet.shards");
static ESCAPE_RATE: Gauge = Gauge::new("fleet.escape_rate");
static DETECTION_LATENCY_MH: Histogram = Histogram::new(
    "fleet.detection_latency_mh",
    &[
        100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    ],
);

/// Per-device randomness model of the fleet.
#[derive(Debug, Clone)]
pub struct FleetModel {
    /// Probability a device develops an OBD defect inside the horizon.
    pub p_defect: f64,
    /// Onset time range as fractions of the horizon.
    pub onset_min_frac: f64,
    /// Upper onset fraction (≤ 1 keeps every onset inside the horizon).
    pub onset_max_frac: f64,
    /// SBD→terminal duration range in hours (the paper's reference
    /// progression is 27 h; real populations spread around it).
    pub dur_min_hours: f64,
    /// Upper duration bound in hours.
    pub dur_max_hours: f64,
}

impl Default for FleetModel {
    fn default() -> Self {
        FleetModel {
            p_defect: 0.2,
            onset_min_frac: 0.0,
            onset_max_frac: 0.9,
            dur_min_hours: 13.5,
            dur_max_hours: 54.0,
        }
    }
}

/// How each device's scheduler turns its modeled window into a period.
#[derive(Debug, Clone)]
pub struct SchedulePolicy {
    /// Test opportunities guaranteed inside the window: the base
    /// interval is `window length / opportunities`.
    pub opportunities: usize,
    /// Multiplier applied to the base interval (property tests sweep
    /// this; `1.0` in production).
    pub interval_scale: f64,
    /// Clamp floor for the base interval, hours.
    pub min_interval_hours: f64,
    /// Clamp ceiling for the base interval, hours.
    pub max_interval_hours: f64,
    /// Interval used when the device has no modeled window.
    pub fallback_interval_hours: f64,
    /// Exact interval override (oracle tests), hours.
    pub interval_override: Option<f64>,
    /// Exact phase override (oracle tests), hours.
    pub phase_override: Option<f64>,
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        SchedulePolicy {
            opportunities: 2,
            interval_scale: 1.0,
            min_interval_hours: 0.25,
            max_interval_hours: 2_000.0,
            fallback_interval_hours: 24.0,
            interval_override: None,
            phase_override: None,
        }
    }
}

/// Full configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Root seed; every device derives its stream from this and its id.
    pub seed: u64,
    /// Fleet size.
    pub devices: u64,
    /// Worker threads; `0` = one per available core.
    pub threads: usize,
    /// Simulated deployment length, hours.
    pub horizon_hours: f64,
    /// Detection slack shared by window math and PPSFP grading, ps.
    pub slack_ps: f64,
    /// Delay table shared by window math and PPSFP grading.
    pub table: DelayTable,
    /// Per-device randomness model.
    pub model: FleetModel,
    /// Scheduler policy.
    pub policy: SchedulePolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0x0BDF_1EE7,
            devices: 1_000_000,
            threads: 0,
            horizon_hours: 2_000.0,
            slack_ps: 25.0,
            table: DelayTable::paper(),
            model: FleetModel::default(),
            policy: SchedulePolicy::default(),
        }
    }
}

/// Odd constant spacing device ids apart in seed space before the
/// SplitMix64 scramble (the golden-ratio increment Vigna recommends for
/// SplitMix styles of stream splitting).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Integer block accumulator; merging is plain addition plus latency
/// vector concatenation in block order.
#[derive(Debug, Clone, Default)]
pub struct FleetAccum {
    /// Devices simulated (including poisoned ones).
    pub devices: u64,
    /// BIST sessions executed across the block.
    pub sessions: u64,
    /// Devices with no defect in the horizon.
    pub healthy: u64,
    /// Devices whose defect onset inside the horizon.
    pub afflicted: u64,
    /// Defective devices caught by a BIST session.
    pub detected: u64,
    /// Defective devices reaching the terminal stage undetected.
    pub escaped: u64,
    /// Defective devices still progressing, undetected, at the horizon.
    pub censored: u64,
    /// Devices lost to the `fleet.device_fault` chaos point.
    pub poisoned: u64,
    /// Chaos-degraded events survived across the block.
    pub degraded_events: u64,
    /// Chaos events recovered transparently across the block.
    pub recovered_events: u64,
    /// Detection latencies in milli-hours, one per detected device, in
    /// block (device-id) order.
    pub latencies_mh: Vec<u64>,
}

impl FleetAccum {
    fn merge(&mut self, other: FleetAccum) {
        self.devices += other.devices;
        self.sessions += other.sessions;
        self.healthy += other.healthy;
        self.afflicted += other.afflicted;
        self.detected += other.detected;
        self.escaped += other.escaped;
        self.censored += other.censored;
        self.poisoned += other.poisoned;
        self.degraded_events += other.degraded_events;
        self.recovered_events += other.recovered_events;
        self.latencies_mh.extend(other.latencies_mh);
    }
}

fn validate(cfg: &FleetConfig, profile: &BistProfile) -> Result<(), FleetError> {
    if profile.sites() == 0 {
        return Err(FleetError::InvalidConfig(
            "BIST profile has no fault sites".to_string(),
        ));
    }
    if cfg.devices == 0 {
        return Err(FleetError::InvalidConfig(
            "fleet has no devices".to_string(),
        ));
    }
    if !crate::positive(cfg.horizon_hours) {
        return Err(FleetError::InvalidConfig(format!(
            "horizon must be positive, got {}",
            cfg.horizon_hours
        )));
    }
    let pol = &cfg.policy;
    if pol.opportunities == 0 {
        return Err(FleetError::InvalidConfig(
            "policy needs at least one in-window opportunity".to_string(),
        ));
    }
    if !crate::positive(pol.interval_scale)
        || !crate::positive(pol.min_interval_hours)
        || pol.max_interval_hours < pol.min_interval_hours
        || !crate::positive(pol.fallback_interval_hours)
        || pol.interval_override.is_some_and(|i| !crate::positive(i))
    {
        return Err(FleetError::InvalidConfig(
            "policy intervals must be positive and min <= max".to_string(),
        ));
    }
    if !(0.0..=1.0).contains(&cfg.model.p_defect)
        || cfg.model.onset_min_frac < 0.0
        || cfg.model.onset_max_frac > 1.0
        || cfg.model.onset_max_frac < cfg.model.onset_min_frac
        || !crate::positive(cfg.model.dur_min_hours)
        || cfg.model.dur_max_hours < cfg.model.dur_min_hours
    {
        return Err(FleetError::InvalidConfig(
            "fleet model parameters out of range".to_string(),
        ));
    }
    Ok(())
}

fn simulate_range(
    cfg: &FleetConfig,
    profile: &BistProfile,
    lo: u64,
    hi: u64,
) -> Result<FleetAccum, FleetError> {
    let window_plan = WindowPlan::new(&cfg.table, cfg.slack_ps);
    let mut acc = FleetAccum::default();
    for id in lo..hi {
        let mut rng = obd_logic::rng::XorShift64Star::seed_from_u64(
            cfg.seed.wrapping_add(id.wrapping_mul(GOLDEN)),
        );
        let params = DeviceParams::sample(&mut rng, &cfg.model, cfg.horizon_hours, profile.sites());
        let defective = params.onset_hours.is_some_and(|o| o < cfg.horizon_hours);
        acc.devices += 1;
        match simulate_device(&params, cfg, profile, &window_plan) {
            Ok(r) => {
                acc.sessions += r.sessions;
                acc.degraded_events += r.degraded_events;
                acc.recovered_events += r.recovered_events;
                if defective {
                    acc.afflicted += 1;
                }
                match r.outcome {
                    DeviceOutcome::Healthy => acc.healthy += 1,
                    DeviceOutcome::Detected => {
                        acc.detected += 1;
                        acc.latencies_mh.push(r.latency_mh.unwrap_or(0));
                    }
                    DeviceOutcome::Escaped => acc.escaped += 1,
                    DeviceOutcome::Censored => acc.censored += 1,
                }
            }
            Err(FleetError::DevicePoisoned) => acc.poisoned += 1,
            Err(e) => return Err(e),
        }
    }
    Ok(acc)
}

/// Number of worker threads a config resolves to on this host.
pub(crate) fn resolve_threads(cfg: &FleetConfig) -> usize {
    let requested = if cfg.threads == 0 {
        host_threads()
    } else {
        cfg.threads
    };
    requested.clamp(1, cfg.devices.clamp(1, 64) as usize)
}

/// Adds one block simulated in this run to the campaign counters and the
/// latency histogram. Resumed blocks are not recorded: the metrics count
/// the work this run did.
fn record_simulated(acc: &FleetAccum) {
    DEVICES_SIMULATED.add(acc.devices);
    BIST_SESSIONS.add(acc.sessions);
    DETECTIONS.add(acc.detected);
    ESCAPES.add(acc.escaped);
    DEVICES_POISONED.add(acc.poisoned);
    if obd_metrics::enabled() {
        for &mh in &acc.latencies_mh {
            DETECTION_LATENCY_MH.record(mh);
        }
    }
}

/// Runs the whole fleet and aggregates the report: one contiguous
/// block of devices per worker thread, with no checkpoint store.
///
/// # Errors
///
/// [`FleetError::InvalidConfig`] for unusable configs; grading errors
/// surface as [`FleetError::Grading`] from profile construction, not
/// here. Poisoned devices are *counted*, not propagated.
pub fn run_fleet(cfg: &FleetConfig, profile: &BistProfile) -> Result<FleetReport, FleetError> {
    run_fleet_resumable(
        cfg,
        profile,
        None,
        cfg.devices.div_ceil(resolve_threads(cfg) as u64),
    )
}

/// Runs the fleet in fixed device-id checkpoint blocks, replaying every
/// block already present in `store` and simulating only the rest. With
/// `store = None` this is just a block-partitioned run.
///
/// The emitted report is byte-identical for any block size and thread
/// count: per-device streams are partition-independent, block merges
/// happen in block order into one vector sized up front, and the report
/// reads only order-free facts of it (nearest-rank percentiles, the max
/// and the sum). Pending blocks run as [`obd_core::pool`] jobs, so a
/// block is never simulated twice in one run; each job checkpoints its
/// block as soon as it completes (best-effort), which is what bounds the
/// work a `kill -9` can destroy.
///
/// # Errors
///
/// As [`run_fleet`]. Checkpoint load/store failures are *not* errors —
/// a bad frame is recomputed, a failed write is retried next run.
pub fn run_fleet_resumable(
    cfg: &FleetConfig,
    profile: &BistProfile,
    store: Option<&obd_store::Store>,
    block_devices: u64,
) -> Result<FleetReport, FleetError> {
    validate(cfg, profile)?;
    let block = block_devices.max(1);
    let threads = resolve_threads(cfg);
    let nblocks = cfg.devices.div_ceil(block);
    let campaign = crate::checkpoint::campaign_digest(cfg, profile);
    let range = |b: u64| (b * block, ((b + 1) * block).min(cfg.devices));

    // Block slots in block order; resumed blocks fill immediately.
    let mut slots: Vec<Option<FleetAccum>> = (0..nblocks)
        .map(|b| {
            let (lo, hi) = range(b);
            store.and_then(|s| crate::checkpoint::load_block(s, campaign, lo, hi))
        })
        .collect();
    let pending: Vec<usize> = (0..slots.len()).filter(|&b| slots[b].is_none()).collect();
    let done = run_jobs(&pending, threads, |_, &b| {
        let (lo, hi) = range(b as u64);
        let acc = simulate_range(cfg, profile, lo, hi)?;
        record_simulated(&acc);
        if let Some(s) = store {
            crate::checkpoint::store_block(s, campaign, lo, hi, &acc);
        }
        Ok::<_, FleetError>(acc)
    })?;
    for (b, acc) in pending.into_iter().zip(done) {
        slots[b] = Some(acc);
    }

    let detected = slots.iter().flatten().map(|b| b.latencies_mh.len()).sum();
    let mut acc = FleetAccum {
        latencies_mh: Vec::with_capacity(detected),
        ..FleetAccum::default()
    };
    for b in slots.into_iter().flatten() {
        acc.merge(b);
    }
    SHARDS.set(threads as f64);
    let report = FleetReport::build(cfg, profile, threads, acc);
    ESCAPE_RATE.set(report.escape_rate());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_core::faultmodel::Polarity;

    fn small_cfg(devices: u64) -> FleetConfig {
        FleetConfig {
            devices,
            horizon_hours: 500.0,
            ..FleetConfig::default()
        }
    }

    fn ideal_profile(cfg: &FleetConfig) -> BistProfile {
        BistProfile::slack_ideal(&cfg.table, Polarity::Nmos, cfg.slack_ps)
    }

    #[test]
    fn shard_split_is_thread_count_invariant() {
        let cfg = small_cfg(997); // prime: uneven shards
        let profile = ideal_profile(&cfg);
        let solo = simulate_range(&cfg, &profile, 0, cfg.devices).unwrap();
        let mut split = FleetAccum::default();
        for (lo, hi) in [(0, 250), (250, 700), (700, 997)] {
            split.merge(simulate_range(&cfg, &profile, lo, hi).unwrap());
        }
        assert_eq!(solo.devices, split.devices);
        assert_eq!(solo.sessions, split.sessions);
        assert_eq!(solo.detected, split.detected);
        assert_eq!(solo.escaped, split.escaped);
        assert_eq!(solo.latencies_mh, split.latencies_mh);
    }

    #[test]
    fn outcome_partition_covers_every_device() {
        let cfg = small_cfg(2_000);
        let profile = ideal_profile(&cfg);
        let r = run_fleet(&cfg, &profile).unwrap();
        let a = &r.accum;
        assert_eq!(
            a.healthy + a.detected + a.escaped + a.censored + a.poisoned,
            a.devices
        );
        assert_eq!(a.devices, cfg.devices);
        assert_eq!(a.detected as usize, a.latencies_mh.len());
        assert_eq!(a.afflicted, a.detected + a.escaped + a.censored);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let cfg = small_cfg(10);
        let profile = ideal_profile(&cfg);
        let empty = BistProfile::from_rows("e", 0, vec![], vec![vec![]; 5]).unwrap();
        assert!(run_fleet(&cfg, &empty).is_err());
        let mut bad = small_cfg(10);
        bad.policy.opportunities = 0;
        assert!(run_fleet(&bad, &profile).is_err());
        let mut bad = small_cfg(10);
        bad.policy.interval_override = Some(0.0);
        assert!(run_fleet(&bad, &profile).is_err());
        let mut bad = small_cfg(0);
        bad.devices = 0;
        assert!(run_fleet(&bad, &profile).is_err());
    }

    #[test]
    fn resumable_matches_plain_run_byte_identically() {
        let cfg = small_cfg(997);
        let profile = ideal_profile(&cfg);
        let plain = run_fleet(&cfg, &profile).unwrap().to_json();
        // No store, odd block size, forced multi-thread: same bytes.
        let mut threaded = cfg.clone();
        threaded.threads = 4;
        let blocked = run_fleet_resumable(&threaded, &profile, None, 100)
            .unwrap()
            .to_json();
        assert_eq!(plain, blocked);
    }

    #[test]
    fn resume_replays_checkpointed_blocks_and_matches_bytes() {
        let dir = std::env::temp_dir().join(format!("obd-fleet-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = small_cfg(503);
        let profile = ideal_profile(&cfg);
        let reference = run_fleet(&cfg, &profile).unwrap().to_json();

        let store = obd_store::Store::open(&dir).unwrap();
        // First pass populates one checkpoint frame per block.
        let first = run_fleet_resumable(&cfg, &profile, Some(&store), 100)
            .unwrap()
            .to_json();
        assert_eq!(first, reference);
        assert_eq!(store.len(), 6, "503 devices / block 100 = 6 blocks");
        let puts_after_first = store.puts();

        // Second pass replays every block from the store: zero new
        // frames, identical bytes — this is the resume path.
        let second = run_fleet_resumable(&cfg, &profile, Some(&store), 100)
            .unwrap()
            .to_json();
        assert_eq!(second, reference);
        assert_eq!(store.puts(), puts_after_first, "resume must not rewrite");

        // A different campaign (other seed) shares no frames.
        let mut other = cfg.clone();
        other.seed ^= 0xDEAD;
        let _ = run_fleet_resumable(&other, &profile, Some(&store), 100).unwrap();
        assert_eq!(store.len(), 12);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_defect_fleet_has_no_afflicted_devices() {
        let mut cfg = small_cfg(500);
        cfg.model.p_defect = 0.0;
        let profile = ideal_profile(&cfg);
        let r = run_fleet(&cfg, &profile).unwrap();
        assert_eq!(r.accum.healthy, 500);
        assert_eq!(r.accum.afflicted, 0);
        assert_eq!(r.accum.detected, 0);
        assert_eq!(r.accum.escaped, 0);
    }
}
