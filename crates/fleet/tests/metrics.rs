//! Campaign metrics count the work a run did: a checkpointed run records
//! every device it simulates, and a rerun that resumes every block from
//! the store records none.
//!
//! Metrics are process-global, so this suite lives in its own test
//! binary with a single test.

use obd_core::faultmodel::Polarity;
use obd_fleet::{run_fleet_resumable, BistProfile, FleetConfig};

const COUNTERS: [&str; 5] = [
    "fleet.devices_simulated",
    "fleet.bist_sessions",
    "fleet.detections",
    "fleet.escapes",
    "fleet.devices_poisoned",
];

/// Current counter values plus the latency histogram's sample count.
fn read() -> [u64; 6] {
    let snap = obd_metrics::snapshot();
    let mut out = [0; 6];
    for (v, name) in out.iter_mut().zip(COUNTERS) {
        *v = snap.counter(name).unwrap_or(0);
    }
    out[5] = snap
        .histograms
        .iter()
        .find(|h| h.name == "fleet.detection_latency_mh")
        .map_or(0, |h| h.count);
    out
}

fn delta(before: [u64; 6], after: [u64; 6]) -> [u64; 6] {
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn resumed_blocks_add_nothing_to_the_campaign_metrics() {
    let dir = std::env::temp_dir().join(format!("obd-fleet-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FleetConfig {
        devices: 4_000,
        threads: 2,
        horizon_hours: 500.0,
        ..FleetConfig::default()
    };
    let profile = BistProfile::slack_ideal(&cfg.table, Polarity::Nmos, cfg.slack_ps);
    let store = obd_store::Store::open(&dir).unwrap();
    obd_metrics::enable();

    let before = read();
    let first = run_fleet_resumable(&cfg, &profile, Some(&store), 1_000).unwrap();
    let a = &first.accum;
    assert!(a.detected > 0, "nothing detected");
    assert_eq!(
        delta(before, read()),
        [a.devices, a.sessions, a.detected, a.escaped, a.poisoned, a.detected],
        "first run must record exactly the devices it simulated"
    );
    assert_eq!(a.devices, cfg.devices);

    let before = read();
    let resumed = run_fleet_resumable(&cfg, &profile, Some(&store), 1_000).unwrap();
    assert_eq!(resumed.to_json(), first.to_json());
    assert_eq!(
        delta(before, read()),
        [0; 6],
        "a fully resumed run simulates nothing"
    );

    obd_metrics::disable();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
