//! Determinism golden tests: the fleet's JSON artifact is a pure
//! function of `(seed, config)` — identical across repeated runs and,
//! critically, across worker-thread counts. Per-device seeding is
//! derived from the device id alone (never the shard), and aggregation
//! is integer-only with a shard-order merge, so `--threads 1` and
//! `--threads N` produce the same bytes.

use obd_atpg::bist::phased_lfsr_two_pattern_tests;
use obd_fleet::{run_fleet, BistProfile, FleetConfig};
use obd_logic::circuits::c17;

/// The real artifact path: a PPSFP-graded c17 BIST profile, exactly as
/// `repro fleet` builds it.
fn graded_profile(cfg: &FleetConfig) -> BistProfile {
    let nl = c17();
    let tests = phased_lfsr_two_pattern_tests(nl.inputs().len(), 48, 16, 0x0BD_B157);
    BistProfile::grade(&nl, "c17", &tests, &cfg.table, cfg.slack_ps).expect("grading c17")
}

fn cfg_with(seed: u64, devices: u64, threads: usize) -> FleetConfig {
    FleetConfig {
        seed,
        devices,
        threads,
        ..FleetConfig::default()
    }
}

#[test]
fn same_seed_same_bytes_across_runs() {
    let cfg = cfg_with(0xDE7EC7, 20_000, 1);
    let profile = graded_profile(&cfg);
    let a = run_fleet(&cfg, &profile).expect("run a");
    let b = run_fleet(&cfg, &profile).expect("run b");
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "same seed must replay identically"
    );
}

#[test]
fn thread_count_never_changes_the_artifact() {
    // A prime device count forces uneven shards in every split.
    let base = cfg_with(0x0BDF_1EE7, 20_011, 1);
    let profile = graded_profile(&base);
    let solo = run_fleet(&base, &profile).expect("1 thread");
    for threads in [2, 3, 4, 7] {
        let cfg = cfg_with(base.seed, base.devices, threads);
        let multi = run_fleet(&cfg, &profile).expect("N threads");
        assert_eq!(
            solo.to_json(),
            multi.to_json(),
            "artifact must be byte-identical at {threads} threads"
        );
        // The latency vectors (merged in device-id order, then permuted
        // by the same percentile selection) must agree element-for-element,
        // not just at the reported percentiles.
        assert_eq!(solo.accum.latencies_mh, multi.accum.latencies_mh);
        assert_eq!(solo.accum.sessions, multi.accum.sessions);
    }
}

#[test]
fn different_seeds_diverge() {
    let cfg_a = cfg_with(1, 10_000, 1);
    let profile = graded_profile(&cfg_a);
    let cfg_b = cfg_with(2, 10_000, 1);
    let a = run_fleet(&cfg_a, &profile).expect("seed 1");
    let b = run_fleet(&cfg_b, &profile).expect("seed 2");
    assert_ne!(
        a.to_json(),
        b.to_json(),
        "different seeds must sample different fleets"
    );
}

#[test]
fn json_carries_every_contract_field() {
    let cfg = cfg_with(7, 5_000, 2);
    let profile = graded_profile(&cfg);
    let r = run_fleet(&cfg, &profile).expect("run");
    let j = r.to_json();
    for key in [
        "\"devices\"",
        "\"escape_rate\"",
        "\"tests_per_device\"",
        "\"p50\"",
        "\"p95\"",
        "\"p99\"",
        "\"escapes\"",
        "\"detected\"",
        "\"poisoned\"",
    ] {
        assert!(j.contains(key), "artifact missing {key}: {j}");
    }
    assert!(
        !j.contains("thread"),
        "artifact must not leak host parallelism: {j}"
    );
}
