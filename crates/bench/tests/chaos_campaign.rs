//! The chaos campaign in its own test binary: arming fault injection is
//! process-global, so the campaign must not share a process with tests
//! that expect a clean solver stack.

use std::sync::Mutex;

use obd_bench::experiments::chaos;

/// Chaos arming is process-global; the tests in this binary serialize on
/// this lock.
static GATE: Mutex<()> = Mutex::new(());

#[test]
fn small_campaign_is_panic_free_and_accounted() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let r = chaos::run_with_scale(7, 1);
    assert_eq!(r.panics_total(), 0, "campaign must not panic");
    assert!(r.injected_total() > 0, "campaign must inject faults");
    assert!(r.accounted(), "every fault must land in one bucket: {r:?}");
    let json = r.to_json();
    assert!(json.contains("\"accounted\": true"));
    assert!(json.contains("linalg.forced_singular"));
}

/// The persistence layer must exercise all three outcomes: torn appends
/// reported, corrupt reads degraded to misses, and harmless flips on
/// empty payloads recovered — with the exact-ledger invariant intact.
#[test]
fn store_layer_populates_every_bucket() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let r = chaos::run_with_scale(21, 2);
    let store = r
        .layers
        .iter()
        .find(|l| l.layer == "store")
        .expect("campaign must include the store layer");
    assert!(store.injected > 0, "store layer must see injections");
    assert!(
        store.reported > 0,
        "torn writes must surface as typed errors"
    );
    assert!(store.degraded > 0, "corrupt reads must degrade to misses");
    assert!(store.recovered > 0, "empty-payload flips must be absorbed");
    assert!(store.accounted(), "store ledger must be exact: {store:?}");
    let json = r.to_json();
    assert!(json.contains("store.write_torn"));
    assert!(json.contains("store.read_corrupt"));
}

/// The Monte Carlo layer: solver-level injections underneath the
/// per-corner transients must degrade corners in the report — never
/// panic, never go unaccounted.
#[test]
fn monte_layer_is_exercised_and_accounted() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let r = chaos::run_with_scale(5, 2);
    let monte = r
        .layers
        .iter()
        .find(|l| l.layer == "monte")
        .expect("campaign must include the monte layer");
    assert!(monte.ops > 0, "monte layer must run campaigns");
    assert!(monte.injected > 0, "monte layer must see injections");
    assert_eq!(monte.panics, 0, "variation engine must never panic");
    assert!(monte.accounted(), "monte ledger must be exact: {monte:?}");
}

#[test]
fn same_seed_replays_identical_accounting() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let a = chaos::run_with_scale(11, 1);
    let b = chaos::run_with_scale(11, 1);
    for (la, lb) in a.layers.iter().zip(b.layers.iter()) {
        assert_eq!(la.injected, lb.injected, "layer {}", la.layer);
        assert_eq!(la.recovered, lb.recovered, "layer {}", la.layer);
        assert_eq!(la.degraded, lb.degraded, "layer {}", la.layer);
        assert_eq!(la.reported, lb.reported, "layer {}", la.layer);
    }
    assert_eq!(a.points, b.points);
}
