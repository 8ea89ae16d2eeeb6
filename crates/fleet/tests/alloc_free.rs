//! Verifies a fleet campaign's heap traffic does not grow with the fleet:
//! per-device simulation must not touch the heap, so a run's allocations
//! are the fixed report and accumulator setup plus the logarithmic
//! growth of the latency vector.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use obd_core::characterize::DelayTable;
use obd_core::faultmodel::Polarity;
use obd_fleet::schedule::LADDER;
use obd_fleet::{run_fleet, BistProfile, FleetConfig};

/// Counts heap operations from the measured thread while `COUNTING` is
/// set; otherwise defers straight to the system allocator.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Set on the thread running the campaign. The test harness's own
    /// threads may allocate at any moment; const-init keeps reading this
    /// flag itself allocation-free inside the allocator.
    static MEASURED_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING.load(Ordering::Relaxed) && MEASURED_THREAD.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A two-site profile, one NMOS and one PMOS site, each covered exactly
/// when its extra delay beats the slack: both polarities' window and
/// stage paths run.
fn mixed_profile(table: &DelayTable, slack_ps: f64) -> BistProfile {
    let sites = vec![Polarity::Nmos, Polarity::Pmos];
    let covered = LADDER
        .iter()
        .map(|&s| {
            sites
                .iter()
                .map(|&p| table.extra_delay_ps(p, s).is_some_and(|d| d > slack_ps))
                .collect()
        })
        .collect();
    BistProfile::from_rows("mixed", 0, sites, covered).unwrap()
}

#[test]
fn fleet_allocations_do_not_grow_with_the_fleet() {
    MEASURED_THREAD.with(|c| c.set(true));
    for devices in [10_000, 100_000] {
        let cfg = FleetConfig {
            devices,
            threads: 1,
            ..FleetConfig::default()
        };
        let profile = mixed_profile(&cfg.table, cfg.slack_ps);

        ALLOC_CALLS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        let report = run_fleet(&cfg, &profile).unwrap();
        COUNTING.store(false, Ordering::SeqCst);

        let calls = ALLOC_CALLS.load(Ordering::SeqCst);
        assert!(
            report.accum.detected > 0,
            "{devices} devices: nothing detected"
        );
        assert!(
            calls < 64,
            "{devices} devices made {calls} heap allocations; per-device work must not allocate"
        );
    }
}
