//! Zero-dependency deterministic fault injection for the OBD solver stack.
//!
//! Production solvers must survive singular matrices, NaN-poisoned
//! iterates, non-convergent Newton loops, torn or corrupted store
//! records and unreliable BIST sessions without panicking. This crate
//! provides the *attack side* of that contract: named injection points
//! compiled into `obd-linalg`, `obd-spice`, `obd-store` and `obd-fleet`
//! that, when armed, force those failure modes at a seeded, reproducible
//! rate. The `repro chaos` campaign then asserts the recovery side —
//! every injected fault is either recovered by the escalation ladder,
//! recorded as a degraded result, or reported as a typed error, and
//! nothing panics.
//!
//! Design constraints (mirroring `obd-metrics`, which shares the hot
//! path):
//!
//! - **Disarmed path is branch-only.** Every [`InjectionPoint::fire`]
//!   starts with a relaxed load of one global `AtomicBool`; when chaos is
//!   disarmed (the default, and the only state production code ever runs
//!   in) the call returns `false` immediately — no RNG step, no locking,
//!   no atomic RMW.
//! - **Deterministic under a seed.** The RNG is a single global
//!   xorshift64* state advanced with a compare-exchange loop; a campaign
//!   that arms the same seed and runs the same single-threaded work sees
//!   the same faults in the same places.
//! - **`const`-constructible.** Points are declared as `static` items in
//!   the crates they attack and self-register on first touch, so a new
//!   injection point is one line at the failure site.
//!
//! ```
//! static FLAKY: obd_chaos::InjectionPoint = obd_chaos::InjectionPoint::new("demo.flaky");
//! obd_chaos::arm(0xC0FFEE, 1000); // fire ~100% of evaluations
//! assert!(FLAKY.fire());
//! obd_chaos::disarm();
//! assert!(!FLAKY.fire());
//! ```

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Global switch. Off by default so library users pay one branch per call.
static ARMED: AtomicBool = AtomicBool::new(false);

/// xorshift64* state; never zero while armed.
static RNG_STATE: AtomicU64 = AtomicU64::new(0x9E3779B97F4A7C15);

/// Injection rate in permille (0–1000) of evaluations that fire.
static RATE_PERMILLE: AtomicU32 = AtomicU32::new(0);

/// Total faults injected (all points) since the last [`arm`]/[`reset`].
static INJECTED_TOTAL: AtomicU64 = AtomicU64::new(0);

static REGISTRY: Mutex<Vec<&'static InjectionPoint>> = Mutex::new(Vec::new());

fn registry() -> std::sync::MutexGuard<'static, Vec<&'static InjectionPoint>> {
    // A poisoned registry still holds structurally valid data (pushes of
    // 'static refs cannot half-complete observably), so recover instead
    // of propagating the panic into solver code.
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms fault injection process-wide: seeds the RNG and sets the firing
/// rate in permille (`1000` = every evaluation fires). Also clears all
/// per-point counters so campaign accounting starts from zero.
pub fn arm(seed: u64, rate_permille: u32) {
    RNG_STATE.store(seed | 1, Ordering::Relaxed); // xorshift state must be nonzero
    RATE_PERMILLE.store(rate_permille.min(1000), Ordering::Relaxed);
    reset();
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms fault injection; all points become branch-only no-ops again.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Whether injection is currently armed.
#[inline(always)]
fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Clears the global and per-point injection counters (not the RNG).
pub fn reset() {
    INJECTED_TOTAL.store(0, Ordering::Relaxed);
    for p in registry().iter() {
        p.evaluated.store(0, Ordering::Relaxed);
        p.injected.store(0, Ordering::Relaxed);
    }
}

/// Total faults injected across every point since arming/reset.
pub fn injected_total() -> u64 {
    INJECTED_TOTAL.load(Ordering::Relaxed)
}

/// Advances the global xorshift64* stream and returns the next value.
fn next_rand() -> u64 {
    let mut cur = RNG_STATE.load(Ordering::Relaxed);
    loop {
        let mut x = cur;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match RNG_STATE.compare_exchange_weak(cur, x, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return x.wrapping_mul(0x2545F4914F6CDD1D),
            Err(seen) => cur = seen,
        }
    }
}

/// A named place in library code where a fault can be forced.
///
/// Declare as a `static`, then guard the failure branch with
/// [`InjectionPoint::fire`] (or [`InjectionPoint::roll`] when the call
/// site needs deterministic bits to pick a corruption variant).
pub struct InjectionPoint {
    name: &'static str,
    evaluated: AtomicU64,
    injected: AtomicU64,
    registered: AtomicBool,
}

impl InjectionPoint {
    /// Creates a point; usable in `static` initializers.
    pub const fn new(name: &'static str) -> Self {
        InjectionPoint {
            name,
            evaluated: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Whether this evaluation should fail. Branch-only when disarmed.
    #[inline]
    pub fn fire(&'static self) -> bool {
        if !armed() {
            return false;
        }
        self.fire_armed()
    }

    /// Like [`InjectionPoint::fire`], but returns deterministic random
    /// bits on injection so the call site can pick among corruption
    /// variants reproducibly. `None` means "do not inject".
    #[inline]
    pub fn roll(&'static self) -> Option<u64> {
        if !armed() {
            return None;
        }
        if self.fire_armed() {
            Some(next_rand())
        } else {
            None
        }
    }

    #[cold]
    fn fire_armed(&'static self) -> bool {
        self.ensure_registered();
        self.evaluated.fetch_add(1, Ordering::Relaxed);
        let rate = RATE_PERMILLE.load(Ordering::Relaxed) as u64;
        let hit = next_rand() % 1000 < rate;
        if hit {
            self.injected.fetch_add(1, Ordering::Relaxed);
            INJECTED_TOTAL.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Times this point was consulted while armed.
    pub(crate) fn evaluated(&self) -> u64 {
        self.evaluated.load(Ordering::Relaxed)
    }

    /// Times this point actually injected a fault.
    pub(crate) fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn ensure_registered(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            registry().push(self);
        }
    }
}

impl std::fmt::Debug for InjectionPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InjectionPoint")
            .field("name", &self.name)
            .field("evaluated", &self.evaluated())
            .field("injected", &self.injected())
            .finish()
    }
}

/// Frozen per-point accounting, name-sorted for stable JSON artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSnapshot {
    /// `(name, evaluated, injected)` rows.
    pub points: Vec<(String, u64, u64)>,
}

/// Captures the current per-point accounting.
pub fn snapshot() -> ChaosSnapshot {
    let mut points: Vec<(String, u64, u64)> = registry()
        .iter()
        .map(|p| (p.name.to_string(), p.evaluated(), p.injected()))
        .collect();
    points.sort();
    ChaosSnapshot { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    static P1: InjectionPoint = InjectionPoint::new("test.p1");
    static P2: InjectionPoint = InjectionPoint::new("test.p2");

    /// Chaos state is process-global; tests in this binary serialize on
    /// this lock so their arm/disarm calls do not interleave.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_points_never_fire() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        for _ in 0..100 {
            assert!(!P1.fire());
            assert!(P1.roll().is_none());
        }
    }

    #[test]
    fn full_rate_always_fires_and_counts() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        arm(42, 1000);
        for _ in 0..10 {
            assert!(P1.fire());
        }
        assert_eq!(P1.injected(), 10);
        assert_eq!(P1.evaluated(), 10);
        assert_eq!(injected_total(), 10);
        disarm();
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let run = |seed: u64| -> Vec<bool> {
            arm(seed, 300);
            let v = (0..200).map(|_| P2.fire()).collect();
            disarm();
            v
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "identical seeds must replay identical faults");
        assert_ne!(a, c, "different seeds should differ somewhere");
        let hits = a.iter().filter(|&&h| h).count();
        assert!(
            (30..100).contains(&hits),
            "300 permille over 200 draws should land near 60, got {hits}"
        );
    }

    #[test]
    fn snapshot_reports_points_and_total() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        arm(1, 1000);
        P1.fire();
        P2.fire();
        let snap = snapshot();
        for name in ["test.p1", "test.p2"] {
            assert!(snap.points.contains(&(name.to_string(), 1, 1)), "{name}");
        }
        assert_eq!(injected_total(), 2);
        disarm();
    }

    #[test]
    fn roll_returns_bits_on_injection() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        arm(99, 1000);
        let a = P1.roll();
        let b = P1.roll();
        assert!(a.is_some() && b.is_some());
        assert_ne!(a, b, "stream should advance between rolls");
        disarm();
    }
}
