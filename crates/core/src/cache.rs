//! Memoization of characterization transients.
//!
//! Table 1 regeneration, delay-model annotation and the bench experiments
//! all measure the same handful of `(technology, gate, defect, pattern)`
//! transitions; each one costs a full transient. [`DelayCache`] keys the
//! outcome on every input that can change it, so identical measurements
//! run the analog engine exactly once — across threads too, since lookups
//! go through a mutex.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use obd_cmos::TechParams;
use obd_logic::netlist::GateKind;
use obd_spice::SimOptions;
use obd_store::Digest;

use crate::characterize::{measure_cell_transition, BenchConfig, BenchDefect, TransitionOutcome};
use crate::faultmodel::Polarity;
use crate::ObdError;
use obd_metrics::Counter;

/// Lookups served from memory (all [`DelayCache`] instances combined).
static CACHE_HITS: Counter = Counter::new("core.delay_cache_hits");
/// Lookups that ran a characterization transient.
static CACHE_MISSES: Counter = Counter::new("core.delay_cache_misses");

/// Key of a measurement: a digest of the exact bit patterns of
/// everything that determines the transient's outcome.
fn cache_key(
    tech: &TechParams,
    kind: GateKind,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
    cfg: &BenchConfig,
) -> u64 {
    let mut d = Digest::new("core.delay.v2");
    for v in [
        tech.vdd,
        tech.nmos_vt0,
        tech.nmos_kp,
        tech.pmos_vt0,
        tech.pmos_kp,
        tech.lambda,
        tech.length,
        tech.nmos_w,
        tech.pmos_w,
        tech.c_gate,
        tech.c_junction,
        tech.c_wire,
    ] {
        d = d.f64(v);
    }
    for v in [cfg.edge_ps, cfg.launch_ps, cfg.window_ps, cfg.step_ps] {
        d = d.f64(v);
    }
    d = match cfg.at_speed_ps {
        Some(limit) => d.bool(true).f64(limit),
        None => d.bool(false),
    };
    d = d.bool(cfg.sim_full_window);
    d = d.u8(kind as u8);
    d = match defect {
        Some(def) => d
            .bool(true)
            .u64(def.pin as u64)
            .u8(match def.polarity {
                Polarity::Nmos => 0,
                Polarity::Pmos => 1,
            })
            .f64(def.params.isat)
            .f64(def.params.r_bd),
        None => d.bool(false),
    };
    for b in v1.into_iter().chain(v2) {
        d = d.bool(b);
    }
    d.finish()
}

/// A thread-safe memo table for characterization transients.
///
/// # Example
///
/// ```rust
/// use obd_cmos::TechParams;
/// use obd_core::cache::DelayCache;
/// use obd_core::characterize::BenchConfig;
/// use obd_logic::netlist::GateKind;
/// use obd_spice::SimOptions;
///
/// # fn main() -> Result<(), obd_core::ObdError> {
/// let cache = DelayCache::new();
/// let tech = TechParams::date05();
/// let (cfg, opts) = (BenchConfig::new(), SimOptions::new());
/// let measure = || {
///     cache.measure_cell(&tech, GateKind::Nand, None, [false, true], [true, true], &cfg, &opts)
/// };
/// let a = measure()?;
/// let b = measure()?;
/// assert_eq!(a, b);
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct DelayCache {
    /// Outcomes by [`cache_key`].
    map: Mutex<HashMap<u64, TransitionOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DelayCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        DelayCache::default()
    }

    /// Memoized [`measure_cell_transition`].
    ///
    /// Entries are keyed for the default solver configuration only: when
    /// `opts` differs from [`SimOptions::default`] the measurement runs
    /// straight through, touching neither the map nor any counter, so no
    /// outcome is ever served across solver configurations.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors (errors are not cached).
    #[allow(clippy::too_many_arguments)]
    pub fn measure_cell(
        &self,
        tech: &TechParams,
        kind: GateKind,
        defect: Option<BenchDefect>,
        v1: [bool; 2],
        v2: [bool; 2],
        cfg: &BenchConfig,
        opts: &SimOptions,
    ) -> Result<TransitionOutcome, ObdError> {
        if *opts != SimOptions::default() {
            return measure_cell_transition(tech, kind, defect, v1, v2, cfg, opts);
        }
        let key = cache_key(tech, kind, defect, v1, v2, cfg);
        // A poisoned map still holds structurally valid entries (inserts
        // of Copy values cannot half-complete observably), so recover
        // instead of propagating a worker's panic into every later lookup.
        if let Some(&o) = self.map.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            CACHE_HITS.inc();
            return Ok(o);
        }
        // The transient runs outside the lock so concurrent misses on
        // *different* keys proceed in parallel; a duplicated concurrent
        // miss on the same key just recomputes the identical outcome.
        let o = measure_cell_transition(tech, kind, defect, v1, v2, cfg, opts)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        CACHE_MISSES.inc();
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, o);
        Ok(o)
    }

    /// Number of lookups served from memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that ran a transient.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct measurements stored.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache is empty. Kept next to [`DelayCache::len`],
    /// which clippy's `len_without_is_empty` pairs it with.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::BreakdownStage;

    fn fast_cfg() -> BenchConfig {
        BenchConfig {
            edge_ps: 50.0,
            launch_ps: 500.0,
            window_ps: 2500.0,
            step_ps: 4.0,
            at_speed_ps: None,
            sim_full_window: false,
        }
    }

    /// A NAND measurement through `cache` at [`fast_cfg`], default options.
    fn measure(
        cache: &DelayCache,
        tech: &TechParams,
        defect: Option<BenchDefect>,
        v1: [bool; 2],
        v2: [bool; 2],
    ) -> TransitionOutcome {
        measure_at(cache, tech, defect, v1, v2, &fast_cfg())
    }

    /// [`measure`] at an explicit bench configuration.
    fn measure_at(
        cache: &DelayCache,
        tech: &TechParams,
        defect: Option<BenchDefect>,
        v1: [bool; 2],
        v2: [bool; 2],
        cfg: &BenchConfig,
    ) -> TransitionOutcome {
        let opts = SimOptions::new();
        cache
            .measure_cell(tech, GateKind::Nand, defect, v1, v2, cfg, &opts)
            .unwrap()
    }

    #[test]
    fn repeat_measurements_hit_cache() {
        let cache = DelayCache::new();
        let tech = TechParams::date05();
        let first = measure(&cache, &tech, None, [false, true], [true, true]);
        for _ in 0..3 {
            let again = measure(&cache, &tech, None, [false, true], [true, true]);
            assert_eq!(first, again);
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = DelayCache::new();
        let tech = TechParams::date05();
        let ff = measure(&cache, &tech, None, [false, true], [true, true]);
        let defect = BenchDefect {
            pin: 0,
            polarity: Polarity::Nmos,
            params: BreakdownStage::Mbd3.params(Polarity::Nmos).unwrap(),
        };
        let faulty = measure(&cache, &tech, Some(defect), [false, true], [true, true]);
        assert_eq!(cache.len(), 2);
        let (Some(a), Some(b)) = (ff.delay_ps(), faulty.delay_ps()) else {
            panic!("both sequences must switch at MBD3: {ff:?} vs {faulty:?}");
        };
        assert!(b > a, "defect must slow the transition: {b} vs {a}");

        // Configs that differ only in the full-window flag are distinct
        // keys.
        let cache = DelayCache::new();
        let full = BenchConfig {
            sim_full_window: true,
            ..fast_cfg()
        };
        measure_at(
            &cache,
            &tech,
            None,
            [false, true],
            [true, true],
            &fast_cfg(),
        );
        measure_at(&cache, &tech, None, [false, true], [true, true], &full);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn tech_perturbation_changes_key() {
        let cache = DelayCache::new();
        let tech = TechParams::date05();
        let mut tweaked = tech.clone();
        tweaked.nmos_vt0 += 1e-6;
        measure(&cache, &tech, None, [false, true], [true, true]);
        measure(&cache, &tweaked, None, [false, true], [true, true]);
        assert_eq!(cache.misses(), 2, "distinct techs must not share entries");
    }
}
