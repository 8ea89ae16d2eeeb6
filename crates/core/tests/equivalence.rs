//! Equivalence guarantees for the performance paths: the parallel
//! characterization driver and the memoizing delay cache must reproduce
//! the serial, uncached results exactly (bit-identical outcomes), so the
//! fast paths can stand in for the reference ones everywhere.

use obd_cmos::TechParams;
use obd_core::cache::DelayCache;
use obd_core::characterize::{
    characterize_table1, characterize_table1_parallel, measure_cell_transition, BenchConfig,
    DelayTable, RunOptions, Table1, TransitionOutcome,
};
use obd_core::faultmodel::Polarity;
use obd_core::BreakdownStage;
use obd_logic::netlist::GateKind;
use obd_spice::SimOptions;

/// Coarse, fast settings — equivalence holds at any resolution.
fn fast_cfg() -> BenchConfig {
    BenchConfig {
        edge_ps: 50.0,
        launch_ps: 500.0,
        window_ps: 2500.0,
        step_ps: 8.0,
        at_speed_ps: Some(800.0),
        sim_full_window: false,
    }
}

fn assert_outcomes_identical(
    a: Option<TransitionOutcome>,
    b: Option<TransitionOutcome>,
    ctx: &str,
) {
    match (a, b) {
        (None, None) => {}
        (Some(TransitionOutcome::Stuck), Some(TransitionOutcome::Stuck)) => {}
        (Some(TransitionOutcome::Delay(x)), Some(TransitionOutcome::Delay(y))) => {
            // Same transients in the same engine: bit-identical, not merely close.
            assert!(x == y, "{ctx}: {x} != {y}");
        }
        other => panic!("{ctx}: outcome shape diverged: {other:?}"),
    }
}

fn assert_tables_identical(a: &Table1, b: &Table1) {
    assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
        assert_eq!(ra.stage, rb.stage);
        for slot in 0..4 {
            assert_outcomes_identical(
                ra.nmos[slot],
                rb.nmos[slot],
                &format!("{} nmos[{slot}]", ra.stage),
            );
            assert_outcomes_identical(
                ra.pmos[slot],
                rb.pmos[slot],
                &format!("{} pmos[{slot}]", ra.stage),
            );
        }
    }
    assert_eq!(a.render(), b.render());
}

#[test]
fn table1_report_is_identical_across_threads_and_cache_states() {
    let tech = TechParams::date05();
    let cfg = fast_cfg();
    let run = |threads, cache| {
        let sim = SimOptions::new();
        characterize_table1(
            &tech,
            &cfg,
            &RunOptions {
                threads,
                cache,
                sim,
            },
        )
    };
    let serial = run(1, None);
    assert!(!serial.is_degraded() && serial.recovered.is_empty());
    let cache = DelayCache::new();
    let cold = run(4, Some(&cache));
    let cold_misses = cache.misses();
    assert!(cold_misses > 0, "a cold cache must simulate");
    let warm = run(4, Some(&cache));
    assert_eq!(
        cache.misses(),
        cold_misses,
        "a warm cache must not simulate"
    );
    let shim = characterize_table1_parallel(&tech, &cfg, 4).unwrap();
    assert_tables_identical(&serial.table, &shim);
    for other in [run(4, None), run(0, None), cold, warm] {
        assert_tables_identical(&serial.table, &other.table);
        assert!(!other.is_degraded() && other.recovered.is_empty());
    }
}

#[test]
fn cached_delay_table_matches_uncached() {
    let tech = TechParams::date05();
    let cfg = fast_cfg();
    let uncached = DelayTable::from_characterization(&tech, &cfg, &DelayCache::new()).unwrap();
    let cache = DelayCache::new();
    let cached = DelayTable::from_characterization(&tech, &cfg, &cache).unwrap();
    let first_misses = cache.misses();
    assert!(first_misses > 0);

    // A second cached build must be answered entirely from memory...
    let cached_again = DelayTable::from_characterization(&tech, &cfg, &cache).unwrap();
    assert_eq!(
        cache.misses(),
        first_misses,
        "second build must not simulate"
    );
    assert!(cache.hits() >= first_misses);

    // ...and all three tables must agree exactly where the model speaks.
    for t in [&cached, &cached_again] {
        assert!(t.base_fall_ps == uncached.base_fall_ps);
        assert!(t.base_rise_ps == uncached.base_rise_ps);
        for pol in [Polarity::Nmos, Polarity::Pmos] {
            for stage in [
                BreakdownStage::FaultFree,
                BreakdownStage::Sbd,
                BreakdownStage::Mbd1,
                BreakdownStage::Mbd2,
                BreakdownStage::Mbd3,
                BreakdownStage::Hbd,
            ] {
                assert_eq!(
                    t.extra_delay_ps(pol, stage),
                    uncached.extra_delay_ps(pol, stage),
                    "{pol:?}/{stage}"
                );
            }
        }
    }
}

/// Entries are keyed for the default solver configuration only: a
/// lookup under any other options runs straight through the engine and
/// neither reads nor writes an entry.
#[test]
fn cache_bypasses_non_default_solver_options() {
    let tech = TechParams::date05();
    let cfg = fast_cfg();
    let cache = DelayCache::new();
    let reference = SimOptions::new().with_reference_kernel();
    let (v1, v2) = ([false, true], [true, true]);
    let measure = |opts: &SimOptions| {
        let nand = GateKind::Nand;
        cache
            .measure_cell(&tech, nand, None, v1, v2, &cfg, opts)
            .unwrap()
    };
    let state = || (cache.hits(), cache.misses(), cache.len());

    let bypassed = measure(&reference);
    assert_eq!(state(), (0, 0, 0), "a non-default lookup must not write");
    let direct = measure_cell_transition(&tech, GateKind::Nand, None, v1, v2, &cfg, &reference);
    assert_eq!(bypassed, direct.unwrap());

    measure(&SimOptions::new());
    assert_eq!(state(), (0, 1, 1));
    measure(&reference);
    assert_eq!(state(), (0, 1, 1), "a non-default lookup must not read");

    let (threads, cache, sim) = (2, Some(&cache), reference);
    let report = characterize_table1(
        &tech,
        &cfg,
        &RunOptions {
            threads,
            cache,
            sim,
        },
    );
    assert!(!report.is_degraded());
    assert_eq!(
        state(),
        (0, 1, 1),
        "a non-default grid must bypass the cache"
    );
}
