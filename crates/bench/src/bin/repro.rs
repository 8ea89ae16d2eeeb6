//! Regenerates every table and figure of the paper as text/CSV artifacts.
//!
//! ```text
//! repro [all|<verb>]
//! ```
//!
//! `<verb>` is one of [`VERBS`]; no argument means `all`, and an unknown
//! verb exits 2 after printing that list.
//!
//! Artifacts are written to `results/` in the current directory; a summary
//! of each experiment is printed to stdout.

use std::fs;
use std::path::Path;

use obd_bench::experiments::{
    bist_eval, chaos, clock_sweep, em_contrast, excitation, fig4, fig9, fleet, iddq, metrics_run,
    monte, scaling, scan_eval, stats, table1, tpg_compare, variation, waveforms, window,
};
use obd_cmos::TechParams;
use obd_core::characterize::{characterize_table1, BenchConfig, DelayTable, RunOptions};
use obd_core::faultmodel::Polarity;
use obd_core::BreakdownStage;
use obd_logic::circuits::fig8_sum_circuit;

/// Every verb `repro` accepts besides `all`: the accept list and the
/// unknown-verb message both read it.
const VERBS: &[&str] = &[
    "table1",
    "fig4",
    "fig6",
    "fig7",
    "fig9",
    "stats",
    "excitation",
    "tpg",
    "em",
    "window",
    "scaling",
    "iddq",
    "bist",
    "clock",
    "scan",
    "variation",
    "monte",
    "fleet",
    "chaos",
];

fn save(path: &str, content: &str) {
    let p = Path::new("results").join(path);
    if let Some(dir) = p.parent() {
        let _ = fs::create_dir_all(dir);
    }
    match fs::write(&p, content) {
        Ok(()) => println!("  wrote {}", p.display()),
        Err(e) => eprintln!("  FAILED to write {}: {e}", p.display()),
    }
}

fn run_table1(tech: &TechParams) {
    println!("== E2: Table 1 — NAND transition delays across the OBD ladder ==");
    match characterize_table1(tech, &BenchConfig::table1(), &RunOptions::default()).into_result() {
        Ok(t) => {
            let text = t.render();
            println!("{text}");
            let violations = table1::check_claims(&t);
            if violations.is_empty() {
                println!("  all qualitative Table 1 claims hold");
            } else {
                println!("  VIOLATIONS: {violations:#?}");
            }
            save("table1.txt", &text);
        }
        Err(e) => eprintln!("  error: {e}"),
    }
}

fn run_fig4(tech: &TechParams) {
    println!("== E1: Fig. 4 — inverter VTC under OBD ==");
    for polarity in [Polarity::Nmos, Polarity::Pmos] {
        match fig4::run(tech, polarity, 67) {
            Ok(curves) => {
                println!("{}", fig4::summary(&curves));
                save(
                    &format!("fig4_{}.csv", polarity.to_string().to_lowercase()),
                    &fig4::to_csv(&curves),
                );
            }
            Err(e) => eprintln!("  error: {e}"),
        }
    }
}

fn run_fig6(tech: &TechParams, cfg: &BenchConfig) {
    println!("== E3: Fig. 6 — NMOS OBD progression waveforms ==");
    match waveforms::fig6(tech, cfg) {
        Ok(traces) => {
            let half = tech.half_vdd();
            for t in &traces {
                let c = waveforms::output_crossing(t, half, false)
                    .map(|t| format!("{:.0}ps", t / 1e-12))
                    .unwrap_or_else(|| "never (stuck high)".to_string());
                println!("  {:<12} output 50% fall at {c}", t.label);
            }
            save("fig6.csv", &waveforms::to_csv(&traces, cfg.step_ps * 1e-12));
        }
        Err(e) => eprintln!("  error: {e}"),
    }
}

fn run_fig7(tech: &TechParams, cfg: &BenchConfig) {
    println!("== E4: Fig. 7 — input-specific PMOS OBD waveforms ==");
    match waveforms::fig7(tech, cfg) {
        Ok(traces) => {
            let half = tech.half_vdd();
            for t in &traces {
                let c = waveforms::output_crossing(t, half, true)
                    .map(|t| format!("{:.0}ps", t / 1e-12))
                    .unwrap_or_else(|| "never (stuck low)".to_string());
                println!("  {:<24} output 50% rise at {c}", t.label);
            }
            save("fig7.csv", &waveforms::to_csv(&traces, cfg.step_ps * 1e-12));
        }
        Err(e) => eprintln!("  error: {e}"),
    }
}

fn run_fig9(tech: &TechParams, cfg: &BenchConfig) {
    println!("== E5: Fig. 9 — propagation through the full-adder sum ==");
    match fig9::run(tech, BreakdownStage::Mbd2, cfg) {
        Ok(rows) => {
            let text = fig9::render(&rows);
            println!("{text}");
            save("fig9.txt", &text);
            let columns: Vec<(&str, &[(f64, f64)])> = rows
                .iter()
                .map(|r| (r.label.as_str(), r.output_trace.as_slice()))
                .collect();
            let csv = waveforms::grid_csv(&columns, cfg.step_ps * 1e-12);
            save("fig9.csv", &csv);
        }
        Err(e) => eprintln!("  error: {e}"),
    }
}

fn run_stats(tech: &TechParams) {
    println!("== E6: §4.3 statistics ==");
    match stats::run(BreakdownStage::Mbd2) {
        Ok(s) => {
            let text = stats::render(&s);
            println!("{text}");
            save("stats.txt", &text);
        }
        Err(e) => eprintln!("  error: {e}"),
    }
    println!("== Observability: Table 1 + ATPG flows under metrics ==");
    match metrics_run::run(tech, &BenchConfig::table1()) {
        Ok(r) => {
            print!("{}", metrics_run::render(&r));
            save("METRICS_run.json", &r.snapshot.to_json());
        }
        Err(e) => eprintln!("  error: {e}"),
    }
}

fn run_excitation() {
    println!("== E7: derived excitation conditions ==");
    let reports = excitation::run();
    let text = excitation::render(&reports);
    println!("{text}");
    save("excitation.txt", &text);
}

fn run_tpg() {
    println!("== E8: traditional vs OBD-aware TPG ==");
    let circuits: Vec<(&str, obd_logic::Netlist)> = vec![
        ("fig8 sum", fig8_sum_circuit()),
        ("rca4", obd_logic::circuits::ripple_carry_adder(4)),
        ("mux3", obd_logic::circuits::mux_tree(3)),
        ("parity8", obd_logic::circuits::parity_tree(8)),
    ];
    let mut all = String::new();
    for (name, nl) in circuits {
        match tpg_compare::run(&nl, BreakdownStage::Mbd2) {
            Ok(rows) => {
                let text = format!("--- {name} ---\n{}\n", tpg_compare::render(&rows));
                print!("{text}");
                all.push_str(&text);
            }
            Err(e) => eprintln!("  error on {name}: {e}"),
        }
    }
    save("tpg_comparison.txt", &all);
}

fn run_em() {
    println!("== E11: EM vs OBD excitation contrast ==");
    let rows = em_contrast::run();
    let text = em_contrast::render(&rows);
    println!("{text}");
    save("em_contrast.txt", &text);
}

fn run_window() {
    println!("== E10: detection windows vs slack ==");
    let rows = window::run(
        &DelayTable::paper(),
        &[5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0],
    );
    let text = window::render(&rows);
    println!("{text}");
    save("detection_window.txt", &text);
}

fn run_iddq(tech: &TechParams) {
    println!("== Extension: IDDQ across the progression ==");
    match iddq::run(tech) {
        Ok((healthy, rows)) => {
            let text = iddq::render(healthy, &rows);
            println!("{text}");
            save("iddq.txt", &text);
        }
        Err(e) => eprintln!("  error: {e}"),
    }
}

fn run_bist() {
    println!("== Extension: BIST session length for OBD coverage ==");
    let circuits: Vec<(&str, obd_logic::Netlist)> = vec![
        ("fig8", fig8_sum_circuit()),
        ("rca3", obd_logic::circuits::ripple_carry_adder(3)),
        ("parity8", obd_logic::circuits::parity_tree(8)),
    ];
    let mut curves = Vec::new();
    for (name, nl) in &circuits {
        match bist_eval::run(nl, &format!("{name}/plain"), 12, &[8, 32, 128, 512]) {
            Ok(c) => curves.push(c),
            Err(e) => eprintln!("  error on {name}: {e}"),
        }
        match bist_eval::run_phased(nl, &format!("{name}/phased"), 12, &[8, 32, 128, 512]) {
            Ok(c) => curves.push(c),
            Err(e) => eprintln!("  error on {name}: {e}"),
        }
    }
    let text = bist_eval::render(&curves);
    println!("{text}");
    save("bist.txt", &text);
}

fn run_clock() {
    println!("== Extension: at-speed detectability vs capture clock ==");
    let nl = fig8_sum_circuit();
    let mut all = String::new();
    match clock_sweep::run(&nl, &[1.02, 1.1, 1.25, 1.5, 2.0, 3.0]) {
        Ok(points) => {
            let text = clock_sweep::render(&points);
            println!("{text}");
            all.push_str(&text);
        }
        Err(e) => eprintln!("  error: {e}"),
    }
    match clock_sweep::compare_models(&nl, &[1.02, 1.1, 1.25, 1.5, 2.0]) {
        Ok(rows) => {
            let text = clock_sweep::render_comparison(&rows);
            println!("{text}");
            all.push_str(&text);
        }
        Err(e) => eprintln!("  error: {e}"),
    }
    save("clock_sweep.txt", &all);
}

fn run_scan() {
    println!("== Extension: launch-on-shift scan delivery ==");
    let mut reports = Vec::new();
    for (name, nl) in [
        ("fig8", fig8_sum_circuit()),
        ("c17", obd_logic::circuits::c17()),
    ] {
        match scan_eval::run(&nl, name) {
            Ok(r) => reports.push(r),
            Err(e) => eprintln!("  error on {name}: {e}"),
        }
    }
    let text = scan_eval::render(&reports);
    println!("{text}");
    save("scan.txt", &text);
}

fn run_variation() {
    println!("== Extension: OBD shifts vs process variation ==");
    match variation::run(64, 0.05, &BenchConfig::new(), 0xFAB5) {
        Ok(r) => {
            let text = variation::render(&r);
            println!("{text}");
            save("variation.txt", &text);
        }
        Err(e) => eprintln!("  error: {e}"),
    }
}

fn run_monte(tech: &TechParams) {
    println!("== Variation: Monte Carlo Table 1 signatures across corners (MONTE_run.json) ==");
    let cfg = monte::config_from_env();
    println!(
        "  {} corners, seed {:#x}, spread {:.1}%, {} threads, at-speed {:.0} ps",
        cfg.samples,
        cfg.seed,
        cfg.spread * 100.0,
        cfg.threads,
        cfg.at_speed_ps
    );
    match obd_core::monte::run_monte(tech, &cfg, &obd_spice::SimOptions::new()) {
        Ok(r) => {
            print!("{}", r.render());
            save("MONTE_run.json", &r.render_json());
        }
        Err(e) => {
            eprintln!("  MONTE RUN FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn run_chaos() {
    println!("== Robustness: seeded fault-injection campaign (CHAOS_run.json) ==");
    let seed = std::env::var("OBD_CHAOS_SEED")
        .ok()
        .and_then(|s| obd_bench::parse_u64(&s))
        .unwrap_or(chaos::DEFAULT_SEED);
    let r = chaos::run(seed);
    print!("{}", r.render());
    save("CHAOS_run.json", &r.to_json());
    if r.panics_total() > 0 || !r.accounted() {
        eprintln!("  CHAOS CAMPAIGN FAILED: panics or unaccounted faults");
        std::process::exit(1);
    }
}

fn run_fleet() {
    println!("== Fleet: concurrent-test scheduling at deployment scale (FLEET_run.json) ==");
    let cfg = fleet::config_from_env();
    match fleet::run(&cfg) {
        Ok(r) => {
            print!("{}", r.render());
            save("FLEET_run.json", &r.to_json());
        }
        Err(e) => {
            eprintln!("  FLEET RUN FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn run_scaling() {
    println!("== E9: ATPG complexity scaling ==");
    match scaling::run(&[2, 4, 8, 16, 24], &[8, 16, 32]) {
        Ok(points) => {
            let text = scaling::render(&points);
            println!("{text}");
            save("atpg_scaling.txt", &text);
            save("atpg_scaling_counts.txt", &scaling::render_counts(&points));
        }
        Err(e) => eprintln!("  error: {e}"),
    }
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    // OBD_METRICS=1 records engine/ATPG metrics for whatever verbs run and
    // writes the snapshot next to the verb's own artifacts on exit.
    let with_metrics = std::env::var("OBD_METRICS").is_ok_and(|v| v == "1");
    if with_metrics {
        obd_metrics::enable();
    }
    let tech = TechParams::date05();
    let cfg = BenchConfig::new();
    let all = arg == "all";
    if all || arg == "excitation" {
        run_excitation();
    }
    if all || arg == "em" {
        run_em();
    }
    if all || arg == "window" {
        run_window();
    }
    if all || arg == "stats" {
        run_stats(&tech);
    }
    if all || arg == "tpg" {
        run_tpg();
    }
    if all || arg == "fig4" {
        run_fig4(&tech);
    }
    if all || arg == "table1" {
        run_table1(&tech);
    }
    if all || arg == "fig6" {
        run_fig6(&tech, &cfg);
    }
    if all || arg == "fig7" {
        run_fig7(&tech, &cfg);
    }
    if all || arg == "fig9" {
        run_fig9(&tech, &cfg);
    }
    if all || arg == "iddq" {
        run_iddq(&tech);
    }
    if all || arg == "bist" {
        run_bist();
    }
    if all || arg == "clock" {
        run_clock();
    }
    if all || arg == "scan" {
        run_scan();
    }
    if all || arg == "variation" {
        run_variation();
    }
    if all || arg == "monte" {
        run_monte(&tech);
    }
    if all || arg == "scaling" {
        run_scaling();
    }
    if all || arg == "fleet" {
        run_fleet();
    }
    // Chaos deliberately stays out of `all`: it arms process-global fault
    // injection, which must not contaminate the paper artifacts.
    if arg == "chaos" {
        run_chaos();
    }
    if !all && !VERBS.contains(&arg.as_str()) {
        eprintln!(
            "unknown experiment '{arg}'; use one of: all, {}",
            VERBS.join(", ")
        );
        std::process::exit(2);
    }
    if with_metrics {
        save("METRICS_snapshot.json", &obd_metrics::snapshot().to_json());
    }
}
