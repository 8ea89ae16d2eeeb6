//! Regenerates every table and figure of the paper as text/CSV artifacts.
//!
//! ```text
//! repro [all|<verb>]
//! ```
//!
//! `<verb>` names one entry of [`EXPERIMENTS`]; no argument means `all`,
//! which runs every entry marked for it in table order. An unknown verb
//! exits 2 after printing the verb list. A verb that fails (its
//! experiment errors or its artifact cannot be written) is reported on
//! stderr; `all` still runs the rest, and `repro` then exits 1.
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

/// What the verbs share: the process technology and the full-resolution
/// bench configuration of the waveform verbs.
struct Ctx {
    tech: TechParams,
    cfg: BenchConfig,
}

/// A verb: its name, whether `all` runs it, and the experiment it runs.
type Verb = (&'static str, bool, fn(&Ctx) -> Result<(), String>);

/// Every verb, in the order `all` runs them. Chaos stays out of `all`:
/// it arms process-global fault injection, which must not contaminate
/// the paper artifacts.
const EXPERIMENTS: &[Verb] = &[
    ("excitation", true, run_excitation),
    ("em", true, run_em),
    ("window", true, run_window),
    ("stats", true, run_stats),
    ("tpg", true, run_tpg),
    ("fig4", true, run_fig4),
    ("table1", true, run_table1),
    ("fig6", true, run_fig6),
    ("fig7", true, run_fig7),
    ("fig9", true, run_fig9),
    ("iddq", true, run_iddq),
    ("bist", true, run_bist),
    ("clock", true, run_clock),
    ("scan", true, run_scan),
    ("variation", true, run_variation),
    ("monte", true, run_monte),
    ("scaling", true, run_scaling),
    ("fleet", true, run_fleet),
    ("chaos", false, run_chaos),
];

/// Writes `content` to `results/<path>`.
fn save(path: &str, content: &str) -> Result<(), String> {
    let p = Path::new("results").join(path);
    fs::create_dir_all("results")
        .and_then(|()| fs::write(&p, content))
        .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
    println!("  wrote {}", p.display());
    Ok(())
}

/// Prints `text` and writes it to `results/<path>`.
fn show(path: &str, text: &str) -> Result<(), String> {
    println!("{text}");
    save(path, text)
}

fn run_table1(ctx: &Ctx) -> Result<(), String> {
    println!("== E2: Table 1 — NAND transition delays across the OBD ladder ==");
    let t = characterize_table1(&ctx.tech, &BenchConfig::table1(), &RunOptions::default())
        .into_result()
        .map_err(|e| e.to_string())?;
    let text = t.render();
    println!("{text}");
    let violations = table1::check_claims(&t);
    if violations.is_empty() {
        println!("  all qualitative Table 1 claims hold");
    } else {
        println!("  VIOLATIONS: {violations:#?}");
    }
    save("table1.txt", &text)
}

fn run_fig4(ctx: &Ctx) -> Result<(), String> {
    println!("== E1: Fig. 4 — inverter VTC under OBD ==");
    for polarity in [Polarity::Nmos, Polarity::Pmos] {
        let curves = fig4::run(&ctx.tech, polarity, 67).map_err(|e| e.to_string())?;
        println!("{}", fig4::summary(&curves));
        save(
            &format!("fig4_{}.csv", polarity.to_string().to_lowercase()),
            &fig4::to_csv(&curves),
        )?;
    }
    Ok(())
}

fn run_fig6(ctx: &Ctx) -> Result<(), String> {
    println!("== E3: Fig. 6 — NMOS OBD progression waveforms ==");
    let traces = waveforms::fig6(&ctx.tech, &ctx.cfg).map_err(|e| e.to_string())?;
    let half = ctx.tech.half_vdd();
    for t in &traces {
        let c = waveforms::output_crossing(t, half, false)
            .map(|t| format!("{:.0}ps", t / 1e-12))
            .unwrap_or_else(|| "never (stuck high)".to_string());
        println!("  {:<12} output 50% fall at {c}", t.label);
    }
    let csv = waveforms::to_csv(&traces, ctx.cfg.step_ps * 1e-12);
    save("fig6.csv", &csv)
}

fn run_fig7(ctx: &Ctx) -> Result<(), String> {
    println!("== E4: Fig. 7 — input-specific PMOS OBD waveforms ==");
    let traces = waveforms::fig7(&ctx.tech, &ctx.cfg).map_err(|e| e.to_string())?;
    let half = ctx.tech.half_vdd();
    for t in &traces {
        let c = waveforms::output_crossing(t, half, true)
            .map(|t| format!("{:.0}ps", t / 1e-12))
            .unwrap_or_else(|| "never (stuck low)".to_string());
        println!("  {:<24} output 50% rise at {c}", t.label);
    }
    let csv = waveforms::to_csv(&traces, ctx.cfg.step_ps * 1e-12);
    save("fig7.csv", &csv)
}

fn run_fig9(ctx: &Ctx) -> Result<(), String> {
    println!("== E5: Fig. 9 — propagation through the full-adder sum ==");
    let rows = fig9::run(&ctx.tech, BreakdownStage::Mbd2, &ctx.cfg).map_err(|e| e.to_string())?;
    show("fig9.txt", &fig9::render(&rows))?;
    let columns: Vec<(&str, &[(f64, f64)])> = rows
        .iter()
        .map(|r| (r.label.as_str(), r.output_trace.as_slice()))
        .collect();
    let csv = waveforms::grid_csv(&columns, ctx.cfg.step_ps * 1e-12);
    save("fig9.csv", &csv)
}

fn run_stats(ctx: &Ctx) -> Result<(), String> {
    println!("== E6: §4.3 statistics ==");
    let s = stats::run(BreakdownStage::Mbd2).map_err(|e| e.to_string())?;
    show("stats.txt", &stats::render(&s))?;
    println!("== Observability: Table 1 + ATPG flows under metrics ==");
    let r = metrics_run::run(&ctx.tech, &BenchConfig::table1())?;
    print!("{}", metrics_run::render(&r));
    save("METRICS_run.json", &r.snapshot.to_json())
}

fn run_excitation(_: &Ctx) -> Result<(), String> {
    println!("== E7: derived excitation conditions ==");
    show("excitation.txt", &excitation::render(&excitation::run()))
}

fn run_tpg(_: &Ctx) -> Result<(), String> {
    println!("== E8: traditional vs OBD-aware TPG ==");
    let mut all = String::new();
    for (name, nl) in [
        ("fig8 sum", fig8_sum_circuit()),
        ("rca4", obd_logic::circuits::ripple_carry_adder(4)),
        ("mux3", obd_logic::circuits::mux_tree(3)),
        ("parity8", obd_logic::circuits::parity_tree(8)),
    ] {
        let rows =
            tpg_compare::run(&nl, BreakdownStage::Mbd2).map_err(|e| format!("on {name}: {e}"))?;
        let text = format!("--- {name} ---\n{}\n", tpg_compare::render(&rows));
        print!("{text}");
        all.push_str(&text);
    }
    save("tpg_comparison.txt", &all)
}

fn run_em(_: &Ctx) -> Result<(), String> {
    println!("== E11: EM vs OBD excitation contrast ==");
    show("em_contrast.txt", &em_contrast::render(&em_contrast::run()))
}

fn run_window(_: &Ctx) -> Result<(), String> {
    println!("== E10: detection windows vs slack ==");
    let rows = window::run(
        &DelayTable::paper(),
        &[5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0],
    );
    show("detection_window.txt", &window::render(&rows))
}

fn run_iddq(ctx: &Ctx) -> Result<(), String> {
    println!("== Extension: IDDQ across the progression ==");
    let (healthy, rows) = iddq::run(&ctx.tech).map_err(|e| e.to_string())?;
    show("iddq.txt", &iddq::render(healthy, &rows))
}

fn run_bist(_: &Ctx) -> Result<(), String> {
    println!("== Extension: BIST session length for OBD coverage ==");
    let lengths = [8, 32, 128, 512];
    let mut curves = Vec::new();
    for (name, nl) in [
        ("fig8", fig8_sum_circuit()),
        ("rca3", obd_logic::circuits::ripple_carry_adder(3)),
        ("parity8", obd_logic::circuits::parity_tree(8)),
    ] {
        let on_err = |e| format!("on {name}: {e}");
        let plain = bist_eval::run(&nl, &format!("{name}/plain"), 12, &lengths);
        curves.push(plain.map_err(on_err)?);
        let phased = bist_eval::run_phased(&nl, &format!("{name}/phased"), 12, &lengths);
        curves.push(phased.map_err(on_err)?);
    }
    show("bist.txt", &bist_eval::render(&curves))
}

fn run_clock(_: &Ctx) -> Result<(), String> {
    println!("== Extension: at-speed detectability vs capture clock ==");
    let nl = fig8_sum_circuit();
    let points =
        clock_sweep::run(&nl, &[1.02, 1.1, 1.25, 1.5, 2.0, 3.0]).map_err(|e| e.to_string())?;
    let mut all = clock_sweep::render(&points);
    println!("{all}");
    let rows = clock_sweep::compare_models(&nl, &[1.02, 1.1, 1.25, 1.5, 2.0])
        .map_err(|e| e.to_string())?;
    let text = clock_sweep::render_comparison(&rows);
    println!("{text}");
    all.push_str(&text);
    save("clock_sweep.txt", &all)
}

fn run_scan(_: &Ctx) -> Result<(), String> {
    println!("== Extension: launch-on-shift scan delivery ==");
    let mut reports = Vec::new();
    for (name, nl) in [
        ("fig8", fig8_sum_circuit()),
        ("c17", obd_logic::circuits::c17()),
    ] {
        reports.push(scan_eval::run(&nl, name).map_err(|e| format!("on {name}: {e}"))?);
    }
    show("scan.txt", &scan_eval::render(&reports))
}

fn run_variation(_: &Ctx) -> Result<(), String> {
    println!("== Extension: OBD shifts vs process variation ==");
    let r = variation::run(64, 0.05, &BenchConfig::new(), 0xFAB5).map_err(|e| e.to_string())?;
    show("variation.txt", &variation::render(&r))
}

fn run_monte(ctx: &Ctx) -> Result<(), String> {
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
    let r = obd_core::monte::run_monte(&ctx.tech, &cfg, &obd_spice::SimOptions::new())
        .map_err(|e| e.to_string())?;
    print!("{}", r.render());
    save("MONTE_run.json", &r.render_json())
}

fn run_chaos(_: &Ctx) -> Result<(), String> {
    println!("== Robustness: seeded fault-injection campaign (CHAOS_run.json) ==");
    let seed = std::env::var("OBD_CHAOS_SEED")
        .ok()
        .and_then(|s| obd_bench::parse_u64(&s))
        .unwrap_or(chaos::DEFAULT_SEED);
    let r = chaos::run(seed);
    print!("{}", r.render());
    save("CHAOS_run.json", &r.to_json())?;
    if r.panics_total() > 0 || !r.accounted() {
        return Err("panics or unaccounted faults".to_string());
    }
    Ok(())
}

fn run_fleet(_: &Ctx) -> Result<(), String> {
    println!("== Fleet: concurrent-test scheduling at deployment scale (FLEET_run.json) ==");
    let r = fleet::run(&fleet::config_from_env())?;
    print!("{}", r.render());
    save("FLEET_run.json", &r.to_json())
}

fn run_scaling(_: &Ctx) -> Result<(), String> {
    println!("== E9: ATPG complexity scaling ==");
    let points = scaling::run(&[2, 4, 8, 16, 24], &[8, 16, 32]).map_err(|e| e.to_string())?;
    show("atpg_scaling.txt", &scaling::render(&points))?;
    save("atpg_scaling_counts.txt", &scaling::render_counts(&points))
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let all = arg == "all";
    let verbs: Vec<&Verb> = EXPERIMENTS
        .iter()
        .filter(|(name, in_all, _)| if all { *in_all } else { *name == arg })
        .collect();
    if verbs.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
        eprintln!(
            "unknown experiment '{arg}'; use one of: all, {}",
            names.join(", ")
        );
        std::process::exit(2);
    }
    // OBD_METRICS=1 records engine/ATPG metrics for whatever verbs run and
    // writes the snapshot next to the verb's own artifacts on exit.
    let with_metrics = std::env::var("OBD_METRICS").is_ok_and(|v| v == "1");
    if with_metrics {
        obd_metrics::enable();
    }
    let ctx = Ctx {
        tech: TechParams::date05(),
        cfg: BenchConfig::new(),
    };
    let mut failed = false;
    for (name, _, run) in verbs {
        if let Err(e) = run(&ctx) {
            eprintln!("  {name} FAILED: {e}");
            failed = true;
        }
    }
    if with_metrics {
        if let Err(e) = save("METRICS_snapshot.json", &obd_metrics::snapshot().to_json()) {
            eprintln!("  metrics snapshot FAILED: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
