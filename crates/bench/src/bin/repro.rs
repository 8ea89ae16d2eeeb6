//! Regenerates every table and figure of the paper as text/CSV artifacts.
//!
//! ```text
//! repro [all|table1|fig4|fig6|fig7|fig9|stats|excitation|tpg|em|window|scaling|iddq|monte|bench|bench-atpg|fleet|chaos|serve|store]
//! ```
//!
//! Artifacts are written to `results/` in the current directory; a summary
//! of each experiment is printed to stdout.

use std::fs;
use std::path::Path;

use obd_bench::experiments::{
    atpg_bench, bist_eval, chaos, clock_sweep, em_contrast, excitation, fig4, fig9, fleet, iddq,
    metrics_run, monte, scaling, scan_eval, serve, spice_bench, stats, table1, tpg_compare,
    variation, waveforms, window,
};
use obd_cmos::TechParams;
use obd_core::characterize::{characterize_table1, BenchConfig, DelayTable, RunOptions};
use obd_core::faultmodel::Polarity;
use obd_core::BreakdownStage;
use obd_logic::circuits::fig8_sum_circuit;

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
            save("fig6.csv", &waveforms::to_csv(&traces));
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
            save("fig7.csv", &waveforms::to_csv(&traces));
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
            let mut csv = String::from("time");
            let n = rows
                .iter()
                .map(|r| r.output_trace.len())
                .filter(|&n| n > 0)
                .min()
                .unwrap_or(0);
            for r in &rows {
                csv.push_str(&format!(",{}", r.label));
            }
            csv.push('\n');
            for i in 0..n {
                let t = rows
                    .iter()
                    .find(|r| !r.output_trace.is_empty())
                    .map(|r| r.output_trace[i].0)
                    .unwrap_or(0.0);
                csv.push_str(&format!("{t:.4e}"));
                for r in &rows {
                    if r.output_trace.is_empty() {
                        csv.push(',');
                    } else {
                        csv.push_str(&format!(",{:.4}", r.output_trace[i].1));
                    }
                }
                csv.push('\n');
            }
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

fn run_spice_bench(tech: &TechParams) {
    println!("== Perf: analog-engine throughput (BENCH_spice.json) ==");
    match spice_bench::run(tech, &BenchConfig::table1()) {
        Ok(r) => {
            println!("{}", spice_bench::render(&r));
            save("BENCH_spice.json", &spice_bench::to_json(&r));
        }
        Err(e) => eprintln!("  error: {e}"),
    }
}

fn run_atpg_bench() {
    println!("== Perf: PPSFP fault-grading throughput (BENCH_atpg.json) ==");
    match atpg_bench::run() {
        Ok(r) => {
            println!("{}", atpg_bench::render(&r));
            save("BENCH_atpg.json", &atpg_bench::to_json(&r));
        }
        Err(e) => eprintln!("  error: {e}"),
    }
}

fn run_chaos() {
    println!("== Robustness: seeded fault-injection campaign (CHAOS_run.json) ==");
    let seed = std::env::var("OBD_CHAOS_SEED")
        .ok()
        .and_then(|s| {
            let t = s.trim();
            match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => t.parse().ok(),
            }
        })
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

fn run_serve(batch_path: Option<&str>) {
    println!("== Serve: supervised batch queue over the persistent store (SERVE_run.json) ==");
    // Persistence defaults ON for serving (results/store), overridable
    // via OBD_STORE_DIR; an unopenable dir degrades to a cold batch.
    let store = obd_store::set_global_dir("results/store");
    match &store {
        Some(s) => println!("  store: {} ({} records)", s.path().display(), s.len()),
        None => println!("  store: disabled (cold batch, no checkpoint ledger)"),
    }
    let text = match batch_path {
        Some(path) => match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("  SERVE FAILED: cannot read batch file {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            use std::io::Read;
            let mut t = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut t) {
                eprintln!("  SERVE FAILED: cannot read batch from stdin: {e}");
                std::process::exit(1);
            }
            t
        }
    };
    let jobs = serve::parse_batch(&text);
    if jobs.is_empty() {
        eprintln!("  SERVE FAILED: batch is empty (expected one JSON object per line)");
        std::process::exit(1);
    }
    let threads = std::env::var("OBD_SERVE_THREADS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let digest = serve::batch_digest(&text);
    let mut opts = serve::ServeOptions::new(threads);
    opts.ledger = store.as_deref().map(|s| (s, digest));
    // results/serve/ holds only deterministic bytes (artifacts, canonical
    // results, dead letters) — it is the kill/resume diff target. The
    // streaming log keeps volatile fields and lives outside it.
    opts.stream_path = Some(Path::new("results/SERVE_stream.jsonl").to_path_buf());
    opts.artifacts_dir = Some(Path::new("results/serve").to_path_buf());
    opts.dead_letter_path = Some(Path::new("results/serve/dead_letter.jsonl").to_path_buf());
    println!(
        "  batch {digest:#018x}: {} jobs, {} workers, deadline {} ms, {} retries",
        jobs.len(),
        threads.max(1).min(jobs.len()),
        opts.deadline_ms,
        opts.max_retries
    );
    let report = serve::run_supervised(&jobs, &opts);
    print!("{}", report.render());
    save("serve/SERVE_results.jsonl", &report.canonical_jsonl());
    save("SERVE_run.json", &report.to_json());
    if !report.clean() {
        eprintln!("  SERVE FAILED: a worker panicked");
        std::process::exit(1);
    }
}

fn run_store(action: Option<&str>) {
    println!("== Store: persistent result store maintenance (STORE_run.json) ==");
    let action = action.unwrap_or("stats");
    let Some(store) = obd_store::set_global_dir("results/store") else {
        eprintln!("  STORE FAILED: cannot open the store directory");
        std::process::exit(1);
    };
    println!(
        "  store: {} ({} records)",
        store.path().display(),
        store.len()
    );
    let json = match action {
        "stats" => match store.file_stats() {
            Ok(s) => {
                println!(
                    "  {} live / {} total records ({} dead), {} of {} bytes live ({} reclaimable)",
                    s.live_records,
                    s.total_records,
                    s.dead_records,
                    s.live_bytes,
                    s.file_bytes,
                    s.dead_bytes
                );
                format!(
                    "{{\n  \"action\": \"stats\",\n  \"live_records\": {},\n  \"total_records\": {},\n  \"dead_records\": {},\n  \"file_bytes\": {},\n  \"live_bytes\": {},\n  \"dead_bytes\": {}\n}}\n",
                    s.live_records, s.total_records, s.dead_records, s.file_bytes, s.live_bytes, s.dead_bytes
                )
            }
            Err(e) => {
                eprintln!("  STORE FAILED: stats: {e}");
                std::process::exit(1);
            }
        },
        "compact" => match store.compact() {
            Ok(r) => {
                println!(
                    "  compacted: {} live records kept, {} dropped, {} evicted, {} -> {} bytes ({} reclaimed)",
                    r.live_records, r.dropped_records, r.evicted_records, r.before_bytes, r.after_bytes, r.reclaimed_bytes
                );
                format!(
                    "{{\n  \"action\": \"compact\",\n  \"live_records\": {},\n  \"dropped_records\": {},\n  \"evicted_records\": {},\n  \"before_bytes\": {},\n  \"after_bytes\": {},\n  \"reclaimed_bytes\": {}\n}}\n",
                    r.live_records, r.dropped_records, r.evicted_records, r.before_bytes, r.after_bytes, r.reclaimed_bytes
                )
            }
            Err(e) => {
                eprintln!("  STORE FAILED: compact: {e}");
                std::process::exit(1);
            }
        },
        "verify" => match store.verify() {
            Ok(v) => {
                println!(
                    "  verified: {} checked, {} valid, {} corrupt (corrupt records are dropped)",
                    v.checked, v.valid, v.corrupt
                );
                format!(
                    "{{\n  \"action\": \"verify\",\n  \"checked\": {},\n  \"valid\": {},\n  \"corrupt\": {}\n}}\n",
                    v.checked, v.valid, v.corrupt
                )
            }
            Err(e) => {
                eprintln!("  STORE FAILED: verify: {e}");
                std::process::exit(1);
            }
        },
        other => {
            eprintln!("unknown store action '{other}'; use one of: stats, compact, verify");
            std::process::exit(2);
        }
    };
    save("STORE_run.json", &json);
}

fn run_scaling() {
    println!("== E9: ATPG complexity scaling ==");
    match scaling::run(&[2, 4, 8, 16, 24], &[8, 16, 32]) {
        Ok(points) => {
            let text = scaling::render(&points);
            println!("{text}");
            save("atpg_scaling.txt", &text);
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
    if all || arg == "bench" {
        run_spice_bench(&tech);
    }
    if all || arg == "bench-atpg" {
        run_atpg_bench();
    }
    if all || arg == "fleet" {
        run_fleet();
    }
    // Chaos deliberately stays out of `all`: it arms process-global fault
    // injection, which must not contaminate the paper artifacts.
    if arg == "chaos" {
        run_chaos();
    }
    // Serve stays out of `all` too: it arms the process-global store and
    // consumes a job queue rather than producing a fixed paper artifact.
    if arg == "serve" {
        run_serve(std::env::args().nth(2).as_deref());
    }
    // Store maintenance operates on the serving store in place.
    if arg == "store" {
        run_store(std::env::args().nth(2).as_deref());
    }
    if !all
        && ![
            "excitation",
            "em",
            "window",
            "stats",
            "tpg",
            "fig4",
            "table1",
            "fig6",
            "fig7",
            "fig9",
            "scaling",
            "iddq",
            "bist",
            "clock",
            "scan",
            "variation",
            "monte",
            "bench",
            "bench-atpg",
            "fleet",
            "chaos",
            "serve",
            "store",
        ]
        .contains(&arg.as_str())
    {
        eprintln!(
            "unknown experiment '{arg}'; use one of: all, table1, fig4, fig6, fig7, fig9, stats, excitation, tpg, em, window, scaling, iddq, monte, bench, bench-atpg, fleet, chaos, serve, store"
        );
        std::process::exit(2);
    }
    if with_metrics {
        save("METRICS_snapshot.json", &obd_metrics::snapshot().to_json());
    }
}
