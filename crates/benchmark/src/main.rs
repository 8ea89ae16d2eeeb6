//! `obd-benchmark`: seeded end-to-end and per-layer benchmark of the
//! analog, grading and fleet layers.
//!
//! ```text
//! obd-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
//!               [--smoke] [--bless]
//! obd-benchmark compare <setA/*.json> <setB/*.json>
//! ```
//!
//! Each workload runs in child processes of its own, one at a time,
//! with every `OBD_*` variable removed from their environment. The
//! parent merges their reports, prints `workload metric value unit`
//! lines, writes `results/benchmark/run-<ms>.json`, and ends its output
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! It exits nonzero when a check fails or a job fails.

mod calibrate;
mod calls;
mod child;
mod compare;
mod golden;
mod json;
mod stats;
mod trace;
mod workload;

use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use json::Json;
use workload::{Workload, DEFAULT_SEED};

/// Where runs, traces and the workloads' scratch directories go,
/// relative to the working directory.
pub const OUT_DIR: &str = "results/benchmark";
/// Seconds each workload's timed phase lasts unless `--seconds` says.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: obd-benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--bless]\n       \
                     obd-benchmark compare <setA/*.json> <setB/*.json>\n\
                     workloads: table1, fig9, grade_drop, grade_matrix, fleet";

struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
    part: usize,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        bless: false,
        part: 0,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                o.workloads
                    .push(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds >= 0.0 && o.seconds <= 120.0) {
                    return Err("--seconds must lie in 0..=120".to_string());
                }
            }
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--part" => o.part = value()?.parse().map_err(|e| format!("--part: {e}"))?,
            "--smoke" => o.smoke = true,
            "--bless" => o.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = Workload::ALL.to_vec();
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some("child") => run_child(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            0
        }
        _ => match parse(&args) {
            Ok(o) => run_parent(&o),
            Err(e) => {
                eprintln!("obd-benchmark: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

/// The workload process: prints its report as the last stdout line.
fn run_child(args: &[String]) -> i32 {
    let result = parse(args).and_then(|o| {
        let [workload] = o.workloads[..] else {
            return Err("a child runs exactly one workload".to_string());
        };
        child::run(child::Args {
            workload,
            seed: o.seed,
            seconds: o.seconds,
            trace: o.trace,
            smoke: o.smoke,
            bless: o.bless,
            part: o.part,
        })
    });
    match result {
        Ok(report) => {
            println!("{report}");
            0
        }
        Err(e) => {
            eprintln!("obd-benchmark child: {e}");
            2
        }
    }
}

fn run_parent(o: &Opts) -> i32 {
    match try_parent(o) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("obd-benchmark: {e}");
            2
        }
    }
}

fn try_parent(o: &Opts) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut removed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("OBD_"))
        .collect();
    removed.sort();
    fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    println!(
        "obd-benchmark: seed {}, nproc {nproc}, {} s per workload, {}{}",
        o.seed,
        o.seconds,
        if o.trace { "traced" } else { "untraced" },
        if o.smoke { ", smoke sizes" } else { "" }
    );
    if removed.is_empty() {
        println!("env: no OBD_* variables to remove");
    } else {
        println!(
            "env: removed {} from the workload environment",
            removed.join(", ")
        );
    }

    let parts = workload::Size { smoke: o.smoke }.parts();
    let mut reports = Vec::new();
    for &w in &o.workloads {
        let mut part_reports = Vec::new();
        for part in 0..parts {
            part_reports.push(run_part(o, &exe, &removed, w, part, parts)?);
        }
        let report = merge(part_reports);
        print_report(w.name(), &report);
        reports.push(report);
    }

    let correct = reports
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    let count = |key: &str| -> u64 {
        reports
            .iter()
            .map(|r| r.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64)
            .sum()
    };
    let (attempted, failed) = (count("attempted"), count("failed"));

    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let run_path = Path::new(OUT_DIR).join(format!("run-{stamp}.json"));
    let env: Vec<String> = removed.iter().map(|k| json::quote(k)).collect();
    let bodies: Vec<String> = reports.iter().map(Json::to_string).collect();
    let run = format!(
        "{{\"schema\": \"obd-benchmark.run.v1\", \"created_unix_ms\": {stamp}, \"seed\": {}, \
         \"seconds\": {}, \"traced\": {}, \"smoke\": {}, \"nproc\": {nproc}, \
         \"env_removed\": [{}], \"correct\": {correct}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"workloads\": [\n{}\n]}}\n",
        o.seed,
        json::num(o.seconds),
        o.trace,
        o.smoke,
        env.join(", "),
        bodies.join(",\n")
    );
    fs::write(&run_path, run).map_err(|e| format!("writing {}: {e}", run_path.display()))?;
    println!("run file: {}", run_path.display());

    // The final line carries the end-to-end metrics of an untraced run
    // and the per-layer metrics of a traced one, keyed by metric name;
    // with more than one workload each key is prefixed by the workload.
    let section = if o.trace { "layers" } else { "metrics" };
    let mut metrics = Vec::new();
    for r in &reports {
        let w = r.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (name, m) in r.get(section).map_or(&[][..], Json::members) {
            let key = if reports.len() == 1 {
                name.clone()
            } else {
                format!("{w}.{name}")
            };
            metrics.push((key, m.clone()));
        }
    }
    let last = json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{last}");
    Ok(correct && failed == 0)
}

/// Runs part `part` of `parts` of workload `w` in a child process with
/// the `removed` variables taken out of its environment, and returns its
/// report.
fn run_part(
    o: &Opts,
    exe: &Path,
    removed: &[String],
    w: Workload,
    part: usize,
    parts: usize,
) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &(o.seconds / parts as f64).to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        .args(["--part", &part.to_string()]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    if o.bless {
        cmd.arg("--bless");
    }
    for k in removed {
        cmd.env_remove(k);
    }
    let proc = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting the {} workload: {e}", w.name()))?;
    let pid = proc.id();
    let out = proc
        .wait_with_output()
        .map_err(|e| format!("waiting for the {} workload: {e}", w.name()))?;
    let _ = fs::remove_dir_all(child::scratch_dir(pid));
    if !out.status.success() {
        return Err(format!(
            "the {} workload exited with {}",
            w.name(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Json::parse(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("the {} workload's report: {e}", w.name()))
}

/// One workload's report from its parts' reports. Each metric and
/// statistic is the median over the parts that report it, job counts are
/// summed, problems and errors are gathered, and `failed_frac` and
/// `job_tail_ms` are taken over every part's jobs. The rest comes from
/// part 0, which checked and traced. The parts' own reports are kept
/// under `parts`.
fn merge(parts: Vec<Json>) -> Json {
    let first = &parts[0];
    let all = |key: &str| -> Vec<&Json> { parts.iter().filter_map(|p| p.get(key)).collect() };
    let mut members = Vec::new();
    for (key, v) in first.members() {
        let merged = match key.as_str() {
            "metrics" | "stats" => Json::Obj(
                v.members()
                    .iter()
                    .map(|(name, m)| {
                        let values: Vec<f64> = all(key)
                            .iter()
                            .filter_map(|ms| ms.get(name)?.get("value")?.as_f64())
                            .collect();
                        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                        (name.clone(), json::metric(stats::median(&values), unit))
                    })
                    .collect(),
            ),
            "correct" => Json::Bool(all(key).iter().all(|c| c.as_bool() == Some(true))),
            "attempted" | "failed" => Json::Num(all(key).iter().filter_map(|c| c.as_f64()).sum()),
            "problems" | "errors" => {
                Json::Arr(all(key).iter().flat_map(|c| c.items().to_vec()).collect())
            }
            "job_ms" | "ref_ms" => continue,
            _ => v.clone(),
        };
        members.push((key.clone(), merged));
    }
    let mut merged = Json::Obj(members);

    let nominal: Vec<f64> = parts
        .iter()
        .flat_map(|p| {
            let times = |key| p.get(key).map_or(&[][..], Json::items).iter();
            times("job_ms")
                .zip(times("ref_ms"))
                .filter_map(|(j, r)| Some(calibrate::nominal(j.as_f64()?, r.as_f64()?)))
        })
        .collect();
    let tail = stats::tail(&nominal);
    let count = |key| merged.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let failed_frac = count("failed") / count("attempted").max(1.0);
    if let Some(mut s) = merged.get("stats").cloned() {
        s.set("failed_frac", json::metric(failed_frac, "ratio"));
        merged.set("stats", s);
    }
    merged.set("jobs_succeeded", Json::Num(nominal.len() as f64));
    merged.set(
        "tail_percentile",
        tail.map_or(Json::Null, |t| Json::Num(t.percentile)),
    );
    for section in ["stats", "layers"] {
        if let Some(mut s) = merged.get(section).cloned() {
            if section == "stats" || !s.members().is_empty() {
                s.set(
                    "job_tail_ms",
                    json::metric(tail.map_or(0.0, |t| t.value * 1e3), "ms"),
                );
                merged.set(section, s);
            }
        }
    }
    merged.set("parts", Json::Arr(parts));
    merged
}

/// `workload metric value unit` lines for one workload's report, then its
/// checks and problems.
fn print_report(w: &str, r: &Json) {
    let section = |key: &str| r.get(key).map_or(&[][..], Json::members);
    let value = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
    let unit = |m: &Json| {
        m.get("unit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    println!(
        "{w}: {} threads, {} jobs attempted, {} failed",
        r.get("threads").and_then(Json::as_f64).unwrap_or(0.0),
        r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        r.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
    );
    for key in ["metrics", "stats", "layers"] {
        for (name, m) in section(key) {
            let tail = r.get("tail_percentile").and_then(Json::as_f64);
            let note = match tail {
                Some(p) if name == "job_tail_ms" => format!(
                    " (p{p} of {} jobs)",
                    r.get("jobs_succeeded")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                ),
                _ => String::new(),
            };
            println!("{w} {name} {} {}{note}", value(m), unit(m));
        }
    }
    let part_p50: Vec<String> = r
        .get("parts")
        .map_or(&[][..], Json::items)
        .iter()
        .filter_map(|p| p.get("metrics")?.get("job_p50_ms")?.get("value")?.as_f64())
        .map(|v| format!("{v:.3}"))
        .collect();
    println!("{w} parts job_p50_ms {}", part_p50.join(" "));
    for (name, m) in section("self_ms_per_item") {
        println!("{w} self {name} {} {}", value(m), unit(m));
    }
    for (key, label) in [
        ("checks", "check"),
        ("problems", "PROBLEM"),
        ("errors", "ERROR"),
    ] {
        for c in r.get(key).map_or(&[][..], Json::items) {
            println!("{w} {label} {}", c.as_str().unwrap_or(""));
        }
    }
}
