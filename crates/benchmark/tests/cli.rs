//! End-to-end runs of the `obd-benchmark` binary: a traced smoke run of
//! every workload, and `compare` over two hand-made sets of run files.
//! Each test works in its own temporary directory, since the binary
//! writes under `results/benchmark` of its working directory.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use json::Json;

const WORKLOADS: [&str; 5] = ["table1", "fig9", "grade_drop", "grade_matrix", "fleet"];

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obd-benchmark-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    Json::parse(&fs::read_to_string(path).unwrap()).unwrap()
}

fn names(list: &Json) -> Vec<String> {
    list.items()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn run(dir: &Path, args: &[&str]) -> (Output, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_obd-benchmark"))
        .args(args)
        .current_dir(dir)
        .env("OBD_METRICS", "1")
        .env("OBD_STORE_DIR", dir.join("inherited-store"))
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    (out, stdout)
}

#[test]
fn traced_smoke_run_checks_every_workload_and_prints_every_metric() {
    let dir = workdir("smoke");
    let (out, stdout) = run(&dir, &["--smoke", "--trace"]);
    assert!(
        out.status.success(),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The inherited variables were reported and kept from the workloads:
    // an armed global store would have created its directory.
    assert!(
        stdout.contains("env: removed OBD_METRICS, OBD_STORE_DIR from the workload environment")
    );
    assert!(!dir.join("inherited-store").exists());
    assert!(!stdout.contains("PROBLEM"), "{stdout}");

    // `workload metric value unit` for every end-to-end metric.
    let bench = benchmark_json();
    let e2e = bench.get("end_to_end").unwrap();
    for w in WORKLOADS {
        for m in e2e.items() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let unit = m.get("unit").and_then(Json::as_str).unwrap();
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&format!("{w} {name} ")))
                .unwrap_or_else(|| panic!("no {w} {name} line in\n{stdout}"));
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 4, "{line}");
            assert!(fields[2].parse::<f64>().unwrap() > 0.0, "{line}");
            assert_eq!(fields[3], unit, "{line}");
        }
    }

    // The last line: exactly the four keys, and with tracing on, every
    // per-layer metric of every workload.
    let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = last.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(last.get("attempted").and_then(Json::as_f64), Some(10.0));
    assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics: Vec<&str> = last
        .get("metrics")
        .unwrap()
        .members()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let expected: Vec<String> = WORKLOADS
        .iter()
        .flat_map(|w| {
            names(bench.get("per_layer").unwrap())
                .into_iter()
                .map(move |n| format!("{w}.{n}"))
        })
        .collect();
    assert_eq!(metrics, expected);

    // The run file records the host, the seed and each workload's
    // threads, and the traced decompositions attribute the job wall to
    // named layer spans.
    let out_dir = dir.join("results/benchmark");
    let run_file = fs::read_dir(&out_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with("run-"))
        .expect("a run file");
    let run = Json::parse(&fs::read_to_string(run_file).unwrap()).unwrap();
    assert_eq!(run.get("seed").and_then(Json::as_f64), Some(1.0));
    assert!(run.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
    let reports = run.get("workloads").unwrap().items();
    assert_eq!(reports.len(), 5);
    for (r, w) in reports.iter().zip(WORKLOADS) {
        assert_eq!(r.get("workload").and_then(Json::as_str), Some(w));
        let threads = r.get("threads").and_then(Json::as_f64).unwrap();
        assert!((1.0..=2.0).contains(&threads), "{w}: {threads} threads");
        let attributed = r
            .get("layers")
            .and_then(|l| l.get("trace.attributed_pct"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(attributed >= 90.0, "{w}: {attributed} % attributed");
        let trace = out_dir.join(format!("trace-{w}.json"));
        assert!(Json::parse(&fs::read_to_string(trace).unwrap()).is_ok());
    }
    let leftovers: Vec<PathBuf> = fs::read_dir(&out_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "scratch left behind: {leftovers:?}");
    let _ = fs::remove_dir_all(&dir);
}

fn run_file(dir: &Path, name: &str, items_per_s: f64, job_p50_ms: f64) {
    fs::create_dir_all(dir).unwrap();
    let text = format!(
        r#"{{"workloads": [{{"workload": "fig9", "metrics": {{
            "items_per_s": {{"value": {items_per_s}, "unit": "items/s"}},
            "job_p50_ms": {{"value": {job_p50_ms}, "unit": "ms"}}}}}}]}}"#
    );
    fs::write(dir.join(name), text).unwrap();
}

#[test]
fn compare_judges_set_medians_against_the_bounds() {
    let dir = workdir("compare");
    fs::copy(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json"),
        dir.join("BENCHMARK.json"),
    )
    .unwrap();
    for (i, v) in [10.0, 10.1, 9.9, 10.05, 9.95].iter().enumerate() {
        run_file(&dir.join("a"), &format!("run-{i}.json"), *v, 1000.0 / v);
        run_file(
            &dir.join("same"),
            &format!("run-{i}.json"),
            v * 1.01,
            1000.0 / (v * 1.01),
        );
        run_file(
            &dir.join("slow"),
            &format!("run-{i}.json"),
            v * 0.7,
            1000.0 / (v * 0.7),
        );
    }

    let (out, stdout) = run(&dir, &["compare", "a", "same"]);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("ok").and_then(Json::as_bool), Some(true));
    let rows = last.get("rows").unwrap().items();
    assert_eq!(rows.len(), 2);
    let median = rows[0].get("a_median").and_then(Json::as_f64).unwrap();
    assert!((median - 10.0).abs() < 1e-9);

    // Globbed files group by their directory.
    let files =
        |set: &str| -> Vec<String> { (0..5).map(|i| format!("{set}/run-{i}.json")).collect() };
    let mut args = vec!["compare".to_string()];
    args.extend(files("a"));
    args.extend(files("slow"));
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (out, stdout) = run(&dir, &args);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert_eq!(stdout.matches(" regression").count(), 2, "{stdout}");

    let (out, _) = run(&dir, &["compare", "a"]);
    assert_eq!(out.status.code(), Some(2));
    let _ = fs::remove_dir_all(&dir);
}
