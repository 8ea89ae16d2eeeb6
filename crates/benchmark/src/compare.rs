//! `obd-benchmark compare <setA> <setB>`: the median and spread of each
//! (workload, end-to-end metric) over two sets of run files, judged
//! against the metric's bound in `BENCHMARK.json`.
//!
//! A set is every run file in one directory. Arguments may name the
//! directories or the files themselves (`setA/*.json setB/*.json`);
//! files are grouped by the directory that holds them.

use std::fs;
use std::path::{Path, PathBuf};

use crate::json::{self, Json};
use crate::stats;

/// One end-to-end metric as `BENCHMARK.json` bounds it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the first set's median by which the second may be worse.
    pub bound: f64,
}

/// Reads the end-to-end bounds from a `BENCHMARK.json` document.
///
/// # Errors
///
/// A message naming the malformed entry.
pub fn bounds(doc: &str) -> Result<Vec<Bound>, String> {
    let j = Json::parse(doc)?;
    j.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .items()
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            let (Some(name), Some(unit), Some(better), Some(bound)) = (
                text("name"),
                text("unit"),
                text("better"),
                m.get("bound").and_then(Json::as_f64),
            ) else {
                return Err(format!("malformed end_to_end entry {m:?}"));
            };
            Ok(Bound {
                name,
                unit,
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// Values of every (workload, metric) over one set of run files, in
/// first-seen order.
type Series = Vec<((String, String), Vec<f64>)>;

fn load(files: &[PathBuf]) -> Result<Series, String> {
    let mut out: Series = Vec::new();
    for f in files {
        let text = fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        let run = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        for w in run.get("workloads").map_or(&[][..], Json::items) {
            let name = w.get("workload").and_then(Json::as_str).unwrap_or("?");
            for (metric, m) in w.get("metrics").map_or(&[][..], Json::members) {
                let Some(v) = m.get("value").and_then(Json::as_f64) else {
                    continue;
                };
                let key = (name.to_string(), metric.clone());
                match out.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, vs)) => vs.push(v),
                    None => out.push((key, vec![v])),
                }
            }
        }
    }
    Ok(out)
}

/// The files named by `args`, grouped by their directory.
fn sets(args: &[String]) -> Result<Vec<(PathBuf, Vec<PathBuf>)>, String> {
    let mut sets: Vec<(PathBuf, Vec<PathBuf>)> = Vec::new();
    for a in args {
        let p = Path::new(a);
        let files = if p.is_dir() {
            let mut files: Vec<PathBuf> = fs::read_dir(p)
                .map_err(|e| format!("{a}: {e}"))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|f| {
                    let name = f.file_name().and_then(|n| n.to_str()).unwrap_or("");
                    name.starts_with("run-") && name.ends_with(".json")
                })
                .collect();
            files.sort();
            files
        } else {
            vec![p.to_path_buf()]
        };
        for f in files {
            let dir = f.parent().map(Path::to_path_buf).unwrap_or_default();
            match sets.iter_mut().find(|(d, _)| *d == dir) {
                Some((_, fs)) => fs.push(f),
                None => sets.push((dir, vec![f])),
            }
        }
    }
    Ok(sets)
}

/// One compared (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: (f64, f64),
    pub b: (f64, f64),
    /// `(b − a) / a` of the medians.
    pub delta: f64,
    pub bound: f64,
    pub verdict: &'static str,
}

/// Compares two series metric by metric. The verdict is `regression`
/// when the second median is worse than the first by more than the
/// bound, `unresolved` when either set's spread (IQR over median)
/// exceeds the bound, and `ok` otherwise.
pub fn compare(a: &Series, b: &Series, bounds: &[Bound]) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, metric), va) in a {
        let Some(bd) = bounds.iter().find(|bd| bd.name == *metric) else {
            continue;
        };
        let Some((_, vb)) = b.iter().find(|(k, _)| k.0 == *workload && k.1 == *metric) else {
            continue;
        };
        let (ma, mb) = (stats::median(va), stats::median(vb));
        let spread = |v: &[f64], m: f64| {
            if m != 0.0 {
                stats::iqr(v) / m.abs()
            } else {
                0.0
            }
        };
        let (sa, sb) = (spread(va, ma), spread(vb, mb));
        let delta = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
        let worse = if bd.lower_is_better { delta } else { -delta };
        let verdict = if worse > bd.bound {
            "regression"
        } else if sa > bd.bound || sb > bd.bound {
            "unresolved"
        } else {
            "ok"
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            unit: bd.unit.clone(),
            a: (ma, sa),
            b: (mb, sb),
            delta,
            bound: bd.bound,
            verdict,
        });
    }
    rows
}

/// Runs the subcommand; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    match try_run(args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("obd-benchmark compare: {e}");
            2
        }
    }
}

fn try_run(args: &[String]) -> Result<bool, String> {
    let doc = fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json in the current directory: {e}"))?;
    let bounds = bounds(&doc)?;
    let sets = sets(args)?;
    let [(dir_a, files_a), (dir_b, files_b)] = &sets[..] else {
        return Err(format!(
            "expected run files from exactly two directories, got {}",
            sets.len()
        ));
    };
    let rows = compare(&load(files_a)?, &load(files_b)?, &bounds);
    println!(
        "A = {} ({} runs), B = {} ({} runs); spread = IQR / median",
        dir_a.display(),
        files_a.len(),
        dir_b.display(),
        files_b.len()
    );
    println!(
        "{:<13} {:<12} {:>14} {:>8} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "A sprd", "B median", "B sprd", "delta", "bound"
    );
    for r in &rows {
        println!(
            "{:<13} {:<12} {:>14.6} {:>7.2}% {:>14.6} {:>7.2}% {:>+7.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a.0,
            100.0 * r.a.1,
            r.b.0,
            100.0 * r.b.1,
            100.0 * r.delta,
            100.0 * r.bound,
            r.verdict
        );
    }
    let ok = rows.iter().all(|r| r.verdict != "regression");
    let row = |r: &Row| {
        json::obj([
            ("workload", Json::Str(r.workload.clone())),
            ("metric", Json::Str(r.metric.clone())),
            ("unit", Json::Str(r.unit.clone())),
            ("a_median", Json::Num(r.a.0)),
            ("a_spread", Json::Num(r.a.1)),
            ("b_median", Json::Num(r.b.0)),
            ("b_spread", Json::Num(r.b.1)),
            ("delta", Json::Num(r.delta)),
            ("bound", Json::Num(r.bound)),
            ("verdict", Json::Str(r.verdict.to_string())),
        ])
    };
    let summary = json::obj([
        ("ok", Json::Bool(ok)),
        ("a_runs", Json::Num(files_a.len() as f64)),
        ("b_runs", Json::Num(files_b.len() as f64)),
        ("rows", Json::Arr(rows.iter().map(row).collect())),
    ]);
    println!("{summary}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(w: &str, m: &str, v: &[f64]) -> Series {
        vec![((w.to_string(), m.to_string()), v.to_vec())]
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let bounds = bounds(
            r#"{"end_to_end": [
                {"name": "items_per_s", "unit": "items/s", "better": "higher", "bound": 0.1},
                {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let verdict = |m: &str, a: &[f64], b: &[f64]| {
            compare(&series("t", m, a), &series("t", m, b), &bounds)[0].verdict
        };
        // Throughput falling 20 % is a regression; rising 20 % is not.
        let low: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        let high: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict("items_per_s", &steady, &low), "regression");
        assert_eq!(verdict("items_per_s", &steady, &high), "ok");
        // For a latency the same moves flip.
        assert_eq!(verdict("job_p50_ms", &steady, &high), "regression");
        assert_eq!(verdict("job_p50_ms", &steady, &low), "ok");
        // A set noisier than the bound cannot be judged.
        assert_eq!(
            verdict("job_p50_ms", &steady, &[60.0, 80.0, 100.0, 120.0, 90.0]),
            "unresolved"
        );
        // Metrics without a bound are skipped.
        assert!(compare(
            &series("t", "x", &steady),
            &series("t", "x", &steady),
            &bounds
        )
        .is_empty());
    }
}
