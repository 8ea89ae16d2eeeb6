//! EXPERIMENTS.md quotes committed artifacts; these tests read both files
//! and compare the quoted figures cell by cell, so a regenerated artifact
//! whose numbers move fails here until the prose follows.

use std::collections::BTreeMap;
use std::path::PathBuf;

fn repo_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Coverage in percent by `(circuit, strategy)`.
type Coverage = BTreeMap<(String, String), f64>;

/// The markdown table of the EXPERIMENTS.md section whose heading starts
/// with `heading`: the first word of each column header names the
/// circuit, the first cell of each row the strategy.
fn quoted_table(doc: &str, heading: &str) -> Coverage {
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with(heading))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no section {heading}"));
    let cells = |line: &str| -> Vec<String> {
        line.trim()
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().trim_matches('*').to_string())
            .collect()
    };
    let mut rows = section.lines().filter(|l| l.starts_with('|'));
    let header = cells(rows.next().expect("table header"));
    let circuits: Vec<String> = header[1..]
        .iter()
        .map(|h| {
            h.split_whitespace()
                .next()
                .expect("circuit name")
                .to_string()
        })
        .collect();
    let mut out = Coverage::new();
    for line in rows.skip(1) {
        let row = cells(line);
        assert_eq!(row.len(), circuits.len() + 1, "ragged row: {line}");
        for (circuit, cell) in circuits.iter().zip(&row[1..]) {
            let pct = cell
                .strip_suffix('%')
                .and_then(|p| p.trim().parse().ok())
                .unwrap_or_else(|| panic!("not a percentage: {cell:?} in {line}"));
            out.insert((circuit.clone(), row[0].clone()), pct);
        }
    }
    out
}

/// `results/tpg_comparison.txt`: one `--- <circuit> ... ---` block per
/// circuit, one `<strategy> <tests> <detected>/<testable> <pct>%` line
/// per strategy.
fn tpg_artifact(text: &str) -> Coverage {
    let mut out = Coverage::new();
    let mut circuit = None;
    for line in text.lines() {
        if let Some(title) = line.strip_prefix("--- ") {
            circuit = title.split_whitespace().next().map(str::to_string);
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let Some(pct) = words.last().and_then(|w| w.strip_suffix('%')) else {
            continue;
        };
        let circuit = circuit.clone().expect("strategy line before any circuit");
        let strategy = words[..words.len() - 3].join(" ");
        let pct = pct
            .parse()
            .unwrap_or_else(|_| panic!("bad coverage in {line}"));
        out.insert((circuit, strategy), pct);
    }
    out
}

#[test]
fn e8_table_matches_tpg_comparison() {
    let quoted = quoted_table(&repo_file("EXPERIMENTS.md"), "E8 ");
    let artifact = tpg_artifact(&repo_file("results/tpg_comparison.txt"));
    assert_eq!(artifact.len(), 24, "four circuits by six strategies");
    assert_eq!(
        quoted.keys().collect::<Vec<_>>(),
        artifact.keys().collect::<Vec<_>>(),
        "E8 must quote every (circuit, strategy) of the artifact, and only those"
    );
    for (key, pct) in &artifact {
        assert_eq!(
            format!("{:.1}", quoted[key]),
            format!("{pct:.1}"),
            "E8 {key:?}"
        );
    }
}

/// The text between the first `start` in `text` and the next `end` after it.
fn between<'a>(text: &'a str, start: &str, end: &str) -> &'a str {
    let (_, tail) = text
        .split_once(start)
        .unwrap_or_else(|| panic!("no {start:?} in {text:?}"));
    tail.split_once(end)
        .unwrap_or_else(|| panic!("no {end:?} after {start:?}"))
        .0
}

/// X8 quotes `results/variation.txt`: a summary line (corners, mean and
/// sigma of the fault-free delay), a header, then one `<stage> <shift> ps
/// <shift/sigma> <verdict>` line per stage. The prose must carry the
/// corner count, the mean, σ, the four shifts and the rounded σ range.
#[test]
fn x8_matches_variation() {
    let doc = repo_file("EXPERIMENTS.md");
    let x8 = between(&doc, "### X8 ", "\n### ").replace('\n', " ");
    let text = repo_file("results/variation.txt");
    let summary = text.lines().next().expect("summary line");
    let stages: Vec<Vec<&str>> = text
        .lines()
        .skip(2)
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(stages.len(), 4, "SBD and MBD1–MBD3");
    let shifts: Vec<&str> = stages.iter().map(|w| w[1]).collect();
    let z = stages
        .iter()
        .map(|w| w[3].parse::<f64>().expect("shift/sigma"));
    let (lo, hi) = z.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), z| {
        (lo.min(z), hi.max(z))
    });
    for quote in [
        format!(
            "over {} process corners",
            between(summary, "across ", " process")
        ),
        format!(
            "σ ≈ {} ps around {} ps",
            between(summary, "sigma ", " ps"),
            between(summary, "mean ", " ps")
        ),
        format!("shifts it by {} ps ({lo:.0}–{hi:.0} σ)", shifts.join("/")),
    ] {
        assert!(x8.contains(&quote), "X8 must quote {quote:?}");
    }
}

/// The last cell of the markdown table row in `section` whose first cell
/// starts with `first`, without bold markers.
fn last_cell(section: &str, first: &str) -> String {
    let line = section
        .lines()
        .find(|l| l.trim_start_matches('|').trim_start().starts_with(first))
        .unwrap_or_else(|| panic!("no table row {first:?}"));
    let cell = line.trim().trim_end_matches('|').rsplit('|').next();
    cell.expect("a cell").trim().trim_matches('*').to_string()
}

/// E6 quotes `results/stats.txt` (built from the detection matrix): the
/// measured column must carry its site and testable counts and both
/// minimal-set sizes.
#[test]
fn e6_matches_stats() {
    let doc = repo_file("EXPERIMENTS.md");
    let e6 = between(&doc, "## E6 ", "\n## ");
    let stats = repo_file("results/stats.txt");
    let sites = between(&stats, "OBD sites in NAND gates:", "(").trim();
    let testable = between(&stats, "testable OBD faults:", "(").trim();
    let all_pairs = between(&stats, "minimal set, all-pairs:", " candidates").trim();
    let single = between(&stats, "minimal set, single-input:", " candidates").trim();
    assert_eq!(last_cell(e6, "OBD sites"), sites, "E6 sites");
    assert_eq!(
        last_cell(e6, "testable OBD faults"),
        testable,
        "E6 testable"
    );
    let minimal = last_cell(e6, "minimal");
    for quote in [
        format!("{all_pairs} ordered pairs"),
        format!("({single} single-input"),
    ] {
        assert!(
            minimal.contains(&quote),
            "E6 must quote {quote:?}: {minimal}"
        );
    }
}
