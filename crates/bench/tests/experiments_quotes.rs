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
    let rows = table_rows(section);
    let header = rows.first().expect("table header");
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
    for row in &rows[1..] {
        assert_eq!(row.len(), circuits.len() + 1, "ragged row: {row:?}");
        for (circuit, cell) in circuits.iter().zip(&row[1..]) {
            let pct = cell
                .strip_suffix('%')
                .and_then(|p| p.trim().parse().ok())
                .unwrap_or_else(|| panic!("not a percentage: {cell:?} in {row:?}"));
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
    assert_quotes(
        "X8",
        &x8,
        &[
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
        ],
    );
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

/// Whether `text` quotes `quote` whole: no digit runs on at either end,
/// so a quote cannot pass inside a longer number.
fn quotes(text: &str, quote: &str) -> bool {
    text.match_indices(quote).any(|(i, _)| {
        let before = text[..i].chars().next_back();
        let after = text[i + quote.len()..].chars().next();
        !before.is_some_and(|c| c.is_ascii_digit()) && !after.is_some_and(|c| c.is_ascii_digit())
    })
}

/// Asserts that the EXPERIMENTS.md section `name` quotes each of
/// `expected`.
fn assert_quotes(name: &str, section: &str, expected: &[String]) {
    for quote in expected {
        assert!(quotes(section, quote), "{name} must quote {quote:?}");
    }
}

/// The rows of a markdown table in `section`, header first, separator
/// dropped, cells trimmed of spaces and bold markers.
fn table_rows(section: &str) -> Vec<Vec<String>> {
    section
        .lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|---"))
        .map(|l| {
            l.trim()
                .trim_matches('|')
                .split('|')
                .map(|c| c.trim().trim_matches('*').to_string())
                .collect()
        })
        .collect()
}

/// X2 quotes `results/bist.txt`: one `<circuit>/<plain|phased>
/// <testable> <atpg tests> | <patterns>-><covered> ...` line per stream.
/// The prose must name the circuits whose plain stream plateaus below
/// full coverage with their plateaus, the plain stream that does reach
/// it, each phased stream's first saturating length, the range of those
/// lengths over the ATPG test counts, and the grid of lengths.
#[test]
fn x2_matches_bist() {
    let doc = repo_file("EXPERIMENTS.md");
    let x2 = between(&doc, "### X2 ", "\n### ").replace('\n', " ");
    let text = repo_file("results/bist.txt");
    let mut plateaued = Vec::new();
    let mut ratios = Vec::new();
    let mut expected = Vec::new();
    let mut grid = Vec::new();
    for line in text.lines().skip(1) {
        let (head, curve) = line.split_once('|').expect("stream line");
        let words: Vec<&str> = head.split_whitespace().collect();
        let (circuit, stream) = words[0].split_once('/').expect("circuit/stream");
        let testable: usize = words[1].parse().expect("testable");
        let atpg: usize = words[2].parse().expect("ATPG tests");
        let points: Vec<(usize, usize)> = curve
            .split_whitespace()
            .map(|p| {
                let (n, covered) = p.split_once("->").expect("patterns->covered");
                (
                    n.parse().expect("patterns"),
                    covered.parse().expect("covered"),
                )
            })
            .collect();
        grid = points.iter().map(|&(n, _)| n.to_string()).collect();
        let full = points
            .iter()
            .find(|&&(_, c)| c == testable)
            .map(|&(n, _)| n);
        match (stream, full) {
            ("plain", None) => {
                let plateau = points.last().expect("a point").1;
                expected.push(format!("{circuit}: {plateau}/{testable}"));
                plateaued.push(circuit);
            }
            ("plain", Some(n)) => expected.push(format!(
                "{circuit}'s plain stream does reach {testable}/{testable}, at {n} patterns"
            )),
            ("phased", Some(n)) => {
                expected.push(format!("{circuit}: {testable}/{testable} at {n}"));
                ratios.push(n as f64 / atpg as f64);
            }
            _ => panic!("{line}: the phased stream never saturates"),
        }
    }
    assert_eq!(ratios.len(), 3, "fig8, rca3 and parity8");
    let (lo, hi) = ratios.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
        (lo.min(r), hi.max(r))
    });
    expected.push(format!("full coverage on {}", plateaued.join(" and ")));
    expected.push(format!("{lo:.1}–{hi:.1}× fewer"));
    expected.push(format!("on the {} grid", grid.join("/")));
    assert_quotes("X2", &x2, &expected);
}

/// X3 quotes `results/clock_sweep.txt`: each row of its table must be
/// the artifact's row at the same clock multiple, the header its four
/// stages, and the prose's margins the first and last quoted clocks.
#[test]
fn x3_matches_clock_sweep() {
    let doc = repo_file("EXPERIMENTS.md");
    let x3 = between(&doc, "### X3 ", "\n### ");
    let text = repo_file("results/clock_sweep.txt");
    let (header, body) = text.split_once('\n').expect("header line");
    let stages: Vec<&str> = header
        .split_once('|')
        .expect("stage columns")
        .1
        .split_whitespace()
        .collect();
    let artifact: BTreeMap<String, Vec<String>> = body
        .lines()
        .take_while(|l| l.contains('|'))
        .map(|l| {
            let (clock, cells) = l.split_once('|').expect("clock row");
            let multiple = between(clock, "(", "x)").to_string();
            (
                multiple,
                cells.split_whitespace().map(str::to_string).collect(),
            )
        })
        .collect();
    assert_eq!(artifact.len(), 6, "six clock multiples");
    let rows = table_rows(x3);
    assert_eq!(rows[0][1..], stages, "X3 header");
    assert!(rows.len() > 2, "X3 quotes at least two clocks");
    for row in &rows[1..] {
        let multiple = row[0].strip_suffix('×').expect("a clock multiple");
        let want = artifact
            .get(multiple)
            .unwrap_or_else(|| panic!("X3 quotes a clock the sweep lacks: {multiple}"));
        assert_eq!(&row[1..], want, "X3 row {multiple}×");
    }
    // The tightest quoted clock sees soft breakdown; the loosest sees
    // only the last stage.
    let (first, last) = (&rows[1], &rows[rows.len() - 1]);
    let detected = |cell: &str| !cell.starts_with("0/");
    assert!(
        detected(&first[1]),
        "X3: soft breakdown unseen at {}",
        first[0]
    );
    assert!(last[1..4].iter().all(|c| !detected(c)) && detected(&last[4]));
    let multiple = |row: &[String]| -> f64 {
        row[0]
            .trim_end_matches('×')
            .parse()
            .expect("a clock multiple")
    };
    assert_quotes(
        "X3",
        &x3.replace('\n', " "),
        &[
            format!("{:.0} % timing margin", (multiple(first) - 1.0) * 100.0),
            format!("{}× margin", multiple(last)),
        ],
    );
}

/// X5 quotes `results/scan.txt`: one `<circuit> <natural> <best>
/// <order>` line per circuit. The prose must carry each natural-chain
/// coverage and best order, and the best order must reach full coverage
/// where the natural one loses some.
#[test]
fn x5_matches_scan() {
    let doc = repo_file("EXPERIMENTS.md");
    let x5 = between(&doc, "### X5 ", "\n### ").replace('\n', " ");
    let text = repo_file("results/scan.txt");
    let mut expected = Vec::new();
    for line in text.lines().skip(1).take_while(|l| !l.trim().is_empty()) {
        let words: Vec<&str> = line.split_whitespace().collect();
        let (circuit, natural, best) = (words[0], words[1], words[2]);
        let order: String = words[3..].concat();
        let (found, testable) = best.split_once('/').expect("best coverage");
        assert_eq!(found, testable, "X5: {circuit}'s best order is not full");
        assert_ne!(natural, best, "X5: {circuit}'s natural order loses nothing");
        expected.push(format!("{circuit}: {natural}"));
        expected.push(format!("{circuit} with {order}"));
    }
    assert_eq!(expected.len(), 4, "fig8 and c17");
    assert_quotes("X5", &x5, &expected);
}

/// E10 quotes `results/detection_window.txt`: one `<slack> [<open>h,
/// <close>h] ...` row per slack, the NMOS window first, then the PMOS
/// window. The prose must carry the NMOS opening hours at 10 and 100 ps,
/// the window's close (the reference progression's length), the slacks
/// up to which the PMOS window opens no later than the NMOS one and from
/// which it opens earlier, the PMOS opening at 100 ps against the NMOS
/// one, and both openings at 200 ps, where the order has flipped.
#[test]
fn e10_matches_detection_window() {
    let doc = repo_file("EXPERIMENTS.md");
    let e10 = between(&doc, "## E10 ", "\n## ").replace('\n', " ");
    let text = repo_file("results/detection_window.txt");
    // slack (ps) -> [NMOS, PMOS] windows as (open, close) hours.
    let windows: BTreeMap<u32, [(f64, f64); 2]> = text
        .lines()
        .skip(1)
        .map(|line| {
            let (slack, rest) = line.trim().split_once(' ').expect("slack column");
            let hours = |w: &str| -> (f64, f64) {
                let (open, close) = w
                    .split_once(']')
                    .expect("window")
                    .0
                    .split_once(',')
                    .expect("open, close");
                let hour = |h: &str| h.trim().trim_end_matches('h').parse().expect("hours");
                (hour(open), hour(close))
            };
            let mut cols = rest.split('[').skip(1);
            let nmos = hours(cols.next().expect("NMOS window"));
            let pmos = hours(cols.next().expect("PMOS window"));
            (slack.parse().expect("slack"), [nmos, pmos])
        })
        .collect();
    let open = |slack: u32, pmos: bool| windows[&slack][usize::from(pmos)].0;
    let close = windows[&10][0].1;
    // The PMOS window opens no later than the NMOS one on a prefix of the
    // slacks (later above it), and strictly earlier from some slack on.
    let no_later: Vec<u32> = windows
        .iter()
        .filter(|(_, [nmos, pmos])| pmos.0 <= nmos.0)
        .map(|(&slack, _)| slack)
        .collect();
    assert!(
        windows.keys().take(no_later.len()).eq(&no_later),
        "E10: the PMOS window opens later below a slack where it opens no later"
    );
    let up_to = *no_later.last().expect("a slack where PMOS opens no later");
    let earlier = |slack: &u32| windows[slack][1].0 < windows[slack][0].0;
    let from = *no_later
        .iter()
        .find(|s| earlier(s))
        .expect("PMOS opens earlier");
    assert!(no_later.iter().filter(|&&s| s >= from).all(earlier));
    assert_quotes(
        "E10",
        &e10,
        &[
            format!("Linder {close} h"),
            format!(
                "a 10 ps-slack detector sees an NMOS defect from hour {}",
                open(10, false)
            ),
            format!(
                "a 100 ps-slack detector only from hour {} of {close}",
                open(100, false)
            ),
            format!("up to {up_to} ps of slack, and earlier from {from} ps on"),
            format!(
                "hour {} against {} at 100 ps",
                open(100, true),
                open(100, false)
            ),
            format!(
                "at 200 ps the PMOS window opens at hour {}, the NMOS window at {}",
                open(200, true),
                open(200, false)
            ),
        ],
    );
}

/// E11 quotes `results/em_contrast.txt`: one `<cell> <EM incidences>
/// <shared> <EM-only fraction>%` row per cell, then the EM-only
/// sequences per transistor. The prose must carry the NAND2, NAND3 and
/// AOI22 fractions and, as its example, the first NAND2 EM-only
/// sequence.
#[test]
fn e11_matches_em_contrast() {
    let doc = repo_file("EXPERIMENTS.md");
    let e11 = between(&doc, "## E11 ", "\n## ").replace('\n', " ");
    let text = repo_file("results/em_contrast.txt");
    let fractions: BTreeMap<&str, f64> = text
        .lines()
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            let pct = words[3].strip_suffix('%').expect("a percentage");
            (words[0], pct.parse().expect("EM-only fraction"))
        })
        .collect();
    let example = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("NAND2 ")?.split_once(": "))
        .and_then(|(_, seqs)| seqs.split_whitespace().next())
        .expect("a NAND2 EM-only sequence");
    assert_quotes(
        "E11",
        &e11,
        &[
            format!("but {} % of EM-exciting sequences", fractions["NAND2"]),
            format!("e.g. {example}"),
            format!("{} % for NAND3", fractions["NAND3"]),
            format!("{} % for AOI22", fractions["AOI22"]),
        ],
    );
}

/// Every `(…)` group in `text`: the sequences of an excitation set,
/// whether quoted as `{(00,11),(01,11)}` or listed as `(00,11) (01,11)`.
fn sequences(text: &str) -> Vec<String> {
    text.split('(')
        .skip(1)
        .map(|t| format!("({})", t.split_once(')').expect("a closing parenthesis").0))
        .collect()
}

/// E7 quotes `results/excitation.txt`: a `<cell>:` line, then one
/// `<NMOS|PMOS> pin<k>: <sequences>` line per transistor and the
/// minimal set. The prose must carry NAND2's NMOS set, its two PMOS
/// singletons and its three-sequence minimal set (one falling sequence
/// and both PMOS ones), NOR2's PMOS set and its input-specific NMOS
/// sequences, and the size of NAND3's minimal set.
#[test]
fn e7_matches_excitation() {
    let doc = repo_file("EXPERIMENTS.md");
    let e7 = between(&doc, "## E7 ", "\n## ").replace('\n', " ");
    let text = repo_file("results/excitation.txt");
    // (cell, transistor or "minimal") -> sorted sequences.
    let mut sets: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    let mut cell = String::new();
    for line in text.lines() {
        if let Some(name) = line.strip_suffix(':').filter(|_| !line.starts_with(' ')) {
            cell = name.to_string();
            continue;
        }
        let (what, seqs) = line.trim().split_once(": ").expect("a labelled set");
        let what = if what.starts_with("minimal") {
            "minimal"
        } else {
            what
        };
        let mut seqs = sequences(seqs);
        seqs.sort();
        sets.insert((cell.clone(), what.to_string()), seqs);
    }
    let set = |cell: &str, what: &str| -> &Vec<String> {
        sets.get(&(cell.to_string(), what.to_string()))
            .unwrap_or_else(|| panic!("excitation.txt has no {cell} {what}"))
    };
    let quoted = |at: &str| -> Vec<String> {
        let mut seqs = sequences(between(&e7, at, "}"));
        seqs.sort();
        seqs
    };

    let nand2_nmos = set("NAND2", "NMOS pin0");
    assert_eq!(set("NAND2", "NMOS pin1"), nand2_nmos, "NAND2 NMOS pins");
    assert_eq!(&quoted("NAND2 NMOS: {"), nand2_nmos, "E7 NAND2 NMOS");
    let (pmos_a, pmos_b) = (set("NAND2", "PMOS pin0"), set("NAND2", "PMOS pin1"));
    assert_eq!(&quoted("PMOS-A: {"), pmos_a, "E7 NAND2 PMOS-A");
    assert_eq!(&quoted("PMOS-B: {"), pmos_b, "E7 NAND2 PMOS-B");
    let minimal = set("NAND2", "minimal");
    let falling = minimal.iter().filter(|s| nand2_nmos.contains(s)).count();
    assert_eq!(falling, 1, "NAND2's minimal set: one falling sequence");
    assert!(pmos_a.iter().chain(pmos_b).all(|s| minimal.contains(s)));

    let nor2_pmos = set("NOR2", "PMOS pin0");
    assert_eq!(set("NOR2", "PMOS pin1"), nor2_pmos, "NOR2 PMOS pins");
    assert_eq!(&quoted("NOR2 dual: PMOS {"), nor2_pmos, "E7 NOR2 PMOS");
    let (nmos_a, nmos_b) = (set("NOR2", "NMOS pin0"), set("NOR2", "NMOS pin1"));
    assert!(
        nmos_a.len() == 1 && nmos_b.len() == 1 && nmos_a != nmos_b,
        "NOR2's NMOS sequences are not input-specific: {nmos_a:?} {nmos_b:?}"
    );
    assert_quotes(
        "E7",
        &e7,
        &[
            "NMOS input-specific".to_string(),
            format!("both PMOS sequences ({})", minimal.len()),
            format!("NAND3 minimal set = {}", set("NAND3", "minimal").len()),
        ],
    );
}

/// E9 quotes `results/atpg_scaling_counts.txt`: a header, then one
/// `<circuit> <gates> <stuck-at tests> <OBD tests> <aborted>` row per
/// circuit. The prose must carry the smallest and largest gate counts,
/// and the aborted column must be all zeros, as the prose says.
#[test]
fn e9_matches_atpg_scaling_counts() {
    let doc = repo_file("EXPERIMENTS.md");
    let e9 = between(&doc, "## E9 ", "\n## ").replace('\n', " ");
    let text = repo_file("results/atpg_scaling_counts.txt");
    let rows: Vec<Vec<u64>> = text
        .lines()
        .skip(1)
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .map(|w| w.parse().expect("a count"))
                .collect()
        })
        .collect();
    assert_eq!(rows.len(), 8, "five adders and three parity trees");
    let gates = rows.iter().map(|r| r[0]);
    let (lo, hi) = (
        gates.clone().min().expect("a row"),
        gates.max().expect("a row"),
    );
    let aborted: u64 = rows.iter().map(|r| r[3]).sum();
    assert_eq!(aborted, 0, "E9 says zero aborted faults");
    assert_quotes(
        "E9",
        &e9,
        &[
            format!("({lo} → {hi} gates)"),
            "with zero aborted faults".to_string(),
        ],
    );
}

/// X1 quotes `results/iddq.txt`: a `healthy IDDQ: <µA> µA` line, a
/// header, then one `<stage> <NMOS µA> <PMOS µA|N/A>` row per stage.
/// The prose must carry the healthy current, the NMOS SBD current and
/// the largest NMOS (HBD) and PMOS (MBD3) currents, in whole µA.
#[test]
fn x1_matches_iddq() {
    let doc = repo_file("EXPERIMENTS.md");
    let x1 = between(&doc, "### X1 ", "\n### ").replace('\n', " ");
    let text = repo_file("results/iddq.txt");
    let healthy: f64 = between(&text, "healthy IDDQ:", "µA")
        .trim()
        .parse()
        .expect("healthy IDDQ");
    let stages: BTreeMap<&str, Vec<&str>> = text
        .lines()
        .skip(2)
        .map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            (words[0], words[1..].to_vec())
        })
        .collect();
    let current =
        |stage: &str, column: usize| -> f64 { stages[stage][column].parse().expect("a current") };
    assert_quotes(
        "X1",
        &x1,
        &[
            format!("IDDQ ≈ {healthy:.0} µA"),
            format!("{:.0} µA at SBD", current("SBD", 0)),
            format!("{:.0} µA (NMOS, HBD)", current("HBD", 0)),
            format!("{:.0} µA (PMOS, MBD3)", current("MBD3", 1)),
        ],
    );
}

/// A table cell in one spelling for prose and artifact: unit dropped,
/// lower case, spaces as dashes (`102 ps` and `102ps` both read `102`,
/// `Fault Free` reads `fault-free`).
fn cell_key(cell: &str) -> String {
    cell.trim_end_matches("ps")
        .trim()
        .to_lowercase()
        .replace(' ', "-")
}

/// E2 quotes `results/table1.txt`: a `stage | <sequence> <pin> | ...`
/// header, then one row per stage. Each cell of the measured table must
/// be the artifact's at the same stage and column, and the NMOS ladder
/// ratio the rounded range of MBD1–MBD3 over fault-free in (01,11) NA.
#[test]
fn e2_table_matches_table1() {
    let doc = repo_file("EXPERIMENTS.md");
    let e2 = between(&doc, "## E2 ", "\n## ");
    let keyed = |rows: Vec<Vec<String>>| -> Vec<Vec<String>> {
        let key_row = |row: Vec<String>| row.iter().map(|c| cell_key(c)).collect();
        rows.into_iter().map(key_row).collect()
    };
    let text = repo_file("results/table1.txt");
    let artifact = keyed(table_rows(
        &text.lines().map(|l| format!("|{l}\n")).collect::<String>(),
    ));
    let quoted = keyed(table_rows(e2.split_once("Measured (").expect("measured").1));
    assert_eq!(quoted.len(), 6, "E2 quotes every stage");
    let column = |name: &str| artifact[0].iter().position(|h| h == name).expect(name);
    for (q, a) in quoted.iter().zip(&artifact) {
        assert_eq!(q[0], a[0], "E2 stage order");
        for (name, cell) in quoted[0].iter().zip(q).skip(1) {
            assert_eq!(cell, &a[column(name)], "E2 {} {name}", q[0]);
        }
    }
    // Rows 1–4: fault-free, MBD1, MBD2, MBD3.
    let na = column("(01,11)-na");
    let delay = |row: usize| -> f64 { artifact[row][na].parse().expect("an NA delay") };
    let ratios: Vec<f64> = (2..=4).map(|row| delay(row) / delay(1)).collect();
    let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ratios.iter().copied().fold(0.0, f64::max);
    assert_quotes(
        "E2",
        &e2.replace('\n', " "),
        &[format!("({lo:.0}–{hi:.0}× vs")],
    );
}

/// E5 quotes `results/fig9.txt`: a header, then one `<polarity> <pin>
/// <sequence> <fault-free> <faulty>` line per defect, in the order of
/// the quoted table's rows.
#[test]
fn e5_table_matches_fig9() {
    let doc = repo_file("EXPERIMENTS.md");
    let quoted = table_rows(between(&doc, "## E5 ", "\n## "));
    let text = repo_file("results/fig9.txt");
    let artifact: Vec<&str> = text.lines().skip(1).collect();
    assert_eq!(quoted.len(), artifact.len() + 1, "E5 quotes every defect");
    for (q, a) in quoted[1..].iter().zip(artifact) {
        let w: Vec<&str> = a.split_whitespace().collect();
        let a = format!("{} {}|{}", w[0], w[1], w[2..].join("|"));
        assert_eq!(q.join("|").replace(" ps", "ps"), a, "E5 row");
    }
}

/// X7 quotes the model comparison that closes
/// `results/clock_sweep.txt`: one `<clock ps> <static-slack>
/// <timing-accurate>` row per clock, whose margin the sweep rows above
/// give as `<clock>ps (<multiple>x)`. The prose must carry the tightest
/// clock's two counts, the margins where the models agree on a nonzero
/// count, and those where they split.
#[test]
fn x7_matches_clock_sweep() {
    let doc = repo_file("EXPERIMENTS.md");
    let x7 = between(&doc, "### X7 ", "\n### ").replace('\n', " ");
    let text = repo_file("results/clock_sweep.txt");
    let (sweep, comparison) = text.split_once("clock(ps)").expect("the model comparison");
    let margin: BTreeMap<&str, f64> = sweep
        .lines()
        .filter(|l| l.contains("x)"))
        .map(|l| {
            let clock = l.split_whitespace().next().expect("a clock");
            let multiple: f64 = between(l, "(", "x)").parse().expect("a multiple");
            (clock.trim_end_matches("ps"), (multiple - 1.0) * 100.0)
        })
        .collect();
    let rows: Vec<(f64, &str, &str)> = comparison
        .lines()
        .filter_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [clock, fixed, timed] => Some((margin[clock], fixed, timed)),
            _ => None,
        })
        .collect();
    assert_eq!(rows.len(), 5, "five compared clocks");
    let (m, fixed, timed) = rows[0];
    let mut expected = vec![format!(
        "at a {m:.0} % clock margin it claims {fixed} detections where the timed reference confirms {timed}"
    )];
    let agree: Vec<_> = rows[1..]
        .iter()
        .filter(|r| r.1 == r.2 && r.1 != "0")
        .collect();
    let margins: Vec<String> = agree.iter().map(|r| format!("{:.0} %", r.0)).collect();
    let count = agree.first().expect("a clock where the models agree").1;
    expected.push(format!(
        "at {} margins the two agree exactly ({count}/{count})",
        margins.join(" and ")
    ));
    for (m, fixed, timed) in rows[1..].iter().filter(|r| r.1 != r.2) {
        expected.push(format!("at {m:.0} % they split {fixed} vs {timed}"));
    }
    assert_quotes("X7", &x7, &expected);
}
