//! Golden outputs of the default seed, one text file per workload under
//! `golden/` in this crate.
//!
//! A line is `<job> <fields…> <value>`. Analog values are delays in ps
//! and match within [`TOLERANCE_PS`]; every other field, and every value
//! that is not a number (stuck verdicts, digests of digital outputs),
//! must match exactly.

use std::fs;
use std::path::PathBuf;

use crate::workload::Workload;

/// How far an analog delay may move before it counts as a mismatch.
pub const TOLERANCE_PS: f64 = 0.5;

fn path(w: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.txt", w.name()))
}

/// Rewrites the golden file of `w`.
///
/// # Errors
///
/// File-system errors, rendered.
pub fn bless(w: Workload, lines: &[String]) -> Result<PathBuf, String> {
    let p = path(w);
    let mut text = format!(
        "# obd-benchmark golden outputs: {}, default seed\n",
        w.name()
    );
    for l in lines {
        text.push_str(l);
        text.push('\n');
    }
    fs::write(&p, text).map_err(|e| format!("writing {}: {e}", p.display()))?;
    Ok(p)
}

/// Compares `lines` with the golden file of `w`. Returns one message
/// per mismatch; an empty list means every line matched.
pub fn check(w: Workload, lines: &[String]) -> Vec<String> {
    let p = path(w);
    let Ok(text) = fs::read_to_string(&p) else {
        return vec![format!("no golden file {}; run with --bless", p.display())];
    };
    let golden: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    let mut out = Vec::new();
    if golden.len() != lines.len() {
        out.push(format!(
            "{} golden lines, {} measured",
            golden.len(),
            lines.len()
        ));
    }
    for (g, m) in golden.iter().zip(lines) {
        if !matches(g, m) {
            out.push(format!("golden `{g}`, measured `{m}`"));
        }
    }
    out
}

fn matches(golden: &str, measured: &str) -> bool {
    let g: Vec<&str> = golden.split_whitespace().collect();
    let m: Vec<&str> = measured.split_whitespace().collect();
    let (Some((gv, gk)), Some((mv, mk))) = (g.split_last(), m.split_last()) else {
        return g == m;
    };
    if gk != mk {
        return false;
    }
    match (gv.parse::<f64>(), mv.parse::<f64>()) {
        (Ok(a), Ok(b)) => (a - b).abs() <= TOLERANCE_PS,
        _ => gv == mv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_match_within_tolerance_and_the_rest_exactly() {
        assert!(matches("0 Sbd 3 105.25", "0 Sbd 3 105.7"));
        assert!(!matches("0 Sbd 3 105.25", "0 Sbd 3 105.8"));
        assert!(!matches("0 Sbd 3 105.25", "0 Sbd 3 stuck"));
        assert!(matches("0 Sbd 3 stuck", "0 Sbd 3 stuck"));
        assert!(!matches("0 Sbd 3 105.25", "0 Sbd 4 105.25"));
        assert!(!matches(
            "3 tests=64@0x1 0x00000000000000ab",
            "3 tests=64@0x1 0x00000000000000ac"
        ));
    }
}
