//! `repro`'s exit status is what check.sh's artifact gates rely on: a
//! verb whose artifact cannot be written must fail the run, or the
//! following `git diff --exit-code` compares the stale committed copy
//! with itself and passes.

use std::fs;
use std::process::{Command, Stdio};

/// Runs `repro <verb>` in a fresh directory holding only an empty
/// regular file `results`, so no artifact can be written. Returns the
/// exit code and whether the directory still holds only that empty file.
fn run_blocked(tag: &str, verb: &str) -> (Option<i32>, bool) {
    let dir = std::env::temp_dir().join(format!("obd-exit-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scenario dir");
    fs::write(dir.join("results"), "").expect("write blocker");
    let code = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(verb)
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn repro")
        .code();
    let untouched = fs::read_dir(&dir).expect("list scenario dir").count() == 1
        && fs::metadata(dir.join("results")).is_ok_and(|m| m.is_file() && m.len() == 0);
    let _ = fs::remove_dir_all(&dir);
    (code, untouched)
}

#[test]
fn unwritable_artifact_exits_1_and_writes_nothing() {
    let (code, untouched) = run_blocked("unwritable", "excitation");
    assert_eq!(code, Some(1));
    assert!(untouched, "repro wrote something");
}

#[test]
fn unknown_verb_exits_2() {
    assert_eq!(run_blocked("unknown", "no-such-verb").0, Some(2));
}
