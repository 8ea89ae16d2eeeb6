//! Kill-and-resume determinism: SIGKILL the `repro` binary mid-run,
//! rerun it to completion, and require the recovered artifacts to be
//! byte-identical to an uninterrupted reference run.
//!
//! The test spawns the real binary (`CARGO_BIN_EXE_repro`) in
//! throwaway working directories: the crash has to go through the same
//! process boundary a real operator kill does — torn store tails, stale
//! PID locks and half-written artifacts included.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

fn repro() -> &'static str {
    env!("CARGO_BIN_EXE_repro")
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("obd-kill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scenario dir");
    dir
}

/// Runs `repro <verb> [args..]` in `dir` to completion.
fn run_to_completion(dir: &Path, envs: &[(&str, String)], args: &[&str]) {
    let status = Command::new(repro())
        .args(args)
        .current_dir(dir)
        .envs(envs.iter().map(|(k, v)| (*k, v.as_str())))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro {args:?} failed in {dir:?}");
}

/// Spawns `repro <verb>` in `dir`, lets it work for `grace`, then
/// SIGKILLs it — a hard crash with no destructors, mid-write included.
fn run_and_kill(dir: &Path, envs: &[(&str, String)], args: &[&str], grace: Duration) {
    let mut child = Command::new(repro())
        .args(args)
        .current_dir(dir)
        .envs(envs.iter().map(|(k, v)| (*k, v.as_str())))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro");
    std::thread::sleep(grace);
    // If the run already finished the kill is a no-op and the scenario
    // degrades to a plain warm resume — still a valid determinism check.
    let _ = child.kill();
    let _ = child.wait();
}

#[test]
fn fleet_killed_midway_resumes_to_identical_json() {
    let ref_dir = fresh_dir("fleet-ref");
    let kill_dir = fresh_dir("fleet-kill");
    let envs = |dir: &Path| {
        vec![
            ("OBD_FLEET_DEVICES", "1500000".to_string()),
            ("OBD_FLEET_THREADS", "2".to_string()),
            ("OBD_FLEET_SEED", "0xFEE7".to_string()),
            ("OBD_FLEET_CKPT", "65536".to_string()),
            (
                "OBD_STORE_DIR",
                dir.join("results/store").display().to_string(),
            ),
        ]
    };

    run_to_completion(&ref_dir, &envs(&ref_dir), &["fleet"]);
    run_and_kill(
        &kill_dir,
        &envs(&kill_dir),
        &["fleet"],
        Duration::from_millis(400),
    );
    run_to_completion(&kill_dir, &envs(&kill_dir), &["fleet"]);

    let reference =
        std::fs::read(ref_dir.join("results/FLEET_run.json")).expect("reference FLEET_run.json");
    let recovered =
        std::fs::read(kill_dir.join("results/FLEET_run.json")).expect("recovered FLEET_run.json");
    assert_eq!(
        reference, recovered,
        "resumed fleet campaign must emit byte-identical JSON"
    );
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&kill_dir);
}
