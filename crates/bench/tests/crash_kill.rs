//! Kill-and-resume determinism: SIGKILL the `repro` binary mid-run,
//! rerun it to completion, and require the recovered artifacts to be
//! byte-identical to an uninterrupted reference run.
//!
//! The test spawns the real binary (`CARGO_BIN_EXE_repro`) in
//! throwaway working directories: the crash has to go through the same
//! process boundary a real operator kill does — torn store tails, stale
//! PID locks and half-written artifacts included.

use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use obd_fleet::checkpoint::DEFAULT_BLOCK_DEVICES;

/// Fleet size: 92 checkpoint blocks, long enough (about 0.2 s at
/// release optimization, 1 s at the dev profile) that a kill sent
/// right after the first block lands mid-run in either build.
const DEVICES: u64 = 6_000_000;

/// Length of the store file's header.
const STORE_HEADER_LEN: usize = 16;
/// Length of a frame's `digest | len | checksum` header.
const FRAME_HEADER_LEN: usize = 20;

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

/// Whether the store file at `path` holds its first whole frame: the
/// header, one frame header and the payload length it names. A file
/// merely past the header may be mid-way through that first append.
fn holds_a_frame(path: &Path) -> bool {
    let Ok(bytes) = std::fs::read(path) else {
        return false;
    };
    let at = STORE_HEADER_LEN + 8;
    bytes.get(at..at + 4).is_some_and(|len| {
        let len = u32::from_le_bytes(len.try_into().expect("four bytes")) as usize;
        bytes.len() >= STORE_HEADER_LEN + FRAME_HEADER_LEN + len
    })
}

/// Spawns `repro <verb>` in `dir` and SIGKILLs it as soon as the store
/// file `store` holds one whole checkpoint — a hard crash with no
/// destructors, mid-write included. Returns how the child ended.
fn run_and_kill_after_first_frame(
    dir: &Path,
    envs: &[(&str, String)],
    args: &[&str],
    store: &Path,
) -> ExitStatus {
    let mut child = Command::new(repro())
        .args(args)
        .current_dir(dir)
        .envs(envs.iter().map(|(k, v)| (*k, v.as_str())))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !holds_a_frame(store) {
        if child.try_wait().expect("poll repro").is_some() || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let _ = child.kill();
    child.wait().expect("reap repro")
}

/// The value of counter `name` in a metrics snapshot's JSON, 0 when the
/// snapshot does not list it.
fn counter(snapshot: &str, name: &str) -> u64 {
    snapshot
        .split_once(&format!("\"{name}\": "))
        .map_or(0, |(_, tail)| {
            let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("a counter value")
        })
}

#[test]
fn fleet_killed_midway_resumes_to_identical_json() {
    let ref_dir = fresh_dir("fleet-ref");
    let kill_dir = fresh_dir("fleet-kill");
    let envs = |dir: &Path| {
        vec![
            ("OBD_FLEET_DEVICES", DEVICES.to_string()),
            ("OBD_FLEET_THREADS", "2".to_string()),
            ("OBD_FLEET_SEED", "0xFEE7".to_string()),
            ("OBD_FLEET_CKPT", "1".to_string()),
            (
                "OBD_STORE_DIR",
                dir.join("results/store").display().to_string(),
            ),
        ]
    };

    run_to_completion(&ref_dir, &envs(&ref_dir), &["fleet"]);
    let killed = run_and_kill_after_first_frame(
        &kill_dir,
        &envs(&kill_dir),
        &["fleet"],
        &kill_dir.join("results/store/obd.store"),
    );
    assert!(
        !killed.success(),
        "the fleet run finished before the kill: {killed}"
    );
    let mut resume = envs(&kill_dir);
    resume.push(("OBD_METRICS", "1".to_string()));
    run_to_completion(&kill_dir, &resume, &["fleet"]);

    let snapshot = std::fs::read_to_string(kill_dir.join("results/METRICS_snapshot.json"))
        .expect("resume METRICS_snapshot.json");
    let resumed = counter(&snapshot, "fleet.ckpt_blocks_resumed");
    let blocks = DEVICES.div_ceil(DEFAULT_BLOCK_DEVICES);
    println!("killed by {killed}; the resume read {resumed} of {blocks} blocks");
    assert!(
        (1..blocks).contains(&resumed),
        "the resume read {resumed} of {blocks} blocks: the kill did not land mid-run"
    );
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
