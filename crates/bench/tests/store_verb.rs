//! `repro store` maintains the store `OBD_STORE_DIR` names and has no
//! default directory: without the variable it must refuse, not create an
//! empty store and report it verified.

use std::process::{Command, Stdio};

#[test]
fn store_verb_without_a_store_dir_exits_2_and_creates_nothing() {
    let dir = std::env::temp_dir().join(format!("obd-store-verb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["store", "verify"])
        .current_dir(&dir)
        .env_remove(obd_store::STORE_DIR_ENV)
        .stdin(Stdio::null())
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(obd_store::STORE_DIR_ENV),
        "stderr: {stderr}"
    );
    assert!(
        !dir.join("results/store").exists(),
        "a store directory was created"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
