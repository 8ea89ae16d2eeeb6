//! Lifecycle coverage for the append log and the single-writer lock:
//! a log truncated at *every* byte offset still opens to a valid
//! prefix, a record that rots on disk under an open store is dropped at
//! its next read, a lock whose holder is dead is stolen, and a double
//! open (same process or live foreign PID) is refused with a typed
//! error.

use std::fs;
use std::path::PathBuf;

use obd_store::{Digest, Store, StoreError, LOCK_FILE, QUARANTINE_FILE, STORE_FILE};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obd-store-life-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn key(i: u64) -> u64 {
    Digest::new("life").u64(i).finish()
}

/// Property: an append log of distinct records truncated at every byte
/// offset opens to a clean store holding exactly the records whose
/// frames fit entirely within the kept prefix — never a panic, never a
/// torn record.
#[test]
fn truncation_at_every_byte_offset_opens_clean() {
    let dir = tmp("trunc-src");
    let bodies: Vec<Vec<u8>> = (0..5u64)
        .map(|i| vec![0xB0 + i as u8; 10 + i as usize * 7])
        .collect();
    {
        let store = Store::open(&dir).unwrap();
        for (i, b) in bodies.iter().enumerate() {
            store.put(key(i as u64), b).unwrap();
        }
    }
    let full = fs::read(dir.join(STORE_FILE)).unwrap();
    fs::remove_dir_all(&dir).unwrap();

    // Frame boundaries in the log: header, then one frame per record in
    // append order.
    const HEADER: usize = 16;
    const FRAME: usize = 20;
    let mut boundaries = vec![HEADER];
    for b in &bodies {
        boundaries.push(boundaries.last().unwrap() + FRAME + b.len());
    }
    assert_eq!(*boundaries.last().unwrap(), full.len());

    let work = tmp("trunc-work");
    for cut in 0..=full.len() {
        let _ = fs::remove_dir_all(&work);
        fs::create_dir_all(&work).unwrap();
        fs::write(work.join(STORE_FILE), &full[..cut]).unwrap();
        let store = Store::open(&work).unwrap();
        // Records whose whole frame fits within the cut survive; a
        // prefix shorter than the header quarantines wholesale.
        let expect = if cut < HEADER {
            0
        } else {
            boundaries.iter().filter(|&&b| b <= cut).count() - 1
        };
        assert_eq!(store.len(), expect, "cut at {cut}");
        for (i, b) in bodies.iter().enumerate().take(expect) {
            assert_eq!(
                store.get(key(i as u64)).unwrap().as_deref(),
                Some(b.as_slice()),
                "cut at {cut}, record {i}"
            );
        }
        // A mid-frame cut is damage: the file must have been moved
        // aside, not destroyed. A cut on an exact frame boundary is
        // simply a shorter, valid log — nothing to quarantine.
        if cut > 0 && !boundaries.contains(&cut) {
            assert_eq!(fs::read(work.join(QUARANTINE_FILE)).unwrap(), &full[..cut]);
        } else {
            assert!(!work.join(QUARANTINE_FILE).exists(), "cut at {cut}");
        }
        drop(store);
    }
    fs::remove_dir_all(&work).unwrap();
}

#[test]
fn stale_lock_from_dead_holder_is_stolen() {
    let dir = tmp("stale-lock");
    fs::create_dir_all(&dir).unwrap();
    // No process has this PID: above the default Linux pid_max.
    fs::write(dir.join(LOCK_FILE), format!("{}", u32::MAX)).unwrap();
    let store = Store::open(&dir).unwrap();
    assert_eq!(
        fs::read_to_string(dir.join(LOCK_FILE)).unwrap().trim(),
        std::process::id().to_string(),
        "the stolen lock must now hold our PID"
    );
    drop(store);
    assert!(
        !dir.join(LOCK_FILE).exists(),
        "drop must release the lock file"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn garbage_lock_file_is_treated_as_stale() {
    let dir = tmp("garbage-lock");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(LOCK_FILE), "not a pid").unwrap();
    let store = Store::open(&dir).unwrap();
    store.put(key(1), b"works").unwrap();
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn double_open_same_process_is_refused_with_typed_error() {
    let dir = tmp("double-open");
    let first = Store::open(&dir).unwrap();
    match Store::open(&dir) {
        Err(StoreError::Locked { pid }) => assert_eq!(pid, std::process::id()),
        other => panic!("expected Locked, got {other:?}"),
    }
    // The refused open must not have clobbered the holder's lock.
    first.put(key(2), b"still the writer").unwrap();
    drop(first);
    // Once the first handle drops, the directory opens again.
    let second = Store::open(&dir).unwrap();
    assert_eq!(
        second.get(key(2)).unwrap().as_deref(),
        Some(&b"still the writer"[..])
    );
    drop(second);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn foreign_live_pid_lock_is_refused() {
    let dir = tmp("live-lock");
    fs::create_dir_all(&dir).unwrap();
    // PID 1 is always alive on Linux.
    fs::write(dir.join(LOCK_FILE), "1").unwrap();
    match Store::open(&dir) {
        Err(StoreError::Locked { pid }) => assert_eq!(pid, 1),
        other => panic!("expected Locked by pid 1, got {other:?}"),
    }
    // The foreign lock must be left in place.
    assert_eq!(fs::read_to_string(dir.join(LOCK_FILE)).unwrap(), "1");
    fs::remove_dir_all(&dir).unwrap();
}

/// A payload byte that rots on disk under an open store is caught by
/// the checksum on the next `get`: that read is a typed `Corrupt`, the
/// record leaves the index (the read after it is a plain miss), and its
/// neighbours are still served.
#[test]
fn get_drops_rotted_records_without_panic() {
    let dir = tmp("get-rot");
    let store = Store::open(&dir).unwrap();
    for i in 0..3u64 {
        store.put(key(i), &[0x77 + i as u8; 128]).unwrap();
    }
    // Rot one payload byte in the middle record on disk.
    let path = dir.join(STORE_FILE);
    let mut bytes = fs::read(&path).unwrap();
    let mid = 16 + (20 + 128) + 20 + 64;
    bytes[mid] ^= 0x01;
    fs::write(&path, &bytes).unwrap();

    match store.get(key(1)) {
        Err(StoreError::Corrupt { digest }) => assert_eq!(digest, key(1)),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(store.get(key(1)).unwrap(), None);
    assert_eq!(
        store.get(key(0)).unwrap().as_deref(),
        Some(&[0x77; 128][..])
    );
    assert_eq!(
        store.get(key(2)).unwrap().as_deref(),
        Some(&[0x79; 128][..])
    );
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}
