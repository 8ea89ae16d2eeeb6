//! Lifecycle coverage for the compactor and the single-writer lock:
//! compaction reclaims superseded frames and survives reopen, a torn
//! compaction leaves the live store untouched, a compacted file
//! truncated at *every* byte offset still opens to a valid prefix,
//! a lock whose holder is dead is stolen, and a double open (same
//! process or live foreign PID) is refused with a typed error.
//!
//! Chaos state is process-global; the armed tests serialize on `GATE`.

use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use obd_store::{
    Digest, Store, StoreError, COMPACT_TMP_FILE, LOCK_FILE, QUARANTINE_FILE, STORE_FILE,
};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obd-store-life-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Arm/disarm must not interleave across tests in this binary.
static GATE: Mutex<()> = Mutex::new(());

fn key(i: u64) -> u64 {
    Digest::new("life").u64(i).finish()
}

#[test]
fn compaction_reclaims_superseded_frames_and_survives_reopen() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obd_chaos::disarm();
    let dir = tmp("reclaim");
    {
        let store = Store::open(&dir).unwrap();
        // Three digests, each overwritten twice: six dead frames.
        for round in 0..3u64 {
            for i in 0..3u64 {
                store
                    .put(key(i), format!("round-{round}-record-{i}").as_bytes())
                    .unwrap();
            }
        }
        let stats = store.file_stats().unwrap();
        assert_eq!((stats.total_records, stats.live_records), (9, 3));
        assert!(stats.dead_bytes > 0);

        let before = fs::metadata(dir.join(STORE_FILE)).unwrap().len();
        let report = store.compact().unwrap();
        assert_eq!(report.live_records, 3);
        assert_eq!(report.dropped_records, 0);
        assert_eq!(report.before_bytes, before);
        assert_eq!(report.reclaimed_bytes, before - report.after_bytes);
        assert!(report.after_bytes < before);

        // Every record still reads back through the swapped handles.
        for i in 0..3u64 {
            assert_eq!(
                store.get(key(i)).unwrap().as_deref(),
                Some(format!("round-2-record-{i}").as_bytes())
            );
        }
        let stats = store.file_stats().unwrap();
        assert_eq!((stats.total_records, stats.live_records), (3, 3));
        assert_eq!(stats.dead_bytes, 0);
        let verify = store.verify().unwrap();
        assert_eq!((verify.checked, verify.valid, verify.corrupt), (3, 3, 0));
    }
    // And after a reopen that rescans the compacted log.
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), 3);
    for i in 0..3u64 {
        assert_eq!(
            store.get(key(i)).unwrap().as_deref(),
            Some(format!("round-2-record-{i}").as_bytes())
        );
    }
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_compaction_leaves_live_store_untouched_and_serving() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obd_chaos::disarm();
    let dir = tmp("torn");
    let store = Store::open(&dir).unwrap();
    for i in 0..4u64 {
        store.put(key(i), &[i as u8; 64]).unwrap();
        store.put(key(i), &[0x40 + i as u8; 64]).unwrap();
    }
    let before = fs::read(dir.join(STORE_FILE)).unwrap();

    // Rate 1000 permille: the single compaction roll always fires.
    obd_chaos::arm(0xC0FFEE, 1000);
    match store.compact() {
        Err(StoreError::CompactTorn) => {}
        other => panic!("expected CompactTorn, got {other:?}"),
    }
    obd_chaos::disarm();

    // The live file is byte-identical — the "crash" touched only the
    // temp file — and every record still serves.
    assert_eq!(fs::read(dir.join(STORE_FILE)).unwrap(), before);
    for i in 0..4u64 {
        assert_eq!(
            store.get(key(i)).unwrap().as_deref(),
            Some(&[0x40 + i as u8; 64][..])
        );
    }
    // A clean retry compacts fine, and the stale temp file is gone.
    let report = store.compact().unwrap();
    assert_eq!(report.live_records, 4);
    assert!(!dir.join(COMPACT_TMP_FILE).exists());
    drop(store);

    // Reopen path also clears a stale temp file.
    fs::write(dir.join(COMPACT_TMP_FILE), b"stale debris").unwrap();
    let store = Store::open(&dir).unwrap();
    assert!(!dir.join(COMPACT_TMP_FILE).exists());
    assert_eq!(store.len(), 4);
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// Property: a compacted file truncated at every byte offset opens to a
/// clean store holding exactly the records whose frames fit entirely
/// within the kept prefix — never a panic, never a torn record.
#[test]
fn truncation_at_every_byte_offset_of_compacted_file_opens_clean() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obd_chaos::disarm();
    let dir = tmp("trunc-src");
    let bodies: Vec<Vec<u8>> = (0..5u64)
        .map(|i| vec![0xB0 + i as u8; 10 + i as usize * 7])
        .collect();
    {
        let store = Store::open(&dir).unwrap();
        for (i, b) in bodies.iter().enumerate() {
            store.put(key(i as u64), b"superseded").unwrap();
            store.put(key(i as u64), b).unwrap();
        }
        store.compact().unwrap();
    }
    let full = fs::read(dir.join(STORE_FILE)).unwrap();
    fs::remove_dir_all(&dir).unwrap();

    // Frame boundaries in the compacted file: header, then one frame
    // per live record in log order.
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

#[test]
fn verify_drops_rotted_records_without_panic() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obd_chaos::disarm();
    let dir = tmp("verify-rot");
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

    let report = store.verify().unwrap();
    assert_eq!((report.checked, report.valid, report.corrupt), (3, 2, 1));
    // The rotted record is now a clean miss; the others are still served.
    assert_eq!(store.get(key(1)).unwrap(), None);
    assert!(store.get(key(0)).unwrap().is_some());
    assert!(store.get(key(2)).unwrap().is_some());
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}
