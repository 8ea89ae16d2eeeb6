//! Persistent content-addressed result store.
//!
//! A fleet campaign's per-block accumulator is a pure function of the
//! exact bit patterns of its inputs (fleet configuration, delay table,
//! graded BIST profile, device range). This crate stores such results
//! on disk keyed by a 64-bit FNV-1a digest of those bit patterns, so a
//! killed campaign resumes from its checkpoints instead of starting
//! over (`obd_fleet::checkpoint`).
//!
//! Design constraints, mirroring the rest of the workspace:
//!
//! - **Zero dependencies.** The format is hand-rolled: a 16-byte header
//!   (magic + version) followed by append-only records, each framed as
//!   `digest (u64) | len (u32) | checksum (u64) | payload`. The
//!   checksum is FNV-1a over the frame header and payload, so a flipped
//!   bit anywhere in a record is detected.
//! - **Corruption is quarantined, never a panic.** A truncated tail
//!   (crash mid-append) or a checksum mismatch found while scanning at
//!   open time moves the damaged file aside (`obd.store.quarantined`)
//!   and rebuilds a fresh store from the valid prefix. A record that
//!   fails its checksum at read time is dropped from the index and
//!   surfaced as a typed [`StoreError::Corrupt`] — callers treat it as
//!   a miss and recompute.
//! - **Versioned.** [`FORMAT_VERSION`] is stamped into the header; a
//!   store opened under a different version is *refused* with a typed
//!   [`StoreError::VersionMismatch`] (an old store is data, not
//!   garbage — refusing is reversible, rewriting is not).
//! - **In-memory index, loaded once per process.** Opening scans the
//!   log once and builds a `digest -> (offset, len, checksum)` map;
//!   gets are one index probe plus one positioned read, puts are one
//!   append. Writers publish a record to the index only after the full
//!   frame is on disk, so concurrent readers never observe a torn
//!   record.
//!
//! Lifecycle:
//!
//! - **Single writer.** Opening takes an advisory lock file
//!   (`obd.store.lock`) holding the owner PID, so two processes can
//!   never interleave appends; a lock whose holder is dead is stolen,
//!   a second open in the same process is refused with a typed
//!   [`StoreError::Locked`]. The lock is released on drop.
//! - **Append only.** The file is never rewritten in place: a put
//!   appends one frame, and a torn tail past the last whole frame is cut
//!   off before the next append. Each fleet block is written once under
//!   its own digest, so the log holds nothing a rewrite could reclaim.
//!
//! Chaos: [`store.write_torn`] truncates a just-written record
//! mid-frame (simulating a crash during append) and surfaces
//! [`StoreError::TornWrite`]; the torn tail is healed on the next put
//! or the next open. [`store.read_corrupt`] flips one bit of a payload
//! after it is read, which the checksum then catches.
//!
//! [`store.write_torn`]: StoreError::TornWrite
//! [`store.read_corrupt`]: StoreError::Corrupt

// Library code must surface failures as typed errors, never panic;
// tests keep the ergonomic forms.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use obd_chaos::InjectionPoint;
use obd_metrics::Counter;

/// Gets served from disk (all stores combined).
static STORE_HITS: Counter = Counter::new("store.hits");
/// Gets that found nothing on disk.
static STORE_MISSES: Counter = Counter::new("store.misses");
/// Records appended.
static STORE_PUTS: Counter = Counter::new("store.puts");
/// Payload bytes appended.
static STORE_BYTES_WRITTEN: Counter = Counter::new("store.bytes_written");
/// Records dropped for failing their checksum (at open or at read).
static STORE_CORRUPT_RECORDS: Counter = Counter::new("store.corrupt_records");
/// Damaged store files moved aside at open.
static STORE_QUARANTINED: Counter = Counter::new("store.quarantined");
/// Appends torn by fault injection.
static STORE_TORN_WRITES: Counter = Counter::new("store.torn_writes");
/// Lock files stolen from dead holders at open.
static STORE_LOCK_STEALS: Counter = Counter::new("store.lock_steals");

/// Chaos: tear a just-completed append mid-record, simulating a crash
/// between the write and its completion.
static CHAOS_WRITE_TORN: InjectionPoint = InjectionPoint::new("store.write_torn");
/// Chaos: flip one payload bit after a read, before checksum
/// verification — disk bit-rot in miniature.
static CHAOS_READ_CORRUPT: InjectionPoint = InjectionPoint::new("store.read_corrupt");

/// On-disk format version stamped into the header.
pub const FORMAT_VERSION: u16 = 1;

/// Environment variable naming the directory of the process-wide store
/// (fleet checkpoints).
pub(crate) const STORE_DIR_ENV: &str = "OBD_STORE_DIR";

/// The process-wide store, which `repro fleet` checkpoints into.
/// Initialized exactly once, from [`STORE_DIR_ENV`].
static GLOBAL: OnceLock<Option<Arc<Store>>> = OnceLock::new();

/// The process-wide store handle, opened from `OBD_STORE_DIR` on first
/// use, or `None` when persistence is off. Persistence is off when the
/// variable is unset (there is no default directory) or its directory
/// cannot be opened; the latter warns rather than failing the caller —
/// the store only holds checkpoints, and every workload runs correctly
/// (just without resume) without it.
pub fn global() -> Option<Arc<Store>> {
    GLOBAL
        .get_or_init(|| std::env::var(STORE_DIR_ENV).ok().and_then(open_or_warn))
        .clone()
}

fn open_or_warn(dir: String) -> Option<Arc<Store>> {
    match Store::open(&dir) {
        Ok(s) => Some(Arc::new(s)),
        Err(e) => {
            eprintln!("obd-store: persistence disabled ({dir}: {e})");
            None
        }
    }
}

/// Store file name inside the store directory.
pub const STORE_FILE: &str = "obd.store";

/// Quarantine file name a damaged store is renamed to.
pub const QUARANTINE_FILE: &str = "obd.store.quarantined";

/// Advisory single-writer lock file name inside the store directory.
/// Holds the owner's PID in ASCII decimal.
pub const LOCK_FILE: &str = "obd.store.lock";

const MAGIC: [u8; 8] = *b"OBDSTORE";
const HEADER_LEN: u64 = 16;
/// `digest (8) + len (4) + checksum (8)`.
const FRAME_LEN: u64 = 20;

/// Typed failures of the store layer. Callers that use the store as a
/// cache treat every variant as a miss and recompute; nothing here is
/// ever worth a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level file operation failed (rendered message).
    Io(String),
    /// The store file was written by a different format version.
    VersionMismatch {
        /// Version found in the header.
        found: u16,
        /// Version this process expected.
        expected: u16,
    },
    /// A record failed its checksum at read time; it has been dropped
    /// from the index.
    Corrupt {
        /// Digest of the corrupt record.
        digest: u64,
    },
    /// Fault injection tore the append mid-record; the record was not
    /// committed and the torn tail heals on the next put or open.
    TornWrite {
        /// Digest of the record that was being appended.
        digest: u64,
    },
    /// The payload exceeds the `u32` length field.
    TooLarge {
        /// Offending payload length.
        len: usize,
    },
    /// The store directory is already held by a live writer — another
    /// process's lock file, or a second open in this process.
    Locked {
        /// PID recorded in the lock file.
        pid: u32,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store I/O failed: {m}"),
            StoreError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "store format v{found} refused (this build reads v{expected})"
                )
            }
            StoreError::Corrupt { digest } => {
                write!(
                    f,
                    "record {digest:#018x} failed its checksum and was dropped"
                )
            }
            StoreError::TornWrite { digest } => {
                write!(f, "append of record {digest:#018x} torn by fault injection")
            }
            StoreError::TooLarge { len } => write!(f, "payload of {len} bytes exceeds u32 framing"),
            StoreError::Locked { pid } => {
                write!(f, "store is locked by live process {pid} (single writer)")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental FNV-1a 64-bit digest builder — the content address of a
/// record is the digest of the exact bit patterns of everything that
/// determines it. Start from a domain string so different kinds of key
/// (fleet campaigns, checkpoint blocks) can never collide structurally.
///
/// ```
/// let a = obd_store::Digest::new("demo.v1").u64(7).f64(1.5).finish();
/// let b = obd_store::Digest::new("demo.v1").u64(7).f64(1.5).finish();
/// assert_eq!(a, b);
/// assert_ne!(a, obd_store::Digest::new("demo.v2").u64(7).f64(1.5).finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// Starts a digest in a named domain.
    pub fn new(domain: &str) -> Self {
        Digest(FNV_OFFSET).bytes(domain.as_bytes())
    }

    /// Folds raw bytes in.
    #[must_use]
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a `u64` in (little-endian bytes).
    #[must_use]
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a `u32` in.
    #[must_use]
    pub(crate) fn u32(self, v: u32) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a byte in.
    #[must_use]
    pub fn u8(self, v: u8) -> Self {
        self.bytes(&[v])
    }

    /// Folds an `f64` in by exact bit pattern — two values that differ
    /// in any bit (including `-0.0` vs `0.0`) digest differently, which
    /// is the right notion for bit-exact result caching.
    #[must_use]
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Folds a bool in.
    #[must_use]
    pub fn bool(self, v: bool) -> Self {
        self.u8(u8::from(v))
    }

    /// Folds a length-prefixed string in.
    #[must_use]
    pub fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The finished 64-bit digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Checksum over one record's frame header and payload.
fn record_checksum(digest: u64, payload: &[u8]) -> u64 {
    Digest::new("store.frame.v1")
        .u64(digest)
        .u32(payload.len() as u32)
        .bytes(payload)
        .finish()
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Byte offset of the payload inside the store file.
    offset: u64,
    len: u32,
    checksum: u64,
}

#[derive(Debug)]
struct Writer {
    file: File,
    /// Length of the durable, fully-framed prefix of the file. Anything
    /// past it is a torn tail and is truncated before the next append.
    committed: u64,
}

/// A content-addressed on-disk store: append-only record log plus an
/// in-memory index loaded once at open.
///
/// ```
/// # let dir = std::env::temp_dir().join(format!("obd-store-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let store = obd_store::Store::open(&dir).unwrap();
/// let key = obd_store::Digest::new("doc").u64(42).finish();
/// assert_eq!(store.get(key).unwrap(), None);
/// store.put(key, b"payload").unwrap();
/// assert_eq!(store.get(key).unwrap().as_deref(), Some(&b"payload"[..]));
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    /// Canonicalized directory — the key under which this open is
    /// registered in the per-process double-open registry.
    canonical: PathBuf,
    path: PathBuf,
    /// Shared read handle. Reads are positioned, so concurrent gets
    /// share it without a lock; the file only ever grows past the
    /// frames the index addresses, so an entry always reads the bytes
    /// it was built from.
    reader: File,
    writer: Mutex<Writer>,
    index: RwLock<HashMap<u64, IndexEntry>>,
    hits: AtomicU64,
    puts: AtomicU64,
}

/// Directories currently open in this process — a same-process double
/// open cannot be caught by the PID lock file (the PID is alive: ours),
/// so it is refused here.
fn open_registry() -> &'static Mutex<HashSet<PathBuf>> {
    static REGISTRY: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Whether `pid` names a live process. Our own PID is always live. On
/// non-Linux hosts there is no portable probe; a foreign lock is
/// assumed stale (the lock is advisory, and single-host deployments of
/// this suite are Linux).
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new("/proc").join(pid.to_string()).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        false
    }
}

/// Takes the advisory lock file in `dir`, stealing it from a dead
/// holder. `O_CREAT|O_EXCL` makes creation atomic; the PID is written
/// immediately after, so the lock is momentarily empty — an empty or
/// unparsable lock is treated as stale.
fn acquire_lock(dir: &Path) -> Result<(), StoreError> {
    let lock = dir.join(LOCK_FILE);
    for _ in 0..2 {
        match OpenOptions::new().write(true).create_new(true).open(&lock) {
            Ok(mut f) => {
                let _ = write!(f, "{}", std::process::id());
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = fs::read_to_string(&lock)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                match holder {
                    Some(pid) if pid_alive(pid) => return Err(StoreError::Locked { pid }),
                    _ => {
                        // Dead holder (or garbage): steal and retry.
                        let _ = fs::remove_file(&lock);
                        STORE_LOCK_STEALS.inc();
                    }
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    let pid = fs::read_to_string(&lock)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0);
    Err(StoreError::Locked { pid })
}

/// Rolls back a partially-completed open: deregisters the directory and
/// removes the lock file unless [`OpenGuard::disarm`] ran first.
struct OpenGuard {
    canonical: PathBuf,
    lock_path: Option<PathBuf>,
    armed: bool,
}

impl OpenGuard {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for OpenGuard {
    fn drop(&mut self) {
        if self.armed {
            if let Some(p) = &self.lock_path {
                let _ = fs::remove_file(p);
            }
            open_registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&self.canonical);
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = fs::remove_file(self.dir.join(LOCK_FILE));
        open_registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.canonical);
    }
}

/// What the open-time scan of an existing file found.
struct Scan {
    /// Parsed `(digest, offset, len, checksum)` rows of the valid prefix.
    records: Vec<(u64, IndexEntry)>,
    /// Length of the valid prefix (header + whole records).
    valid_end: u64,
    /// Whether anything past `valid_end` was damaged (torn tail or
    /// checksum mismatch).
    damaged: bool,
}

impl Store {
    /// Opens (or creates) the store in `dir` at the current
    /// [`FORMAT_VERSION`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures;
    /// [`StoreError::VersionMismatch`] when the file on disk was written
    /// by a different format version; [`StoreError::Locked`] when a live
    /// process (possibly this one) already holds the directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with_version(dir, FORMAT_VERSION)
    }

    /// [`Store::open`] pinned to an explicit format version — the
    /// version-bump tests use this to prove a v+1 build refuses v
    /// records instead of misreading them.
    ///
    /// # Errors
    ///
    /// As [`Store::open`].
    pub fn open_with_version(dir: impl AsRef<Path>, version: u16) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let canonical = dir.canonicalize()?;

        // Same-process double open: refused before touching the lock
        // file (our own PID would read as a live holder anyway, but the
        // registry gives the check a deterministic answer).
        {
            let mut reg = open_registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if !reg.insert(canonical.clone()) {
                return Err(StoreError::Locked {
                    pid: std::process::id(),
                });
            }
        }
        let mut guard = OpenGuard {
            canonical: canonical.clone(),
            lock_path: None,
            armed: true,
        };
        acquire_lock(dir)?;
        guard.lock_path = Some(dir.join(LOCK_FILE));

        let path = dir.join(STORE_FILE);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };

        let records = if bytes.is_empty() {
            fs::write(&path, header_bytes(version))?;
            Vec::new()
        } else if bytes.len() < HEADER_LEN as usize || bytes[0..8] != MAGIC {
            // Not a store file at all: quarantine wholesale and start
            // fresh — never overwrite data we cannot identify.
            quarantine(dir, &path)?;
            fs::write(&path, header_bytes(version))?;
            Vec::new()
        } else {
            let found = u16::from_le_bytes([bytes[8], bytes[9]]);
            if found != version {
                return Err(StoreError::VersionMismatch {
                    found,
                    expected: version,
                });
            }
            let scan = scan_records(&bytes);
            if scan.damaged {
                // Crash-torn tail or bit-rot mid-file: move the damaged
                // file aside for forensics and rebuild the store from
                // the valid prefix — a clean rebuild, never a panic.
                quarantine(dir, &path)?;
                fs::write(&path, &bytes[..scan.valid_end as usize])?;
            }
            scan.records
        };

        let mut index = HashMap::with_capacity(records.len());
        for (digest, entry) in records {
            // Duplicate appends of one digest: the latest record wins,
            // matching put-over-put semantics.
            index.insert(digest, entry);
        }
        let writer = OpenOptions::new().write(true).open(&path)?;
        let committed = writer.metadata()?.len();
        let reader = File::open(&path)?;
        guard.disarm();
        Ok(Store {
            dir: dir.to_path_buf(),
            canonical,
            path,
            reader,
            writer: Mutex::new(Writer {
                file: writer,
                committed,
            }),
            index: RwLock::new(index),
            hits: AtomicU64::new(0),
            puts: AtomicU64::new(0),
        })
    }

    /// Number of addressable records.
    pub fn len(&self) -> usize {
        self.index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the store holds no records. Kept next to [`Store::len`],
    /// which clippy's `len_without_is_empty` pairs it with.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gets served from disk through this handle.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Records appended through this handle.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    /// Appends a record under `digest`, replacing any previous record
    /// with the same digest. The record becomes visible to readers only
    /// once the full frame is on disk.
    ///
    /// # Errors
    ///
    /// [`StoreError::TooLarge`] past `u32` framing; [`StoreError::Io`]
    /// on filesystem failures; [`StoreError::TornWrite`] when fault
    /// injection tears the append (the store stays consistent).
    pub fn put(&self, digest: u64, payload: &[u8]) -> Result<(), StoreError> {
        let len = u32::try_from(payload.len())
            .map_err(|_| StoreError::TooLarge { len: payload.len() })?;
        // One checksum feeds both the frame header and the index entry.
        let checksum = record_checksum(digest, payload);
        let header = frame_header(digest, len, checksum);
        let frame_len = header.len() + payload.len();

        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        // Heal any torn tail a previous injected (or real) crash left.
        if w.file.metadata()?.len() != w.committed {
            let committed = w.committed;
            w.file.set_len(committed)?;
        }
        let committed = w.committed;
        w.file.seek(SeekFrom::Start(committed))?;
        // Header and payload go out from their own buffers: no copy of
        // the payload into a joined frame.
        w.file.write_all(&header)?;
        w.file.write_all(payload)?;
        if let Some(bits) = CHAOS_WRITE_TORN.roll() {
            // Keep a strict prefix of the frame: the record must be
            // detectably incomplete, never accidentally whole.
            let keep = bits as usize % frame_len;
            w.file.set_len(committed + keep as u64)?;
            STORE_TORN_WRITES.inc();
            return Err(StoreError::TornWrite { digest });
        }
        w.committed += frame_len as u64;
        let entry = IndexEntry {
            offset: committed + FRAME_LEN,
            len,
            checksum,
        };
        drop(w);
        self.index
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(digest, entry);
        self.puts.fetch_add(1, Ordering::Relaxed);
        STORE_PUTS.inc();
        STORE_BYTES_WRITTEN.add(payload.len() as u64);
        Ok(())
    }

    /// Reads the record under `digest`, verifying its checksum.
    /// `Ok(None)` is a miss.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures; [`StoreError::Corrupt`]
    /// when the payload fails its checksum (the record is dropped from
    /// the index, so the next get is a plain miss).
    pub fn get(&self, digest: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let entry = self
            .index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&digest)
            .copied();
        let Some(entry) = entry else {
            STORE_MISSES.inc();
            return Ok(None);
        };
        let mut buf = vec![0u8; entry.len as usize];
        read_exact_at(&self.reader, &self.path, &mut buf, entry.offset)?;
        if let Some(bits) = CHAOS_READ_CORRUPT.roll() {
            if buf.is_empty() {
                // Nothing to flip in an empty payload; the injection
                // lands as a harmless (recovered) event.
            } else {
                let i = bits as usize % buf.len();
                buf[i] ^= 1 << ((bits >> 32) % 8);
            }
        }
        if record_checksum(digest, &buf) != entry.checksum {
            self.index
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&digest);
            STORE_CORRUPT_RECORDS.inc();
            return Err(StoreError::Corrupt { digest });
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        STORE_HITS.inc();
        Ok(Some(buf))
    }
}

fn header_bytes(version: u16) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[0..8].copy_from_slice(&MAGIC);
    h[8..10].copy_from_slice(&version.to_le_bytes());
    h
}

/// A record's frame header: `digest (u64) | len (u32) | checksum (u64)`,
/// little-endian.
fn frame_header(digest: u64, len: u32, checksum: u64) -> [u8; FRAME_LEN as usize] {
    let mut h = [0u8; FRAME_LEN as usize];
    h[0..8].copy_from_slice(&digest.to_le_bytes());
    h[8..12].copy_from_slice(&len.to_le_bytes());
    h[12..20].copy_from_slice(&checksum.to_le_bytes());
    h
}

/// Walks the record log in `bytes` (header included) and returns the
/// valid prefix. Input shorter than the header is damaged, with an
/// empty valid prefix.
fn scan_records(bytes: &[u8]) -> Scan {
    let mut records = Vec::new();
    if bytes.len() < HEADER_LEN as usize {
        return Scan {
            records,
            valid_end: 0,
            damaged: true,
        };
    }
    let mut pos = HEADER_LEN as usize;
    while pos < bytes.len() {
        if bytes.len() - pos < FRAME_LEN as usize {
            return Scan {
                records,
                valid_end: pos as u64,
                damaged: true,
            };
        }
        let digest = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap_or_default());
        let len =
            u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().unwrap_or_default()) as usize;
        let checksum = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().unwrap_or_default());
        let payload_start = pos + FRAME_LEN as usize;
        if bytes.len() - payload_start < len
            || record_checksum(digest, &bytes[payload_start..payload_start + len]) != checksum
        {
            STORE_CORRUPT_RECORDS.inc();
            return Scan {
                records,
                valid_end: pos as u64,
                damaged: true,
            };
        }
        records.push((
            digest,
            IndexEntry {
                offset: payload_start as u64,
                len: len as u32,
                checksum,
            },
        ));
        pos = payload_start + len;
    }
    Scan {
        records,
        valid_end: pos as u64,
        damaged: false,
    }
}

/// Moves a damaged store file aside (`obd.store.quarantined`),
/// replacing any previous quarantine.
fn quarantine(dir: &Path, path: &Path) -> Result<(), StoreError> {
    let qpath = dir.join(QUARANTINE_FILE);
    fs::rename(path, &qpath)?;
    STORE_QUARANTINED.inc();
    Ok(())
}

/// Positioned read that leaves no shared cursor behind, so concurrent
/// readers never interleave seeks.
fn read_exact_at(
    reader: &File,
    path: &Path,
    buf: &mut [u8],
    offset: u64,
) -> Result<(), StoreError> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        let _ = path;
        reader.read_exact_at(buf, offset)?;
        Ok(())
    }
    #[cfg(not(unix))]
    {
        // Portable fallback: a private handle per read keeps the shared
        // reader cursor untouched.
        use std::io::Read;
        let _ = reader;
        let mut f = File::open(path)?;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("obd-store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_roundtrip_and_counters() {
        let dir = tmp("roundtrip");
        let store = Store::open(&dir).unwrap();
        let k = Digest::new("t").u64(1).finish();
        assert_eq!(store.get(k).unwrap(), None);
        store.put(k, b"hello").unwrap();
        assert_eq!(store.get(k).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!((store.hits(), store.puts()), (1, 1));
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `put` computes one checksum for the frame header and for the
    /// index entry `get` verifies against; a reopen, which rebuilds the
    /// index from the headers, accepts the frame and serves the payload.
    #[test]
    fn put_frame_header_and_index_share_one_checksum() {
        let dir = tmp("checksum");
        let k = Digest::new("t").u64(5).finish();
        let payload: Vec<u8> = (0..=255).collect();
        let store = Store::open(&dir).unwrap();
        store.put(k, &payload).unwrap();
        let entry = store.index.read().unwrap()[&k];
        let file = fs::read(dir.join(STORE_FILE)).unwrap();
        // The checksum is the last field of the frame header.
        let at = entry.offset as usize - 8;
        let header_sum = u64::from_le_bytes(file[at..at + 8].try_into().unwrap());
        assert_eq!(header_sum, entry.checksum);
        assert_eq!(header_sum, record_checksum(k, &payload));
        assert_eq!(store.get(k).unwrap().as_deref(), Some(&payload[..]));
        drop(store);

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.index.read().unwrap()[&k].checksum, header_sum);
        assert_eq!(store.get(k).unwrap().as_deref(), Some(&payload[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `put` writes the frame header and the payload from separate
    /// buffers; the file must hold exactly the joined frames a single
    /// buffer would have written, and a reopen must serve every record.
    #[test]
    fn put_writes_joined_frames_byte_for_byte() {
        let dir = tmp("frames");
        let payloads: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"x".to_vec(),
            (0..=255).collect(),
            (0..100_000u32).map(|i| (i * 31 % 251) as u8).collect(),
        ];
        let keys: Vec<u64> = (0..payloads.len() as u64)
            .map(|i| Digest::new("frames").u64(i).finish())
            .collect();
        let mut expected = header_bytes(FORMAT_VERSION).to_vec();
        {
            let store = Store::open(&dir).unwrap();
            for (&k, p) in keys.iter().zip(&payloads) {
                store.put(k, p).unwrap();
                expected.extend_from_slice(&k.to_le_bytes());
                expected.extend_from_slice(&(p.len() as u32).to_le_bytes());
                expected.extend_from_slice(&record_checksum(k, p).to_le_bytes());
                expected.extend_from_slice(p);
            }
        }
        assert_eq!(fs::read(dir.join(STORE_FILE)).unwrap(), expected);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), payloads.len());
        for (&k, p) in keys.iter().zip(&payloads) {
            assert_eq!(store.get(k).unwrap().as_deref(), Some(&p[..]));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_preserves_records() {
        let dir = tmp("reopen");
        let k = Digest::new("t").u64(2).finish();
        {
            let store = Store::open(&dir).unwrap();
            store.put(k, &[7u8; 300]).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(k).unwrap().as_deref(), Some(&[7u8; 300][..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_put_latest_wins_across_reopen() {
        let dir = tmp("dup");
        let k = Digest::new("t").u64(3).finish();
        {
            let store = Store::open(&dir).unwrap();
            store.put(k, b"old").unwrap();
            store.put(k, b"new").unwrap();
            assert_eq!(store.get(k).unwrap().as_deref(), Some(&b"new"[..]));
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(k).unwrap().as_deref(), Some(&b"new"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unrecognized_file_is_quarantined_not_overwritten() {
        let dir = tmp("notastore");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(STORE_FILE), b"definitely not a store").unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(store.is_empty());
        assert_eq!(
            fs::read(dir.join(QUARANTINE_FILE)).unwrap(),
            b"definitely not a store"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = Digest::new("d").u64(1).u64(2).finish();
        let b = Digest::new("d").u64(2).u64(1).finish();
        assert_ne!(a, b);
        // str is length-prefixed: ("ab","c") must differ from ("a","bc").
        let c = Digest::new("d").str("ab").str("c").finish();
        let d = Digest::new("d").str("a").str("bc").finish();
        assert_ne!(c, d);
    }

    /// Seeded mutations of a multi-record store file (byte flips,
    /// truncations, splices and rewritten length fields) never panic
    /// `scan_records`: the valid prefix stays inside the file and every
    /// record it returns lies in bounds and passes its checksum. Every
    /// prefix shorter than the header is damaged, with nothing valid.
    #[test]
    fn scan_records_never_panics_on_mutated_files() {
        // xorshift64*, seeded: the mutants are the same on every run.
        let mut state = 0x5CA7_F11E_u64;
        let mut next = move |bound: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as usize % bound.max(1)
        };
        let header = HEADER_LEN as usize;
        let mut valid = header_bytes(FORMAT_VERSION).to_vec();
        let mut frame_starts = Vec::new();
        for i in 0..12u64 {
            let digest = Digest::new("scan").u64(i).finish();
            let payload: Vec<u8> = (0..next(40)).map(|_| next(256) as u8).collect();
            frame_starts.push(valid.len());
            valid.extend_from_slice(&digest.to_le_bytes());
            valid.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            valid.extend_from_slice(&record_checksum(digest, &payload).to_le_bytes());
            valid.extend_from_slice(&payload);
        }
        let clean = scan_records(&valid);
        assert!(!clean.damaged);
        assert_eq!(clean.records.len(), 12);
        assert_eq!(clean.valid_end, valid.len() as u64);
        for len in 0..header {
            let scan = scan_records(&valid[..len]);
            assert!(scan.damaged, "{len}-byte input");
            assert!(scan.records.is_empty(), "{len}-byte input");
            assert_eq!(scan.valid_end, 0, "{len}-byte input");
        }

        for case in 0..3_000 {
            let mut bytes = valid.clone();
            match case % 4 {
                0 => {
                    for _ in 0..=next(4) {
                        let i = next(bytes.len());
                        bytes[i] ^= 1 << next(8);
                    }
                }
                1 => bytes.truncate(header + next(bytes.len() - header)),
                2 => {
                    // A run of the file over another place past the
                    // header, sometimes growing or shrinking it.
                    let from = next(bytes.len());
                    let len = next(bytes.len() - from) + 1;
                    let run = bytes[from..from + len].to_vec();
                    let at = header + next(bytes.len() - header);
                    let end = (at + next(len + 1)).min(bytes.len());
                    bytes.splice(at..end, run);
                }
                _ => {
                    let at = frame_starts[next(frame_starts.len())] + 8;
                    let len = match next(3) {
                        0 => next(u32::MAX as usize) as u32,
                        1 => u32::MAX - next(4) as u32,
                        _ => next(64) as u32,
                    };
                    bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
                }
            }
            let scan = scan_records(&bytes);
            let end = scan.valid_end as usize;
            assert!(end >= header && end <= bytes.len(), "case {case}");
            for (digest, e) in &scan.records {
                let start = e.offset as usize;
                let stop = start + e.len as usize;
                assert!(start >= header + FRAME_LEN as usize, "case {case}");
                assert!(stop <= end, "case {case}: record past the valid prefix");
                assert_eq!(
                    record_checksum(*digest, &bytes[start..stop]),
                    e.checksum,
                    "case {case}"
                );
            }
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let dir = tmp("empty");
        let store = Store::open(&dir).unwrap();
        let k = Digest::new("t").u64(4).finish();
        store.put(k, &[]).unwrap();
        assert_eq!(store.get(k).unwrap().as_deref(), Some(&[][..]));
        fs::remove_dir_all(&dir).unwrap();
    }
}
