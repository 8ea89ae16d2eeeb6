//! `repro serve`: a supervised batch front-end over the persistent
//! result store.
//!
//! Drains a JSONL job queue (one flat JSON object per line, from a file
//! or stdin) across sharded worker threads. Four job kinds cover the
//! repo's workloads:
//!
//! ```text
//! {"id": "t1", "kind": "table1", "resolution": "fast"}
//! {"id": "g1", "kind": "grade", "circuit": "c17", "tests": 64, "seed": 7}
//! {"id": "f1", "kind": "fleet", "circuit": "rca32", "devices": 2000, "seed": 9}
//! {"id": "n1", "kind": "noop", "spins": 4096}
//! ```
//!
//! Every job lands in a terminal state: `done`, `degraded` (bad syntax,
//! unknown kind/circuit, or a typed engine error — the queue keeps
//! draining), `dead_lettered` (the watchdog gave up after bounded
//! retries), or `panicked` (caught, never propagated to the other
//! workers).
//!
//! **Supervision.** Each running attempt carries a heartbeat; a
//! watchdog thread requeues any attempt whose heartbeat goes stale past
//! the per-job deadline (`OBD_SERVE_DEADLINE_MS`), with seeded
//! exponential backoff and a replacement worker per requeue. After
//! `max_retries` requeues the job is quarantined to the dead-letter
//! file instead of blocking the batch. The first terminal outcome
//! published for a job wins; late results from abandoned attempts are
//! discarded. The `serve.worker_hang` chaos point simulates a hung
//! worker: it rolls once per job on the first attempt, and the rolled
//! bits plan how many consecutive attempts hang — so the campaign
//! ledger is exact regardless of scheduler timing.
//!
//! **Checkpoint/resume.** With a ledger armed, every terminal outcome
//! is written to the store under a key derived from the batch digest
//! and the job's queue position. A re-run of the same batch (or a run
//! resumed after a kill) replays the recorded outcomes and computes
//! only the missing ones; [`ServeReport::canonical_jsonl`] is
//! byte-identical either way.
//!
//! **Streaming.** With a stream path armed, each terminal outcome is
//! appended to an append-only JSONL stream (and its artifact written)
//! the moment the job completes — a killed run leaves every finished
//! job's output on disk.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use obd_atpg::fault::{obd_faults, stuck_at_faults, transition_faults};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::ppsfp::PpsfpEngine;
use obd_chaos::InjectionPoint;
use obd_cmos::TechParams;
use obd_core::cache::DelayCache;
use obd_core::characterize::{characterize_table1, BenchConfig, RunOptions};
use obd_core::BreakdownStage;
use obd_fleet::{run_fleet, FleetConfig};
use obd_metrics::{Counter, Gauge, Histogram};
use obd_store::codec::{Dec, Enc};
use obd_store::{Digest, Store};

use super::fleet::{netlist_by_name, profile_for_circuit};
use crate::quick_bench_config;

/// Jobs that completed cleanly.
static JOBS_DONE: Counter = Counter::new("serve.jobs_done");
/// Jobs degraded by bad input or a typed engine error.
static JOBS_DEGRADED: Counter = Counter::new("serve.jobs_degraded");
/// Jobs whose worker panicked (caught; the batch keeps draining).
static JOBS_PANICKED: Counter = Counter::new("serve.jobs_panicked");
/// Attempts requeued by the watchdog after a stale heartbeat.
static SERVE_RETRIES: Counter = Counter::new("serve.retries");
/// Jobs quarantined to the dead-letter file after bounded retries.
static SERVE_DEAD_LETTERED: Counter = Counter::new("serve.dead_lettered");
/// Replacement workers spawned by the watchdog (one per requeue).
static SERVE_WATCHDOG_RESTARTS: Counter = Counter::new("serve.watchdog_restarts");
/// Jobs served from the checkpoint ledger instead of recomputed.
static SERVE_REPLAYED: Counter = Counter::new("serve.jobs_replayed");
/// Worker threads of the most recent batch.
static WORKERS: Gauge = Gauge::new("serve.workers");
/// Per-job wall time in milliseconds.
static JOB_WALL_MS: Histogram = Histogram::new(
    "serve.job_wall_ms",
    &[
        1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000,
    ],
);

/// Simulates a worker hanging mid-job. Rolled once per job on its first
/// attempt; the bits plan how many consecutive attempts hang, so the
/// injected/recovered/reported ledger replays exactly for a fixed seed.
static CHAOS_WORKER_HANG: InjectionPoint = InjectionPoint::new("serve.worker_hang");

/// Env var overriding the per-job heartbeat deadline in milliseconds.
pub const DEADLINE_ENV: &str = "OBD_SERVE_DEADLINE_MS";

/// Default per-job deadline: generous enough that paper-resolution
/// table1 jobs never trip it on a loaded host.
const DEFAULT_DEADLINE_MS: u64 = 60_000;
/// Default watchdog requeues before a job is dead-lettered.
const DEFAULT_MAX_RETRIES: u32 = 2;
/// Default backoff base: first requeue waits roughly this long.
const DEFAULT_BACKOFF_BASE_MS: u64 = 25;
/// Default backoff jitter seed.
const DEFAULT_BACKOFF_SEED: u64 = 0x0BD5_E12F;
/// Weyl increment decorrelating per-job jitter streams.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One value of a flat JSON object: the serve queue needs nothing
/// nested.
#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    Str(String),
    Num(f64),
    Bool(bool),
}

impl JsonVal {
    fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonVal::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => {
                Some(n as u64)
            }
            _ => None,
        }
    }
}

/// Parses one flat JSON object (`{"key": "str" | number | bool, ...}`).
/// The grammar is deliberately tiny — nested values are a parse error —
/// so a malformed line degrades its own job instead of the batch.
fn parse_flat_json(line: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let mut chars = line.char_indices().peekable();
    let mut fields = Vec::new();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices>| {
        while chars.next_if(|&(_, c)| c.is_whitespace()).is_some() {}
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::CharIndices>| -> Result<String, String> {
            match chars.next() {
                Some((_, '"')) => {}
                other => return Err(format!("expected '\"', found {other:?}")),
            }
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some((_, '"')) => return Ok(s),
                    Some((_, '\\')) => match chars.next() {
                        Some((_, 'n')) => s.push('\n'),
                        Some((_, 'r')) => s.push('\r'),
                        Some((_, 't')) => s.push('\t'),
                        Some((_, 'b')) => s.push('\u{8}'),
                        Some((_, 'f')) => s.push('\u{c}'),
                        Some((_, 'u')) => {
                            let hex: String = (0..4)
                                .filter_map(|_| chars.next())
                                .map(|(_, c)| c)
                                .collect();
                            let code = u32::from_str_radix(&hex, 16).ok().filter(|_| {
                                hex.len() == 4 && hex.bytes().all(|b| b.is_ascii_hexdigit())
                            });
                            match code.and_then(char::from_u32) {
                                Some(c) => s.push(c),
                                None => return Err(format!("unsupported escape \\u{hex}")),
                            }
                        }
                        Some((_, c @ ('"' | '\\' | '/'))) => s.push(c),
                        other => return Err(format!("unsupported escape {other:?}")),
                    },
                    Some((_, c)) => s.push(c),
                    None => return Err("unterminated string".to_string()),
                }
            }
        };
    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("expected '{'".to_string()),
    }
    skip_ws(&mut chars);
    if chars.next_if(|&(_, c)| c == '}').is_some() {
        return Ok(fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ':')) => {}
            other => return Err(format!("expected ':', found {other:?}")),
        }
        skip_ws(&mut chars);
        let val = match chars.peek() {
            Some(&(_, '"')) => JsonVal::Str(parse_string(&mut chars)?),
            Some(&(start, c)) if c == 't' || c == 'f' => {
                let rest = &line[start..];
                if rest.starts_with("true") {
                    for _ in 0..4 {
                        chars.next();
                    }
                    JsonVal::Bool(true)
                } else if rest.starts_with("false") {
                    for _ in 0..5 {
                        chars.next();
                    }
                    JsonVal::Bool(false)
                } else {
                    return Err(format!("bad literal at byte {start}"));
                }
            }
            Some(&(start, c)) if c == '-' || c.is_ascii_digit() => {
                let mut end = start;
                while let Some(&(i, c)) = chars.peek() {
                    if c == '-'
                        || c == '+'
                        || c == '.'
                        || c == 'e'
                        || c == 'E'
                        || c.is_ascii_digit()
                    {
                        end = i + c.len_utf8();
                        chars.next();
                    } else {
                        break;
                    }
                }
                let text = &line[start..end];
                JsonVal::Num(
                    text.parse()
                        .map_err(|e| format!("bad number '{text}': {e}"))?,
                )
            }
            other => return Err(format!("unsupported value at {other:?}")),
        };
        fields.push((key, val));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    skip_ws(&mut chars);
    match chars.next() {
        None => Ok(fields),
        Some((i, c)) => Err(format!("trailing '{c}' at byte {i}")),
    }
}

/// A parsed serve job. Parsing never fails the batch: a bad line
/// becomes a job whose `spec` is the parse error, drained to `degraded`
/// like any other poisoned work.
#[derive(Debug)]
pub struct Job {
    /// Job identifier (the `id` field, or `job-<line>` when absent).
    pub id: String,
    /// What to run, or why the line could not be understood.
    spec: Result<JobSpec, String>,
}

#[derive(Debug)]
enum JobSpec {
    /// Regenerate Table 1 through the persistent delay cache.
    Table1 { paper: bool },
    /// PPSFP-grade a named circuit under a phased-LFSR test set.
    Grade {
        circuit: String,
        tests: usize,
        seed: u64,
        stage: BreakdownStage,
    },
    /// A small fleet simulation over a named circuit's BIST profile.
    Fleet {
        circuit: String,
        devices: u64,
        seed: u64,
    },
    /// A trivial deterministic spin job: exercises the supervision
    /// machinery (heartbeats, watchdog, chaos hangs) without engine
    /// noise.
    Noop { spins: u64 },
}

impl JobSpec {
    fn kind(&self) -> &'static str {
        match self {
            JobSpec::Table1 { .. } => "table1",
            JobSpec::Grade { .. } => "grade",
            JobSpec::Fleet { .. } => "fleet",
            JobSpec::Noop { .. } => "noop",
        }
    }
}

fn parse_stage(s: &str) -> Result<BreakdownStage, String> {
    match s {
        "sbd" => Ok(BreakdownStage::Sbd),
        "mbd1" => Ok(BreakdownStage::Mbd1),
        "mbd2" => Ok(BreakdownStage::Mbd2),
        "mbd3" => Ok(BreakdownStage::Mbd3),
        "hbd" => Ok(BreakdownStage::Hbd),
        other => Err(format!(
            "unknown stage '{other}' (expected sbd, mbd1, mbd2, mbd3 or hbd)"
        )),
    }
}

/// Parses one JSONL line into a job. `line_no` is 1-based, for default
/// ids and error context.
fn parse_job(line: &str, line_no: usize) -> Job {
    let fields = match parse_flat_json(line) {
        Ok(f) => f,
        Err(e) => {
            return Job {
                id: format!("job-{line_no}"),
                spec: Err(format!("line {line_no}: {e}")),
            }
        }
    };
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let id = get("id")
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .unwrap_or_else(|| format!("job-{line_no}"));
    let str_field = |key: &str, default: &str| -> Result<String, String> {
        match get(key) {
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field '{key}' must be a string")),
            None => Ok(default.to_string()),
        }
    };
    let u64_field = |key: &str, default: u64| -> Result<u64, String> {
        match get(key) {
            Some(v) => v
                .as_u64()
                .ok_or_else(|| format!("field '{key}' must be a non-negative integer")),
            None => Ok(default),
        }
    };
    let spec = (|| -> Result<JobSpec, String> {
        let kind = str_field("kind", "")?;
        match kind.as_str() {
            "table1" => {
                let resolution = str_field("resolution", "fast")?;
                match resolution.as_str() {
                    "fast" => Ok(JobSpec::Table1 { paper: false }),
                    "paper" => Ok(JobSpec::Table1 { paper: true }),
                    other => Err(format!(
                        "unknown resolution '{other}' (expected fast or paper)"
                    )),
                }
            }
            "grade" => Ok(JobSpec::Grade {
                circuit: str_field("circuit", "c17")?,
                tests: u64_field("tests", 64)?.clamp(1, 100_000) as usize,
                seed: u64_field("seed", 0x0BD_B157)?,
                stage: parse_stage(&str_field("stage", "mbd2")?)?,
            }),
            "fleet" => Ok(JobSpec::Fleet {
                circuit: str_field("circuit", "c17")?,
                devices: u64_field("devices", 2_000)?.max(1),
                seed: u64_field("seed", 0x0BDF_1EE7)?,
            }),
            "noop" => Ok(JobSpec::Noop {
                spins: u64_field("spins", 4_096)?.min(1 << 20),
            }),
            "" => Err("missing 'kind' field".to_string()),
            other => Err(format!(
                "unknown kind '{other}' (expected table1, grade, fleet or noop)"
            )),
        }
    })();
    Job { id, spec }
}

/// Parses a whole JSONL batch (blank lines skipped).
pub fn parse_batch(text: &str) -> Vec<Job> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_job(l, i + 1))
        .collect()
}

/// Digest of a batch's payload lines: the namespace of its checkpoint
/// ledger. Two textually identical queues resume each other; any edit
/// to any job line moves the whole batch to a fresh ledger.
pub fn batch_digest(text: &str) -> u64 {
    let mut d = Digest::new("serve.batch.v1");
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        d = d.str(line);
    }
    d.finish()
}

/// Terminal state of one serve job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed; its artifact is valid.
    Done,
    /// Poisoned input or a typed engine error; no artifact.
    Degraded,
    /// Quarantined by the watchdog after bounded retries.
    DeadLettered,
    /// The worker panicked mid-job (caught at the job boundary).
    Panicked,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Degraded => "degraded",
            JobStatus::DeadLettered => "dead_lettered",
            JobStatus::Panicked => "panicked",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            JobStatus::Done => 0,
            JobStatus::Degraded => 1,
            JobStatus::DeadLettered => 2,
            JobStatus::Panicked => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(JobStatus::Done),
            1 => Some(JobStatus::Degraded),
            2 => Some(JobStatus::DeadLettered),
            3 => Some(JobStatus::Panicked),
            _ => None,
        }
    }
}

/// Outcome row of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job identifier from the queue.
    pub id: String,
    /// Job kind (`table1`/`grade`/`fleet`/`noop`), `unknown` for
    /// unparsable lines.
    pub kind: String,
    /// Terminal state.
    pub status: JobStatus,
    /// Wall-clock time spent on the publishing attempt.
    pub wall_ms: f64,
    /// Persistent-store hits counted by the job's own engine.
    pub store_hits: u64,
    /// Persistent-store misses counted by the job's own engine.
    pub store_misses: u64,
    /// One-line outcome (coverage summary, table digest, or the error).
    /// Deterministic for a fixed job: replayed and recomputed runs
    /// render the same detail.
    pub detail: String,
    /// Artifact body for `done` jobs (written by the caller or, in
    /// streaming mode, at completion).
    pub artifact: Option<String>,
    /// Attempts started for this job (1 without watchdog intervention).
    pub attempts: u32,
    /// `serve.worker_hang` injections this job absorbed.
    pub hangs: u32,
    /// Whether this outcome was served from the checkpoint ledger.
    pub replayed: bool,
}

/// What one job produced: its engine-level store traffic, a one-line
/// summary, and an optional artifact body.
struct JobOutput {
    store_hits: u64,
    store_misses: u64,
    detail: String,
    artifact: Option<String>,
}

fn run_table1(paper: bool) -> Result<JobOutput, String> {
    let tech = TechParams::date05();
    let cfg = if paper {
        BenchConfig::table1()
    } else {
        quick_bench_config()
    };
    let cache = DelayCache::auto();
    let opts = RunOptions {
        threads: 1,
        cache: Some(&cache),
        ..RunOptions::default()
    };
    let table = characterize_table1(&tech, &cfg, &opts)
        .into_result()
        .map_err(|e| e.to_string())?;
    let rendered = table.render();
    Ok(JobOutput {
        store_hits: cache.store_hits(),
        store_misses: cache.store_misses(),
        // Store traffic is volatile (warm vs cold) and must stay out of
        // the deterministic detail; it lives in the row's own counters.
        detail: format!("{} rows characterized", table.rows.len()),
        artifact: Some(rendered),
    })
}

fn run_grade(
    circuit: &str,
    tests: usize,
    seed: u64,
    stage: BreakdownStage,
) -> Result<JobOutput, String> {
    let nl = netlist_by_name(circuit).map_err(|e| e.to_string())?;
    let sim = FaultSimulator::new(&nl).map_err(|e| e.to_string())?;
    let test_set =
        obd_atpg::bist::phased_lfsr_two_pattern_tests(nl.inputs().len(), tests, 16, seed);
    let mut faults = stuck_at_faults(&nl);
    faults.extend(transition_faults(&nl));
    faults.extend(obd_faults(&nl, stage, false));
    let engine = PpsfpEngine::<1>::prepare(&sim, &test_set).map_err(|e| e.to_string())?;
    let detected = engine
        .grade_parallel(&faults, 1)
        .map_err(|e| e.to_string())?
        .iter()
        .filter(|&&d| d)
        .count();
    let detail = format!(
        "{circuit}: {detected}/{} faults detected by {} tests ({} blocks)",
        faults.len(),
        test_set.len(),
        engine.num_blocks(),
    );
    let artifact = format!(
        "circuit: {circuit}\nstage: {stage}\ntests: {}\nseed: {seed:#x}\nfaults: {}\ndetected: {detected}\ncoverage: {:.4}\n",
        test_set.len(),
        faults.len(),
        detected as f64 / faults.len().max(1) as f64
    );
    Ok(JobOutput {
        store_hits: engine.store_hits(),
        store_misses: engine.store_misses(),
        detail,
        artifact: Some(artifact),
    })
}

fn run_fleet_job(circuit: &str, devices: u64, seed: u64) -> Result<JobOutput, String> {
    let cfg = FleetConfig {
        devices,
        seed,
        threads: 1,
        ..FleetConfig::default()
    };
    let profile = profile_for_circuit(&cfg, circuit)?;
    let report = run_fleet(&cfg, &profile).map_err(|e| e.to_string())?;
    let a = &report.accum;
    Ok(JobOutput {
        // The fleet consumes a pre-graded profile; its store traffic is
        // the profile's, which `profile_for_circuit` runs cold here.
        store_hits: 0,
        store_misses: 0,
        detail: format!(
            "{circuit}: {} devices, {} afflicted, {} detected, escape rate {:.3e}",
            a.devices,
            a.afflicted,
            a.detected,
            report.escape_rate()
        ),
        artifact: Some(report.render()),
    })
}

fn run_noop(spins: u64, beat: &dyn Fn()) -> Result<JobOutput, String> {
    let mut x = GOLDEN ^ spins.wrapping_add(1);
    for i in 0..spins {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if i % 1024 == 0 {
            beat();
        }
    }
    Ok(JobOutput {
        store_hits: 0,
        store_misses: 0,
        detail: format!(
            "noop: {spins} spins, checksum {:#018x}",
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        ),
        artifact: None,
    })
}

/// How one attempt at a job ended (terminalization is the publisher's
/// call — an attempt may be abandoned and its outcome discarded).
enum Attempt {
    Output(JobOutput),
    Typed(String),
    Panicked,
}

fn run_attempt(job: &Job, beat: &dyn Fn()) -> (String, Attempt) {
    match &job.spec {
        Err(e) => ("unknown".to_string(), Attempt::Typed(e.clone())),
        Ok(spec) => {
            let kind = spec.kind().to_string();
            beat();
            let run = || match spec {
                JobSpec::Table1 { paper } => run_table1(*paper),
                JobSpec::Grade {
                    circuit,
                    tests,
                    seed,
                    stage,
                } => run_grade(circuit, *tests, *seed, *stage),
                JobSpec::Fleet {
                    circuit,
                    devices,
                    seed,
                } => run_fleet_job(circuit, *devices, *seed),
                JobSpec::Noop { spins } => run_noop(*spins, beat),
            };
            match catch_unwind(AssertUnwindSafe(run)) {
                Ok(Ok(out)) => (kind, Attempt::Output(out)),
                Ok(Err(e)) => (kind, Attempt::Typed(e)),
                Err(_) => (kind, Attempt::Panicked),
            }
        }
    }
}

/// Supervision and persistence knobs of one batch. `run_batch` uses the
/// defaults; the CLI arms the ledger, stream, artifact and dead-letter
/// sinks on top.
#[derive(Debug)]
pub struct ServeOptions<'a> {
    /// Initial worker threads (the watchdog may spawn replacements).
    pub threads: usize,
    /// Heartbeat deadline per attempt, milliseconds.
    pub deadline_ms: u64,
    /// Watchdog requeues before a job is dead-lettered.
    pub max_retries: u32,
    /// Exponential backoff base for requeued attempts, milliseconds.
    pub backoff_base_ms: u64,
    /// Seed of the deterministic backoff jitter.
    pub backoff_seed: u64,
    /// Checkpoint ledger: the store and the batch digest naming it.
    pub ledger: Option<(&'a Store, u64)>,
    /// Append-only JSONL stream of terminal outcomes.
    pub stream_path: Option<PathBuf>,
    /// Directory receiving each done job's artifact at completion.
    pub artifacts_dir: Option<PathBuf>,
    /// Dead-letter quarantine file (JSONL, append-only).
    pub dead_letter_path: Option<PathBuf>,
}

impl ServeOptions<'_> {
    /// Defaults: deadline from `OBD_SERVE_DEADLINE_MS` (60 s fallback),
    /// bounded retries, no persistence sinks.
    pub fn new(threads: usize) -> ServeOptions<'static> {
        let deadline_ms = std::env::var(DEADLINE_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .filter(|&d| d > 0)
            .unwrap_or(DEFAULT_DEADLINE_MS);
        ServeOptions {
            threads,
            deadline_ms,
            max_retries: DEFAULT_MAX_RETRIES,
            backoff_base_ms: DEFAULT_BACKOFF_BASE_MS,
            backoff_seed: DEFAULT_BACKOFF_SEED,
            ledger: None,
            stream_path: None,
            artifacts_dir: None,
            dead_letter_path: None,
        }
    }
}

#[derive(Debug)]
enum SlotState {
    /// Waiting for a worker (possibly backed off into the future).
    Queued { not_before: Instant },
    /// An attempt is in flight; the watchdog compares `heartbeat`
    /// against the deadline.
    Running { heartbeat: Instant },
    /// A terminal outcome has been published; late attempts discard.
    Terminal,
}

#[derive(Debug)]
struct Slot {
    state: SlotState,
    /// Attempts started (first attempt = 1).
    attempts: u32,
    /// Hang injections absorbed so far.
    hangs: u32,
    /// Planned consecutive hangs from the per-job chaos roll.
    hang_plan: u32,
    result: Option<JobResult>,
}

/// Shared state of one supervised batch.
struct Ctx<'a> {
    jobs: &'a [Job],
    opts: &'a ServeOptions<'a>,
    deadline: Duration,
    slots: Mutex<Vec<Slot>>,
    stream: Option<Mutex<std::fs::File>>,
    dead_letter: Option<Mutex<std::fs::File>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Escapes a string for a JSON string literal: quote, backslash and every
/// control character, so each string written reads back through
/// [`parse_flat_json`].
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn ledger_key(batch: u64, index: usize, id: &str) -> u64 {
    Digest::new("serve.ledger.v1")
        .u64(batch)
        .u64(index as u64)
        .str(id)
        .finish()
}

fn ledger_encode(r: &JobResult) -> Vec<u8> {
    Enc::new()
        .u8(1) // ledger entry version
        .u8(r.status.to_u8())
        .str(&r.kind)
        .str(&r.detail)
        .bool(r.artifact.is_some())
        .str(r.artifact.as_deref().unwrap_or(""))
        .u64(r.store_hits)
        .u64(r.store_misses)
        .f64(r.wall_ms)
        .u64(u64::from(r.attempts))
        .u64(u64::from(r.hangs))
        .finish()
}

/// Decodes a ledger entry; any malformation is a miss (the job is
/// simply recomputed — the ledger is a cache, never a trust root).
fn ledger_decode(id: &str, bytes: &[u8]) -> Option<JobResult> {
    let mut d = Dec::new(bytes);
    if d.u8().ok()? != 1 {
        return None;
    }
    let status = JobStatus::from_u8(d.u8().ok()?)?;
    let kind = d.str().ok()?.to_string();
    let detail = d.str().ok()?.to_string();
    let has_artifact = d.bool().ok()?;
    let artifact = d.str().ok()?.to_string();
    let store_hits = d.u64().ok()?;
    let store_misses = d.u64().ok()?;
    let wall_ms = d.f64().ok()?;
    let attempts = u32::try_from(d.u64().ok()?).ok()?;
    let hangs = u32::try_from(d.u64().ok()?).ok()?;
    d.finish().ok()?;
    Some(JobResult {
        id: id.to_string(),
        kind,
        status,
        wall_ms,
        store_hits,
        store_misses,
        detail,
        artifact: has_artifact.then_some(artifact),
        attempts,
        hangs,
        replayed: true,
    })
}

/// Ids come from user input: keep only a safe filename alphabet.
fn safe_artifact_name(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn write_artifact(dir: &Path, id: &str, body: &str) -> Option<PathBuf> {
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{}.txt", safe_artifact_name(id)));
    match std::fs::write(&path, body) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("  FAILED to write {}: {e}", path.display());
            None
        }
    }
}

/// Seeded exponential backoff for requeued attempts: `base · 2^(n-1)`
/// capped, plus deterministic per-job jitter so a thundering herd of
/// requeues spreads out reproducibly.
fn backoff(opts: &ServeOptions, index: usize, attempt: u32) -> Duration {
    let base = opts.backoff_base_ms.max(1);
    let exp = base
        .saturating_mul(1 << attempt.saturating_sub(1).min(6))
        .min(2_000);
    let mut x = opts.backoff_seed ^ (index as u64).wrapping_mul(GOLDEN) ^ u64::from(attempt);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    Duration::from_millis(exp + x.wrapping_mul(0x2545_F491_4F6C_DD1D) % base)
}

/// Publishes a terminal outcome for slot `index`. First writer wins:
/// late results from abandoned attempts are discarded, so every job has
/// exactly one terminal row, one ledger entry and one stream line.
fn publish(ctx: &Ctx, index: usize, mut result: JobResult) {
    let won = {
        let mut slots = lock(&ctx.slots);
        let slot = &mut slots[index];
        if matches!(slot.state, SlotState::Terminal) {
            false
        } else {
            slot.state = SlotState::Terminal;
            if !result.replayed {
                result.attempts = slot.attempts.max(1);
                result.hangs = slot.hangs;
            }
            slot.result = Some(result.clone());
            true
        }
    };
    if !won {
        return;
    }
    match result.status {
        JobStatus::Done => JOBS_DONE.inc(),
        JobStatus::Degraded => JOBS_DEGRADED.inc(),
        JobStatus::DeadLettered => SERVE_DEAD_LETTERED.inc(),
        JobStatus::Panicked => JOBS_PANICKED.inc(),
    }
    JOB_WALL_MS.record(result.wall_ms as u64);
    if result.replayed {
        SERVE_REPLAYED.inc();
    } else if let Some((store, batch)) = ctx.opts.ledger {
        // Best-effort: a failed checkpoint write means the job is
        // recomputed on resume, never a failed batch.
        let _ = store.put(
            ledger_key(batch, index, &result.id),
            &ledger_encode(&result),
        );
    }
    if let Some(stream) = &ctx.stream {
        let line = format!(
            "{{\"id\": \"{}\", \"kind\": \"{}\", \"status\": \"{}\", \"attempts\": {}, \"hangs\": {}, \"replayed\": {}, \"wall_ms\": {:.3}, \"detail\": \"{}\"}}\n",
            esc(&result.id),
            result.kind,
            result.status.as_str(),
            result.attempts,
            result.hangs,
            result.replayed,
            result.wall_ms,
            esc(&result.detail)
        );
        let _ = lock(stream).write_all(line.as_bytes());
    }
    if let (Some(dir), Some(body)) = (&ctx.opts.artifacts_dir, &result.artifact) {
        write_artifact(dir, &result.id, body);
    }
    if result.status == JobStatus::DeadLettered && !result.replayed {
        if let Some(dl) = &ctx.dead_letter {
            let line = format!(
                "{{\"id\": \"{}\", \"kind\": \"{}\", \"attempts\": {}, \"detail\": \"{}\"}}\n",
                esc(&result.id),
                result.kind,
                result.attempts,
                esc(&result.detail)
            );
            let _ = lock(dl).write_all(line.as_bytes());
        }
    }
}

enum Claim {
    Job(usize, u32),
    Wait(Duration),
    Exit,
}

fn claim(ctx: &Ctx) -> Claim {
    let now = Instant::now();
    let mut slots = lock(&ctx.slots);
    let mut wait: Option<Instant> = None;
    for (i, s) in slots.iter_mut().enumerate() {
        if let SlotState::Queued { not_before } = s.state {
            if not_before <= now {
                s.state = SlotState::Running { heartbeat: now };
                s.attempts += 1;
                return Claim::Job(i, s.attempts);
            }
            wait = Some(wait.map_or(not_before, |w| w.min(not_before)));
        }
    }
    match wait {
        // A backed-off job exists: nap until it becomes eligible (capped
        // so a watchdog requeue is noticed promptly).
        Some(t) => Claim::Wait(
            t.saturating_duration_since(now)
                .clamp(Duration::from_micros(200), Duration::from_millis(5)),
        ),
        // No queued work left. Running slots belong to other workers (or
        // to the watchdog, which spawns replacements when it requeues).
        None => Claim::Exit,
    }
}

fn run_claimed(ctx: &Ctx, index: usize, attempt: u32) {
    let job = &ctx.jobs[index];
    // serve.worker_hang rolls once per job, on its first attempt; the
    // bits plan how many consecutive attempts hang (possibly more than
    // the retry budget — then the job dead-letters). One roll per job
    // keeps the chaos RNG stream independent of watchdog timing.
    if attempt == 1 {
        if let Some(bits) = CHAOS_WORKER_HANG.roll() {
            let span = u64::from(ctx.opts.max_retries) + 1;
            lock(&ctx.slots)[index].hang_plan = (1 + bits % span) as u32;
        }
    }
    let hang = {
        let mut slots = lock(&ctx.slots);
        let s = &mut slots[index];
        if s.hangs < s.hang_plan {
            s.hangs += 1;
            true
        } else {
            false
        }
    };
    if hang {
        // A hung worker never reports back: it idles without
        // heartbeating until the watchdog abandons this attempt
        // (requeue or dead-letter), then silently drops its claim.
        loop {
            std::thread::sleep(Duration::from_millis(1));
            let slots = lock(&ctx.slots);
            let s = &slots[index];
            let abandoned =
                !(matches!(s.state, SlotState::Running { .. }) && s.attempts == attempt);
            if abandoned {
                return;
            }
        }
    }
    let start = Instant::now();
    let beat = || {
        let mut slots = lock(&ctx.slots);
        if let SlotState::Running { heartbeat } = &mut slots[index].state {
            *heartbeat = Instant::now();
        }
    };
    let (kind, outcome) = run_attempt(job, &beat);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let blank = JobResult {
        id: job.id.clone(),
        kind,
        status: JobStatus::Done,
        wall_ms,
        store_hits: 0,
        store_misses: 0,
        detail: String::new(),
        artifact: None,
        attempts: 0,
        hangs: 0,
        replayed: false,
    };
    let result = match outcome {
        Attempt::Output(out) => JobResult {
            store_hits: out.store_hits,
            store_misses: out.store_misses,
            detail: out.detail,
            artifact: out.artifact,
            ..blank
        },
        Attempt::Typed(e) => JobResult {
            status: JobStatus::Degraded,
            detail: e,
            ..blank
        },
        Attempt::Panicked => JobResult {
            status: JobStatus::Panicked,
            detail: "worker panicked (caught at the job boundary)".to_string(),
            ..blank
        },
    };
    publish(ctx, index, result);
}

fn worker(ctx: &Ctx) {
    loop {
        match claim(ctx) {
            Claim::Exit => break,
            Claim::Wait(d) => std::thread::sleep(d),
            Claim::Job(i, attempt) => run_claimed(ctx, i, attempt),
        }
    }
}

/// The watchdog: scans running attempts every tick; a stale heartbeat
/// past the deadline is either requeued with backoff (plus a
/// replacement worker, since the hung one may never return) or — once
/// the retry budget is spent — dead-lettered so the batch can finish.
fn watchdog<'scope, 'a>(ctx: &'scope Ctx<'a>, scope: &'scope std::thread::Scope<'scope, '_>) {
    let tick = Duration::from_millis((ctx.opts.deadline_ms / 8).clamp(2, 200));
    loop {
        std::thread::sleep(tick);
        let now = Instant::now();
        let mut dead: Vec<(usize, JobResult)> = Vec::new();
        let mut requeued = 0u32;
        {
            let mut slots = lock(&ctx.slots);
            if slots.iter().all(|s| matches!(s.state, SlotState::Terminal)) {
                return;
            }
            for (i, s) in slots.iter_mut().enumerate() {
                let SlotState::Running { heartbeat } = s.state else {
                    continue;
                };
                if now.saturating_duration_since(heartbeat) < ctx.deadline {
                    continue;
                }
                if s.attempts > ctx.opts.max_retries {
                    dead.push((
                        i,
                        JobResult {
                            id: ctx.jobs[i].id.clone(),
                            kind: ctx.jobs[i]
                                .spec
                                .as_ref()
                                .map_or("unknown".to_string(), |sp| sp.kind().to_string()),
                            status: JobStatus::DeadLettered,
                            wall_ms: ctx.opts.deadline_ms as f64,
                            store_hits: 0,
                            store_misses: 0,
                            detail: format!(
                                "no heartbeat within {} ms on attempt {} of {}; quarantined",
                                ctx.opts.deadline_ms,
                                s.attempts,
                                ctx.opts.max_retries + 1
                            ),
                            artifact: None,
                            attempts: s.attempts,
                            hangs: s.hangs,
                            replayed: false,
                        },
                    ));
                } else {
                    s.state = SlotState::Queued {
                        not_before: now + backoff(ctx.opts, i, s.attempts),
                    };
                    SERVE_RETRIES.inc();
                    requeued += 1;
                }
            }
        }
        for (i, r) in dead {
            publish(ctx, i, r);
        }
        for _ in 0..requeued {
            SERVE_WATCHDOG_RESTARTS.inc();
            scope.spawn(|| worker(ctx));
        }
    }
}

/// Report of one drained batch.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-job outcome rows, in queue order.
    pub jobs: Vec<JobResult>,
    /// Worker threads used.
    pub threads: usize,
    /// Whether a persistent store was armed for the batch.
    pub store_enabled: bool,
    /// Store directory (empty when disabled).
    pub store_dir: String,
    /// Process-wide store hits at the end of the batch.
    pub store_hits: u64,
    /// Process-wide store misses at the end of the batch.
    pub store_misses: u64,
    /// Process-wide records appended at the end of the batch.
    pub store_puts: u64,
}

impl ServeReport {
    /// Jobs in a given terminal state.
    pub fn count(&self, status: JobStatus) -> usize {
        self.jobs.iter().filter(|j| j.status == status).count()
    }

    /// Jobs served from the checkpoint ledger.
    pub fn replayed(&self) -> usize {
        self.jobs.iter().filter(|j| j.replayed).count()
    }

    /// Whether every job reached a handled terminal state and none
    /// panicked (dead-lettered jobs are handled: quarantined, reported).
    pub fn clean(&self) -> bool {
        self.count(JobStatus::Panicked) == 0
    }

    /// Human-readable drain summary.
    pub fn render(&self) -> String {
        let mut s = format!(
            "serve: {} jobs on {} workers — {} done, {} degraded, {} dead_lettered, {} panicked ({} replayed)\n",
            self.jobs.len(),
            self.threads,
            self.count(JobStatus::Done),
            self.count(JobStatus::Degraded),
            self.count(JobStatus::DeadLettered),
            self.count(JobStatus::Panicked),
            self.replayed(),
        );
        if self.store_enabled {
            s.push_str(&format!(
                "store: {} ({} hits, {} misses, {} puts)\n",
                self.store_dir, self.store_hits, self.store_misses, self.store_puts
            ));
        } else {
            s.push_str("store: disabled (cold run)\n");
        }
        for j in &self.jobs {
            s.push_str(&format!(
                "  {:<10} {:<8} {:<13} {:>8.1}ms  x{}  store {}h/{}m  {}\n",
                j.id,
                j.kind,
                j.status.as_str(),
                j.wall_ms,
                j.attempts,
                j.store_hits,
                j.store_misses,
                j.detail
            ));
        }
        s
    }

    /// The `SERVE_run.json` artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"jobs_total\": {},\n", self.jobs.len()));
        s.push_str(&format!("  \"done\": {},\n", self.count(JobStatus::Done)));
        s.push_str(&format!(
            "  \"degraded\": {},\n",
            self.count(JobStatus::Degraded)
        ));
        s.push_str(&format!(
            "  \"dead_lettered\": {},\n",
            self.count(JobStatus::DeadLettered)
        ));
        s.push_str(&format!(
            "  \"panicked\": {},\n",
            self.count(JobStatus::Panicked)
        ));
        s.push_str(&format!("  \"replayed\": {},\n", self.replayed()));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str("  \"store\": {\n");
        s.push_str(&format!("    \"enabled\": {},\n", self.store_enabled));
        s.push_str(&format!("    \"dir\": \"{}\",\n", esc(&self.store_dir)));
        s.push_str(&format!("    \"hits\": {},\n", self.store_hits));
        s.push_str(&format!("    \"misses\": {},\n", self.store_misses));
        s.push_str(&format!("    \"puts\": {}\n", self.store_puts));
        s.push_str("  },\n");
        s.push_str("  \"jobs\": [\n");
        for (i, j) in self.jobs.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"kind\": \"{}\", \"status\": \"{}\", \"wall_ms\": {:.3}, \"attempts\": {}, \"hangs\": {}, \"replayed\": {}, \"store_hits\": {}, \"store_misses\": {}, \"detail\": \"{}\"}}{}\n",
                esc(&j.id),
                j.kind,
                j.status.as_str(),
                j.wall_ms,
                j.attempts,
                j.hangs,
                j.replayed,
                j.store_hits,
                j.store_misses,
                esc(&j.detail),
                if i + 1 < self.jobs.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Queue-ordered, fully deterministic per-job outcome lines — the
    /// byte-identity gate for kill/resume testing. Volatile fields
    /// (wall time, store traffic, attempt counts, replay provenance)
    /// are deliberately excluded: an interrupted-and-resumed run must
    /// emit exactly the bytes of an uninterrupted one.
    pub fn canonical_jsonl(&self) -> String {
        let mut s = String::new();
        for j in &self.jobs {
            s.push_str(&format!(
                "{{\"id\": \"{}\", \"kind\": \"{}\", \"status\": \"{}\", \"detail\": \"{}\"}}\n",
                esc(&j.id),
                j.kind,
                j.status.as_str(),
                esc(&j.detail)
            ));
        }
        s
    }
}

/// Drains `jobs` with the default supervision knobs and no persistence
/// sinks (the in-process entry point; the CLI uses [`run_supervised`]).
pub fn run_batch(jobs: &[Job], threads: usize) -> ServeReport {
    run_supervised(jobs, &ServeOptions::new(threads))
}

/// Drains `jobs` under full supervision: ledger replay first, then
/// work-stealing workers with heartbeats, a watchdog requeueing or
/// dead-lettering stale attempts, and streaming sinks fed as each job
/// reaches its terminal state.
pub fn run_supervised(jobs: &[Job], opts: &ServeOptions) -> ServeReport {
    let threads = opts.threads.max(1).min(jobs.len().max(1));
    WORKERS.set(threads as f64);
    let store = obd_store::global();
    let open_append = |p: &PathBuf| -> Option<Mutex<std::fs::File>> {
        if let Some(parent) = p.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)
        {
            Ok(f) => Some(Mutex::new(f)),
            Err(e) => {
                eprintln!("  serve: cannot open {}: {e}", p.display());
                None
            }
        }
    };
    let ctx = Ctx {
        jobs,
        opts,
        deadline: Duration::from_millis(opts.deadline_ms.max(1)),
        slots: Mutex::new(
            (0..jobs.len())
                .map(|_| Slot {
                    state: SlotState::Queued {
                        not_before: Instant::now(),
                    },
                    attempts: 0,
                    hangs: 0,
                    hang_plan: 0,
                    result: None,
                })
                .collect(),
        ),
        stream: opts.stream_path.as_ref().and_then(open_append),
        dead_letter: opts.dead_letter_path.as_ref().and_then(open_append),
    };
    // Resume: any job whose terminal outcome the ledger already holds is
    // replayed (artifact rewritten, stream line emitted) — only the
    // missing work runs.
    if let Some((ledger, batch)) = opts.ledger {
        for (i, job) in jobs.iter().enumerate() {
            let Ok(Some(bytes)) = ledger.get(ledger_key(batch, i, &job.id)) else {
                continue;
            };
            if let Some(r) = ledger_decode(&job.id, &bytes) {
                publish(&ctx, i, r);
            }
        }
    }
    let outstanding = lock(&ctx.slots)
        .iter()
        .any(|s| !matches!(s.state, SlotState::Terminal));
    if outstanding {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| worker(&ctx));
            }
            scope.spawn(|| watchdog(&ctx, scope));
        });
    }
    let results = lock(&ctx.slots)
        .iter_mut()
        .enumerate()
        .map(|(i, s)| {
            // Every slot is terminal once the watchdog exits; the
            // backstop row guards the impossible gap.
            s.result.take().unwrap_or_else(|| JobResult {
                id: jobs[i].id.clone(),
                kind: "unknown".to_string(),
                status: JobStatus::Panicked,
                wall_ms: 0.0,
                store_hits: 0,
                store_misses: 0,
                detail: "job claimed but never published".to_string(),
                artifact: None,
                attempts: 0,
                hangs: 0,
                replayed: false,
            })
        })
        .collect();
    ServeReport {
        jobs: results,
        threads,
        store_enabled: store.is_some(),
        store_dir: store
            .as_deref()
            .map(|s| s.path().display().to_string())
            .unwrap_or_default(),
        store_hits: store.as_deref().map_or(0, |s| s.hits()),
        store_misses: store.as_deref().map_or(0, |s| s.misses()),
        store_puts: store.as_deref().map_or(0, |s| s.puts()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("obd-serve-{tag}-{}", std::process::id()))
    }

    #[test]
    fn flat_json_parses_the_three_value_kinds() {
        let fields =
            parse_flat_json(r#"{"id": "t1", "tests": 64, "deep": true, "x": -1.5e2}"#).unwrap();
        assert_eq!(
            fields[0],
            ("id".to_string(), JsonVal::Str("t1".to_string()))
        );
        assert_eq!(fields[1].1.as_u64(), Some(64));
        assert_eq!(fields[2].1, JsonVal::Bool(true));
        assert_eq!(fields[3].1, JsonVal::Num(-150.0));
        assert!(parse_flat_json(r#"{"nested": {"no": 1}}"#).is_err());
        assert!(parse_flat_json(r#"{"id": "x"} trailing"#).is_err());
        assert!(parse_flat_json("not json").is_err());
        assert!(parse_flat_json("{}").unwrap().is_empty());
        let escaped = parse_flat_json(r#"{"s": "\b\f\r\u0041\u00e9\/"}"#).unwrap();
        assert_eq!(
            escaped[0].1,
            JsonVal::Str("\u{8}\u{c}\rA\u{e9}/".to_string())
        );
        assert!(parse_flat_json(r#"{"s": "\u00g1"}"#).is_err());
        assert!(parse_flat_json(r#"{"s": "\ud800"}"#).is_err());
        assert!(parse_flat_json(r#"{"s": "\u12"}"#).is_err());
    }

    /// Every string the writers emit must read back: ids holding each
    /// ASCII control character drain to `done`, and each canonical line
    /// parses back to its job's id.
    #[test]
    fn control_characters_in_ids_survive_the_json_round_trip() {
        let ids: Vec<String> = (0u8..0x20)
            .chain([0x7f])
            .map(|b| format!("id{}end", b as char))
            .collect();
        let queue: String = ids
            .iter()
            .map(|id| {
                format!(
                    "{{\"id\": \"{}\", \"kind\": \"noop\", \"spins\": 16}}\n",
                    esc(id)
                )
            })
            .collect();
        let batch = parse_batch(&queue);
        let parsed: Vec<&str> = batch.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(parsed, ids);
        let report = run_batch(&batch, 1);
        assert_eq!(report.count(JobStatus::Done), ids.len());
        let canonical = report.canonical_jsonl();
        let lines: Vec<&str> = canonical.split_terminator('\n').collect();
        assert_eq!(lines.len(), ids.len());
        let raw_control = |text: &str| text.chars().any(|c| c < ' ' && c != '\n');
        assert!(
            !raw_control(&canonical),
            "JSON strings may not hold raw controls"
        );
        assert!(!raw_control(&report.to_json()));
        for (line, id) in lines.iter().zip(&ids) {
            let fields = parse_flat_json(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert_eq!(fields[0], ("id".to_string(), JsonVal::Str(id.clone())));
        }
    }

    #[test]
    fn poisoned_lines_become_degradable_jobs_not_errors() {
        let batch = parse_batch(
            "{\"id\": \"ok\", \"kind\": \"grade\"}\n\ngarbage\n{\"id\": \"bad\", \"kind\": \"warp\"}\n",
        );
        assert_eq!(batch.len(), 3, "blank lines are skipped, bad ones kept");
        assert!(batch[0].spec.is_ok());
        assert!(batch[1].spec.is_err());
        assert_eq!(batch[2].id, "bad");
        assert!(batch[2].spec.as_ref().unwrap_err().contains("warp"));
    }

    #[test]
    fn batch_drains_to_terminal_states_with_poison_isolated() {
        let batch = parse_batch(concat!(
            "{\"id\": \"g-c17\", \"kind\": \"grade\", \"circuit\": \"c17\", \"tests\": 40, \"seed\": 3}\n",
            "{\"id\": \"px\", \"kind\": \"grade\", \"circuit\": \"no-such-circuit\"}\n",
            "{\"id\": \"f-small\", \"kind\": \"fleet\", \"devices\": 500, \"seed\": 11}\n",
        ));
        let report = run_batch(&batch, 2);
        assert_eq!(report.jobs.len(), 3);
        assert!(report.clean(), "typed failures must not panic");
        assert_eq!(report.count(JobStatus::Done), 2);
        assert_eq!(report.count(JobStatus::Degraded), 1);
        let px = report.jobs.iter().find(|j| j.id == "px").unwrap();
        assert_eq!(px.status, JobStatus::Degraded);
        assert!(px.detail.contains("no-such-circuit"));
        assert!(px.artifact.is_none());
        let done = report.jobs.iter().find(|j| j.id == "g-c17").unwrap();
        assert!(done.artifact.as_deref().unwrap().contains("coverage"));
        assert_eq!(done.attempts, 1, "no watchdog intervention expected");
        assert!(!done.replayed);
        let json = report.to_json();
        assert!(json.contains("\"jobs_total\": 3"));
        assert!(json.contains("\"degraded\": 1"));
        assert!(json.contains("\"dead_lettered\": 0"));
        assert!(json.contains("\"id\": \"px\""));
    }

    #[test]
    fn noop_jobs_run_deterministically_and_carry_no_artifact() {
        let batch = parse_batch("{\"id\": \"n1\", \"kind\": \"noop\", \"spins\": 2048}\n");
        let a = run_batch(&batch, 1);
        assert_eq!(a.count(JobStatus::Done), 1);
        let j = &a.jobs[0];
        assert_eq!(j.kind, "noop");
        assert!(j.detail.contains("2048 spins"), "detail: {}", j.detail);
        assert!(j.artifact.is_none());
        assert_eq!(j.hangs, 0, "chaos disarmed: no hangs");
        let b = run_batch(&batch, 1);
        assert_eq!(a.jobs[0].detail, b.jobs[0].detail, "checksum is seeded");
        assert_eq!(a.canonical_jsonl(), b.canonical_jsonl());
        assert!(
            !a.canonical_jsonl().contains("wall_ms"),
            "canonical lines must exclude volatile fields"
        );
    }

    #[test]
    fn batch_digest_tracks_payload_lines_only() {
        let a = "{\"id\": \"x\", \"kind\": \"noop\"}\n";
        let b = "{\"id\": \"x\", \"kind\": \"noop\"}\n\n   \n";
        let c = "{\"id\": \"y\", \"kind\": \"noop\"}\n";
        assert_eq!(batch_digest(a), batch_digest(a));
        assert_eq!(
            batch_digest(a),
            batch_digest(b),
            "blank lines are not payload"
        );
        assert_ne!(batch_digest(a), batch_digest(c));
    }

    #[test]
    fn ledger_entries_roundtrip_bit_exact_and_reject_malformation() {
        let r = JobResult {
            id: "g-1".to_string(),
            kind: "grade".to_string(),
            status: JobStatus::Done,
            wall_ms: 12.625,
            store_hits: 7,
            store_misses: 3,
            detail: "c17: 40/41 faults".to_string(),
            artifact: Some("coverage: 0.9756\n".to_string()),
            attempts: 2,
            hangs: 1,
            replayed: false,
        };
        let bytes = ledger_encode(&r);
        let d = ledger_decode("g-1", &bytes).unwrap();
        assert_eq!(d.status, JobStatus::Done);
        assert_eq!(d.detail, r.detail);
        assert_eq!(d.artifact, r.artifact);
        assert_eq!(d.wall_ms, r.wall_ms, "f64 survives bit-exact");
        assert_eq!(d.attempts, 2);
        assert_eq!(d.hangs, 1);
        assert!(d.replayed, "decoded entries are marked as replays");
        for cut in 0..bytes.len() {
            assert!(ledger_decode("g-1", &bytes[..cut]).is_none(), "cut {cut}");
        }
        let mut versioned = bytes.clone();
        versioned[0] = 9;
        assert!(ledger_decode("g-1", &versioned).is_none());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(ledger_decode("g-1", &trailing).is_none());
    }

    #[test]
    fn ledger_replays_terminal_outcomes_without_recomputing() {
        let dir = temp_dir("ledger");
        let _ = std::fs::remove_dir_all(&dir);
        let text = concat!(
            "{\"id\": \"n1\", \"kind\": \"noop\", \"spins\": 256}\n",
            "{\"id\": \"bad\", \"kind\": \"warp\"}\n",
            "{\"id\": \"n2\", \"kind\": \"noop\", \"spins\": 64}\n",
        );
        let jobs = parse_batch(text);
        let digest = batch_digest(text);
        let store = Store::open(&dir).unwrap();
        let mut opts = ServeOptions::new(2);
        opts.ledger = Some((&store, digest));
        let cold = run_supervised(&jobs, &opts);
        assert_eq!(cold.count(JobStatus::Done), 2);
        assert_eq!(cold.count(JobStatus::Degraded), 1);
        assert_eq!(cold.replayed(), 0);
        let frames = store.len();
        assert_eq!(frames, 3, "every terminal outcome is checkpointed");

        let warm = run_supervised(&jobs, &opts);
        assert_eq!(warm.replayed(), 3, "full batch served from the ledger");
        assert_eq!(store.len(), frames, "replay must not rewrite the ledger");
        assert_eq!(
            cold.canonical_jsonl(),
            warm.canonical_jsonl(),
            "resumed output must be byte-identical"
        );
        for (c, w) in cold.jobs.iter().zip(&warm.jobs) {
            assert_eq!(c.status, w.status);
            assert_eq!(c.artifact, w.artifact);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
