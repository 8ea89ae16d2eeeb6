//! One workload in its own process: set-up passes, the timed closed
//! loop, the output checks and, when traced, the per-layer rerun. The
//! report goes to stdout as one JSON line for the parent to read.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::calibrate::{self, Reference};
use crate::calls::{self, Counters, Engine, Fixture, Input, Outcome, Witness};
use crate::golden;
use crate::json::{self, Json};
use crate::stats;
use crate::trace::{Tracer, INPUT, JOB, SETUP};
use crate::workload::{Size, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, WARMUP_JOB};
use crate::OUT_DIR;

/// What one workload process is asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub bless: bool,
    /// Which of the run's processes this is. Part 0 also checks the
    /// outputs and, when asked, traces; the other parts only time jobs.
    pub part: usize,
}

/// The scratch directory of the workload process `pid`, for the fleet's
/// checkpoint stores. The parent removes it too, in case the child died.
pub fn scratch_dir(pid: u32) -> PathBuf {
    Path::new(OUT_DIR).join(format!("tmp-{pid}"))
}

/// [`scratch_dir`] of this process, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, String> {
        let dir = scratch_dir(std::process::id());
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

struct Ctx {
    args: Args,
    size: Size,
    nproc: usize,
    threads: usize,
    scratch: Scratch,
}

/// What a checked job leaves for the checks after the timed phase.
struct Checked {
    input: String,
    digest: u64,
    golden: Vec<String>,
    witness: Witness,
    stats: Vec<(&'static str, f64, &'static str)>,
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Wall time of every job that succeeded, seconds.
    walls: Vec<f64>,
    /// The reference pass timed just before each of those jobs, seconds.
    refs: Vec<f64>,
    items_per_job: f64,
    peak_rss_mb: f64,
    /// `(wall, reference pass)` of the set-up, seconds.
    setup: (f64, f64),
    /// Simulated statistics, averaged over the checked jobs.
    stats: Vec<(&'static str, f64, &'static str)>,
    checks: Vec<String>,
    problems: Vec<String>,
    layers: Vec<(&'static str, f64)>,
    self_ms_per_item: Vec<(&'static str, f64)>,
}

/// Runs the workload and returns its report as one line of JSON.
///
/// # Errors
///
/// A set-up failure, or a traced job that returned an error.
pub fn run(args: Args) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.bless && (args.seed != DEFAULT_SEED || args.smoke) {
        return Err(format!(
            "--bless records the goldens of the default seed {DEFAULT_SEED} at full size"
        ));
    }
    let ctx = Ctx {
        size: Size { smoke: args.smoke },
        nproc,
        threads: args.workload.threads(nproc),
        scratch: Scratch::new()?,
        args,
    };
    let traced = ctx.args.trace && ctx.args.part == 0;
    let mut t = Tracer::new(traced);
    let mut reference = Reference::new(ctx.threads);

    // Set-up runs once per process, from the fixture to the warm-up job's
    // result, so `setup_s` is what a fresh process pays before its first
    // result.
    let ref_s = reference.pass_s();
    let start = Instant::now();
    let fx = t.span(SETUP, |t| Fixture::new(ctx.args.workload, ctx.size, t))?;
    let store_dir = ctx.scratch.join("store");
    let mut engine = t.span(SETUP, |t| Engine::new(&fx, ctx.threads, &store_dir, t))?;
    let warm = engine.run(&engine.input(ctx.args.seed, WARMUP_JOB))?;
    if warm.degraded(fx.expected_cells()) {
        return Err("the warm-up job returned a degraded outcome".to_string());
    }
    let setup = (start.elapsed().as_secs_f64(), ref_s);

    let mut report = measure(&ctx, &mut engine, &fx, &mut t, &mut reference)?;
    report.setup = setup;
    if calls::global_store_armed() {
        report
            .problems
            .push("the global store is armed, so jobs may be served from disk".to_string());
    }
    if traced {
        let p = Path::new(OUT_DIR).join(format!("trace-{}.json", ctx.args.workload.name()));
        fs::write(&p, t.to_json()).map_err(|e| format!("writing {}: {e}", p.display()))?;
    }
    Ok(report.to_json(&ctx))
}

/// The timed closed loop and, in part 0, the checks and the traced
/// rerun.
fn measure(
    ctx: &Ctx,
    engine: &mut Engine,
    fx: &Fixture,
    t: &mut Tracer,
    reference: &mut Reference,
) -> Result<Report, String> {
    let (args, size) = (&ctx.args, ctx.size);
    let checking = args.part == 0;
    let checked_jobs = if checking { size.checked_jobs() } else { 1 };
    let mut r = Report::default();
    let mut checked: Vec<Option<Checked>> = Vec::new();
    let start = Instant::now();
    let mut job = 0u64;
    while job < checked_jobs || (!size.smoke && start.elapsed().as_secs_f64() < args.seconds) {
        let input = engine.input(args.seed, job);
        let ref_s = reference.pass_s();
        let t0 = Instant::now();
        let out = engine.run(&input);
        let wall = t0.elapsed().as_secs_f64();
        r.attempted += 1;
        let out = match out {
            Ok(o) if o.degraded(fx.expected_cells()) => Err("degraded outcome".to_string()),
            other => other,
        };
        match out {
            Ok(o) => {
                r.walls.push(wall);
                r.refs.push(ref_s);
                r.items_per_job = o.items(engine.devices());
                if job < checked_jobs {
                    checked.push(Some(Checked {
                        input: input.describe(),
                        digest: o.digest(),
                        golden: o.golden_lines(&input),
                        witness: o.witness(),
                        stats: o.sim_stats(),
                    }));
                }
            }
            Err(e) => {
                r.failed += 1;
                r.errors.push(format!("job {job}: {e}"));
                if job < checked_jobs {
                    checked.push(None);
                }
            }
        }
        job += 1;
    }
    r.peak_rss_mb = peak_rss_mb(reference.resident_bytes());
    if !checking {
        return Ok(r);
    }
    r.stats = mean_stats(&checked);
    check(ctx, engine, &checked, &mut r);
    if args.trace {
        trace(ctx, engine, fx, t, reference, &checked, &mut r)?;
    }
    Ok(r)
}

/// Averages each simulated statistic over the checked jobs.
fn mean_stats(checked: &[Option<Checked>]) -> Vec<(&'static str, f64, &'static str)> {
    let done: Vec<&Checked> = checked.iter().flatten().collect();
    let Some(first) = done.first() else {
        return Vec::new();
    };
    first
        .stats
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let sum: f64 = done.iter().map(|c| c.stats[i].1).sum();
            (name, sum / done.len() as f64, unit)
        })
        .collect()
}

/// Repeatability, goldens (default seed) and cross-checks, all outside
/// the timed window.
fn check(ctx: &Ctx, engine: &Engine, checked: &[Option<Checked>], r: &mut Report) {
    let (args, size) = (&ctx.args, ctx.size);
    // Jobs with equal inputs must return equal outcomes; the golden file
    // keeps each distinct input once.
    let mut golden = Vec::new();
    let mut seen: Vec<(&str, u64)> = Vec::new();
    for (job, c) in checked.iter().enumerate() {
        let Some(c) = c else {
            golden.push(format!("{job} failed"));
            continue;
        };
        match seen.iter().find(|(i, _)| *i == c.input) {
            Some(&(_, d)) if d != c.digest => {
                r.problems.push(format!(
                    "job {job} repeats input {} with another outcome",
                    c.input
                ));
            }
            Some(_) => {}
            None => {
                seen.push((&c.input, c.digest));
                golden.extend(c.golden.iter().map(|l| format!("{job} {l}")));
            }
        }
    }
    let repeats = checked.iter().flatten().count() - seen.len();
    if repeats > 0 {
        r.checks.push(format!(
            "{repeats} repeated inputs returned identical outcomes"
        ));
    }
    if args.bless {
        match golden::bless(args.workload, &golden) {
            Ok(p) => r.checks.push(format!(
                "blessed {} lines into {}",
                golden.len(),
                p.display()
            )),
            Err(e) => r.problems.push(e),
        }
    } else if (args.seed == DEFAULT_SEED || !args.workload.seeded()) && !size.smoke {
        let mismatches = golden::check(args.workload, &golden);
        if mismatches.is_empty() {
            r.checks
                .push(format!("golden: {} lines match", golden.len()));
        }
        r.problems
            .extend(mismatches.into_iter().map(|m| format!("golden: {m}")));
    }
    let every = size.cross_check_every();
    for (job, c) in checked.iter().enumerate().step_by(every as usize) {
        let Some(c) = c else { continue };
        match engine.cross_check(&engine.input(args.seed, job as u64), &c.witness) {
            Ok(line) if line.is_empty() => {}
            Ok(line) => r.checks.push(format!("cross-check job {job}: {line}")),
            Err(e) => r.problems.push(format!("cross-check job {job}: {e}")),
        }
    }
}

/// Reruns the first jobs through the traced decomposition, first with
/// spans and counters off and then on, and derives the per-layer
/// metrics. Both reruns must reproduce the timed jobs' outcomes bit for
/// bit.
fn trace(
    ctx: &Ctx,
    engine: &mut Engine,
    fx: &Fixture,
    t: &mut Tracer,
    reference: &mut Reference,
    checked: &[Option<Checked>],
    r: &mut Report,
) -> Result<(), String> {
    let (args, w) = (&ctx.args, ctx.args.workload);
    let n = ctx.size.traced_jobs();
    let mut same = |job: u64, o: &Outcome, what: &str| {
        let timed = checked
            .get(job as usize)
            .and_then(Option::as_ref)
            .map(|c| c.digest);
        if timed != Some(o.digest()) {
            r.problems
                .push(format!("{what} job {job} differs from the timed job"));
        }
    };

    engine.fresh_store(&ctx.scratch.join("plain"))?;
    let mut plain = Vec::new();
    for job in 0..n {
        let input = engine.input(args.seed, job);
        let ref_s = reference.pass_s();
        let t0 = Instant::now();
        let o = engine.run_traced(&input, &mut Tracer::new(false))?;
        plain.push(calibrate::nominal(t0.elapsed().as_secs_f64(), ref_s));
        same(job, &o, "untraced decomposition");
    }

    engine.fresh_store(&ctx.scratch.join("traced"))?;
    Counters::set_enabled(true);
    let before = Counters::snapshot();
    let mut traced = Vec::new();
    for job in 0..n {
        t.set_job(job);
        let input: Input = t.span(INPUT, |_| engine.input(args.seed, job));
        let ref_s = reference.pass_s();
        let t0 = Instant::now();
        let o = t.span(JOB, |t| engine.run_traced(&input, t))?;
        traced.push(calibrate::nominal(t0.elapsed().as_secs_f64(), ref_s));
        same(job, &o, "traced");
    }
    let after = Counters::snapshot();
    Counters::set_enabled(false);

    let jobs = n as f64;
    let items = r.items_per_job * jobs;
    let d = |name: &str| after.delta(&before, name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let store_ops = d("store.puts") + d("store.hits") + d("store.misses");
    if w != Workload::Fleet && store_ops > 0.0 {
        r.problems.push(format!(
            "{store_ops} store operations on a workload that must not touch the store"
        ));
    }

    // Percent of the `root` spans' wall spent in the named spans' own
    // time.
    let share = |root: &str, names: &[&str]| {
        let own: Duration = t
            .self_times(root)
            .iter()
            .filter(|(n, _)| names.contains(n))
            .map(|&(_, d)| d)
            .sum();
        100.0 * ratio(own.as_secs_f64(), t.root_total(root).as_secs_f64())
    };
    let stat = |name: &str| {
        r.stats
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |s| s.1)
    };
    let steps = d("spice.tran_steps_accepted");
    let predictor = (
        d("spice.tran_predictor_hits"),
        d("spice.tran_predictor_fallbacks"),
    );
    let solvers = (d("spice.solvers_sparse"), d("spice.solvers_dense"));
    let symbolic = (d("linalg.symbolic_reuse"), d("linalg.symbolic_builds"));
    let memo_hits = d("linalg.memo_full_hits")
        + d("linalg.memo_solve_hits")
        + d("linalg.sparse_memo_full_hits")
        + d("linalg.sparse_memo_solve_hits");
    let memo_misses = d("linalg.memo_misses") + d("linalg.sparse_memo_misses");
    let escalations = t.count("core.escalate") as f64;
    // Job times at nominal host speed, so the comparisons below are not
    // swamped by the host's speed drifting between the phases.
    let untimed_p50 = stats::median(&r.nominal_walls());
    let traced_p50 = stats::median(&traced);
    let plain_p50 = stats::median(&plain);
    let layers = [
        ("cmos.build_pct", share(JOB, &["cmos.build"])),
        ("spice.tran_pct", share(JOB, &["spice.tran"])),
        (
            "core.measure_pct",
            share(JOB, &["core.measure", "core.escalate"]),
        ),
        ("atpg.prepare_pct", share(JOB, &["atpg.prepare"])),
        ("atpg.fault_eval_pct", share(JOB, &["atpg.fault_eval"])),
        ("atpg.transpose_pct", share(JOB, &["atpg.transpose"])),
        ("fleet.campaign_pct", share(JOB, &["fleet.campaign"])),
        ("fleet.report_pct", share(JOB, &["fleet.report"])),
        (
            "logic.setup_pct",
            share(SETUP, &["logic.netlist", "logic.compile"]),
        ),
        ("atpg.setup_pct", share(SETUP, &["atpg.fault_list"])),
        ("fleet.setup_pct", share(SETUP, &["fleet.profile"])),
        ("store.setup_pct", share(SETUP, &["store.open"])),
        ("spice.tran_steps_per_item", ratio(steps, items)),
        (
            "spice.newton_iters_per_step",
            ratio(d("spice.newton_iterations"), steps),
        ),
        (
            "spice.predictor_hit_ratio",
            ratio(predictor.0, predictor.0 + predictor.1),
        ),
        (
            "spice.step_rejections_per_item",
            ratio(d("spice.tran_step_rejections"), items),
        ),
        (
            "spice.sparse_solver_share",
            ratio(solvers.0, solvers.0 + solvers.1),
        ),
        (
            "linalg.dense_factors_per_item",
            ratio(d("linalg.lu_factorizations"), items),
        ),
        (
            "linalg.sparse_factors_per_item",
            ratio(d("linalg.sparse_factorizations"), items),
        ),
        ("linalg.symbolic_builds_per_item", ratio(symbolic.1, items)),
        (
            "linalg.symbolic_reuse_ratio",
            ratio(symbolic.0, symbolic.0 + symbolic.1),
        ),
        (
            "linalg.memo_hit_ratio",
            ratio(memo_hits, memo_hits + memo_misses),
        ),
        (
            "linalg.refinement_steps_per_item",
            ratio(
                d("linalg.refinement_steps") + d("linalg.sparse_refinement_steps"),
                items,
            ),
        ),
        ("core.escalations_per_item", ratio(escalations, items)),
        (
            "core.capture_limited_ratio",
            if fx.capture_limited() {
                1.0 - ratio(escalations, items)
            } else {
                0.0
            },
        ),
        (
            "core.pool_efficiency",
            if w.pooled() {
                ratio(plain_p50, ctx.threads as f64 * untimed_p50)
            } else {
                0.0
            },
        ),
        (
            "logic.gates_per_item",
            ratio(d("logic.soa_gates_simulated"), items),
        ),
        ("atpg.blocks_per_job", ratio(d("atpg.blocks_graded"), jobs)),
        ("atpg.drop_ratio", ratio(d("atpg.faults_dropped"), items)),
        ("atpg.coverage", stat("coverage")),
        ("fleet.sessions_per_device", stat("sessions_per_device")),
        ("fleet.escape_rate", stat("escape_rate")),
        ("store.puts_per_job", ratio(d("store.puts"), jobs)),
        (
            "store.bytes_written_per_job",
            ratio(d("store.bytes_written"), jobs),
        ),
        (
            "trace.attributed_pct",
            100.0
                * ratio(
                    t.attributed(JOB).as_secs_f64(),
                    t.root_total(JOB).as_secs_f64(),
                ),
        ),
        (
            "trace.overhead_pct",
            100.0 * (ratio(traced_p50, plain_p50) - 1.0),
        ),
        ("trace.job_ms", traced_p50 * 1e3),
        (
            "bench.input_gen_ms_per_job",
            ratio(t.root_total(INPUT).as_secs_f64() * 1e3, jobs),
        ),
        (
            "job_tail_ms",
            stats::tail(&r.nominal_walls()).map_or(0.0, |t| t.value * 1e3),
        ),
    ];
    debug_assert!(layers.iter().map(|l| l.0).eq(PER_LAYER.iter().map(|l| l.0)));
    r.layers = layers.to_vec();
    r.self_ms_per_item = t
        .self_times(JOB)
        .iter()
        .map(|&(name, d)| (name, ratio(d.as_secs_f64() * 1e3, items)))
        .collect();
    Ok(())
}

/// Peak resident set of this process (`VmHWM`) less the `excluded`
/// bytes, MiB; 0 where `/proc/self/status` does not exist.
fn peak_rss_mb(excluded: usize) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| {
            (kib * 1024.0 - excluded as f64) / (1024.0 * 1024.0)
        })
}

/// `{"name": {"value": v, "unit": "u"}, …}`.
fn metric_map<'a>(entries: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Json {
    Json::Obj(
        entries
            .map(|(n, v, u)| (n.to_string(), json::metric(v, u)))
            .collect(),
    )
}

impl Report {
    /// Every successful job's time at nominal host speed, seconds.
    fn nominal_walls(&self) -> Vec<f64> {
        self.walls
            .iter()
            .zip(&self.refs)
            .map(|(&w, &r)| calibrate::nominal(w, r))
            .collect()
    }

    fn to_json(&self, ctx: &Ctx) -> String {
        let walls = self.nominal_walls();
        let p50 = stats::median(&walls);
        let e2e = [
            self.items_per_job / p50,
            p50 * 1e3,
            calibrate::nominal(self.setup.0, self.setup.1),
            self.peak_rss_mb,
        ];
        let metrics = metric_map(END_TO_END.iter().zip(e2e).map(|(&(n, u), v)| (n, v, u)));
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let stats = metric_map(
            [
                ("failed_frac", failed_frac, "ratio"),
                ("job_p50_raw_ms", stats::median(&self.walls) * 1e3, "ms"),
                ("reference_p50_ms", stats::median(&self.refs) * 1e3, "ms"),
                ("setup_raw_s", self.setup.0, "s"),
            ]
            .into_iter()
            .chain(self.stats.iter().copied()),
        );
        let layers = metric_map(
            self.layers
                .iter()
                .zip(PER_LAYER)
                .map(|(&(n, v), &(_, u))| (n, v, u)),
        );
        let selfs = metric_map(
            self.self_ms_per_item
                .iter()
                .map(|&(n, v)| (n, v, "ms/item")),
        );
        let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        let millis = |v: &[f64]| Json::Arr(v.iter().map(|s| Json::Num(s * 1e3)).collect());
        let report = [
            ("workload", Json::Str(ctx.args.workload.name().to_string())),
            ("seconds", Json::Num(ctx.args.seconds)),
            ("smoke", Json::Bool(ctx.args.smoke)),
            ("traced", Json::Bool(ctx.args.trace)),
            ("nproc", Json::Num(ctx.nproc as f64)),
            ("threads", Json::Num(ctx.threads as f64)),
            ("correct", Json::Bool(self.problems.is_empty())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
            ("stats", stats),
            ("layers", layers),
            ("self_ms_per_item", selfs),
            ("job_ms", millis(&self.walls)),
            ("ref_ms", millis(&self.refs)),
            ("checks", strings(&self.checks)),
            ("problems", strings(&self.problems)),
            ("errors", strings(&self.errors)),
        ];
        Json::Obj(
            report
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
        .to_string()
    }
}
