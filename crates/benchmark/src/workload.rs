//! The five workloads, their sizes, and the metric tables every report
//! and `BENCHMARK.json` share.

/// The seed used when none is given; the goldens are recorded for it.
pub const DEFAULT_SEED: u64 = 1;
/// Job index of the untimed warm-up job. It is drawn like any other job,
/// but never coincides with a timed one.
pub const WARMUP_JOB: u64 = u64::MAX;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 1 grid on the work-stealing pool.
    Table1,
    /// One full-window transient of the Fig. 8 sum circuit.
    Fig9,
    /// PPSFP grading with fault dropping on csa32.
    GradeDrop,
    /// The full detection matrix on mult16, no dropping.
    GradeMatrix,
    /// A million-device fleet campaign with block checkpoints.
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Table1,
        Workload::Fig9,
        Workload::GradeDrop,
        Workload::GradeMatrix,
        Workload::Fleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Fig9 => "fig9",
            Workload::GradeDrop => "grade_drop",
            Workload::GradeMatrix => "grade_matrix",
            Workload::Fleet => "fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads: the parallel entry points get `min(2, nproc)`,
    /// the serial ones one.
    pub fn threads(self, nproc: usize) -> usize {
        match self {
            Workload::Fig9 | Workload::GradeMatrix => 1,
            _ => nproc.clamp(1, 2),
        }
    }

    /// Whether job inputs depend on the run seed. `table1` measures the
    /// same grid every time.
    pub fn seeded(self) -> bool {
        self != Workload::Table1
    }

    /// Whether the untimed job fans out over the `obd-core` pool while
    /// its traced decomposition runs serially, which is what
    /// `core.pool_efficiency` compares.
    pub fn pooled(self) -> bool {
        self == Workload::Table1
    }

    /// Distinct per-workload salt for job seeds.
    pub fn salt(self) -> u64 {
        match self {
            Workload::Table1 => 0x7AB1,
            Workload::Fig9 => 0xF169,
            Workload::GradeDrop => 0xD409,
            Workload::GradeMatrix => 0x3A71,
            Workload::Fleet => 0xF1EE,
        }
    }
}

/// How large each workload's job is and how many jobs a run checks.
/// `smoke` shrinks every job (coarse transient steps, fewer tests and
/// devices) and runs a fixed two jobs, for the in-crate tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    pub smoke: bool,
}

impl Size {
    fn pick<T>(self, smoke: T, full: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Transient step of the analog workloads, ps.
    pub fn step_ps(self) -> f64 {
        self.pick(10.0, 2.0)
    }

    /// Random two-pattern tests per `grade_drop` job.
    pub fn drop_tests(self) -> usize {
        self.pick(256, 4096)
    }

    /// `grade_drop` grades every this-many-th fault of the csa32
    /// universe.
    pub fn drop_fault_stride(self) -> usize {
        self.pick(4, 1)
    }

    /// Random two-pattern tests per `grade_matrix` job.
    pub fn matrix_tests(self) -> usize {
        self.pick(64, 512)
    }

    /// `grade_matrix` keeps every this-many-th fault of the mult16
    /// universe.
    pub fn matrix_fault_stride(self) -> usize {
        self.pick(64, 16)
    }

    /// Devices per `fleet` job.
    pub fn devices(self) -> u64 {
        self.pick(131_072, 1_000_000)
    }

    /// The timed phase runs at least this many jobs, however short the
    /// requested run, so the goldens, the cross-checks and the simulated
    /// statistics always cover the same jobs `0..checked_jobs`.
    pub fn checked_jobs(self) -> u64 {
        self.pick(2, 20)
    }

    /// Jobs `0..traced_jobs` are rerun under the tracer, so per-layer
    /// counts repeat exactly for a given seed.
    pub fn traced_jobs(self) -> u64 {
        self.pick(2, 10)
    }

    /// Processes a run spreads a workload's timed phase over. Each has
    /// its own heap layout and physical pages, which can move one
    /// process's job times by half; the run reports the median process.
    pub fn parts(self) -> usize {
        self.pick(1, 5)
    }

    /// Every `cross_check_every`-th checked job is cross-checked after
    /// the timed phase.
    pub fn cross_check_every(self) -> u64 {
        self.pick(1, 10)
    }
}

/// The end-to-end metrics and their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("items_per_s", "items/s"),
    ("job_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of a traced run and their units, as
/// `BENCHMARK.json` lists them. Layer times are shares of the traced job
/// (or set-up) wall rather than absolute times, so a layer a workload
/// never enters reads 0 % instead of a constant zero time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cmos.build_pct", "%"),
    ("spice.tran_pct", "%"),
    ("core.measure_pct", "%"),
    ("atpg.prepare_pct", "%"),
    ("atpg.fault_eval_pct", "%"),
    ("atpg.transpose_pct", "%"),
    ("fleet.campaign_pct", "%"),
    ("fleet.report_pct", "%"),
    ("logic.setup_pct", "%"),
    ("atpg.setup_pct", "%"),
    ("fleet.setup_pct", "%"),
    ("store.setup_pct", "%"),
    ("spice.tran_steps_per_item", "count"),
    ("spice.newton_iters_per_step", "count"),
    ("spice.predictor_hit_ratio", "ratio"),
    ("spice.step_rejections_per_item", "count"),
    ("spice.sparse_solver_share", "ratio"),
    ("linalg.dense_factors_per_item", "count"),
    ("linalg.sparse_factors_per_item", "count"),
    ("linalg.symbolic_builds_per_item", "count"),
    ("linalg.symbolic_reuse_ratio", "ratio"),
    ("linalg.memo_hit_ratio", "ratio"),
    ("linalg.refinement_steps_per_item", "count"),
    ("core.escalations_per_item", "count"),
    ("core.capture_limited_ratio", "ratio"),
    ("core.pool_efficiency", "ratio"),
    ("logic.gates_per_item", "count"),
    ("atpg.blocks_per_job", "count"),
    ("atpg.drop_ratio", "ratio"),
    ("atpg.coverage", "ratio"),
    ("fleet.sessions_per_device", "count"),
    ("fleet.escape_rate", "ratio"),
    ("store.puts_per_job", "count"),
    ("store.bytes_written_per_job", "bytes"),
    ("trace.attributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.job_ms", "ms"),
    ("bench.input_gen_ms_per_job", "ms"),
    ("job_tail_ms", "ms"),
];
