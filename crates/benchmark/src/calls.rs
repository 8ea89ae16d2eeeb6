//! Every call the benchmark makes into the library crates.
//!
//! The rest of the benchmark only times, traces and checks what this
//! module returns, so when the library's entry points change only this
//! module has to follow.
//!
//! Each workload has an untimed set-up ([`Fixture`] and [`Engine`]), a
//! job input drawn from the seed ([`Engine::input`]), the job itself as a
//! user would call it ([`Engine::run`]), the same job decomposed into one
//! span per layer call ([`Engine::run_traced`]), and an independent
//! cross-check of its result ([`Engine::cross_check`]).

use std::path::Path;

use obd_atpg::bist::phased_lfsr_two_pattern_tests;
use obd_atpg::fault::{
    em_faults, obd_faults, stuck_at_faults, transition_faults, Fault, TwoPatternTest,
};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::ppsfp::{PpsfpEngine, PpsfpScratch, SUPERLANE_WIDTH};
use obd_atpg::random::random_two_pattern;
use obd_atpg::rng::XorShift64Star;
use obd_cmos::expand::{expand, ExpandedCircuit};
use obd_cmos::TechParams;
use obd_core::characterize::{
    characterize_table1_parallel, BenchConfig, BenchDefect, DelayTable, Fig5Bench,
    TransitionOutcome,
};
use obd_core::{inject_obd, BreakdownStage, Polarity};
use obd_fleet::checkpoint::DEFAULT_BLOCK_DEVICES;
use obd_fleet::{run_fleet_resumable, BistProfile, FleetConfig, FleetReport};
use obd_logic::circuits::{array_multiplier, c17, carry_select_adder, fig8_sum_circuit};
use obd_logic::netlist::{GateId, GateKind, Netlist};
use obd_spice::analysis::tran::{transient_with_options, TranParams};
use obd_spice::devices::SourceWave;
use obd_spice::{EdgeKind, SimOptions, SolverKind, Waveform};
use obd_store::{Digest, Store};

use crate::trace::Tracer;
use crate::workload::{Size, Workload};

/// Picoseconds in seconds.
const PS: f64 = 1e-12;
/// Cross-checks of the grading workloads sample one fault in this many.
const FAULT_SAMPLE: usize = 64;
/// The fleet's BIST set: phased-LFSR two-pattern tests on c17, as the
/// `repro fleet` verb grades them.
const BIST_TESTS: usize = 48;
const BIST_LFSR_WIDTH: usize = 16;
const BIST_SEED: u64 = 0x0BD_B157;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One Table 1 cell: grid coordinates plus the measurement inputs.
#[derive(Debug, Clone)]
struct Cell {
    slot: usize,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
}

/// One `fig9` defect: a transistor of one of the circuit's NAND gates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Defect {
    /// Ordinal among the circuit's NAND gates.
    pub nand: usize,
    pub pin: usize,
    pub polarity: Polarity,
    pub stage: BreakdownStage,
}

/// The input of one job, drawn from the seed.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// Table 1 takes no seeded input.
    Table1,
    /// A `fig9` (defect, sequence) pair.
    Fig9 {
        defect: Option<Fig9Defect>,
        v1: [bool; 3],
        v2: [bool; 3],
    },
    /// Random two-pattern tests and the seed they were drawn from.
    Tests {
        seed: u64,
        tests: Vec<TwoPatternTest>,
    },
    /// A fleet campaign seed.
    Campaign(u64),
}

impl Input {
    /// A short, stable description for golden files.
    pub fn describe(&self) -> String {
        let bits = |v: &[bool]| {
            v.iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect::<String>()
        };
        match self {
            Input::Table1 => "grid".to_string(),
            Input::Fig9 { defect, v1, v2 } => {
                let d = defect.map_or("none".to_string(), |d| {
                    format!("nand{}:{}:{}:{:?}", d.nand, d.pin, d.polarity, d.stage)
                });
                format!("{d} {}>{}", bits(v1), bits(v2))
            }
            Input::Tests { seed, tests } => format!("tests={}@{seed:#018x}", tests.len()),
            Input::Campaign(seed) => format!("campaign={seed:#018x}"),
        }
    }
}

/// What a job returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Table 1 slots in row-major order (8 per row); `None` where the
    /// paper has no cell.
    Table1(Vec<Option<TransitionOutcome>>),
    /// The sum delay of one `fig9` transient.
    Fig9(TransitionOutcome),
    /// Per-fault detection flags.
    Detected(Vec<bool>),
    /// `matrix[test][fault]`.
    Matrix(Vec<Vec<bool>>),
    /// The fleet report's JSON artifact plus the statistics read from it.
    Fleet {
        json: String,
        escape_rate: f64,
        sessions_per_device: f64,
        degraded: bool,
    },
}

impl Outcome {
    /// Items this job completed, in the unit `items_per_s` counts.
    pub fn items(&self, devices: u64) -> f64 {
        match self {
            Outcome::Table1(slots) => slots.iter().flatten().count() as f64,
            Outcome::Fig9(_) => 1.0,
            Outcome::Detected(d) => d.len() as f64,
            Outcome::Matrix(m) => m.len() as f64 * m.first().map_or(0, Vec::len) as f64,
            Outcome::Fleet { .. } => devices as f64,
        }
    }

    /// FNV-64 digest of the whole outcome, floating-point bits included:
    /// equal digests mean bit-identical outcomes.
    pub fn digest(&self) -> u64 {
        let outcome = |d: Digest, o: &TransitionOutcome| match o {
            TransitionOutcome::Delay(ps) => d.u8(2).f64(*ps),
            TransitionOutcome::Stuck => d.u8(1),
        };
        match self {
            Outcome::Table1(slots) => slots
                .iter()
                .fold(Digest::new("obd-benchmark.table1"), |d, s| match s {
                    Some(o) => outcome(d, o),
                    None => d.u8(0),
                })
                .finish(),
            Outcome::Fig9(o) => outcome(Digest::new("obd-benchmark.fig9"), o).finish(),
            Outcome::Detected(v) => bools(Digest::new("obd-benchmark.detected"), v).finish(),
            Outcome::Matrix(m) => m
                .iter()
                .fold(Digest::new("obd-benchmark.matrix"), |d, row| bools(d, row))
                .finish(),
            Outcome::Fleet { json, .. } => Digest::new("obd-benchmark.fleet")
                .bytes(json.as_bytes())
                .finish(),
        }
    }

    /// Golden-file lines: analog verdicts and delays in full, digital
    /// outputs as their digest.
    pub fn golden_lines(&self, input: &Input) -> Vec<String> {
        let verdict = |o: &Option<TransitionOutcome>| match o {
            Some(TransitionOutcome::Delay(ps)) => format!("{ps}"),
            Some(TransitionOutcome::Stuck) => "stuck".to_string(),
            None => "na".to_string(),
        };
        match self {
            Outcome::Table1(slots) => slots
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    format!(
                        "{:?} {} {}",
                        BreakdownStage::TABLE1[i / 8],
                        i % 8,
                        verdict(s)
                    )
                })
                .collect(),
            Outcome::Fig9(o) => vec![format!("{} {}", input.describe(), verdict(&Some(*o)))],
            Outcome::Detected(d) => vec![format!(
                "{} {:#018x} detected={}",
                input.describe(),
                self.digest(),
                d.iter().filter(|&&x| x).count()
            )],
            Outcome::Matrix(_) => vec![format!("{} {:#018x}", input.describe(), self.digest())],
            Outcome::Fleet { .. } => {
                vec![format!("{} {:#018x}", input.describe(), self.digest())]
            }
        }
    }

    /// Simulated statistics of this job as `(name, value, unit)`. A
    /// change that only makes the program faster must leave them
    /// identical.
    pub fn sim_stats(&self) -> Vec<(&'static str, f64, &'static str)> {
        match self {
            Outcome::Table1(slots) => {
                let (err, cells) = paper_error(slots);
                vec![
                    ("paper_err_ps", err, "ps"),
                    ("paper_cells", cells as f64, "count"),
                ]
            }
            Outcome::Fig9(o) => vec![(
                "stuck_frac",
                f64::from(u8::from(o.delay_ps().is_none())),
                "ratio",
            )],
            Outcome::Detected(d) => vec![("coverage", fraction(d.iter().copied()), "ratio")],
            Outcome::Matrix(m) => {
                vec![("coverage", fraction(column_or(m, 1).into_iter()), "ratio")]
            }
            Outcome::Fleet {
                escape_rate,
                sessions_per_device,
                ..
            } => vec![
                ("escape_rate", *escape_rate, "ratio"),
                ("sessions_per_device", *sessions_per_device, "count"),
            ],
        }
    }

    /// The part of the outcome its cross-check compares against.
    pub fn witness(&self) -> Witness {
        match self {
            Outcome::Table1(_) => Witness::None,
            Outcome::Fig9(o) => Witness::Delay(*o),
            Outcome::Detected(d) => {
                Witness::Sampled(d.iter().step_by(FAULT_SAMPLE).copied().collect())
            }
            Outcome::Matrix(m) => Witness::Sampled(column_or(m, FAULT_SAMPLE)),
            Outcome::Fleet { json, .. } => Witness::Json(json.clone()),
        }
    }

    /// A job that returned without an error but not whole: an empty
    /// Table 1 cell or a degraded fleet device.
    pub fn degraded(&self, expected_cells: usize) -> bool {
        match self {
            Outcome::Table1(slots) => slots.iter().flatten().count() != expected_cells,
            Outcome::Fleet { degraded, .. } => *degraded,
            _ => false,
        }
    }
}

/// Kept from a timed job for its cross-check after the timed phase.
#[derive(Debug, Clone, PartialEq)]
pub enum Witness {
    None,
    Delay(TransitionOutcome),
    /// Detection flags of every [`FAULT_SAMPLE`]-th fault.
    Sampled(Vec<bool>),
    Json(String),
}

fn bools(d: Digest, v: &[bool]) -> Digest {
    v.iter().fold(d, |d, &b| d.bool(b))
}

fn fraction(it: impl Iterator<Item = bool>) -> f64 {
    let (mut hit, mut n) = (0usize, 0usize);
    for b in it {
        hit += usize::from(b);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        hit as f64 / n as f64
    }
}

/// For every `stride`-th fault, whether any test detects it.
fn column_or(m: &[Vec<bool>], stride: usize) -> Vec<bool> {
    let faults = m.first().map_or(0, Vec::len);
    (0..faults)
        .step_by(stride)
        .map(|f| m.iter().any(|row| row[f]))
        .collect()
}

/// Mean |measured − paper| over the pin-A cells the paper lists — the
/// fault-free fall and rise, NMOS (01,11) NA and PMOS (11,01) PA at each
/// stage — where both sides are delays. Returns the mean and the count.
fn paper_error(slots: &[Option<TransitionOutcome>]) -> (f64, usize) {
    let paper = DelayTable::paper();
    // Slot 0 is NMOS (01,11) NA, slot 6 PMOS (11,01) PA.
    let mut pairs: Vec<(Option<TransitionOutcome>, TransitionOutcome)> = vec![
        (slots[0], TransitionOutcome::Delay(paper.base_fall_ps)),
        (slots[6], TransitionOutcome::Delay(paper.base_rise_ps)),
    ];
    for (row, stage) in BreakdownStage::TABLE1.iter().enumerate().skip(1) {
        let lookup = |list: &[(BreakdownStage, TransitionOutcome)]| {
            list.iter().find(|(s, _)| s == stage).map(|(_, o)| *o)
        };
        if let Some(p) = lookup(&paper.nmos) {
            pairs.push((slots[row * 8], p));
        }
        if let Some(p) = lookup(&paper.pmos) {
            pairs.push((slots[row * 8 + 6], p));
        }
    }
    let diffs: Vec<f64> = pairs
        .iter()
        .filter_map(
            |(m, p)| match (m.and_then(TransitionOutcome::delay_ps), p.delay_ps()) {
                (Some(a), Some(b)) => Some((a - b).abs()),
                _ => None,
            },
        )
        .collect();
    let mean = diffs.iter().sum::<f64>() / diffs.len().max(1) as f64;
    (mean, diffs.len())
}

/// The seeded stream of one job of one workload: a function of the run
/// seed, the workload and the job index alone.
fn job_rng(w: Workload, seed: u64, index: u64) -> XorShift64Star {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let base = XorShift64Star::seed_from_u64(seed.wrapping_mul(GOLDEN) ^ w.salt()).next_u64();
    XorShift64Star::seed_from_u64(base.wrapping_add(index.wrapping_mul(GOLDEN)))
}

/// Every fault model at once: stuck-at, transition, OBD at MBD2 and HBD,
/// and EM — the mixed universe the PPSFP equivalence suite grades.
fn mixed_faults(nl: &Netlist) -> Vec<Fault> {
    let mut faults = stuck_at_faults(nl);
    faults.extend(transition_faults(nl));
    faults.extend(obd_faults(nl, BreakdownStage::Mbd2, false));
    faults.extend(obd_faults(nl, BreakdownStage::Hbd, false));
    faults.extend(em_faults(nl, false));
    faults
}

enum Data {
    Table1 {
        cells: Vec<Cell>,
    },
    Fig9 {
        nl: Netlist,
        nands: Vec<GateId>,
        defects: Vec<Option<Fig9Defect>>,
        sequences: Vec<([bool; 3], [bool; 3])>,
    },
    Grade {
        nl: Netlist,
        faults: Vec<Fault>,
    },
    Fleet {
        profile: BistProfile,
    },
}

/// The owned part of a workload's set-up: circuits, fault lists and the
/// BIST profile.
pub struct Fixture {
    w: Workload,
    size: Size,
    tech: TechParams,
    cfg: BenchConfig,
    data: Data,
}

impl Fixture {
    /// Builds the workload's inputs that every job shares.
    ///
    /// # Errors
    ///
    /// Library errors, rendered.
    pub fn new(w: Workload, size: Size, t: &mut Tracer) -> Result<Fixture, String> {
        let mut cfg = match w {
            Workload::Table1 => BenchConfig::table1(),
            _ => BenchConfig::new(),
        };
        cfg.step_ps = size.step_ps();
        let data = match w {
            Workload::Table1 => Data::Table1 {
                cells: table1_cells(),
            },
            Workload::Fig9 => t.span("logic.netlist", |_| {
                let nl = fig8_sum_circuit();
                let nands: Vec<GateId> = nl
                    .gate_ids()
                    .filter(|&g| nl.gate(g).kind == GateKind::Nand)
                    .collect();
                Data::Fig9 {
                    defects: fig9_defects(nands.len()),
                    sequences: sum_toggling_pairs(),
                    nl,
                    nands,
                }
            }),
            Workload::GradeDrop | Workload::GradeMatrix => {
                let nl = t.span("logic.netlist", |_| match w {
                    Workload::GradeDrop => carry_select_adder(32, 8),
                    _ => array_multiplier(16),
                });
                let faults = t.span("atpg.fault_list", |_| {
                    let stride = match w {
                        Workload::GradeDrop => size.drop_fault_stride(),
                        _ => size.matrix_fault_stride(),
                    };
                    mixed_faults(&nl).into_iter().step_by(stride).collect()
                });
                Data::Grade { nl, faults }
            }
            Workload::Fleet => {
                let nl = t.span("logic.netlist", |_| c17());
                let profile = t
                    .span("fleet.profile", |_| {
                        let defaults = FleetConfig::default();
                        let tests = phased_lfsr_two_pattern_tests(
                            nl.inputs().len(),
                            BIST_TESTS,
                            BIST_LFSR_WIDTH,
                            BIST_SEED,
                        );
                        BistProfile::grade(&nl, "c17", &tests, &defaults.table, defaults.slack_ps)
                    })
                    .map_err(err)?;
                Data::Fleet { profile }
            }
        };
        Ok(Fixture {
            w,
            size,
            tech: TechParams::date05(),
            cfg,
            data,
        })
    }

    /// Table 1 cells a whole job measures; `0` for other workloads.
    pub fn expected_cells(&self) -> usize {
        match &self.data {
            Data::Table1 { cells } => cells.len(),
            _ => 0,
        }
    }

    /// Whether analog jobs simulate a window trimmed at the capture
    /// limit, from which a measurement may escalate to the full window.
    pub fn capture_limited(&self) -> bool {
        self.cfg.sim_stop_ps() < self.cfg.launch_ps + self.cfg.window_ps
    }
}

/// The Table 1 grid, in the order `characterize_table1` visits it.
fn table1_cells() -> Vec<Cell> {
    let nmos_seqs = [([false, true], [true, true]), ([true, false], [true, true])];
    let pmos_seqs = [([true, true], [true, false]), ([true, true], [false, true])];
    let mut cells = Vec::new();
    for (row, stage) in BreakdownStage::TABLE1.into_iter().enumerate() {
        for (polarity, seqs, first_slot) in [
            (Polarity::Nmos, nmos_seqs, 0),
            (Polarity::Pmos, pmos_seqs, 4),
        ] {
            let params = stage.params(polarity).ok();
            for (si, &(v1, v2)) in seqs.iter().enumerate() {
                for pin in 0..2 {
                    let defect = match (stage, params) {
                        (BreakdownStage::FaultFree, _) => None,
                        (_, Some(params)) => Some(BenchDefect {
                            pin,
                            polarity,
                            params,
                        }),
                        _ => continue,
                    };
                    cells.push(Cell {
                        slot: row * 8 + first_slot + si * 2 + pin,
                        defect,
                        v1,
                        v2,
                    });
                }
            }
        }
    }
    cells
}

/// No defect, or one transistor of any NAND at any stage from SBD to
/// HBD that has model parameters.
fn fig9_defects(nands: usize) -> Vec<Option<Fig9Defect>> {
    let mut out = vec![None];
    for nand in 0..nands {
        for pin in 0..2 {
            for polarity in [Polarity::Nmos, Polarity::Pmos] {
                for stage in BreakdownStage::ALL.into_iter().skip(1) {
                    if stage.params(polarity).is_ok() {
                        out.push(Some(Fig9Defect {
                            nand,
                            pin,
                            polarity,
                            stage,
                        }));
                    }
                }
            }
        }
    }
    out
}

/// Every 3-input two-pattern pair whose sum `A ⊕ B ⊕ C` toggles.
fn sum_toggling_pairs() -> Vec<([bool; 3], [bool; 3])> {
    let vec3 = |k: u8| [k & 4 != 0, k & 2 != 0, k & 1 != 0];
    let mut out = Vec::new();
    for a in 0u8..8 {
        for b in 0u8..8 {
            if (a.count_ones() + b.count_ones()) % 2 == 1 {
                out.push((vec3(a), vec3(b)));
            }
        }
    }
    out
}

/// A workload ready to run jobs: the fixture plus the parts that borrow
/// it or hold open resources (the fault simulator, the fleet's store).
pub struct Engine<'f> {
    fx: &'f Fixture,
    threads: usize,
    sim: Option<FaultSimulator<'f>>,
    store: Option<Store>,
}

impl<'f> Engine<'f> {
    /// Compiles the fault simulator or opens the fleet's checkpoint store
    /// in `store_dir`.
    ///
    /// # Errors
    ///
    /// Library errors, rendered.
    pub fn new(
        fx: &'f Fixture,
        threads: usize,
        store_dir: &Path,
        t: &mut Tracer,
    ) -> Result<Self, String> {
        let sim = match &fx.data {
            Data::Grade { nl, .. } => Some(
                t.span("logic.compile", |_| FaultSimulator::new(nl))
                    .map_err(err)?,
            ),
            _ => None,
        };
        let store = match fx.data {
            Data::Fleet { .. } => Some(
                t.span("store.open", |_| Store::open(store_dir))
                    .map_err(err)?,
            ),
            _ => None,
        };
        Ok(Engine {
            fx,
            threads,
            sim,
            store,
        })
    }

    /// Replaces the fleet's store with an empty one in `store_dir`, so a
    /// rerun simulates every block again instead of resuming it.
    ///
    /// # Errors
    ///
    /// Store errors, rendered.
    pub fn fresh_store(&mut self, store_dir: &Path) -> Result<(), String> {
        if self.store.is_some() {
            self.store = Some(Store::open(store_dir).map_err(err)?);
        }
        Ok(())
    }

    /// Devices per fleet job.
    pub fn devices(&self) -> u64 {
        self.fx.size.devices()
    }

    /// The input of job `index` of the run seeded with `seed`.
    pub fn input(&self, seed: u64, index: u64) -> Input {
        let mut rng = job_rng(self.fx.w, seed, index);
        match &self.fx.data {
            Data::Table1 { .. } => Input::Table1,
            Data::Fig9 {
                defects, sequences, ..
            } => {
                let defect = defects[rng.gen_range(defects.len())];
                let (v1, v2) = sequences[rng.gen_range(sequences.len())];
                Input::Fig9 { defect, v1, v2 }
            }
            Data::Grade { nl, .. } => {
                let seed = rng.next_u64();
                let count = match self.fx.w {
                    Workload::GradeDrop => self.fx.size.drop_tests(),
                    _ => self.fx.size.matrix_tests(),
                };
                Input::Tests {
                    seed,
                    tests: random_two_pattern(nl.inputs().len(), count, seed),
                }
            }
            Data::Fleet { .. } => Input::Campaign(rng.next_u64()),
        }
    }

    /// Runs one job through the library's public entry point, on the
    /// engine's threads where the workload is parallel.
    ///
    /// # Errors
    ///
    /// Library errors, rendered.
    pub fn run(&self, input: &Input) -> Result<Outcome, String> {
        let fx = self.fx;
        match (input, &fx.data) {
            (Input::Table1, Data::Table1 { .. }) => {
                let table =
                    characterize_table1_parallel(&fx.tech, &fx.cfg, self.threads).map_err(err)?;
                Ok(Outcome::Table1(
                    table
                        .rows
                        .iter()
                        .flat_map(|r| r.nmos.iter().chain(r.pmos.iter()).copied())
                        .collect(),
                ))
            }
            (Input::Fig9 { .. }, _) => {
                self.fig9(input, &SimOptions::new(), &mut Tracer::new(false))
            }
            (Input::Tests { tests, .. }, Data::Grade { faults, .. }) => {
                let sim = self.sim()?;
                match fx.w {
                    Workload::GradeDrop => sim
                        .grade_parallel(faults, tests, self.threads)
                        .map(Outcome::Detected),
                    _ => sim.detection_matrix(faults, tests).map(Outcome::Matrix),
                }
                .map_err(err)
            }
            (Input::Campaign(seed), Data::Fleet { .. }) => {
                let report = self.campaign(*seed)?;
                Ok(fleet_outcome(&report, report.to_json()))
            }
            _ => Err(format!(
                "{} cannot run input {}",
                fx.w.name(),
                input.describe()
            )),
        }
    }

    /// [`Engine::run`] decomposed into the public calls it is made of,
    /// one span per layer call. Table 1 cells run serially here.
    ///
    /// # Errors
    ///
    /// Library errors, rendered.
    pub fn run_traced(&self, input: &Input, t: &mut Tracer) -> Result<Outcome, String> {
        let fx = self.fx;
        match (input, &fx.data) {
            (Input::Table1, Data::Table1 { cells }) => {
                let mut slots = vec![None; BreakdownStage::TABLE1.len() * 8];
                for c in cells {
                    slots[c.slot] = Some(self.measure_cell(c, &fx.cfg, t)?);
                }
                Ok(Outcome::Table1(slots))
            }
            (Input::Fig9 { .. }, _) => self.fig9(input, &SimOptions::new(), t),
            (Input::Tests { tests, .. }, Data::Grade { faults, .. }) => {
                let sim = self.sim()?;
                if fx.w == Workload::GradeDrop {
                    let engine = t
                        .span("atpg.prepare", |_| {
                            PpsfpEngine::<SUPERLANE_WIDTH>::prepare_with_threads(
                                sim,
                                tests,
                                self.threads,
                            )
                        })
                        .map_err(err)?;
                    let detected = t
                        .span("atpg.fault_eval", |_| {
                            engine.grade_parallel(faults, self.threads)
                        })
                        .map_err(err)?;
                    return Ok(Outcome::Detected(detected));
                }
                let engine = t
                    .span("atpg.prepare", |_| {
                        PpsfpEngine::<SUPERLANE_WIDTH>::prepare(sim, tests)
                    })
                    .map_err(err)?;
                let rows = t
                    .span("atpg.fault_eval", |_| {
                        let mut scratch = PpsfpScratch::default();
                        faults
                            .iter()
                            .map(|f| engine.detection_row(f, &mut scratch))
                            .collect::<Result<Vec<Vec<bool>>, _>>()
                    })
                    .map_err(err)?;
                Ok(Outcome::Matrix(t.span("atpg.transpose", |_| {
                    (0..tests.len())
                        .map(|k| rows.iter().map(|r| r[k]).collect())
                        .collect()
                })))
            }
            (Input::Campaign(seed), Data::Fleet { .. }) => {
                let report = t.span("fleet.campaign", |_| self.campaign(*seed))?;
                let json = t.span("fleet.report", |_| report.to_json());
                Ok(fleet_outcome(&report, json))
            }
            _ => Err(format!(
                "{} cannot run input {}",
                fx.w.name(),
                input.describe()
            )),
        }
    }

    /// Recomputes the witnessed part of a job's outcome another way:
    /// `fig9` on the dense solver, `grade_drop` from detection-matrix
    /// rows, `grade_matrix` by grading with dropping, and `fleet` by a
    /// warm resume of the same campaign from the store. Returns a line
    /// describing the check that passed.
    ///
    /// # Errors
    ///
    /// A description of the mismatch, or a library error.
    pub fn cross_check(&self, input: &Input, witness: &Witness) -> Result<String, String> {
        match (input, witness, &self.fx.data) {
            (_, Witness::None, _) => Ok(String::new()),
            (Input::Fig9 { .. }, Witness::Delay(timed), _) => {
                let dense = SimOptions::new().with_solver(SolverKind::Dense);
                let again = match self.fig9(input, &dense, &mut Tracer::new(false))? {
                    Outcome::Fig9(o) => o,
                    other => return Err(format!("unexpected outcome {other:?}")),
                };
                let agree = match (timed, again) {
                    (TransitionOutcome::Delay(a), TransitionOutcome::Delay(b)) => {
                        (a - b).abs() <= crate::golden::TOLERANCE_PS
                    }
                    (TransitionOutcome::Stuck, TransitionOutcome::Stuck) => true,
                    _ => false,
                };
                if agree {
                    Ok(format!("dense solver agrees: {timed:?}"))
                } else {
                    Err(format!("dense rerun gave {again:?}, timed job {timed:?}"))
                }
            }
            (Input::Tests { tests, .. }, Witness::Sampled(timed), Data::Grade { faults, .. }) => {
                let sim = self.sim()?;
                let sample: Vec<Fault> = faults.iter().step_by(FAULT_SAMPLE).copied().collect();
                let again = match self.fx.w {
                    Workload::GradeDrop => {
                        column_or(&sim.detection_matrix(&sample, tests).map_err(err)?, 1)
                    }
                    _ => sim.grade(&sample, tests).map_err(err)?,
                };
                if &again == timed {
                    Ok(format!("{} sampled faults agree", sample.len()))
                } else {
                    Err(format!("{} sampled faults disagree", sample.len()))
                }
            }
            (Input::Campaign(seed), Witness::Json(timed), Data::Fleet { .. }) => {
                let store = self.store.as_ref().ok_or("fleet store missing")?;
                let hits = store.hits();
                let report = self.campaign(*seed)?;
                let resumed = store.hits() - hits;
                let blocks = self.devices().div_ceil(DEFAULT_BLOCK_DEVICES);
                if resumed != blocks {
                    return Err(format!("warm resume replayed {resumed} of {blocks} blocks"));
                }
                if &report.to_json() == timed {
                    Ok(format!("warm resume of {blocks} blocks is byte-identical"))
                } else {
                    Err("warm resume JSON differs from the timed job's".to_string())
                }
            }
            _ => Err(format!("no cross-check for input {}", input.describe())),
        }
    }

    fn sim(&self) -> Result<&FaultSimulator<'f>, String> {
        self.sim
            .as_ref()
            .ok_or_else(|| "fault simulator missing".to_string())
    }

    fn campaign(&self, seed: u64) -> Result<FleetReport, String> {
        let Data::Fleet { profile } = &self.fx.data else {
            return Err("not a fleet fixture".to_string());
        };
        let cfg = FleetConfig {
            seed,
            devices: self.devices(),
            threads: self.threads,
            ..FleetConfig::default()
        };
        run_fleet_resumable(&cfg, profile, self.store.as_ref(), DEFAULT_BLOCK_DEVICES).map_err(err)
    }

    /// One Fig. 5 bench measurement, as
    /// `obd_core::characterize::measure_cell_transition_with_options`
    /// makes it: build and inject, simulate the capture-limited window,
    /// measure, and escalate to the full window when that window leaves
    /// the verdict undecided.
    fn measure_cell(
        &self,
        c: &Cell,
        cfg: &BenchConfig,
        t: &mut Tracer,
    ) -> Result<TransitionOutcome, String> {
        let tech = &self.fx.tech;
        let (exp, bench) = t.span("cmos.build", |_| -> Result<_, String> {
            let bench = Fig5Bench::for_kind(GateKind::Nand).map_err(err)?;
            let mut exp = expand(&bench.netlist, tech).map_err(err)?;
            if let Some(d) = c.defect {
                let trs = exp.find_transistors(bench.nand, d.pin, d.polarity.mos());
                let tr = trs.first().ok_or("no transistor at the defect pin")?;
                inject_obd(&mut exp.circuit, tr.device, d.params, "dut").map_err(err)?;
            }
            let inputs: Vec<_> = bench
                .pis
                .iter()
                .copied()
                .zip(c.v1.iter().zip(&c.v2))
                .collect();
            for (pi, (&a, &b)) in inputs {
                exp.drive_input(pi, edge_wave(tech, cfg, a, b));
            }
            Ok((exp, bench))
        })?;
        let params = TranParams::new(cfg.step_ps * PS, cfg.sim_stop_ps() * PS);
        let wave = t
            .span("spice.tran", |_| {
                transient_with_options(&exp.circuit, &params, &SimOptions::new())
            })
            .map_err(err)?;
        let verdict = t.span("core.measure", |_| {
            let half = tech.half_vdd();
            let (v1, v2) = (c.v1, c.v2);
            let switching = (0..2)
                .find(|&i| v1[i] != v2[i])
                .ok_or("no input switches")?;
            let in_node = exp.node(bench.nand_inputs[switching]);
            let out2 = !(v2[0] && v2[1]);
            if (v1[0] && v1[1]) != out2 {
                return Ok(Some(TransitionOutcome::Stuck));
            }
            let t_start = cfg.launch_ps * PS * 0.5;
            let t_in = wave.first_crossing(in_node, half, edge(v2[switching]), t_start);
            let out_node = exp.node(bench.output);
            let t_out = t_in.and_then(|ti| wave.first_crossing(out_node, half, edge(out2), ti));
            if cfg.sim_stop_ps() < cfg.launch_ps + cfg.window_ps {
                let limit_s = cfg.at_speed_ps.unwrap_or(f64::INFINITY) * PS;
                let t_end = wave.time().last().copied().unwrap_or(0.0);
                let guard = 2.0 * cfg.step_ps * PS;
                let decided = match (t_in, t_out) {
                    (Some(_), Some(_)) => true,
                    (Some(ti), None) => ti + limit_s <= t_end - guard,
                    (None, _) => false,
                };
                if !decided {
                    return Ok(None);
                }
            }
            match (t_in, t_out) {
                (Some(ti), Some(to)) => {
                    let ps = (to - ti) / PS;
                    if !ps.is_finite() || ps < 0.0 {
                        return Err(format!("non-physical propagation delay {ps} ps"));
                    }
                    Ok(Some(match cfg.at_speed_ps {
                        Some(limit) if ps > limit => TransitionOutcome::Stuck,
                        _ => TransitionOutcome::Delay(ps),
                    }))
                }
                _ => Ok(Some(TransitionOutcome::Stuck)),
            }
        })?;
        match verdict {
            Some(o) => Ok(o),
            None => t.span("core.escalate", |t| {
                let full = BenchConfig {
                    sim_full_window: true,
                    ..cfg.clone()
                };
                self.measure_cell(c, &full, t)
            }),
        }
    }

    /// One full-window transient of the Fig. 8 sum circuit under an
    /// optional defect, and the sum delay from the launch edge's midpoint.
    fn fig9(&self, input: &Input, opts: &SimOptions, t: &mut Tracer) -> Result<Outcome, String> {
        let (Input::Fig9 { defect, v1, v2 }, Data::Fig9 { nl, nands, .. }) = (input, &self.fx.data)
        else {
            return Err("not a fig9 job".to_string());
        };
        let (tech, cfg) = (&self.fx.tech, &self.fx.cfg);
        let exp = t.span("cmos.build", |_| -> Result<ExpandedCircuit, String> {
            let mut exp = expand(nl, tech).map_err(err)?;
            if let Some(d) = defect {
                let params = d.stage.params(d.polarity).map_err(err)?;
                let trs = exp.find_transistors(nands[d.nand], d.pin, d.polarity.mos());
                let tr = trs.first().ok_or("no transistor at the defect pin")?;
                inject_obd(&mut exp.circuit, tr.device, params, "fig9").map_err(err)?;
            }
            for (i, &pi) in nl.inputs().iter().enumerate() {
                exp.drive_input(pi, edge_wave(tech, cfg, v1[i], v2[i]));
            }
            Ok(exp)
        })?;
        let params = TranParams::new(cfg.step_ps * PS, (cfg.launch_ps + cfg.window_ps) * PS);
        let wave: Waveform = t
            .span("spice.tran", |_| {
                transient_with_options(&exp.circuit, &params, opts)
            })
            .map_err(err)?;
        Ok(Outcome::Fig9(t.span("core.measure", |_| {
            let parity = |v: &[bool; 3]| v.iter().fold(false, |acc, &b| acc ^ b);
            let t_ref = (cfg.launch_ps + 0.5 * cfg.edge_ps) * PS;
            let sum = exp.node(nl.outputs()[0]);
            match wave.first_crossing(sum, tech.half_vdd(), edge(parity(v2)), t_ref) {
                Some(at) if parity(v1) != parity(v2) => TransitionOutcome::Delay((at - t_ref) / PS),
                _ => TransitionOutcome::Stuck,
            }
        })))
    }
}

fn edge(rising: bool) -> EdgeKind {
    if rising {
        EdgeKind::Rising
    } else {
        EdgeKind::Falling
    }
}

/// A DC level, or a step at the launch edge when the input switches.
fn edge_wave(tech: &TechParams, cfg: &BenchConfig, from: bool, to: bool) -> SourceWave {
    let lvl = |b: bool| if b { tech.vdd } else { 0.0 };
    if from == to {
        SourceWave::dc(lvl(from))
    } else {
        SourceWave::step(lvl(from), lvl(to), cfg.launch_ps * PS, cfg.edge_ps * PS)
    }
}

fn fleet_outcome(report: &FleetReport, json: String) -> Outcome {
    Outcome::Fleet {
        json,
        escape_rate: report.escape_rate(),
        sessions_per_device: report.sessions_per_device(),
        degraded: report.accum.poisoned > 0 || report.accum.degraded_events > 0,
    }
}

/// Whether the process-wide store that PPSFP grading reads is armed, as
/// an inherited `OBD_STORE_DIR` would arm it.
pub fn global_store_armed() -> bool {
    obd_store::global().is_some()
}

/// Counter and gauge values from the metrics registry, for per-layer
/// counts. A counter no code touched reads 0.
pub struct Counters(obd_metrics::MetricsSnapshot);

impl Counters {
    /// Turns counting on or off process-wide.
    pub fn set_enabled(on: bool) {
        if on {
            obd_metrics::enable();
        } else {
            obd_metrics::disable();
        }
    }

    pub fn snapshot() -> Counters {
        Counters(obd_metrics::snapshot())
    }

    /// `self − before` for counter `name`.
    pub fn delta(&self, before: &Counters, name: &str) -> f64 {
        let get = |c: &Counters| c.0.counter(name).unwrap_or(0);
        get(self).saturating_sub(get(before)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_grid_matches_the_library_layout() {
        let cells = table1_cells();
        // 5 rows x 8 slots, minus PMOS HBD, which the paper marks N/A.
        assert_eq!(cells.len(), 36);
        let mut slots: Vec<usize> = cells.iter().map(|c| c.slot).collect();
        slots.dedup();
        assert_eq!(slots.len(), 36, "every cell owns its slot");
        assert!(cells[..8].iter().all(|c| c.defect.is_none()));
    }

    #[test]
    fn job_inputs_follow_the_seed_alone() {
        let dir = std::env::temp_dir().join(format!("obd-benchmark-inputs-{}", std::process::id()));
        let mut off = Tracer::new(false);
        for w in Workload::ALL {
            let fx = Fixture::new(w, Size { smoke: true }, &mut off).unwrap();
            let engine = Engine::new(&fx, 1, &dir.join(w.name()), &mut off).unwrap();
            let jobs = |seed| (0..4).map(|i| engine.input(seed, i)).collect::<Vec<_>>();
            assert_eq!(jobs(1), jobs(1), "{}", w.name());
            if !w.seeded() {
                assert!(jobs(2).iter().all(|i| *i == Input::Table1));
                continue;
            }
            assert_ne!(jobs(1), jobs(2), "{}", w.name());
            assert!(jobs(1).windows(2).all(|p| p[0] != p[1]), "{}", w.name());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fig9_universe_sizes() {
        // 14 NANDs x 2 pins x (5 NMOS + 4 PMOS stages), plus no defect.
        assert_eq!(fig9_defects(14).len(), 1 + 14 * 2 * 9);
        assert_eq!(sum_toggling_pairs().len(), 32);
    }

    #[test]
    fn paper_error_compares_pin_a_delays_only() {
        let mut slots = vec![Some(TransitionOutcome::Stuck); 40];
        slots[0] = Some(TransitionOutcome::Delay(100.0)); // paper 96
        slots[6] = Some(TransitionOutcome::Delay(110.0)); // paper 110
        slots[8] = Some(TransitionOutcome::Delay(120.0)); // MBD1 NMOS, paper 118
        let (err, cells) = paper_error(&slots);
        assert_eq!(cells, 3);
        assert!((err - 2.0).abs() < 1e-12);
    }
}
