//! The Fig. 5 characterization bench and the measurements behind Table 1
//! and Figs. 4, 6 and 7.
//!
//! The bench embeds the device under test in real logic, exactly as the
//! paper insists: each NAND input is driven by a two-inverter chain from a
//! PWL source (so the defect's injected current loads a real driver), and
//! the output drives an inverter (so the degraded swing slows real
//! downstream logic).
//!
//! One private builder expands and drives the bench for every job here:
//! [`run_cell_bench`] returns the raw waveforms, [`measure_cell_transition`]
//! the delay verdict, [`iddq`] the static supply current, and
//! [`characterize_table1`] fans the whole Table 1 grid out under
//! [`RunOptions`].

use obd_cmos::expand::{expand, ExpandedCircuit};
use obd_cmos::TechParams;
use obd_logic::netlist::{GateId, GateKind, NetId, Netlist};
use obd_spice::analysis::dc::{dc_sweep, DcSweep};
use obd_spice::analysis::tran::{transient_with_options, TranParams};
use obd_spice::devices::SourceWave;
use obd_spice::{EdgeKind, SimOptions, Waveform};

use crate::cache::DelayCache;
use crate::faultmodel::Polarity;
use crate::injection::inject_obd;
use crate::stage::{BreakdownStage, ObdParams};
use crate::ObdError;
use obd_chaos::InjectionPoint;
use obd_metrics::Counter;

/// Cell transitions measured (each one is at least one transient).
static TRANSITIONS_MEASURED: Counter = Counter::new("core.transitions_measured");
/// Measurements decided inside the trimmed capture-limited window.
static CAPTURE_LIMITED_DECIDED: Counter = Counter::new("core.capture_limited_decided");
/// Measurements escalated to a full-window rerun.
static WINDOW_ESCALATIONS: Counter = Counter::new("core.window_escalations");
/// Table 1 cells whose measurement failed and were marked degraded.
static CELLS_DEGRADED: Counter = Counter::new("core.cells_degraded");

/// Chaos: corrupt a completed delay measurement to NaN; the measurement
/// guard must reject it as a typed error rather than tabulating garbage.
static CHAOS_DELAY_CORRUPT: InjectionPoint = InjectionPoint::new("core.delay_corrupt");

/// Outcome of one measured transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransitionOutcome {
    /// 50 %-to-50 % propagation delay in picoseconds.
    Delay(f64),
    /// The output never crossed 50 % inside the window — Table 1's
    /// `sa-0` / `sa-1` entries.
    Stuck,
}

impl TransitionOutcome {
    /// The delay, if the transition completed.
    pub fn delay_ps(self) -> Option<f64> {
        match self {
            TransitionOutcome::Delay(d) => Some(d),
            TransitionOutcome::Stuck => None,
        }
    }

    /// Table-style rendering: `"118ps"` or `"sa-0"`/`"sa-1"` given the
    /// expected final value.
    pub fn render(self, expected_final_high: bool) -> String {
        match self {
            TransitionOutcome::Delay(d) => format!("{:.0}ps", d),
            TransitionOutcome::Stuck => {
                if expected_final_high {
                    "sa-0".to_string() // output should rise, stays low
                } else {
                    "sa-1".to_string() // output should fall, stays high
                }
            }
        }
    }
}

/// Timing parameters for the characterization transients.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Input edge time at the PWL source (ps).
    pub edge_ps: f64,
    /// Time of the launch edge (ps).
    pub launch_ps: f64,
    /// Observation window after the launch edge (ps).
    pub window_ps: f64,
    /// Transient step (ps).
    pub step_ps: f64,
    /// Optional at-speed capture limit (ps): a transition arriving later
    /// than this counts as stuck, mirroring the paper's early-capture
    /// argument (§4.2). `None` uses the full window.
    pub at_speed_ps: Option<f64>,
    /// Simulate the full observation window even when an at-speed capture
    /// limit is set. Off by default: with a capture limit, every outcome
    /// is decided shortly after the capture instant (a later crossing is
    /// "stuck" by definition), so the transient normally stops there —
    /// same table, a fraction of the steps. The benchmark harness turns
    /// this on to reproduce the pre-optimization driver.
    pub sim_full_window: bool,
}

impl BenchConfig {
    /// Default: 50 ps edges, launch at 1 ns, 4 ns window, 2 ps steps —
    /// fine enough to resolve the ~100 ps fault-free delays and wide
    /// enough to catch the 740 ps MBD2 PMOS row.
    pub fn new() -> Self {
        BenchConfig {
            edge_ps: 50.0,
            launch_ps: 1000.0,
            window_ps: 4000.0,
            step_ps: 2.0,
            at_speed_ps: None,
            sim_full_window: false,
        }
    }

    /// The Table 1 regeneration configuration: an 800 ps at-speed capture
    /// limit, under which the paper's `sa-0`/`sa-1` rows appear as stuck
    /// while every true delay row stays measurable.
    pub fn table1() -> Self {
        BenchConfig {
            at_speed_ps: Some(800.0),
            ..BenchConfig::new()
        }
    }

    /// Transient stop time (ps). The full window, unless an at-speed
    /// capture limit is set (and `sim_full_window` is off): once the
    /// input's 50 % reference crossing is captured, any output crossing
    /// more than `at_speed_ps` later leaves the verdict "stuck" either
    /// way, so nothing past `t_in + at_speed_ps` can change Table 1. The
    /// reference crossing itself is taken at the defect-loaded driver
    /// output, which lags `launch_ps + edge_ps` by the (defect-slowed)
    /// driver delay — the extra quarter of `at_speed_ps` of headroom
    /// absorbs that lag for most breakdown stages. The measurement
    /// layer still checks the captured window actually decides the
    /// verdict and falls back to the full window when it does not
    /// ([`measure_cell_transition`]), so the trimmed run is
    /// outcome-identical by construction, not by estimate.
    pub fn sim_stop_ps(&self) -> f64 {
        let full = self.launch_ps + self.window_ps;
        match self.at_speed_ps {
            Some(limit) if !self.sim_full_window => {
                full.min(self.launch_ps + self.edge_ps + 1.25 * limit + 4.0 * self.step_ps + 50.0)
            }
            _ => full,
        }
    }

    /// The drive of one primary input for a two-pattern sequence on a
    /// `vdd` supply: DC when the bit holds, an `edge_ps` ramp at
    /// `launch_ps` when it flips.
    pub fn input_wave(&self, vdd: f64, from: bool, to: bool) -> SourceWave {
        let lvl = |b: bool| if b { vdd } else { 0.0 };
        if from == to {
            SourceWave::dc(lvl(from))
        } else {
            SourceWave::step(
                lvl(from),
                lvl(to),
                self.launch_ps * 1e-12,
                self.edge_ps * 1e-12,
            )
        }
    }
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig::new()
    }
}

/// The Fig. 5 bench: a NAND2 with buffered inputs and a loaded output.
#[derive(Debug, Clone)]
pub struct Fig5Bench {
    /// The logic-level netlist of the bench.
    pub netlist: Netlist,
    /// The device under test.
    pub nand: GateId,
    /// Primary inputs (pre-driver).
    pub pis: [NetId; 2],
    /// Nets at the NAND's input pins (post-driver).
    pub nand_inputs: [NetId; 2],
    /// The NAND output net.
    pub output: NetId,
}

impl Fig5Bench {
    /// Builds the bench around a NAND2 or NOR2 device under test — the
    /// NOR variant validates the §5 duality in the analog domain.
    ///
    /// # Errors
    ///
    /// [`ObdError::BadSite`] for kinds other than `Nand` and `Nor`;
    /// propagates netlist construction failures.
    pub fn for_kind(kind: GateKind) -> Result<Self, ObdError> {
        if !matches!(kind, GateKind::Nand | GateKind::Nor) {
            return Err(ObdError::BadSite(
                "bench supports NAND2 and NOR2 devices under test".into(),
            ));
        }
        let mut nl = Netlist::new();
        let a = nl.add_input("A");
        let b = nl.add_input("B");
        let a1 = nl.add_gate(GateKind::Inv, "da1", &[a])?;
        let a2 = nl.add_gate(GateKind::Inv, "da2", &[a1])?;
        let b1 = nl.add_gate(GateKind::Inv, "db1", &[b])?;
        let b2 = nl.add_gate(GateKind::Inv, "db2", &[b1])?;
        let y = nl.add_gate(kind, "dut", &[a2, b2])?;
        let load = nl.add_gate(GateKind::Inv, "load", &[y])?;
        nl.mark_output(load);
        let nand = nl
            .driver(y)
            .ok_or_else(|| ObdError::BadSite("device under test has no driver".into()))?;
        Ok(Fig5Bench {
            netlist: nl,
            nand,
            pis: [a, b],
            nand_inputs: [a2, b2],
            output: y,
        })
    }
}

/// An OBD defect specification for the bench: which NAND pin, which
/// polarity, and the model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchDefect {
    /// NAND input pin (0 = A, 1 = B).
    pub pin: usize,
    /// Transistor polarity.
    pub polarity: Polarity,
    /// Model parameters at the assumed progression point.
    pub params: ObdParams,
}

/// Expands the Fig. 5 bench around a `kind` device under test, injects
/// the optional defect and drives primary input `i` with `drives[i]`: the
/// one builder behind every transient and static measurement here.
fn build_bench(
    tech: &TechParams,
    kind: GateKind,
    defect: Option<BenchDefect>,
    drives: [SourceWave; 2],
) -> Result<(ExpandedCircuit, Fig5Bench), ObdError> {
    let bench = Fig5Bench::for_kind(kind)?;
    let mut exp = expand(&bench.netlist, tech)?;
    if let Some(d) = defect {
        let trs = exp.find_transistors(bench.nand, d.pin, d.polarity.mos());
        let tr = trs.first().ok_or_else(|| {
            ObdError::BadSite(format!("no {} transistor at pin {}", d.polarity, d.pin))
        })?;
        inject_obd(&mut exp.circuit, tr.device, d.params, "dut")?;
    }
    for (&pi, wave) in bench.pis.iter().zip(drives) {
        exp.drive_input(pi, wave);
    }
    Ok((exp, bench))
}

/// Runs the bench transient for one two-pattern sequence on a NAND2 or
/// NOR2 device under test, returning the waveform plus the expanded
/// circuit and bench for node lookups.
///
/// # Errors
///
/// Propagates expansion, injection and simulation errors.
pub fn run_cell_bench(
    tech: &TechParams,
    kind: GateKind,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
    cfg: &BenchConfig,
    opts: &SimOptions,
) -> Result<(Waveform, ExpandedCircuit, Fig5Bench), ObdError> {
    let ps = 1e-12;
    let drives = [0, 1].map(|i| cfg.input_wave(tech.vdd, v1[i], v2[i]));
    let (exp, bench) = build_bench(tech, kind, defect, drives)?;
    let params = TranParams::new(cfg.step_ps * ps, cfg.sim_stop_ps() * ps);
    let wave = transient_with_options(&exp.circuit, &params, opts)?;
    Ok((wave, exp, bench))
}

/// Measures the device-under-test propagation delay for one sequence
/// under an optional defect. The reference edge is the switching DUT
/// *input* (post-driver) crossing 50 %; the measured edge is the DUT
/// output crossing 50 % in the logically expected direction.
///
/// # Errors
///
/// Propagates [`run_cell_bench`] errors; returns [`ObdError::BadSite`] if
/// neither input switches.
pub fn measure_cell_transition(
    tech: &TechParams,
    kind: GateKind,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
    cfg: &BenchConfig,
    opts: &SimOptions,
) -> Result<TransitionOutcome, ObdError> {
    let (wave, exp, bench) = run_cell_bench(tech, kind, defect, v1, v2, cfg, opts)?;
    TRANSITIONS_MEASURED.inc();
    let half = tech.half_vdd();

    // Which DUT input switches (first switching pin is the reference)?
    let switching_pin = (0..2)
        .find(|&i| v1[i] != v2[i])
        .ok_or_else(|| ObdError::BadSite("no input switches in the sequence".into()))?;
    let in_node = exp.node(bench.nand_inputs[switching_pin]);
    let in_edge = if v2[switching_pin] {
        EdgeKind::Rising
    } else {
        EdgeKind::Falling
    };
    let out_fn = |v: [bool; 2]| match kind {
        GateKind::Nor => !(v[0] || v[1]),
        _ => !(v[0] && v[1]),
    };
    let out1 = out_fn(v1);
    let out2 = out_fn(v2);
    if out1 == out2 {
        // Output does not switch; delay is undefined for this sequence.
        return Ok(TransitionOutcome::Stuck);
    }
    let out_edge = if out2 {
        EdgeKind::Rising
    } else {
        EdgeKind::Falling
    };
    let out_node = exp.node(bench.output);
    let t_start = cfg.launch_ps * 1e-12 * 0.5;
    let t_in = wave.first_crossing(in_node, half, in_edge, t_start);
    let t_out = t_in.and_then(|ti| wave.first_crossing(out_node, half, out_edge, ti));

    // A capture-limited run may have stopped before the verdict was
    // decided: the input reference crossing could still be pending, or
    // the window may not yet cover `t_in + at_speed` (so a later output
    // crossing could still be an in-limit delay). Escalate such cells to
    // the full observation window — the trimmed result is then
    // outcome-identical to an always-full-window driver by construction.
    if cfg.sim_stop_ps() < cfg.launch_ps + cfg.window_ps {
        // A trimmed window implies a capture limit; if that invariant ever
        // broke, an infinite limit makes the cell undecided and escalates
        // it to the full window, which is always safe.
        let limit_s = cfg.at_speed_ps.unwrap_or(f64::INFINITY) * 1e-12;
        let t_end = wave.time().last().copied().unwrap_or(0.0);
        let guard = 2.0 * cfg.step_ps * 1e-12;
        let decided = match (t_in, t_out) {
            (Some(_), Some(_)) => true,
            (Some(ti), None) => ti + limit_s <= t_end - guard,
            (None, _) => false,
        };
        if !decided {
            WINDOW_ESCALATIONS.inc();
            let full_cfg = BenchConfig {
                sim_full_window: true,
                ..cfg.clone()
            };
            return measure_cell_transition(tech, kind, defect, v1, v2, &full_cfg, opts);
        }
        CAPTURE_LIMITED_DECIDED.inc();
    }

    match (t_in, t_out) {
        (Some(ti), Some(to)) => {
            let mut ps = (to - ti) / 1e-12;
            if CHAOS_DELAY_CORRUPT.fire() {
                ps = f64::NAN;
            }
            // Measurement guard: crossings are time-ordered by
            // construction, so a NaN or negative delay means the
            // measurement chain was corrupted — report it instead of
            // tabulating garbage.
            if !ps.is_finite() || ps < 0.0 {
                return Err(ObdError::CorruptMeasurement(format!(
                    "non-physical propagation delay {ps} ps"
                )));
            }
            match cfg.at_speed_ps {
                Some(limit) if ps > limit => Ok(TransitionOutcome::Stuck),
                _ => Ok(TransitionOutcome::Delay(ps)),
            }
        }
        _ => Ok(TransitionOutcome::Stuck),
    }
}

/// One row of the regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Stage of the row.
    pub stage: BreakdownStage,
    /// Parameters used for the NMOS half (if available).
    pub nmos_params: Option<ObdParams>,
    /// Parameters used for the PMOS half (if available).
    pub pmos_params: Option<ObdParams>,
    /// NMOS outcomes for [(01,11) NA, (01,11) NB, (10,11) NA, (10,11) NB].
    pub nmos: [Option<TransitionOutcome>; 4],
    /// PMOS outcomes for [(11,10) PA, (11,10) PB, (11,01) PA, (11,01) PB].
    pub pmos: [Option<TransitionOutcome>; 4],
}

/// The regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows in ladder order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Renders the table as text in the paper's layout.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(
            "stage      | (01,11) NA | (01,11) NB | (10,11) NA | (10,11) NB | (11,10) PA | (11,10) PB | (11,01) PA | (11,01) PB\n",
        );
        for row in &self.rows {
            s.push_str(&format!("{:<10}", row.stage.to_string()));
            for o in row.nmos.iter() {
                let txt = o.map_or("N/A".to_string(), |t| t.render(false));
                s.push_str(&format!(" | {txt:>10}"));
            }
            for o in row.pmos.iter() {
                let txt = o.map_or("N/A".to_string(), |t| t.render(true));
                s.push_str(&format!(" | {txt:>10}"));
            }
            s.push('\n');
        }
        s
    }
}

/// A Table 1 cell whose measurement failed. The campaign records the
/// typed error and keeps going; the cell stays empty in the table.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Row index into [`Table1::rows`].
    pub row: usize,
    /// Slot index (0–3 NMOS, 4–7 PMOS).
    pub slot: usize,
    /// Breakdown stage of the failed row.
    pub stage: BreakdownStage,
    /// The typed error that degraded the cell.
    pub error: ObdError,
}

/// A Table 1 cell that measured successfully even though fault injection
/// fired during its solve: the escalation ladder absorbed the faults, so
/// the value is valid but may differ in low-order bits from an
/// injection-free run (the recovery path changes the numerical history).
#[derive(Debug, Clone)]
pub struct CellRecovery {
    /// Row index into [`Table1::rows`].
    pub row: usize,
    /// Slot index (0–3 NMOS, 4–7 PMOS).
    pub slot: usize,
    /// How many injections fired during this cell's measurement.
    pub injections: u64,
}

/// The result of [`characterize_table1`]: every cell that measured
/// cleanly, plus explicit accounting for every cell that did not. Cells
/// untouched by fault injection are bit-identical to a chaos-free run;
/// recovered cells are valid but path-dependent.
#[derive(Debug, Clone)]
pub struct Table1Report {
    /// The table with failed cells left empty.
    pub table: Table1,
    /// One entry per degraded cell, in grid order; empty on a clean run.
    pub failures: Vec<CellFailure>,
    /// Cells that succeeded despite injections; empty on a clean run.
    pub recovered: Vec<CellRecovery>,
}

impl Table1Report {
    /// Whether any cell was degraded.
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Renders the table plus a degraded-cell annotation block.
    pub fn render(&self) -> String {
        let mut s = self.table.render();
        if !self.failures.is_empty() {
            s.push_str(&format!("degraded cells: {}\n", self.failures.len()));
            for f in &self.failures {
                s.push_str(&format!(
                    "  {} row {} slot {}: {}\n",
                    f.stage, f.row, f.slot, f.error
                ));
            }
        }
        s
    }

    /// The table, or the error of the lowest-indexed failing cell — the
    /// strict view of the report, for callers that cannot use a partial
    /// table.
    ///
    /// # Errors
    ///
    /// The first entry of [`Table1Report::failures`].
    pub fn into_result(self) -> Result<Table1, ObdError> {
        match self.failures.into_iter().next() {
            Some(f) => Err(f.error),
            None => Ok(self.table),
        }
    }
}

/// Options for one [`characterize_table1`] run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions<'a> {
    /// Worker threads for the cell fan-out; 0 and 1 both run inline on the
    /// calling thread. The table is identical at any count.
    pub threads: usize,
    /// Memo table every cell goes through; `None` measures each cell
    /// afresh.
    pub cache: Option<&'a DelayCache>,
    /// Solver options for every transient.
    pub sim: SimOptions,
}

/// Regenerates Table 1: transition delays of the Fig. 5 NAND for the four
/// single-input sequences under NMOS/PMOS defects on each input, across
/// the progression ladder.
///
/// Every cell is an independent transient (own circuit expansion, own
/// solver), fanned out over the work-stealing pool ([`crate::pool`]). Cell
/// costs are wildly uneven — fault-free cells stop at the capture limit,
/// stuck cells escalate to the full window — and work stealing bounds the
/// imbalance by one cell. Each job writes its own `(row, slot)`, so the
/// table is identical at any thread count.
///
/// A cell whose measurement fails is recorded in
/// [`Table1Report::failures`] with its typed error and left empty; the run
/// goes on. Cells untouched by fault injection are bit-identical to a
/// chaos-free run. Recovery attribution reads the global injection count
/// around each cell, so [`Table1Report::recovered`] is exact at
/// `threads: 1` and approximate when cells overlap.
pub fn characterize_table1(
    tech: &TechParams,
    cfg: &BenchConfig,
    opts: &RunOptions,
) -> Table1Report {
    let (jobs, row_meta) = table1_jobs();
    let measure = |j: &Table1Job| {
        let before = obd_chaos::injected_total();
        let outcome = match opts.cache {
            Some(cache) => {
                cache.measure_cell(tech, GateKind::Nand, j.defect, j.v1, j.v2, cfg, &opts.sim)
            }
            None => {
                measure_cell_transition(tech, GateKind::Nand, j.defect, j.v1, j.v2, cfg, &opts.sim)
            }
        };
        (outcome, obd_chaos::injected_total().saturating_sub(before))
    };
    // The pool fails only when a worker panicked; every cell then carries
    // that error.
    let results = crate::pool::run_jobs(&jobs, opts.threads, |_, j| Ok(measure(j)))
        .unwrap_or_else(|e| jobs.iter().map(|_| (Err(e.clone()), 0)).collect());
    let mut slots = vec![[None; 8]; row_meta.len()];
    let mut failures = Vec::new();
    let mut recovered = Vec::new();
    for (j, (outcome, injections)) in jobs.iter().zip(results) {
        match outcome {
            Ok(o) => {
                slots[j.row][j.slot] = Some(o);
                if injections > 0 {
                    recovered.push(CellRecovery {
                        row: j.row,
                        slot: j.slot,
                        injections,
                    });
                }
            }
            Err(error) => {
                CELLS_DEGRADED.inc();
                failures.push(CellFailure {
                    row: j.row,
                    slot: j.slot,
                    stage: row_meta[j.row].0,
                    error,
                });
            }
        }
    }
    Table1Report {
        table: table1_from_slots(row_meta, slots),
        failures,
        recovered,
    }
}

/// [`characterize_table1`] on `threads` workers with default options,
/// failing on the lowest-indexed failing cell. Kept only as the entry
/// point of the benchmark harness (`crates/benchmark`).
///
/// # Errors
///
/// See [`Table1Report::into_result`].
pub fn characterize_table1_parallel(
    tech: &TechParams,
    cfg: &BenchConfig,
    threads: usize,
) -> Result<Table1, ObdError> {
    characterize_table1(
        tech,
        cfg,
        &RunOptions {
            threads,
            ..RunOptions::default()
        },
    )
    .into_result()
}

/// One cell of the Table 1 grid: row/slot coordinates plus the
/// measurement inputs, flattened so independent transients can fan out
/// over worker threads.
struct Table1Job {
    row: usize,
    /// 0–3 = NMOS slots, 4–7 = PMOS slots.
    slot: usize,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
}

/// Per-row metadata: the progression stage plus its NMOS/PMOS model
/// parameters (absent where the stage has no such device variant).
type Table1RowMeta = (BreakdownStage, Option<ObdParams>, Option<ObdParams>);

/// Builds the flat job list for the Table 1 grid, in the same order the
/// serial driver visits it.
fn table1_jobs() -> (Vec<Table1Job>, Vec<Table1RowMeta>) {
    let nmos_seqs = [([false, true], [true, true]), ([true, false], [true, true])];
    let pmos_seqs = [([true, true], [true, false]), ([true, true], [false, true])];
    let mut jobs = Vec::new();
    let mut row_meta = Vec::new();
    for (row, stage) in BreakdownStage::TABLE1.into_iter().enumerate() {
        let nmos_params = stage.params(Polarity::Nmos).ok();
        let pmos_params = stage.params(Polarity::Pmos).ok();
        for (si, &(v1, v2)) in nmos_seqs.iter().enumerate() {
            for pin in 0..2 {
                let defect = match (stage, nmos_params) {
                    (BreakdownStage::FaultFree, _) => None,
                    (_, Some(p)) => Some(BenchDefect {
                        pin,
                        polarity: Polarity::Nmos,
                        params: p,
                    }),
                    _ => continue,
                };
                jobs.push(Table1Job {
                    row,
                    slot: si * 2 + pin,
                    defect,
                    v1,
                    v2,
                });
            }
        }
        for (si, &(v1, v2)) in pmos_seqs.iter().enumerate() {
            for pin in 0..2 {
                let defect = match (stage, pmos_params) {
                    (BreakdownStage::FaultFree, _) => None,
                    (_, Some(p)) => Some(BenchDefect {
                        pin,
                        polarity: Polarity::Pmos,
                        params: p,
                    }),
                    _ => continue,
                };
                jobs.push(Table1Job {
                    row,
                    slot: 4 + si * 2 + pin,
                    defect,
                    v1,
                    v2,
                });
            }
        }
        row_meta.push((stage, nmos_params, pmos_params));
    }
    (jobs, row_meta)
}

/// Assembles outcome slots back into [`Table1`] rows.
fn table1_from_slots(
    row_meta: Vec<(BreakdownStage, Option<ObdParams>, Option<ObdParams>)>,
    slots: Vec<[Option<TransitionOutcome>; 8]>,
) -> Table1 {
    let rows = row_meta
        .into_iter()
        .zip(slots)
        .map(|((stage, nmos_params, pmos_params), s)| Table1Row {
            stage,
            nmos_params,
            pmos_params,
            nmos: [s[0], s[1], s[2], s[3]],
            pmos: [s[4], s[5], s[6], s[7]],
        })
        .collect();
    Table1 { rows }
}

/// Fig. 4: the inverter voltage-transfer characteristic under an NMOS (or
/// PMOS) OBD defect at the given stage. Returns `(vin, vout)` pairs.
///
/// # Errors
///
/// Propagates expansion and sweep errors.
pub fn inverter_vtc(
    tech: &TechParams,
    polarity: Polarity,
    stage: BreakdownStage,
    points: usize,
) -> Result<Vec<(f64, f64)>, ObdError> {
    let mut nl = Netlist::new();
    let a = nl.add_input("in");
    let y = nl.add_gate(GateKind::Inv, "inv", &[a])?;
    nl.mark_output(y);
    let mut exp = expand(&nl, tech)?;
    if stage != BreakdownStage::FaultFree {
        let params = stage.params(polarity)?;
        let gate = nl
            .driver(y)
            .ok_or_else(|| ObdError::BadSite("inverter output has no driver".into()))?;
        let trs = exp.find_transistors(gate, 0, polarity.mos());
        let tr = trs
            .first()
            .ok_or_else(|| ObdError::BadSite(format!("no {polarity} transistor in inverter")))?;
        inject_obd(&mut exp.circuit, tr.device, params, "vtc")?;
    }
    exp.drive_input(a, SourceWave::dc(0.0));
    let sweep = DcSweep::new(
        &format!("VPI_{}", exp.node(a).index()),
        0.0,
        tech.vdd,
        points,
    );
    let res = dc_sweep(&exp.circuit, &SimOptions::new(), &sweep)?;
    Ok(res.transfer_curve(exp.node(y)))
}

/// Quiescent supply current (IDDQ) of the Fig. 5 NAND bench at a static
/// input vector, in amps — the measurement the GOS literature (Segura et
/// al., cited in §2) proposed for *hard* breakdown screening. With the
/// diode-resistor model, IDDQ grows by orders of magnitude over the
/// progression, so the same model also explains why IDDQ testing works
/// for manufactured shorts but reacts late for operational defects.
/// `opts.temperature_c` sets the junction temperature: the breakdown
/// junctions follow the SPICE saturation-current temperature law.
///
/// # Errors
///
/// Propagates expansion, injection and solve errors.
pub fn iddq(
    tech: &TechParams,
    defect: Option<BenchDefect>,
    inputs: [bool; 2],
    opts: &SimOptions,
) -> Result<f64, ObdError> {
    let drives = inputs.map(|b| SourceWave::dc(if b { tech.vdd } else { 0.0 }));
    let (exp, _) = build_bench(tech, GateKind::Nand, defect, drives)?;
    let op = obd_spice::analysis::op::operating_point(&exp.circuit, opts)?;
    // The VDD source is the first voltage source added by the expansion.
    op.supply_current_magnitude(0)
        .ok_or_else(|| ObdError::Spice("no supply source".into()))
}

/// Stage-to-delay lookup used by the gate-level fault model: the extra
/// transition delay (relative to fault-free) an excited OBD defect causes
/// at each stage, per polarity.
#[derive(Debug, Clone)]
pub struct DelayTable {
    /// Fault-free NAND fall delay (ps).
    pub base_fall_ps: f64,
    /// Fault-free NAND rise delay (ps).
    pub base_rise_ps: f64,
    /// `(stage, outcome)` for NMOS defects (excited falling transition).
    pub nmos: Vec<(BreakdownStage, TransitionOutcome)>,
    /// `(stage, outcome)` for PMOS defects (excited rising transition).
    pub pmos: Vec<(BreakdownStage, TransitionOutcome)>,
}

impl DelayTable {
    /// The paper's published Table 1 numbers — lets the gate-level layers
    /// run without analog simulation.
    pub fn paper() -> Self {
        use BreakdownStage::*;
        DelayTable {
            base_fall_ps: 96.0,
            base_rise_ps: 110.0,
            nmos: vec![
                (Sbd, TransitionOutcome::Delay(105.0)),
                (Mbd1, TransitionOutcome::Delay(118.0)),
                (Mbd2, TransitionOutcome::Delay(150.0)),
                (Mbd3, TransitionOutcome::Delay(210.0)),
                (Hbd, TransitionOutcome::Stuck),
            ],
            pmos: vec![
                (Sbd, TransitionOutcome::Delay(180.0)),
                (Mbd1, TransitionOutcome::Delay(360.0)),
                (Mbd2, TransitionOutcome::Delay(738.0)),
                (Mbd3, TransitionOutcome::Stuck),
                (Hbd, TransitionOutcome::Stuck),
            ],
        }
    }

    /// Builds the table by running the Fig. 5 characterization with this
    /// crate's analog model, through `cache`: measurements already in it
    /// (e.g. from a Table 1 run or an earlier annotation pass) are reused
    /// instead of re-simulated. Pass a fresh [`DelayCache`] to measure
    /// everything.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors.
    pub fn from_characterization(
        tech: &TechParams,
        cfg: &BenchConfig,
        cache: &DelayCache,
    ) -> Result<Self, ObdError> {
        let sim = SimOptions::default();
        let measure =
            |defect, v1, v2| cache.measure_cell(tech, GateKind::Nand, defect, v1, v2, cfg, &sim);
        let base_fall = measure(None, [false, true], [true, true])?
            .delay_ps()
            .unwrap_or(f64::NAN);
        let base_rise = measure(None, [true, true], [false, true])?
            .delay_ps()
            .unwrap_or(f64::NAN);
        let mut nmos = Vec::new();
        let mut pmos = Vec::new();
        for stage in [
            BreakdownStage::Sbd,
            BreakdownStage::Mbd1,
            BreakdownStage::Mbd2,
            BreakdownStage::Mbd3,
            BreakdownStage::Hbd,
        ] {
            if let Ok(p) = stage.params(Polarity::Nmos) {
                let o = measure(
                    Some(BenchDefect {
                        pin: 0,
                        polarity: Polarity::Nmos,
                        params: p,
                    }),
                    [false, true],
                    [true, true],
                )?;
                nmos.push((stage, o));
            }
            if let Ok(p) = stage.params(Polarity::Pmos) {
                let o = measure(
                    Some(BenchDefect {
                        pin: 0,
                        polarity: Polarity::Pmos,
                        params: p,
                    }),
                    [true, true],
                    [false, true],
                )?;
                pmos.push((stage, o));
            } else {
                pmos.push((stage, TransitionOutcome::Stuck));
            }
        }
        Ok(DelayTable {
            base_fall_ps: base_fall,
            base_rise_ps: base_rise,
            nmos,
            pmos,
        })
    }

    /// The defect-induced *extra* delay at a stage: `None` means stuck.
    pub fn extra_delay_ps(&self, polarity: Polarity, stage: BreakdownStage) -> Option<f64> {
        if stage == BreakdownStage::FaultFree {
            return Some(0.0);
        }
        let (list, base) = match polarity {
            Polarity::Nmos => (&self.nmos, self.base_fall_ps),
            Polarity::Pmos => (&self.pmos, self.base_rise_ps),
        };
        let outcome = list
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, o)| *o)
            .unwrap_or(TransitionOutcome::Stuck);
        outcome.delay_ps().map(|d| (d - base).max(0.0))
    }

    /// Whether the defect at this stage behaves as a full stuck-at during
    /// at-speed operation.
    pub fn is_stuck(&self, polarity: Polarity, stage: BreakdownStage) -> bool {
        self.extra_delay_ps(polarity, stage).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> BenchConfig {
        BenchConfig {
            edge_ps: 50.0,
            launch_ps: 500.0,
            window_ps: 2500.0,
            step_ps: 4.0,
            at_speed_ps: None,
            sim_full_window: false,
        }
    }

    /// One measurement at [`fast_cfg`] under the default solver options.
    fn measure(
        kind: GateKind,
        defect: Option<BenchDefect>,
        v1: [bool; 2],
        v2: [bool; 2],
    ) -> TransitionOutcome {
        let (tech, opts) = (TechParams::date05(), SimOptions::new());
        measure_cell_transition(&tech, kind, defect, v1, v2, &fast_cfg(), &opts).unwrap()
    }

    #[test]
    fn fault_free_delays_near_calibration_target() {
        let fall = measure(GateKind::Nand, None, [false, true], [true, true])
            .delay_ps()
            .expect("fault-free NAND must switch");
        let rise = measure(GateKind::Nand, None, [true, true], [false, true])
            .delay_ps()
            .expect("fault-free NAND must switch");
        // Calibration window: same order as the paper's 96 ps / 110 ps.
        assert!(fall > 30.0 && fall < 300.0, "fall = {fall} ps");
        assert!(rise > 30.0 && rise < 400.0, "rise = {rise} ps");
    }

    #[test]
    fn nmos_defect_slows_falling_transition_monotonically() {
        let mut last = 0.0;
        for stage in [
            BreakdownStage::FaultFree,
            BreakdownStage::Mbd1,
            BreakdownStage::Mbd3,
        ] {
            let defect = stage.params(Polarity::Nmos).ok().and_then(|p| {
                (stage != BreakdownStage::FaultFree).then_some(BenchDefect {
                    pin: 0,
                    polarity: Polarity::Nmos,
                    params: p,
                })
            });
            let d = measure(GateKind::Nand, defect, [false, true], [true, true]);
            match d {
                TransitionOutcome::Delay(ps) => {
                    assert!(ps >= last, "{stage}: {ps} >= {last}");
                    last = ps;
                }
                TransitionOutcome::Stuck => panic!("{stage} should not be stuck yet"),
            }
        }
    }

    #[test]
    fn pmos_defect_is_input_specific() {
        let p = BreakdownStage::Mbd2.params(Polarity::Pmos).unwrap();
        let defect_a = Some(BenchDefect {
            pin: 0,
            polarity: Polarity::Pmos,
            params: p,
        });
        // (11,01): input A falls — the defective PMOS-A is the sole
        // charging path: delay appears.
        let excited = measure(GateKind::Nand, defect_a, [true, true], [false, true]);
        // (11,10): input B falls — PMOS-B charges: no extra delay.
        let masked = measure(GateKind::Nand, defect_a, [true, true], [true, false]);
        let base = measure(GateKind::Nand, None, [true, true], [true, false])
            .delay_ps()
            .unwrap();
        match (excited, masked) {
            (TransitionOutcome::Delay(de), TransitionOutcome::Delay(dm)) => {
                assert!(de > dm + 20.0, "excited {de} ps must exceed masked {dm} ps");
                assert!(
                    (dm - base).abs() < 0.35 * base + 20.0,
                    "masked {dm} vs base {base}"
                );
            }
            (TransitionOutcome::Stuck, TransitionOutcome::Delay(_)) => {
                // Even stronger manifestation: acceptable.
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
    }

    #[test]
    fn paper_delay_table_lookup() {
        let t = DelayTable::paper();
        assert_eq!(
            t.extra_delay_ps(Polarity::Nmos, BreakdownStage::FaultFree),
            Some(0.0)
        );
        let d = t
            .extra_delay_ps(Polarity::Nmos, BreakdownStage::Mbd1)
            .unwrap();
        assert!((d - 22.0).abs() < 1.0);
        assert!(t.is_stuck(Polarity::Nmos, BreakdownStage::Hbd));
        assert!(t.is_stuck(Polarity::Pmos, BreakdownStage::Mbd3));
        assert!(!t.is_stuck(Polarity::Pmos, BreakdownStage::Mbd2));
    }

    /// §5 analog validation of the NOR dual: the series-PMOS defect is
    /// excited by any rising-output sequence, the parallel-NMOS defect
    /// only by its own single-input rise.
    #[test]
    fn nor_duality_in_analog_model() {
        let kind = GateKind::Nor;
        // PMOS (series stack in a NOR) defect on pin 0: both (10,00) and
        // (01,00) — different switching inputs — show extra rise delay.
        let p = BreakdownStage::Mbd2.params(Polarity::Pmos).unwrap();
        let d_p = Some(BenchDefect {
            pin: 0,
            polarity: Polarity::Pmos,
            params: p,
        });
        let base_rise = measure(kind, None, [true, false], [false, false])
            .delay_ps()
            .unwrap();
        for v1 in [[true, false], [false, true]] {
            match measure(kind, d_p, v1, [false, false]) {
                TransitionOutcome::Delay(d) => {
                    assert!(d > base_rise + 40.0, "{v1:?}: {d} vs base {base_rise}")
                }
                TransitionOutcome::Stuck => {}
            }
        }
        // NMOS (parallel in a NOR) defect on pin 0 at SBD: excited by
        // (00,10), masked under (00,01).
        let n = BreakdownStage::Sbd.params(Polarity::Nmos).unwrap();
        let d_n = Some(BenchDefect {
            pin: 0,
            polarity: Polarity::Nmos,
            params: n,
        });
        let base_fall = measure(kind, None, [false, false], [false, true])
            .delay_ps()
            .unwrap();
        let excited = measure(kind, d_n, [false, false], [true, false])
            .delay_ps()
            .expect("excited NOR NMOS still switches at SBD");
        let masked = measure(kind, d_n, [false, false], [false, true])
            .delay_ps()
            .expect("masked sequence switches");
        assert!(
            excited > masked + 30.0,
            "excited {excited} vs masked {masked}"
        );
        assert!(
            (masked - base_fall).abs() < 40.0,
            "masked {masked} vs base {base_fall}"
        );
    }

    /// Temperature behavior of the OBD ladder's fitted junctions: at
    /// Isat ≈ 1e-28 A the operating drop sits near 1.4 V, where the
    /// vt·ln(I/Isat) term dominates the energy-gap correction, so —
    /// unlike a commodity silicon diode — the leak varies only weakly
    /// (and slightly *downward*) with junction temperature. The ladder's
    /// (Isat, R) pairs are fitted parameters for a percolation path, not
    /// a physical pn junction, so the suite treats progression (not
    /// ambient temperature) as the driver of leakage growth, exactly as
    /// the paper does.
    #[test]
    fn obd_ladder_iddq_weakly_temperature_dependent() {
        let tech = TechParams::date05();
        let defect = Some(BenchDefect {
            pin: 0,
            polarity: Polarity::Nmos,
            params: BreakdownStage::Mbd1.params(Polarity::Nmos).unwrap(),
        });
        let at = |defect, t: f64| {
            let opts = SimOptions::new().at_temperature(t);
            iddq(&tech, defect, [true, true], &opts).unwrap()
        };
        let (cold, nominal, hot) = (at(defect, -40.0), at(defect, 26.85), at(defect, 125.0));
        let spread = (cold - hot).abs() / nominal;
        assert!(
            spread < 0.15,
            "OBD-regime leak should vary weakly with T: cold {cold}, hot {hot}"
        );
        // All three dwarf the healthy circuit regardless of temperature.
        let healthy = at(None, 125.0);
        for i in [cold, nominal, hot] {
            assert!(i > 100.0 * healthy.max(1e-12));
        }
    }

    /// The temperature sweep of the delay signature runs and produces
    /// measurable (non-stuck) outcomes over the automotive range; the
    /// *sign* of the delay shift is a competition between stronger
    /// junction conduction (slower) and the lower diode drop reducing the
    /// degraded-level penalty at the driver (faster), so only
    /// measurability is asserted here.
    #[test]
    fn temperature_sweep_delay_is_measurable() {
        let tech = TechParams::date05();
        let cfg = fast_cfg();
        let defect = BenchDefect {
            pin: 0,
            polarity: Polarity::Nmos,
            params: BreakdownStage::Mbd1.params(Polarity::Nmos).unwrap(),
        };
        for t in [-40.0, 26.85, 125.0] {
            let o = measure_cell_transition(
                &tech,
                GateKind::Nand,
                Some(defect),
                [false, true],
                [true, true],
                &cfg,
                &SimOptions::new().at_temperature(t),
            )
            .unwrap();
            assert!(o.delay_ps().is_some(), "stuck at {t}°C");
        }
    }

    /// IDDQ grows by orders of magnitude over the progression — the
    /// static signature the GOS (hard-breakdown) literature screens for.
    #[test]
    fn iddq_grows_monotonically_with_stage() {
        let tech = TechParams::date05();
        let opts = SimOptions::new();
        let healthy = iddq(&tech, None, [true, true], &opts).unwrap();
        let mut last = healthy;
        for stage in [
            BreakdownStage::Sbd,
            BreakdownStage::Mbd2,
            BreakdownStage::Hbd,
        ] {
            let p = stage.params(Polarity::Nmos).unwrap();
            let i = iddq(
                &tech,
                Some(BenchDefect {
                    pin: 0,
                    polarity: Polarity::Nmos,
                    params: p,
                }),
                [true, true],
                &opts,
            )
            .unwrap();
            assert!(i > last, "{stage}: {i} should exceed {last}");
            last = i;
        }
        assert!(
            last > healthy * 100.0,
            "HBD IDDQ {last} should dwarf healthy {healthy}"
        );
    }

    #[test]
    fn vtc_vol_shifts_up_with_nmos_breakdown() {
        let tech = TechParams::date05();
        // VOL = output at vin = vdd.
        let vol = |stage: BreakdownStage| -> f64 {
            let curve = inverter_vtc(&tech, Polarity::Nmos, stage, 9).unwrap();
            curve.last().expect("sweep nonempty").1
        };
        let v_ff = vol(BreakdownStage::FaultFree);
        let v_mbd = vol(BreakdownStage::Mbd2);
        let v_hbd = vol(BreakdownStage::Hbd);
        assert!(v_ff < 0.1, "fault-free VOL ~ 0, got {v_ff}");
        assert!(v_mbd > v_ff, "MBD must lift VOL: {v_mbd} vs {v_ff}");
        assert!(
            v_hbd > v_mbd,
            "HBD must lift VOL further: {v_hbd} vs {v_mbd}"
        );
    }
}
