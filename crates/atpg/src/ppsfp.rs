//! Bit-parallel PPSFP fault grading over `[u64; N]` super-lanes.
//!
//! Parallel-pattern single-fault propagation: up to `64 * N` two-pattern
//! tests are packed into one [`WideBlock`] per frame, the good-machine
//! responses are computed **once per block** (not once per fault × test),
//! and each fault's forced-value (held-output) effect is propagated for
//! the whole block at once through its fanout cone over the cached good
//! response ([`obd_logic::soa::SoaNetlist::propagate_held`]): only the
//! gates the effect reaches are evaluated, and an effect masked on every
//! pattern dies at the gate that masks it. Detection is then one XOR/OR
//! reduction over the packed primary-output words the effect changed.
//!
//! OBD and EM excitation is word-parallel as well. One pass over the
//! defective cell's series-parallel network, fed the gate's cached good
//! pin words, yields three words for the whole block: the network
//! conducts; it still conducts with the defective transistor forced off
//! (so the transistor is the sole path, the paper's OBD condition and
//! the word form of [`SpNet::essential`]); and a conducting path runs
//! through the transistor (the EM condition, [`SpNet::on_some_path`]).
//! The output's fall/rise comes from the pull-down conduction of both
//! frames, so excitation costs a few AND/OR/NOT ops per network node for
//! all `64 * N` patterns. The scalar [`obd_cmos::switch::excites`] and
//! [`obd_core::em::em_excites`] remain the oracle and serve the X
//! fallback below.
//!
//! The engine is generic over the super-lane width `N` (`64 * N`
//! patterns per block). Where the width pays depends on dropping:
//!
//! * Dropping graders ([`FaultSimulator::grade`], `grade_parallel`)
//!   run at width 1. Most faults die in their first 64 patterns, and a
//!   wider block would make each of them pay for `64 * N` patterns of
//!   cone work.
//! * No-drop graders ([`FaultSimulator::detection_matrix`], BIST
//!   response modeling) evaluate every (fault, test) pair and run at
//!   [`SUPERLANE_WIDTH`] = 8: every word the cone walk touches is a
//!   `[u64; 8]` whose elementwise AND/OR/XOR the compiler autovectorizes,
//!   amortizing the per-gate walk overhead across eight 64-pattern lanes.
//!
//! Bit-exactness vs the scalar path ([`FaultSimulator::detects`]): the
//! packed simulator is two-valued (X packs as 0), so only *fully
//! specified* tests are packed — every lane of a packed evaluation is
//! then exactly one scalar three-valued evaluation, because all net
//! values are known and the gate functions agree on known values.
//! Tests carrying `X` bits fall back to the scalar path, preserving the
//! scalar semantics for them too.
//!
//! The engine also carries the campaign-level machinery the scalar loops
//! lacked: fault dropping (a detected fault leaves the campaign
//! immediately), a reusable per-worker [`PpsfpScratch`] arena so the
//! inner loop is allocation-free, and fan-out on the shared
//! [`obd_core::pool`]: [`PpsfpEngine::grade_parallel`] and
//! [`PpsfpEngine::detection_matrix`] grade 64 walk units per pool job
//! (a matrix job grades its units block by block and hands back their
//! detection lanes; one serial pass gathers them into packed columns and
//! writes the matrix one 64-fault × 64-test bit-transposed tile at a
//! time), and
//! [`PpsfpEngine::prepare_with_threads`] packs each block's frames and
//! fills its good-response caches in one pool job per block, so a large
//! test set does not serialize the warm-up.
//!
//! Every grader shares cone walks among the faults on one net. A forced
//! value either equals the good value on a lane or is its complement, and
//! lanes never interact, so one walk that flips a net on some lanes gives
//! each of those lanes' PO difference, and each fault on the net reads it
//! on the lanes where its value differs from the good one. The walk unit
//! is the net: its stuck-at faults, its transition faults, and the OBD
//! and EM faults of its driving gate. An OBD delay fault propagates like
//! a transition fault, gated by its transistor's excitation, so it
//! differs from one only in the lanes it excites. Per block a unit walks
//! each frame at most once, flipped only on the lanes some member reads,
//! so the walk dies as soon as those lanes are masked:
//!
//! * the launch frame on the lanes where a stuck-at member's value
//!   differs from the good one;
//! * the capture frame on those of the stuck-at members still pending,
//!   plus each held member's launch or excitation lanes, where the held
//!   launch-frame word is the complement of the good one.
//!
//! The dropping grader drops each member on its own lanes, and a stuck-at
//! member the launch frame detects stays out of the capture-frame walk;
//! the no-drop matrix and [`PpsfpEngine::detection_row`] run the same
//! walk without dropping.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

use obd_cmos::cell::Cell;
use obd_cmos::switch::{CellTransistor, NetworkSide};
use obd_cmos::SpNet;
use obd_core::faultmodel::Polarity;
use obd_core::pool::run_jobs;
use obd_logic::netlist::{GateId, GateKind, NetId, Netlist};
use obd_logic::soa::ConeScratch;
use obd_logic::value::Lv;
use obd_logic::wide::{transpose64, LaneWord, WideBlock};
use obd_metrics::{Counter, Gauge};

use crate::fault::{Fault, SlowTo, TwoPatternTest};
use crate::faultsim::{stuck_output_value, FaultSimulator};
use crate::AtpgError;

/// Super-lane width of the no-drop detection rows: eight 64-bit lanes,
/// 512 patterns per block.
pub const SUPERLANE_WIDTH: usize = 8;

/// Packed block evaluations performed: one per (fault, block) in
/// [`PpsfpEngine::detection_row`], one per (net, block) in
/// [`PpsfpEngine::detection_matrix`] and one per (net, block) that the
/// dropping [`PpsfpEngine::grade_parallel`] reaches before every member
/// of the net is detected, however many faults share the net's walks
/// (nets whose members can never be detected reach none).
static BLOCKS_GRADED: Counter = Counter::new("atpg.blocks_graded");
/// Packed evaluations that reused a block's cached good-machine response
/// (every evaluation after the block's first).
static GOOD_SIM_CACHE_HITS: Counter = Counter::new("atpg.good_sim_cache_hits");
/// Faults [`PpsfpEngine::grade_parallel`] detects with grading work
/// still pending, once per fault: the faults whose remaining blocks or
/// X-bearing tests the drop skipped.
static FAULTS_DROPPED: Counter = Counter::new("atpg.faults_dropped");
/// Super-lane width (64-bit lanes per packed word) of the most recently
/// prepared engine.
static SUPERLANE_WIDTH_GAUGE: Gauge = Gauge::new("atpg.superlane_width");

/// One block of fully-specified tests, represented by its cached
/// good-machine responses for both frames (the packed frames themselves
/// are only needed to compute them).
struct GoodBlock<const N: usize> {
    /// Good-machine net words under the launch frames.
    g1: Vec<LaneWord<N>>,
    /// Good-machine net words under the capture frames.
    g2: Vec<LaneWord<N>>,
    /// Valid-lane mask.
    mask: LaneWord<N>,
    /// Lane → original test index.
    tests: Vec<usize>,
    /// Whether any fault has been graded against this block yet (first
    /// evaluation pays for the good sims conceptually; the rest are
    /// cache hits).
    touched: AtomicBool,
}

/// Per-worker scratch arena: every buffer the packed inner loop needs,
/// reused across faults and blocks so steady-state grading performs no
/// heap allocation.
#[derive(Debug, Default)]
pub struct PpsfpScratch<const N: usize = SUPERLANE_WIDTH> {
    /// Faulty-machine overlay for cone propagation.
    cone: ConeScratch<N>,
}

/// One network's conduction over a packed block, from one pass of
/// [`conduct_words`].
struct Conduction<const N: usize> {
    /// The network conducts ([`SpNet::conducts`]).
    on: LaneWord<N>,
    /// It still conducts with the target leaf forced off.
    without: LaneWord<N>,
    /// A conducting path runs through the target leaf
    /// ([`SpNet::on_some_path`]).
    through: LaneWord<N>,
}

/// Word form of the scalar conduction walks: `on(pin)` gives the packed
/// gate word of each pin, `target` is a leaf index in [`SpNet::leaves`]
/// order (`usize::MAX` for none) and `leaf` counts leaves as they are
/// visited, as the scalar recursion does.
fn conduct_words<const N: usize>(
    net: &SpNet,
    on: &impl Fn(usize) -> LaneWord<N>,
    target: usize,
    leaf: &mut usize,
) -> Conduction<N> {
    match net {
        SpNet::Leaf(p) => {
            let c = on(*p);
            let hit = *leaf == target;
            *leaf += 1;
            let (without, through) = if hit {
                (LaneWord::ZERO, c)
            } else {
                (c, LaneWord::ZERO)
            };
            Conduction {
                on: c,
                without,
                through,
            }
        }
        SpNet::Series(xs) => {
            let mut acc = Conduction {
                on: LaneWord::ONES,
                without: LaneWord::ONES,
                through: LaneWord::ZERO,
            };
            for x in xs {
                let c = conduct_words(x, on, target, leaf);
                acc.on &= c.on;
                acc.without &= c.without;
                acc.through |= c.through;
            }
            acc.through &= acc.on;
            acc
        }
        SpNet::Parallel(xs) => {
            let mut acc = Conduction {
                on: LaneWord::ZERO,
                without: LaneWord::ZERO,
                through: LaneWord::ZERO,
            };
            for x in xs {
                let c = conduct_words(x, on, target, leaf);
                acc.on |= c.on;
                acc.without |= c.without;
                acc.through |= c.through;
            }
            acc
        }
    }
}

/// Word form of [`obd_cmos::switch::excites`] (`em == false`) and
/// [`obd_core::em::em_excites`] (`em == true`) over a packed block:
/// `v1(pin)`/`v2(pin)` give the gate's pin words in each frame, and bit
/// `k` of the result is the scalar predicate on lane `k`'s input pair.
fn excitation_word<const N: usize>(
    cell: &Cell,
    t: CellTransistor,
    em: bool,
    v1: impl Fn(usize) -> LaneWord<N>,
    v2: impl Fn(usize) -> LaneWord<N>,
) -> LaneWord<N> {
    // The cell output is the complement of its pull-down conduction.
    let down1 = conduct_words(&cell.pulldown, &v1, usize::MAX, &mut 0).on;
    let (switched, net) = match t.side {
        // NMOS carries current when the output falls.
        NetworkSide::Pulldown => {
            let net = conduct_words(&cell.pulldown, &v2, t.leaf, &mut 0);
            (!down1 & net.on, net)
        }
        // PMOS carries current when the output rises.
        NetworkSide::Pullup => {
            let down2 = conduct_words(&cell.pulldown, &v2, usize::MAX, &mut 0).on;
            let net = conduct_words(&cell.pullup, &|p| !v2(p), t.leaf, &mut 0);
            (down1 & !down2, net)
        }
    };
    let via = if em {
        net.through
    } else {
        net.on & !net.without
    };
    switched & via
}

/// The packed word of a stuck value: every lane forced to `value`.
fn stuck_word<const N: usize>(value: bool) -> LaneWord<N> {
    if value {
        LaneWord::ONES
    } else {
        LaneWord::ZERO
    }
}

/// How a fault is evaluated against a packed block, precomputed once per
/// fault. Everything test-independent about the scalar decision ladder
/// (stuck-stage degeneration, slack gating, cell/transistor resolution)
/// is folded in here.
enum FaultPlan<'c, const N: usize> {
    /// Test-independent reasons make the fault undetectable (slack-gated
    /// delay, pin without a transistor in the relevant network).
    Never,
    /// Forced-value stuck-at on the fault's net.
    StuckAt { value: bool },
    /// Transition fault: launch check at the net, then held-value
    /// propagation.
    Transition { net: NetId, rise: bool },
    /// OBD/EM fault in the delay regime: word-parallel excitation on the
    /// gate's pin words, then held-value propagation of the output.
    Excited {
        gate: GateId,
        out: NetId,
        cell: &'c Cell,
        transistor: CellTransistor,
        em: bool,
    },
}

/// The net whose walk unit a fault joins: the net it forces, holds or
/// sticks (a transition or stuck-at fault's own net, the output of the
/// gate carrying an OBD or EM fault).
fn fault_net(nl: &Netlist, fault: &Fault) -> NetId {
    match fault {
        Fault::StuckAt { net, .. } | Fault::Transition { net, .. } => *net,
        Fault::Obd(f) => nl.gate(f.gate).output,
        Fault::Em { gate, .. } => nl.gate(*gate).output,
    }
}

/// The faults of one grading run, grouped into one walk unit per net
/// ([`fault_net`]). Units are ordered by their lowest fault index, and
/// each unit's members ascend. Indices are `u32`, which any fault list
/// that fits in memory does.
pub(crate) struct WalkUnits {
    /// Unit `u`'s members are `members[start[u]..start[u + 1]]`.
    start: Vec<u32>,
    /// Fault indices, unit by unit.
    members: Vec<u32>,
    /// Each unit's net.
    nets: Vec<NetId>,
}

impl WalkUnits {
    /// Groups `faults` into one walk unit per net.
    pub(crate) fn per_net(nl: &Netlist, faults: &[Fault]) -> Self {
        // Two passes over the faults: number the units in order of their
        // first fault and count their members, then place each fault.
        let mut unit_of = vec![u32::MAX; nl.num_nets()];
        let mut start = vec![0u32];
        let mut nets = Vec::new();
        for f in faults {
            let net = fault_net(nl, f);
            let u = &mut unit_of[net.index()];
            if *u == u32::MAX {
                *u = nets.len() as u32;
                nets.push(net);
                start.push(0);
            }
            start[*u as usize + 1] += 1;
        }
        for u in 1..start.len() {
            start[u] += start[u - 1];
        }
        let mut fill = start.clone();
        let mut members = vec![0; faults.len()];
        for (i, f) in faults.iter().enumerate() {
            let slot = &mut fill[unit_of[fault_net(nl, f).index()] as usize];
            members[*slot as usize] = i as u32;
            *slot += 1;
        }
        WalkUnits {
            start,
            members,
            nets,
        }
    }

    /// Number of units.
    pub(crate) fn len(&self) -> usize {
        self.nets.len()
    }

    /// The fault indices of unit `u`, ascending.
    fn members(&self, u: usize) -> &[u32] {
        &self.members[self.start[u] as usize..self.start[u + 1] as usize]
    }

    /// The unit ranges of the graders' pool jobs, [`UNITS_PER_JOB`]
    /// consecutive units each.
    fn jobs(&self) -> Vec<Range<usize>> {
        (0..self.len())
            .step_by(UNITS_PER_JOB)
            .map(|u| u..self.len().min(u + UNITS_PER_JOB))
            .collect()
    }
}

/// Walk units per grading pool job.
const UNITS_PER_JOB: usize = 64;

/// Records fault `i`'s error unless a lower-indexed fault's is already
/// recorded.
fn keep_lowest(failed: &mut Option<(usize, AtpgError)>, i: usize, e: AtpgError) {
    if failed.as_ref().is_none_or(|&(j, _)| i < j) {
        *failed = Some((i, e));
    }
}

/// One planned member of a walk unit: its fault index and plan, and on
/// the block being graded the lanes its capture-frame walk flips and the
/// lanes that detect it ([`PpsfpEngine::walk_net`]).
struct Member<'c, const N: usize> {
    fault: u32,
    plan: FaultPlan<'c, N>,
    lanes: LaneWord<N>,
    hits: LaneWord<N>,
}

impl<'c, const N: usize> Member<'c, N> {
    /// Fault `fault` planned as `plan`, with no lanes yet.
    fn new(fault: u32, plan: FaultPlan<'c, N>) -> Self {
        Member {
            fault,
            plan,
            lanes: LaneWord::ZERO,
            hits: LaneWord::ZERO,
        }
    }
}

/// One net's walk unit in a no-drop matrix job: the net and its planned
/// members, a range of the job's member list.
struct NetUnit {
    net: NetId,
    members: Range<usize>,
}

/// A prepared bit-parallel grading engine over one simulator and one
/// test set, `N` super-lanes (`64 * N` patterns) per packed block.
pub struct PpsfpEngine<'a, 's, const N: usize = SUPERLANE_WIDTH> {
    sim: &'s FaultSimulator<'a>,
    tests: &'s [TwoPatternTest],
    blocks: Vec<GoodBlock<N>>,
    /// Original indices of X-bearing tests graded via the scalar path.
    scalar_tests: Vec<usize>,
    /// Cells by (kind, arity), with their leaf lists resolved once so
    /// fault planning is allocation-free (`SpNet::leaves` allocates).
    cells: Vec<CellEntry>,
}

/// A cached cell with its transistor leaf lists (pin per leaf, in
/// [`obd_cmos::SpNet::leaves`] order).
struct CellEntry {
    key: (GateKind, usize),
    cell: Cell,
    pulldown_leaves: Vec<usize>,
    pullup_leaves: Vec<usize>,
}

impl CellEntry {
    /// The transistor at (pin, polarity), or `None` when the pin has no
    /// leaf in the relevant network — the allocation-free equivalent of
    /// [`obd_core::faultmodel::ObdFault::cell_transistor`].
    fn transistor(&self, pin: usize, polarity: Polarity) -> Option<CellTransistor> {
        let side = polarity.side();
        let leaves = match side {
            NetworkSide::Pulldown => &self.pulldown_leaves,
            NetworkSide::Pullup => &self.pullup_leaves,
        };
        let leaf = leaves.iter().position(|&p| p == pin)?;
        Some(CellTransistor { side, leaf })
    }
}

impl<'a, 's, const N: usize> PpsfpEngine<'a, 's, N> {
    /// Packs the test set and computes the good-machine responses of
    /// every `64 * N`-test block.
    ///
    /// # Errors
    ///
    /// [`AtpgError::VectorWidth`] on malformed tests.
    pub fn prepare(
        sim: &'s FaultSimulator<'a>,
        tests: &'s [TwoPatternTest],
    ) -> Result<Self, AtpgError> {
        Self::prepare_with_threads(sim, tests, 1)
    }

    /// [`PpsfpEngine::prepare`] with the blocks spread across `threads`
    /// workers: one pool job per [`SUPERLANE_WIDTH`]` / N` blocks (one
    /// block when `N` is wider) packs its tests' two frames and simulates
    /// the good machine on them at the super-lane width, then splits the
    /// response into its blocks. On a large test set over a large
    /// circuit the good sims dominate preparation, and each job is
    /// independent.
    ///
    /// # Errors
    ///
    /// [`AtpgError::VectorWidth`] on malformed tests.
    pub fn prepare_with_threads(
        sim: &'s FaultSimulator<'a>,
        tests: &'s [TwoPatternTest],
        threads: usize,
    ) -> Result<Self, AtpgError> {
        // One pass checks every frame's width and splits the fully
        // specified tests (packed) from the X-bearing ones (scalar). The
        // knownness test folds without an early exit, which vectorizes.
        let width = sim.nl.inputs().len();
        let mut packed_idx = Vec::new();
        let mut scalar_tests = Vec::new();
        for (i, t) in tests.iter().enumerate() {
            for frame in [&t.v1, &t.v2] {
                if frame.len() != width {
                    return Err(AtpgError::VectorWidth {
                        expected: width,
                        found: frame.len(),
                    });
                }
            }
            if t.v1
                .iter()
                .chain(&t.v2)
                .fold(true, |known, v| known & v.is_known())
            {
                packed_idx.push(i);
            } else {
                scalar_tests.push(i);
            }
        }
        SUPERLANE_WIDTH_GAUGE.set(N as f64);
        // A narrow engine simulates at the super-lane width: one sweep of
        // the netlist covers `SUPERLANE_WIDTH / N` blocks instead of one.
        let per_job = (SUPERLANE_WIDTH / N).max(1);
        let chunks: Vec<&[usize]> = packed_idx
            .chunks(WideBlock::<N>::CAPACITY * per_job)
            .collect();
        let jobs = run_jobs(&chunks, threads, |_, &chunk| {
            if N <= SUPERLANE_WIDTH {
                Self::good_blocks::<SUPERLANE_WIDTH>(sim, tests, chunk)
            } else {
                Self::good_blocks::<N>(sim, tests, chunk)
            }
        })?;
        let blocks = jobs.into_iter().flatten().collect();
        let mut cells: Vec<CellEntry> = Vec::new();
        for g in sim.nl.gate_ids() {
            let gate = sim.nl.gate(g);
            let key = (gate.kind, gate.inputs.len());
            if cells.iter().any(|c| c.key == key) {
                continue;
            }
            if let Some(cell) = obd_core::faultmodel::cell_for_kind(gate.kind, gate.inputs.len()) {
                cells.push(CellEntry {
                    key,
                    pulldown_leaves: cell.pulldown.leaves(),
                    pullup_leaves: cell.pullup.leaves(),
                    cell,
                });
            }
        }
        Ok(PpsfpEngine {
            sim,
            tests,
            blocks,
            scalar_tests,
            cells,
        })
    }

    /// The good-machine responses of the packed tests `chunk`, at most
    /// `W / N` blocks of `64 * N`: both frames are packed and simulated
    /// once at width `W`, and block `b` takes lanes `b * N .. (b + 1) *
    /// N` of every net word. Lanes never interact, so each block's words
    /// are those of a width-`N` simulation of its own tests.
    fn good_blocks<const W: usize>(
        sim: &FaultSimulator<'_>,
        tests: &[TwoPatternTest],
        chunk: &[usize],
    ) -> Result<Vec<GoodBlock<N>>, AtpgError> {
        let mut slices: Vec<&[Lv]> = chunk.iter().map(|&i| tests[i].v1.as_slice()).collect();
        let frame1 = WideBlock::<W>::pack_slices(&slices)?;
        slices.clear();
        slices.extend(chunk.iter().map(|&i| tests[i].v2.as_slice()));
        let frame2 = WideBlock::<W>::pack_slices(&slices)?;
        let (mut w1, mut w2) = (Vec::new(), Vec::new());
        sim.soa.simulate_wide_into(&frame1, &mut w1)?;
        sim.soa.simulate_wide_into(&frame2, &mut w2)?;
        let lanes = |w: &LaneWord<W>, b: usize| LaneWord(std::array::from_fn(|i| w.0[b * N + i]));
        let mask = frame1.mask();
        Ok(chunk
            .chunks(WideBlock::<N>::CAPACITY)
            .enumerate()
            .map(|(b, block)| GoodBlock {
                g1: w1.iter().map(|w| lanes(w, b)).collect(),
                g2: w2.iter().map(|w| lanes(w, b)).collect(),
                mask: lanes(&mask, b),
                tests: block.to_vec(),
                touched: AtomicBool::new(false),
            })
            .collect())
    }

    /// Number of packed `64 * N`-test blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of X-bearing tests graded via the scalar fallback.
    pub fn scalar_fallback_tests(&self) -> usize {
        self.scalar_tests.len()
    }

    fn cell(&self, kind: GateKind, arity: usize) -> Option<&CellEntry> {
        self.cells.iter().find(|c| c.key == (kind, arity))
    }

    /// Folds the test-independent part of the scalar decision ladder
    /// into a per-fault plan.
    fn plan(&self, fault: &Fault) -> Result<FaultPlan<'_, N>, AtpgError> {
        match fault {
            Fault::StuckAt { value, .. } => Ok(FaultPlan::StuckAt { value: *value }),
            Fault::Transition { net, slow_to } => Ok(FaultPlan::Transition {
                net: *net,
                rise: *slow_to == SlowTo::Rise,
            }),
            Fault::Obd(f) => {
                let gate = self.sim.nl.gate(f.gate);
                let entry = self.cell(gate.kind, gate.inputs.len()).ok_or_else(|| {
                    AtpgError::UnsupportedGate {
                        gate: gate.name.clone(),
                    }
                })?;
                // Stuck stages degenerate into an output stuck-at.
                if self.sim.table.is_stuck(f.polarity, f.stage) {
                    return Ok(FaultPlan::StuckAt {
                        value: stuck_output_value(gate.kind, f.polarity),
                    });
                }
                // Delay regime: the extra delay must beat the slack.
                match self.sim.table.extra_delay_ps(f.polarity, f.stage) {
                    Some(d) if d > self.sim.slack_for(f.gate) => {}
                    _ => return Ok(FaultPlan::Never),
                }
                let Some(transistor) = entry.transistor(f.pin, f.polarity) else {
                    return Ok(FaultPlan::Never);
                };
                Ok(FaultPlan::Excited {
                    gate: f.gate,
                    out: gate.output,
                    cell: &entry.cell,
                    transistor,
                    em: false,
                })
            }
            Fault::Em {
                gate,
                pin,
                polarity,
            } => {
                let g = self.sim.nl.gate(*gate);
                let entry = self.cell(g.kind, g.inputs.len()).ok_or_else(|| {
                    AtpgError::UnsupportedGate {
                        gate: g.name.clone(),
                    }
                })?;
                let Some(transistor) = entry.transistor(*pin, *polarity) else {
                    return Ok(FaultPlan::Never);
                };
                Ok(FaultPlan::Excited {
                    gate: *gate,
                    out: g.output,
                    cell: &entry.cell,
                    transistor,
                    em: true,
                })
            }
        }
    }

    /// The lanes of a block on which a held-value plan launches its
    /// transition ([`FaultPlan::Transition`]) or excites its transistor
    /// ([`FaultPlan::Excited`]); zero for every other plan.
    fn held_lanes(&self, plan: &FaultPlan<'_, N>, blk: &GoodBlock<N>) -> LaneWord<N> {
        match *plan {
            FaultPlan::Transition { net, rise } => {
                let (w1, w2) = (blk.g1[net.index()], blk.g2[net.index()]);
                let launched = if rise { !w1 & w2 } else { w1 & !w2 };
                launched & blk.mask
            }
            FaultPlan::Excited {
                gate,
                out,
                cell,
                transistor,
                em,
            } => {
                // Lanes without an output transition can neither be
                // excited nor corrupt the capture (the held value equals
                // the good value), so they filter out up front.
                let candidate = (blk.g1[out.index()] ^ blk.g2[out.index()]) & blk.mask;
                if candidate.is_zero() {
                    return LaneWord::ZERO;
                }
                let pins = &self.sim.nl.gate(gate).inputs;
                excitation_word(
                    cell,
                    transistor,
                    em,
                    |p| blk.g1[pins[p].index()],
                    |p| blk.g2[pins[p].index()],
                ) & candidate
            }
            FaultPlan::Never | FaultPlan::StuckAt { .. } => LaneWord::ZERO,
        }
    }

    /// Counts one evaluation of the block against the grading metrics,
    /// and a cache hit when an earlier evaluation already touched it.
    /// With metrics off this is one branch: the `touched` flag lives next to
    /// the block's cached words that every worker reads, so it is only
    /// stored to while its counter records.
    fn touch(blk: &GoodBlock<N>) {
        if !obd_metrics::enabled() {
            return;
        }
        BLOCKS_GRADED.inc();
        if blk.touched.swap(true, Ordering::Relaxed) {
            GOOD_SIM_CACHE_HITS.inc();
        }
    }

    /// Grades the members of `net`'s walk unit over one block, setting
    /// each member's detecting lanes in `hits`, in at most one cone walk
    /// per frame. Each walk flips the net on the lanes its members read:
    ///
    /// * the launch frame where a stuck-at-`v` member's `v` differs from
    ///   the good value;
    /// * the capture frame where a stuck-at member still pending differs,
    ///   and on each held member's launch or excitation lanes, where the
    ///   held launch-frame word is the complement of the good one.
    ///
    /// Each member then reads its own lanes of each walk's PO difference.
    /// With `dropping`, a stuck-at member the launch frame detects is
    /// done and stays out of the capture-frame walk.
    fn walk_net(
        &self,
        net: NetId,
        members: &mut [Member<'_, N>],
        blk: &GoodBlock<N>,
        dropping: bool,
        scratch: &mut PpsfpScratch<N>,
    ) {
        let (g1, g2) = (blk.g1[net.index()], blk.g2[net.index()]);
        let mut launch = LaneWord::ZERO;
        for m in members.iter() {
            if let FaultPlan::StuckAt { value } = m.plan {
                launch |= g1 ^ stuck_word(value);
            }
        }
        let d1 = self.flip_walk(&blk.g1, net, launch & blk.mask, scratch);
        let mut capture = LaneWord::ZERO;
        for m in members.iter_mut() {
            (m.hits, m.lanes) = match m.plan {
                FaultPlan::StuckAt { value } => {
                    let v = stuck_word(value);
                    let hits = d1 & (g1 ^ v);
                    let done = dropping && hits.any();
                    let lanes = if done { LaneWord::ZERO } else { g2 ^ v };
                    (hits, lanes & blk.mask)
                }
                _ => (LaneWord::ZERO, self.held_lanes(&m.plan, blk)),
            };
            capture |= m.lanes;
        }
        let d2 = self.flip_walk(&blk.g2, net, capture, scratch);
        for m in members.iter_mut() {
            m.hits |= d2 & m.lanes;
        }
    }

    /// The PO difference of flipping `net` on `lanes` in the frame whose
    /// good words are `good`; zero, without a walk, when `lanes` is.
    fn flip_walk(
        &self,
        good: &[LaneWord<N>],
        net: NetId,
        lanes: LaneWord<N>,
        scratch: &mut PpsfpScratch<N>,
    ) -> LaneWord<N> {
        let flipped = good[net.index()] ^ lanes;
        self.sim
            .soa
            .propagate_held(good, net, flipped, &mut scratch.cone)
    }

    /// Counts a detection after `done` of the engine's blocks and scalar
    /// tests as a drop when tests were still pending.
    fn count_drop(&self, done: usize) {
        if done < self.blocks.len() + self.scalar_tests.len() {
            FAULTS_DROPPED.inc();
        }
    }

    /// Whether an X-bearing test detects the fault, stopping at the
    /// first one that does.
    fn scalar_hit(&self, fault: &Fault) -> Result<bool, AtpgError> {
        for (k, &i) in self.scalar_tests.iter().enumerate() {
            if self.sim.detects(fault, &self.tests[i])? {
                self.count_drop(self.blocks.len() + k + 1);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Per-test detection flags for one fault (no dropping), in test
    /// order — the engine-side primitive behind BIST response modeling:
    /// packed blocks first, each graded by the per-net walk of the module
    /// docs with the fault as its only member, then the scalar-fallback
    /// tests.
    ///
    /// # Errors
    ///
    /// Propagates planning and scalar-fallback detection errors.
    pub fn detection_row(
        &self,
        fault: &Fault,
        scratch: &mut PpsfpScratch<N>,
    ) -> Result<Vec<bool>, AtpgError> {
        let mut row = vec![false; self.tests.len()];
        if self.tests.is_empty() {
            return Ok(row);
        }
        let net = fault_net(self.sim.nl, fault);
        let member = &mut [Member::new(0, self.plan(fault)?)];
        for blk in &self.blocks {
            Self::touch(blk);
            self.walk_net(net, member, blk, false, scratch);
            for k in member[0].hits.set_bits() {
                row[blk.tests[k]] = true;
            }
        }
        for &i in &self.scalar_tests {
            row[i] = self.sim.detects(fault, &self.tests[i])?;
        }
        Ok(row)
    }

    /// Plans the faults `ids` of one walk unit onto `members`, leaving out
    /// the [`FaultPlan::Never`] ones, which walk nothing, and recording a
    /// planning error at its own fault index in `failed`: a fault that
    /// would share another's walk still reports its own error.
    fn plan_members<'e>(
        &'e self,
        faults: &[Fault],
        ids: &[u32],
        members: &mut Vec<Member<'e, N>>,
        failed: &mut Option<(usize, AtpgError)>,
    ) {
        for &i in ids {
            match self.plan(&faults[i as usize]) {
                Ok(FaultPlan::Never) => {}
                Ok(plan) => members.push(Member::new(i, plan)),
                Err(e) => keep_lowest(failed, i as usize, e),
            }
        }
    }

    /// Grades the fault list with dropping on up to `threads` pool
    /// workers.
    ///
    /// The faults are grouped into one walk unit per net: its stuck-at
    /// faults, its transition faults, and the OBD and EM faults of its
    /// driving gate. Per packed block a unit walks each frame at most
    /// once for all its members still undetected (see the module docs).
    /// Each member is detected on its own lanes and drops out; a
    /// stuck-at member the launch frame detects stays out of the
    /// capture-frame walk. The unit stops once every member is detected.
    /// Members that can never be detected (slack-gated, or without a
    /// transistor to excite) walk nothing.
    ///
    /// Each pool job plans and grades 64 consecutive units with its own
    /// scratch arena, so workers stay load-balanced under dropping.
    /// Faults the packed blocks miss then try the X-bearing tests, each
    /// on its own, one job per 64 faults.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing fault, at any thread
    /// count; a panicking job surfaces as [`AtpgError::Internal`].
    pub fn grade_parallel(&self, faults: &[Fault], threads: usize) -> Result<Vec<bool>, AtpgError> {
        self.grade_units(faults, &WalkUnits::per_net(self.sim.nl, faults), threads)
    }

    /// [`PpsfpEngine::grade_parallel`] over the faults' walk units.
    ///
    /// # Errors
    ///
    /// As [`PpsfpEngine::grade_parallel`].
    pub(crate) fn grade_units(
        &self,
        faults: &[Fault],
        units: &WalkUnits,
        threads: usize,
    ) -> Result<Vec<bool>, AtpgError> {
        if self.tests.is_empty() {
            return Ok(vec![false; faults.len()]);
        }
        // A job's units mix fault indices, so each job hands back its
        // lowest failing fault and the lowest of those is reported.
        let outs = run_jobs(&units.jobs(), threads, |_, range| {
            let mut scratch = PpsfpScratch::default();
            let mut members = Vec::new();
            let mut hits = Vec::new();
            let mut failed = None;
            for u in range.clone() {
                members.clear();
                self.plan_members(faults, units.members(u), &mut members, &mut failed);
                if failed.is_some() {
                    continue;
                }
                for (k, blk) in self.blocks.iter().enumerate() {
                    if members.is_empty() {
                        break;
                    }
                    Self::touch(blk);
                    self.walk_net(units.nets[u], &mut members, blk, true, &mut scratch);
                    members.retain(|m| {
                        let caught = m.hits.any();
                        if caught {
                            self.count_drop(k + 1);
                            hits.push(m.fault);
                        }
                        !caught
                    });
                }
            }
            Ok::<_, AtpgError>((hits, failed))
        })?;
        let mut detected = vec![false; faults.len()];
        let mut failed: Option<(usize, AtpgError)> = None;
        for (hits, job_failed) in outs {
            for i in hits {
                detected[i as usize] = true;
            }
            if let Some((i, e)) = job_failed {
                keep_lowest(&mut failed, i, e);
            }
        }
        if let Some((_, e)) = failed {
            return Err(e);
        }
        if !self.scalar_tests.is_empty() {
            // Planning succeeded for every fault and the widths were
            // checked at preparation, so no error is left to reorder.
            let chunks: Vec<&[Fault]> = faults.chunks(64).collect();
            let detected_ref = &detected;
            let words = run_jobs(&chunks, threads, |c, chunk| {
                let mut word = 0u64;
                for (k, f) in chunk.iter().enumerate() {
                    if !detected_ref[c * 64 + k] && self.scalar_hit(f)? {
                        word |= 1 << k;
                    }
                }
                Ok::<_, AtpgError>(word)
            })?;
            for (i, d) in detected.iter_mut().enumerate() {
                *d |= words[i / 64] >> (i % 64) & 1 == 1;
            }
        }
        Ok(detected)
    }

    /// The full detection matrix `matrix[t][f]` (no dropping) on up to
    /// `threads` pool workers.
    ///
    /// The faults are grouped into one walk unit per net, as in
    /// [`PpsfpEngine::grade_parallel`]. Per packed block a unit walks
    /// each frame at most once, flipped on the lanes its members read,
    /// and each member reads its own lanes of the PO difference:
    ///
    /// * A stuck-at-`v` member (a stuck-at fault, or an OBD fault at a
    ///   stuck stage) detects on each frame's difference where the good
    ///   value is not `v`.
    /// * A held member (a transition, delay-regime OBD or EM fault)
    ///   detects on the capture frame's difference on its launch or
    ///   excitation lanes, where the held launch-frame word is the
    ///   complement of the good one.
    ///
    /// Lanes never interact, so each member's column is exactly the one
    /// its own forced-value walk would give. Members that can never be
    /// detected (slack-gated, or without a transistor to excite) walk
    /// nothing. The X-bearing tests are graded per fault on the scalar
    /// path.
    ///
    /// Each pool job plans 64 consecutive units (nets) once, then grades
    /// them block by block, so one block's good responses serve all 64
    /// units while they are hot in cache. It hands back its (fault,
    /// block, lanes) hits and scalar hits. One serial pass gathers the
    /// hits into one packed column per (block, fault) and writes the
    /// matrix one 64-fault × 64-test tile at a time, so the matrix is
    /// identical at any thread count.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing fault, at any thread
    /// count; a panicking job surfaces as [`AtpgError::Internal`].
    pub fn detection_matrix(
        &self,
        faults: &[Fault],
        threads: usize,
    ) -> Result<Vec<Vec<bool>>, AtpgError> {
        self.matrix_units(faults, &WalkUnits::per_net(self.sim.nl, faults), threads)
    }

    /// [`PpsfpEngine::detection_matrix`] over the faults' walk units.
    ///
    /// # Errors
    ///
    /// As [`PpsfpEngine::detection_matrix`].
    pub(crate) fn matrix_units(
        &self,
        faults: &[Fault],
        units: &WalkUnits,
        threads: usize,
    ) -> Result<Vec<Vec<bool>>, AtpgError> {
        let mut matrix = vec![vec![false; faults.len()]; self.tests.len()];
        if self.tests.is_empty() || faults.is_empty() {
            return Ok(matrix);
        }
        let outs = run_jobs(&units.jobs(), threads, |_, range| {
            let mut members = Vec::new();
            let mut nets = Vec::new();
            // (fault, block, detecting lanes) and (fault, scalar test).
            let mut packed: Vec<(u32, u32, LaneWord<N>)> = Vec::new();
            let mut scalar: Vec<(u32, usize)> = Vec::new();
            let mut failed = None;
            for u in range.clone() {
                let first = members.len();
                self.plan_members(faults, units.members(u), &mut members, &mut failed);
                if failed.is_some() {
                    continue;
                }
                for &i in units.members(u) {
                    for &t in &self.scalar_tests {
                        match self.sim.detects(&faults[i as usize], &self.tests[t]) {
                            Ok(true) => scalar.push((i, t)),
                            Ok(false) => {}
                            Err(e) => keep_lowest(&mut failed, i as usize, e),
                        }
                    }
                }
                if members.len() > first {
                    nets.push(NetUnit {
                        net: units.nets[u],
                        members: first..members.len(),
                    });
                }
            }
            // A failing job's matrix is never read.
            if failed.is_none() {
                self.job_masks(&nets, &mut members, &mut packed);
            }
            Ok::<_, AtpgError>((packed, scalar, failed))
        })?;
        let mut columns = vec![LaneWord::<N>::ZERO; self.blocks.len() * faults.len()];
        let mut failed = None;
        for (packed, scalar, job_failed) in outs {
            if let Some((i, e)) = job_failed {
                keep_lowest(&mut failed, i, e);
            }
            for (f, b, lanes) in packed {
                columns[b as usize * faults.len() + f as usize] |= lanes;
            }
            for (f, t) in scalar {
                matrix[t][f as usize] = true;
            }
        }
        if let Some((_, e)) = failed {
            return Err(e);
        }
        self.write_columns(&columns, faults.len(), &mut matrix);
        Ok(matrix)
    }

    /// Grades one matrix job's net units over every packed block with no
    /// dropping, block by block ([`PpsfpEngine::walk_net`]), pushing each
    /// member's nonzero detection lanes per block onto `hits`.
    fn job_masks(
        &self,
        nets: &[NetUnit],
        members: &mut [Member<'_, N>],
        hits: &mut Vec<(u32, u32, LaneWord<N>)>,
    ) {
        let mut scratch = PpsfpScratch::default();
        for (b, blk) in (0u32..).zip(&self.blocks) {
            for u in nets {
                Self::touch(blk);
                let members = &mut members[u.members.clone()];
                self.walk_net(u.net, members, blk, false, &mut scratch);
                hits.extend(
                    members
                        .iter()
                        .filter(|m| m.hits.any())
                        .map(|m| (m.fault, b, m.hits)),
                );
            }
        }
    }

    /// Writes the packed detection columns (`columns[b * faults + f]`:
    /// fault `f`'s detecting lanes on block `b`) into `matrix`, one
    /// 64-fault × 64-test tile at a time: 64 faults' words of one lane
    /// are transposed into 64 tests' rows ([`transpose64`]), and each
    /// row's set bits land on its test's 64 consecutive entries.
    fn write_columns(&self, columns: &[LaneWord<N>], faults: usize, matrix: &mut [Vec<bool>]) {
        let mut tile = [0u64; 64];
        for (blk, block_columns) in self.blocks.iter().zip(columns.chunks(faults)) {
            for (lane, tests) in blk.tests.chunks(64).enumerate() {
                for (group, cols) in block_columns.chunks(64).enumerate() {
                    for (row, col) in tile.iter_mut().zip(cols) {
                        *row = col.0[lane];
                    }
                    tile[cols.len()..].fill(0);
                    transpose64(&mut tile);
                    let first = group * 64;
                    for (&t, &bits) in tests.iter().zip(&tile) {
                        let row = &mut matrix[t][first..first + cols.len()];
                        for f in LaneWord([bits]).set_bits() {
                            row[f] = true;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_cmos::switch::{all_transistors, excites};
    use obd_core::em::em_excites;

    /// Bit `i` of `x` (MSB-first over `n` pins) as pin `i`'s value.
    fn bits(x: usize, n: usize) -> Vec<bool> {
        (0..n).map(|i| (x >> (n - 1 - i)) & 1 == 1).collect()
    }

    /// Packs every one of the `4^k` input pairs of `cell` into blocks of
    /// `64 * N` lanes and checks the word kernel against the scalar
    /// predicate lane by lane.
    fn check_width<const N: usize>(cell: &Cell, t: CellTransistor, em: bool, expected: &[bool]) {
        let k = cell.num_inputs;
        let cap = LaneWord::<N>::BITS;
        for (b, chunk) in expected.chunks(cap).enumerate() {
            let mut pin1 = vec![LaneWord::<N>::ZERO; k];
            let mut pin2 = vec![LaneWord::<N>::ZERO; k];
            for lane in 0..chunk.len() {
                let pair = b * cap + lane;
                let (v1, v2) = (bits(pair >> k, k), bits(pair & ((1 << k) - 1), k));
                for p in 0..k {
                    if v1[p] {
                        pin1[p].set_bit(lane);
                    }
                    if v2[p] {
                        pin2[p].set_bit(lane);
                    }
                }
            }
            let word = excitation_word(cell, t, em, |p| pin1[p], |p| pin2[p]);
            for (lane, &want) in chunk.iter().enumerate() {
                assert_eq!(
                    word.bit(lane),
                    want,
                    "{} {t:?} em={em} pair {} at N={N}",
                    cell.name,
                    b * cap + lane
                );
            }
        }
    }

    /// The word kernel equals `excites`/`em_excites` bit for bit on
    /// every input pair, every transistor of both networks, at widths 1
    /// and 8, for cells up to six inputs and the complex cells.
    #[test]
    fn excitation_word_matches_scalar_predicates() {
        let mut cells = vec![
            Cell::inverter(),
            Cell::aoi21(),
            Cell::oai21(),
            Cell::aoi22(),
        ];
        for n in 2..=6 {
            cells.push(Cell::nand(n));
            cells.push(Cell::nor(n));
        }
        for cell in &cells {
            let k = cell.num_inputs;
            for t in all_transistors(cell) {
                for em in [false, true] {
                    let expected: Vec<bool> = (0..1usize << (2 * k))
                        .map(|pair| {
                            let (v1, v2) = (bits(pair >> k, k), bits(pair & ((1 << k) - 1), k));
                            if em {
                                em_excites(cell, t, &v1, &v2)
                            } else {
                                excites(cell, t, &v1, &v2)
                            }
                        })
                        .collect();
                    assert!(
                        expected.iter().any(|&e| e),
                        "{} {t:?} em={em} is never excited",
                        cell.name
                    );
                    check_width::<1>(cell, t, em, &expected);
                    check_width::<8>(cell, t, em, &expected);
                }
            }
        }
    }
}
