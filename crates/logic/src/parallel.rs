//! 64-way bit-parallel two-valued simulation.
//!
//! Each net carries a `u64`; bit `i` is the net's value under pattern `i`.
//! This is the classic parallel-pattern evaluation used to make fault
//! grading of large random-pattern sets cheap.
//!
//! [`PatternBlock`] is now a thin wrapper over the single-lane
//! [`WideBlock`]`<1>` from [`crate::wide`]; [`simulate_block`] routes
//! through the levelized structure-of-arrays core in [`crate::soa`].
//! The per-gate walk ([`simulate_block_with_order`],
//! [`simulate_block_forced_into`]) is retained as the independent
//! reference implementation the SoA path is tested against.

use crate::netlist::{GateId, NetId, Netlist};
use crate::soa::SoaNetlist;
use crate::value::Lv;
use crate::wide::WideBlock;
use crate::LogicError;
use obd_metrics::Counter;

/// Packed blocks pushed through the parallel simulator.
static BLOCKS_SIMULATED: Counter = Counter::new("logic.blocks_simulated");
/// Individual patterns simulated via packed blocks.
static PATTERNS_SIMULATED: Counter = Counter::new("logic.patterns_simulated");
/// Packed blocks simulated with forced (held) net values.
static FORCED_BLOCKS_SIMULATED: Counter = Counter::new("logic.forced_blocks_simulated");

/// A block of up to 64 fully-specified input patterns.
#[derive(Debug, Clone, Default)]
pub struct PatternBlock {
    inner: WideBlock<1>,
}

impl PatternBlock {
    /// Packs up to 64 vectors (each `vectors[k][i]` is PI `i` of pattern
    /// `k`). Unknown (`X`) values are treated as 0.
    ///
    /// # Errors
    ///
    /// * [`LogicError::PatternBlockTooLarge`] if more than 64 vectors are
    ///   supplied.
    /// * [`LogicError::InputCountMismatch`] if the vectors have
    ///   inconsistent lengths (ragged input).
    pub fn pack(vectors: &[Vec<Lv>]) -> Result<Self, LogicError> {
        Ok(PatternBlock {
            inner: WideBlock::pack(vectors)?,
        })
    }

    /// [`PatternBlock::pack`] over borrowed vector slices, so callers
    /// packing a projection of a larger structure (e.g. the launch frames
    /// of a two-pattern test set) need not copy each vector first.
    ///
    /// # Errors
    ///
    /// Same shape checks as [`PatternBlock::pack`].
    pub fn pack_slices(vectors: &[&[Lv]]) -> Result<Self, LogicError> {
        Ok(PatternBlock {
            inner: WideBlock::pack_slices(vectors)?,
        })
    }

    /// [`PatternBlock::pack`] for hot paths whose chunking already
    /// guarantees the shape invariants (e.g. `chunks(64)` over uniform
    /// vectors).
    ///
    /// # Panics
    ///
    /// Panics on more than 64 vectors or ragged vectors — the historical
    /// debug-only checks silently corrupted the packing in release
    /// builds, so they are now unconditional (see
    /// [`WideBlock::pack_unchecked`]).
    pub fn pack_unchecked(vectors: &[Vec<Lv>]) -> Self {
        PatternBlock {
            inner: WideBlock::pack_unchecked(vectors),
        }
    }

    /// Number of patterns in the block.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Number of primary inputs the block was packed for.
    pub fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    /// Mask with one bit set per valid pattern.
    pub fn mask(&self) -> u64 {
        self.inner.mask().lane(0)
    }

    /// Packed word for primary input `i`.
    pub fn word(&self, i: usize) -> u64 {
        self.inner.word(i).lane(0)
    }

    /// The underlying single-lane wide block.
    pub fn as_wide(&self) -> &WideBlock<1> {
        &self.inner
    }
}

/// Result of a parallel simulation: one packed word per net.
#[derive(Debug, Clone)]
pub struct ParallelResult {
    words: Vec<u64>,
    mask: u64,
}

impl ParallelResult {
    /// Packed values of a net.
    pub fn word(&self, n: NetId) -> u64 {
        self.words[n.index()]
    }

    /// Value of net `n` under pattern `k`.
    pub fn value(&self, n: NetId, k: usize) -> bool {
        (self.words[n.index()] >> k) & 1 == 1
    }

    /// Mask of valid pattern bits.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// All packed net words, indexed by [`NetId::index`].
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Consumes the result, returning the packed net words — used by
    /// response caches that only need the raw words.
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }
}

/// Simulates a pattern block through the netlist via the levelized SoA
/// core (compiled on the fly; callers simulating many blocks should
/// compile a [`SoaNetlist`] once and use it directly).
///
/// # Errors
///
/// * [`LogicError::InputCountMismatch`] if the block width differs from the
///   PI count.
/// * Propagates levelization errors.
pub fn simulate_block(nl: &Netlist, block: &PatternBlock) -> Result<ParallelResult, LogicError> {
    let soa = SoaNetlist::compile(nl)?;
    BLOCKS_SIMULATED.inc();
    PATTERNS_SIMULATED.add(block.len() as u64);
    let mut wide = Vec::new();
    soa.simulate_wide_into(block.as_wide(), &mut wide)?;
    Ok(ParallelResult {
        words: wide.iter().map(|w| w.lane(0)).collect(),
        mask: block.mask(),
    })
}

/// [`simulate_block`] walking the per-gate [`Netlist`] representation
/// with a precomputed topological order — the pre-SoA reference path,
/// kept for differential testing and callers that already hold an order.
///
/// # Errors
///
/// [`LogicError::InputCountMismatch`] on wrong block width.
pub fn simulate_block_with_order(
    nl: &Netlist,
    order: &[GateId],
    block: &PatternBlock,
) -> Result<ParallelResult, LogicError> {
    if block.num_inputs() != nl.inputs().len() {
        return Err(LogicError::InputCountMismatch {
            expected: nl.inputs().len(),
            found: block.num_inputs(),
        });
    }
    BLOCKS_SIMULATED.inc();
    PATTERNS_SIMULATED.add(block.len() as u64);
    let mut words = vec![0u64; nl.num_nets()];
    for (i, &n) in nl.inputs().iter().enumerate() {
        words[n.index()] = block.word(i);
    }
    let mut scratch = Vec::new();
    for &g in order {
        let gate = nl.gate(g);
        scratch.clear();
        scratch.extend(gate.inputs.iter().map(|n| words[n.index()]));
        words[gate.output.index()] = gate.kind.eval_packed(&scratch);
    }
    Ok(ParallelResult {
        words,
        mask: block.mask(),
    })
}

/// [`simulate_block_with_order`] with *forced* (held) net values, writing
/// into caller-owned buffers so repeated calls are allocation-free once
/// the buffers are warm.
///
/// Every net in `forced` keeps its packed word: primary inputs are
/// overridden after the block is loaded, and the gate driving a forced
/// net is skipped — the packed analogue of the scalar fault simulator's
/// forced-value evaluation, evaluating a held fault effect for all
/// patterns of the block in one sweep.
///
/// `words` receives one packed word per net; `scratch` is gate-input
/// working space. Both are cleared and reused.
///
/// The PPSFP engine's hot path propagates held values through the
/// fanout cone only ([`SoaNetlist::propagate_held`]); this full per-gate
/// sweep is the independent reference it is tested against.
///
/// # Errors
///
/// [`LogicError::InputCountMismatch`] on wrong block width.
pub fn simulate_block_forced_into(
    nl: &Netlist,
    order: &[GateId],
    block: &PatternBlock,
    forced: &[(NetId, u64)],
    words: &mut Vec<u64>,
    scratch: &mut Vec<u64>,
) -> Result<(), LogicError> {
    if block.num_inputs() != nl.inputs().len() {
        return Err(LogicError::InputCountMismatch {
            expected: nl.inputs().len(),
            found: block.num_inputs(),
        });
    }
    FORCED_BLOCKS_SIMULATED.inc();
    words.clear();
    words.resize(nl.num_nets(), 0);
    for (i, &n) in nl.inputs().iter().enumerate() {
        words[n.index()] = block.word(i);
    }
    for &(n, w) in forced {
        words[n.index()] = w;
    }
    for &g in order {
        let gate = nl.gate(g);
        if forced.iter().any(|&(n, _)| n == gate.output) {
            continue; // forced nets keep their value
        }
        scratch.clear();
        scratch.extend(gate.inputs.iter().map(|n| words[n.index()]));
        words[gate.output.index()] = gate.kind.eval_packed(scratch);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GateKind;
    use crate::sim::simulate;
    use crate::value::all_vectors;

    fn sample() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let n1 = nl.add_gate(GateKind::Nand, "n1", &[a, b]).unwrap();
        let n2 = nl.add_gate(GateKind::Xor, "n2", &[n1, c]).unwrap();
        let y = nl.add_gate(GateKind::Nor, "y", &[n2, a]).unwrap();
        nl.mark_output(y);
        nl
    }

    #[test]
    fn parallel_matches_scalar_exhaustively() {
        let nl = sample();
        let vectors: Vec<_> = all_vectors(3).collect();
        let block = PatternBlock::pack(&vectors).unwrap();
        let par = simulate_block(&nl, &block).unwrap();
        let y = nl.find_net("y").unwrap();
        for (k, v) in vectors.iter().enumerate() {
            let scalar = simulate(&nl, v).unwrap().value(y);
            assert_eq!(
                Lv::from_bool(par.value(y, k)),
                scalar,
                "pattern {k} mismatch"
            );
        }
    }

    #[test]
    fn soa_block_sim_matches_per_gate_reference() {
        let nl = sample();
        let order = nl.levelize().unwrap();
        let vectors: Vec<_> = all_vectors(3).collect();
        let block = PatternBlock::pack(&vectors).unwrap();
        let soa = simulate_block(&nl, &block).unwrap();
        let reference = simulate_block_with_order(&nl, &order, &block).unwrap();
        assert_eq!(soa.mask(), reference.mask());
        for n in nl.net_ids() {
            assert_eq!(soa.word(n), reference.word(n), "net {}", nl.net_name(n));
        }
    }

    #[test]
    fn block_mask_counts_patterns() {
        let vectors: Vec<_> = all_vectors(2).collect();
        let block = PatternBlock::pack(&vectors).unwrap();
        assert_eq!(block.len(), 4);
        assert_eq!(block.mask(), 0b1111);
    }

    #[test]
    fn width_mismatch_rejected() {
        let nl = sample();
        let block = PatternBlock::pack(&[vec![Lv::One]]).unwrap();
        assert!(matches!(
            simulate_block(&nl, &block),
            Err(LogicError::InputCountMismatch { .. })
        ));
    }

    #[test]
    fn pack_rejects_more_than_64_patterns() {
        let vectors: Vec<Vec<Lv>> = (0..65).map(|_| vec![Lv::Zero, Lv::One]).collect();
        assert!(matches!(
            PatternBlock::pack(&vectors),
            Err(LogicError::PatternBlockTooLarge {
                found: 65,
                capacity: 64
            })
        ));
    }

    #[test]
    fn pack_rejects_ragged_vectors() {
        let vectors = vec![vec![Lv::One, Lv::Zero], vec![Lv::One]];
        assert!(matches!(
            PatternBlock::pack(&vectors),
            Err(LogicError::InputCountMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    #[should_panic(expected = "pack_unchecked shape violation")]
    fn pack_unchecked_rejects_oversized_blocks() {
        let vectors: Vec<Vec<Lv>> = (0..65).map(|_| vec![Lv::Zero]).collect();
        let _ = PatternBlock::pack_unchecked(&vectors);
    }

    #[test]
    fn pack_treats_x_as_zero() {
        let block = PatternBlock::pack(&[vec![Lv::X, Lv::One], vec![Lv::Zero, Lv::X]]).unwrap();
        // PI 0: X,0 -> both bits clear; PI 1: 1,X -> only bit 0 set.
        assert_eq!(block.word(0), 0b00);
        assert_eq!(block.word(1), 0b01);
        let explicit =
            PatternBlock::pack(&[vec![Lv::Zero, Lv::One], vec![Lv::Zero, Lv::Zero]]).unwrap();
        assert_eq!(block.word(0), explicit.word(0));
        assert_eq!(block.word(1), explicit.word(1));
    }

    #[test]
    fn pack_empty_is_empty_block() {
        let block = PatternBlock::pack(&[]).unwrap();
        assert!(block.is_empty());
        assert_eq!(block.mask(), 0);
    }

    #[test]
    fn pack_slices_matches_pack() {
        let vectors: Vec<_> = all_vectors(3).collect();
        let slices: Vec<&[Lv]> = vectors.iter().map(Vec::as_slice).collect();
        let a = PatternBlock::pack(&vectors).unwrap();
        let b = PatternBlock::pack_slices(&slices).unwrap();
        assert_eq!(a.len(), b.len());
        for i in 0..3 {
            assert_eq!(a.word(i), b.word(i));
        }
        let ragged: Vec<&[Lv]> = vec![&vectors[0], &vectors[1][..2]];
        assert!(matches!(
            PatternBlock::pack_slices(&ragged),
            Err(LogicError::InputCountMismatch { .. })
        ));
    }

    /// Forcing a net to a per-pattern word must behave, per bit lane,
    /// exactly like the scalar forced simulation of that pattern.
    #[test]
    fn forced_block_matches_scalar_forced_per_lane() {
        let nl = sample();
        let order = nl.levelize().unwrap();
        let vectors: Vec<_> = all_vectors(3).collect();
        let block = PatternBlock::pack(&vectors).unwrap();
        let n1 = nl.find_net("n1").unwrap();
        let y = nl.find_net("y").unwrap();
        // Force n1 to an arbitrary per-pattern word.
        let forced_word = 0b1010_0110u64;
        let mut words = Vec::new();
        let mut scratch = Vec::new();
        simulate_block_forced_into(
            &nl,
            &order,
            &block,
            &[(n1, forced_word)],
            &mut words,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(words[n1.index()], forced_word, "forced net keeps its word");
        for (k, v) in vectors.iter().enumerate() {
            // Scalar: evaluate with n1 replaced by the forced bit.
            let forced_bit = (forced_word >> k) & 1 == 1;
            let mut vals = vec![Lv::X; nl.num_nets()];
            for (i, &n) in nl.inputs().iter().enumerate() {
                vals[n.index()] = v[i];
            }
            vals[n1.index()] = Lv::from_bool(forced_bit);
            for &g in &order {
                let gate = nl.gate(g);
                if gate.output == n1 {
                    continue;
                }
                let ins: Vec<Lv> = gate.inputs.iter().map(|n| vals[n.index()]).collect();
                vals[gate.output.index()] = gate.kind.eval(&ins);
            }
            assert_eq!(
                Lv::from_bool((words[y.index()] >> k) & 1 == 1),
                vals[y.index()],
                "pattern {k}"
            );
        }
    }

    #[test]
    fn forced_block_checks_width() {
        let nl = sample();
        let order = nl.levelize().unwrap();
        let block = PatternBlock::pack(&[vec![Lv::One]]).unwrap();
        let mut words = Vec::new();
        let mut scratch = Vec::new();
        assert!(matches!(
            simulate_block_forced_into(&nl, &order, &block, &[], &mut words, &mut scratch),
            Err(LogicError::InputCountMismatch { .. })
        ));
    }

    #[test]
    fn forced_primary_input_overrides_block() {
        let nl = sample();
        let order = nl.levelize().unwrap();
        let a = nl.inputs()[0];
        let vectors: Vec<_> = all_vectors(3).collect();
        let block = PatternBlock::pack(&vectors).unwrap();
        let mut words = Vec::new();
        let mut scratch = Vec::new();
        simulate_block_forced_into(&nl, &order, &block, &[(a, !0)], &mut words, &mut scratch)
            .unwrap();
        assert_eq!(words[a.index()], !0, "forced PI overrides the packed block");
    }

    #[test]
    fn full_64_pattern_block() {
        let nl = sample();
        let vectors: Vec<Vec<Lv>> = (0..64)
            .map(|k| (0..3).map(|i| Lv::from_bool((k >> i) & 1 == 1)).collect())
            .collect();
        let block = PatternBlock::pack(&vectors).unwrap();
        assert_eq!(block.mask(), !0u64);
        let par = simulate_block(&nl, &block).unwrap();
        let y = nl.find_net("y").unwrap();
        let scalar = simulate(&nl, &vectors[63]).unwrap().value(y);
        assert_eq!(Lv::from_bool(par.value(y, 63)), scalar);
    }
}
