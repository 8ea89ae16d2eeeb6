//! The per-gate forced-value block simulator: the test-only independent
//! reference the levelized SoA core ([`crate::soa`]) is tested against.
//!
//! Each net carries a `u64`; bit `i` is the net's value under pattern `i`
//! of a single-lane [`WideBlock`]`<1>`. Production simulation runs on
//! [`SoaNetlist::simulate_wide_into`](crate::soa::SoaNetlist::simulate_wide_into)
//! and [`SoaNetlist::propagate_held`](crate::soa::SoaNetlist::propagate_held);
//! [`simulate_block_forced_into`] walks the [`Netlist`] gate by gate
//! instead, sharing no code with them.

use crate::netlist::{GateId, NetId, Netlist};
use crate::wide::WideBlock;
use crate::LogicError;

/// Per-gate packed simulation of a block with *forced* (held) net
/// values, writing into caller-owned buffers so repeated calls are
/// allocation-free once the buffers are warm. With no forced nets it is
/// the plain good-machine simulation.
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
/// fanout cone only ([`crate::soa::SoaNetlist::propagate_held`]); this
/// full per-gate sweep is the independent reference it is tested against.
///
/// # Errors
///
/// [`LogicError::InputCountMismatch`] on wrong block width.
pub(crate) fn simulate_block_forced_into(
    nl: &Netlist,
    order: &[GateId],
    block: &WideBlock<1>,
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
    words.clear();
    words.resize(nl.num_nets(), 0);
    for (i, &n) in nl.inputs().iter().enumerate() {
        words[n.index()] = block.word(i).0[0];
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
    use crate::soa::SoaNetlist;
    use crate::value::{all_vectors, Lv};

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

    /// The good-machine words of `block` from the per-gate sweep with no
    /// forced nets.
    fn good_words(nl: &Netlist, block: &WideBlock<1>) -> Vec<u64> {
        let order = nl.levelize().unwrap();
        let (mut words, mut scratch) = (Vec::new(), Vec::new());
        simulate_block_forced_into(nl, &order, block, &[], &mut words, &mut scratch).unwrap();
        words
    }

    #[test]
    fn parallel_matches_scalar_exhaustively() {
        let nl = sample();
        let vectors: Vec<_> = all_vectors(3).collect();
        let block = WideBlock::<1>::pack(&vectors).unwrap();
        let par = good_words(&nl, &block);
        let y = nl.find_net("y").unwrap();
        for (k, v) in vectors.iter().enumerate() {
            let scalar = simulate(&nl, v).unwrap().value(y);
            assert_eq!(
                Lv::from_bool((par[y.index()] >> k) & 1 == 1),
                scalar,
                "pattern {k} mismatch"
            );
        }
    }

    #[test]
    fn soa_block_sim_matches_per_gate_reference() {
        let nl = sample();
        let vectors: Vec<_> = all_vectors(3).collect();
        let block = WideBlock::<1>::pack(&vectors).unwrap();
        let mut soa = Vec::new();
        SoaNetlist::compile(&nl)
            .unwrap()
            .simulate_wide_into(&block, &mut soa)
            .unwrap();
        let reference = good_words(&nl, &block);
        for n in nl.net_ids() {
            assert_eq!(
                soa[n.index()].0[0],
                reference[n.index()],
                "net {}",
                nl.net_name(n)
            );
        }
    }

    #[test]
    fn width_mismatch_rejected() {
        let nl = sample();
        let block = WideBlock::<1>::pack(&[vec![Lv::One]]).unwrap();
        let mut words = Vec::new();
        assert!(matches!(
            SoaNetlist::compile(&nl)
                .unwrap()
                .simulate_wide_into(&block, &mut words),
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
        let block = WideBlock::<1>::pack(&vectors).unwrap();
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
        let block = WideBlock::<1>::pack(&[vec![Lv::One]]).unwrap();
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
        let block = WideBlock::<1>::pack(&vectors).unwrap();
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
        let block = WideBlock::<1>::pack(&vectors).unwrap();
        assert_eq!(block.mask().0[0], !0u64);
        let par = good_words(&nl, &block);
        let y = nl.find_net("y").unwrap();
        let scalar = simulate(&nl, &vectors[63]).unwrap().value(y);
        assert_eq!(Lv::from_bool((par[y.index()] >> 63) & 1 == 1), scalar);
    }
}
