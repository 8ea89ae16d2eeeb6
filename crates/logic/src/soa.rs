//! Levelized structure-of-arrays netlist for the packed-simulation hot
//! path.
//!
//! [`SoaNetlist::compile`] flattens a [`Netlist`] once into contiguous
//! arrays — gate kinds, a CSR fanin table, and output-net slots — sorted
//! in level order. A packed sweep then walks four flat arrays front to
//! back instead of chasing per-gate `Gate` structs through the pointer-y
//! [`Netlist`] representation: no per-gate `Vec` reads, no per-gate
//! scratch buffer, and fanin indices that are `u32`s sitting next to
//! each other in cache.
//!
//! The compile also builds the reverse table, a net → consumer-gate CSR
//! in ascending compiled order, which drives *cone propagation*
//! ([`SoaNetlist::propagate_held`]): a held (faulty) value on one net is
//! pushed forward over a cached good-machine response, evaluating only
//! the gates the fault effect actually reaches. Reads go through an
//! epoch-stamped overlay ([`ConeScratch`]) — nets the effect changed come
//! from the scratch, every other net straight from the good response —
//! so nothing is copied per call and a masked effect dies at once.
//!
//! The simulation entry points are generic over the super-lane width
//! `N` (see [`crate::wide`]): the same compiled structure serves the
//! legacy 64-pattern word (`N = 1`) and the wide `[u64; N]` words the
//! PPSFP engine grades with.

use obd_metrics::{Counter, Gauge};

use crate::netlist::{GateKind, NetId, Netlist};
use crate::wide::{LaneWord, WideBlock};
use crate::LogicError;

/// Logic levels (maximum gate depth) of the most recently compiled SoA
/// netlist.
static LEVELS: Gauge = Gauge::new("logic.levels");
/// Gates evaluated through the SoA levelized walk and cone propagation.
static SOA_GATES_SIMULATED: Counter = Counter::new("logic.soa_gates_simulated");

/// A [`Netlist`] compiled to flat, topologically-ordered arrays.
///
/// Gate `g` (in compiled order) has kind `kinds[g]`, drives net
/// `out_nets[g]`, and reads the fanin nets
/// `fanins[fanin_start[g] .. fanin_start[g + 1]]`. Gates are sorted by
/// logic level, so a single front-to-back walk respects all data
/// dependencies. Net `n` feeds the gates
/// `fanouts[fanout_start[n] .. fanout_start[n + 1]]`, ascending.
#[derive(Debug, Clone)]
pub struct SoaNetlist {
    num_nets: usize,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    kinds: Vec<GateKind>,
    out_nets: Vec<u32>,
    fanin_start: Vec<u32>,
    fanins: Vec<u32>,
    fanout_start: Vec<u32>,
    fanouts: Vec<u32>,
}

/// Per-worker scratch for [`SoaNetlist::propagate_held`]: the faulty
/// words of the nets a fault effect reached, plus the epoch stamps that
/// say which entries belong to the current call. Warm calls never touch
/// the heap.
#[derive(Debug, Default)]
pub struct ConeScratch<const N: usize> {
    /// Faulty word per net; valid only where `stamp` equals `epoch`.
    words: Vec<LaneWord<N>>,
    /// Epoch at which each net's faulty word was written.
    stamp: Vec<u32>,
    /// Epoch at which each gate (compiled order) was scheduled.
    marked: Vec<u32>,
    /// Current call's epoch; bumping it invalidates every entry at once.
    epoch: u32,
}

impl<const N: usize> ConeScratch<N> {
    /// Sizes the arrays for `nets`/`gates` and opens a fresh epoch.
    fn begin(&mut self, nets: usize, gates: usize) -> u32 {
        if self.stamp.len() != nets {
            self.words.resize(nets, LaneWord::ZERO);
            self.stamp.resize(nets, 0);
        }
        if self.marked.len() != gates {
            self.marked.resize(gates, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.marked.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

impl SoaNetlist {
    /// Compiles a netlist into the flat levelized layout. Call once per
    /// netlist; the result is immutable and reusable across simulations.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::levelize`] failures (undriven nets,
    /// combinational cycles).
    pub fn compile(nl: &Netlist) -> Result<Self, LogicError> {
        let mut order = nl.levelize()?;
        let depth = nl.depths()?;
        // Kahn order is already topological; the stable re-sort by
        // output-net depth groups each level contiguously, which keeps
        // same-level gates (independent by construction) adjacent in
        // memory.
        order.sort_by_key(|&g| depth[nl.gate(g).output.index()]);

        let mut kinds = Vec::with_capacity(order.len());
        let mut out_nets = Vec::with_capacity(order.len());
        let mut fanin_start = Vec::with_capacity(order.len() + 1);
        let mut fanins = Vec::new();
        fanin_start.push(0u32);
        for &g in &order {
            let gate = nl.gate(g);
            kinds.push(gate.kind);
            out_nets.push(gate.output.index() as u32);
            fanins.extend(gate.inputs.iter().map(|n| n.index() as u32));
            fanin_start.push(fanins.len() as u32);
        }
        // Reverse CSR. Gates are visited in compiled order, so each
        // consumer list comes out ascending; a gate reading the same net
        // twice is listed once.
        let consumers = |g: usize| {
            let pins = &fanins[fanin_start[g] as usize..fanin_start[g + 1] as usize];
            pins.iter()
                .enumerate()
                .filter(move |&(i, n)| !pins[..i].contains(n))
                .map(|(_, &n)| n as usize)
        };
        let mut fanout_start = vec![0u32; nl.num_nets() + 1];
        for g in 0..kinds.len() {
            for n in consumers(g) {
                fanout_start[n + 1] += 1;
            }
        }
        for n in 0..nl.num_nets() {
            fanout_start[n + 1] += fanout_start[n];
        }
        let mut fill = fanout_start.clone();
        let mut fanouts = vec![0u32; fanout_start[nl.num_nets()] as usize];
        for g in 0..kinds.len() {
            for n in consumers(g) {
                fanouts[fill[n] as usize] = g as u32;
                fill[n] += 1;
            }
        }
        let levels = order
            .last()
            .map_or(0, |&g| depth[nl.gate(g).output.index()]);
        LEVELS.set(levels as f64);
        Ok(SoaNetlist {
            num_nets: nl.num_nets(),
            inputs: nl.inputs().iter().map(|n| n.index() as u32).collect(),
            outputs: nl.outputs().iter().map(|n| n.index() as u32).collect(),
            kinds,
            out_nets,
            fanin_start,
            fanins,
            fanout_start,
            fanouts,
        })
    }

    /// Evaluates gate `g` (compiled order), reading each fanin net's
    /// word through `read`.
    #[inline(always)]
    fn eval_gate<const N: usize>(
        &self,
        g: usize,
        read: impl Fn(usize) -> LaneWord<N>,
    ) -> LaneWord<N> {
        let s = self.fanin_start[g] as usize;
        let e = self.fanin_start[g + 1] as usize;
        let fi = &self.fanins[s..e];
        let first = read(fi[0] as usize);
        // Two-input gates dominate every stock circuit; give AND-family
        // pairs a branch the optimizer can lower without a fold loop.
        match self.kinds[g] {
            GateKind::Inv => !first,
            GateKind::Buf => first,
            GateKind::And if fi.len() == 2 => first & read(fi[1] as usize),
            GateKind::Nand if fi.len() == 2 => !(first & read(fi[1] as usize)),
            GateKind::Or if fi.len() == 2 => first | read(fi[1] as usize),
            GateKind::Nor if fi.len() == 2 => !(first | read(fi[1] as usize)),
            GateKind::And => fi[1..].iter().fold(first, |acc, &n| acc & read(n as usize)),
            GateKind::Nand => !fi[1..].iter().fold(first, |acc, &n| acc & read(n as usize)),
            GateKind::Or => fi[1..].iter().fold(first, |acc, &n| acc | read(n as usize)),
            GateKind::Nor => !fi[1..].iter().fold(first, |acc, &n| acc | read(n as usize)),
            GateKind::Xor => fi[1..].iter().fold(first, |acc, &n| acc ^ read(n as usize)),
            GateKind::Xnor => !fi[1..].iter().fold(first, |acc, &n| acc ^ read(n as usize)),
        }
    }

    fn load_inputs<const N: usize>(
        &self,
        block: &WideBlock<N>,
        words: &mut Vec<LaneWord<N>>,
    ) -> Result<(), LogicError> {
        if block.num_inputs() != self.inputs.len() {
            return Err(LogicError::InputCountMismatch {
                expected: self.inputs.len(),
                found: block.num_inputs(),
            });
        }
        words.clear();
        words.resize(self.num_nets, LaneWord::ZERO);
        for (i, &n) in self.inputs.iter().enumerate() {
            words[n as usize] = block.word(i);
        }
        Ok(())
    }

    /// Simulates a wide pattern block, writing one packed word per net
    /// into the caller-owned `words` buffer (cleared and resized; reuse
    /// keeps the warm loop allocation-free).
    ///
    /// # Errors
    ///
    /// [`LogicError::InputCountMismatch`] if the block width differs from
    /// the PI count.
    pub fn simulate_wide_into<const N: usize>(
        &self,
        block: &WideBlock<N>,
        words: &mut Vec<LaneWord<N>>,
    ) -> Result<(), LogicError> {
        self.load_inputs(block, words)?;
        SOA_GATES_SIMULATED.add(self.kinds.len() as u64);
        for g in 0..self.kinds.len() {
            let v = self.eval_gate(g, |n| words[n]);
            words[self.out_nets[g] as usize] = v;
        }
        Ok(())
    }

    /// Cone propagation of a held value: the faulty machine equals the
    /// `good` response except that `net` is forced to `held`. Returns the
    /// OR over the primary outputs of faulty XOR good — bit `k` set iff
    /// pattern `k` sees the held value at some output.
    ///
    /// Only gates in the fault effect's fanout cone are evaluated: the
    /// forced net's consumers are scheduled, then one forward scan in
    /// compiled (level) order from the first scheduled gate to the last
    /// evaluates each scheduled gate against the overlay, and schedules
    /// its consumers only when its word differs from the good one, so a
    /// masked effect stops at the gate that masks it. A `held` equal to
    /// the good word returns zero without touching the scratch.
    ///
    /// `good` must hold one word per net of this netlist (a response from
    /// [`SoaNetlist::simulate_wide_into`]).
    pub fn propagate_held<const N: usize>(
        &self,
        good: &[LaneWord<N>],
        net: NetId,
        held: LaneWord<N>,
        cs: &mut ConeScratch<N>,
    ) -> LaneWord<N> {
        let net = net.index();
        if held == good[net] {
            return LaneWord::ZERO;
        }
        let epoch = cs.begin(self.num_nets, self.kinds.len());
        let ConeScratch {
            words,
            stamp,
            marked,
            ..
        } = cs;
        words[net] = held;
        stamp[net] = epoch;
        let consumers = |n: usize| {
            &self.fanouts[self.fanout_start[n] as usize..self.fanout_start[n + 1] as usize]
        };
        let first = consumers(net);
        for &g in first {
            marked[g as usize] = epoch;
        }
        let (mut g, mut last) = match (first.first(), first.last()) {
            (Some(&lo), Some(&hi)) => (lo as usize, hi as usize),
            _ => (1, 0), // no consumers: the effect sits on the net itself
        };
        let mut evaluated = 0u64;
        while g <= last {
            if marked[g] == epoch {
                evaluated += 1;
                let v = self.eval_gate(g, |n| if stamp[n] == epoch { words[n] } else { good[n] });
                let out = self.out_nets[g] as usize;
                if v != good[out] {
                    words[out] = v;
                    stamp[out] = epoch;
                    let next = consumers(out);
                    for &c in next {
                        marked[c as usize] = epoch;
                    }
                    if let Some(&hi) = next.last() {
                        last = last.max(hi as usize);
                    }
                }
            }
            g += 1;
        }
        SOA_GATES_SIMULATED.add(evaluated);
        let mut diff = LaneWord::ZERO;
        for &po in &self.outputs {
            let po = po as usize;
            if stamp[po] == epoch {
                diff |= words[po] ^ good[po];
            }
        }
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits;
    use crate::netlist::Netlist;
    use crate::parallel::simulate_block_forced_into;
    use crate::rng::XorShift64Star;
    use crate::sim::simulate;
    use crate::value::{all_vectors, Lv};

    fn vectors_for(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<Lv>> {
        let mut rng = XorShift64Star::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                (0..n_inputs)
                    .map(|_| Lv::from_bool(rng.gen_bool()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn compile_keeps_netlist_shape() {
        let nl = circuits::fig8_sum_circuit();
        let soa = SoaNetlist::compile(&nl).unwrap();
        assert_eq!(soa.kinds.len(), nl.num_gates());
        assert_eq!(soa.num_nets, nl.num_nets());
        assert_eq!(soa.inputs.len(), nl.inputs().len());
        assert_eq!(soa.outputs.len(), nl.outputs().len());
    }

    #[test]
    fn compiled_order_is_level_sorted() {
        let nl = circuits::ripple_carry_adder(8);
        let soa = SoaNetlist::compile(&nl).unwrap();
        let depth = nl.depths().unwrap();
        let mut prev = 0;
        for g in 0..soa.kinds.len() {
            let d = depth[soa.out_nets[g] as usize];
            assert!(d >= prev, "gate {g} at level {d} after level {prev}");
            prev = d;
        }
    }

    #[test]
    fn narrow_wide_sim_matches_legacy_block_sim() {
        for nl in [
            circuits::c17(),
            circuits::fig8_sum_circuit(),
            circuits::ripple_carry_adder(4),
            circuits::mux_tree(3),
        ] {
            let soa = SoaNetlist::compile(&nl).unwrap();
            let order = nl.levelize().unwrap();
            let vectors = vectors_for(nl.inputs().len(), 64, 0x5EED);
            let wide = WideBlock::<1>::pack(&vectors).unwrap();
            let (mut legacy, mut scratch) = (Vec::new(), Vec::new());
            simulate_block_forced_into(&nl, &order, &wide, &[], &mut legacy, &mut scratch).unwrap();
            let mut words = Vec::new();
            soa.simulate_wide_into(&wide, &mut words).unwrap();
            for n in nl.net_ids() {
                assert_eq!(
                    words[n.index()].0[0],
                    legacy[n.index()],
                    "net {} diverged",
                    nl.net_name(n)
                );
            }
        }
    }

    #[test]
    fn wide_sim_matches_scalar_beyond_64_patterns() {
        let nl = circuits::c17();
        let vectors: Vec<_> = all_vectors(5).collect(); // 32 < 256, pad with randoms
        let mut vectors = vectors;
        vectors.extend(vectors_for(5, 200, 0xFACE)); // 232 patterns, 4 lanes
        let block = WideBlock::<4>::pack(&vectors).unwrap();
        let soa = SoaNetlist::compile(&nl).unwrap();
        let mut words = Vec::new();
        soa.simulate_wide_into(&block, &mut words).unwrap();
        for (k, v) in vectors.iter().enumerate() {
            let scalar = simulate(&nl, v).unwrap();
            for &o in &soa.outputs {
                let net = nl.net(o as usize);
                assert_eq!(
                    Lv::from_bool(words[o as usize].bit(k)),
                    scalar.value(net),
                    "pattern {k} output {}",
                    nl.net_name(net)
                );
            }
        }
    }

    /// Test-side full forced sweep: every gate evaluated from the
    /// primary inputs, `net` held at `held` and its driver skipped.
    fn forced_sweep<const N: usize>(
        soa: &SoaNetlist,
        block: &WideBlock<N>,
        net: usize,
        held: LaneWord<N>,
    ) -> Vec<LaneWord<N>> {
        let mut words = Vec::new();
        soa.load_inputs(block, &mut words).unwrap();
        words[net] = held;
        for g in 0..soa.kinds.len() {
            let out = soa.out_nets[g] as usize;
            if out != net {
                let v = soa.eval_gate(g, |n| words[n]);
                words[out] = v;
            }
        }
        words
    }

    fn po_diff<const N: usize>(
        soa: &SoaNetlist,
        good: &[LaneWord<N>],
        faulty: &[LaneWord<N>],
    ) -> LaneWord<N> {
        soa.outputs.iter().fold(LaneWord::ZERO, |d, &po| {
            d | (good[po as usize] ^ faulty[po as usize])
        })
    }

    fn oracle_circuits() -> Vec<(&'static str, Netlist)> {
        vec![
            ("c17", circuits::c17()),
            ("fig8", circuits::fig8_sum_circuit()),
            ("rca32", circuits::ripple_carry_adder(32)),
            ("csa32", circuits::carry_select_adder(32, 8)),
            ("mult16", circuits::array_multiplier(16)),
        ]
    }

    /// Primary-output nets no gate reads: the held value itself is the
    /// fault effect, with no cone to walk.
    fn dangling_outputs(soa: &SoaNetlist) -> Vec<usize> {
        soa.outputs
            .iter()
            .map(|&po| po as usize)
            .filter(|&po| soa.fanout_start[po] == soa.fanout_start[po + 1])
            .collect()
    }

    /// Width 1 against the independent per-gate forced simulator in
    /// `parallel.rs`, for every net (primary inputs, internal nets
    /// and primary outputs) with random and complemented held words, on a
    /// partially filled block.
    #[test]
    fn cone_propagation_matches_per_gate_forced_oracle() {
        for (name, nl) in oracle_circuits() {
            let soa = SoaNetlist::compile(&nl).unwrap();
            let order = nl.levelize().unwrap();
            let block = WideBlock::<1>::pack(&vectors_for(nl.inputs().len(), 61, 0xC0DE)).unwrap();
            assert_eq!(block.mask().0[0], (1u64 << 61) - 1, "partial block");
            let (mut reference, mut scratch) = (Vec::new(), Vec::new());
            simulate_block_forced_into(&nl, &order, &block, &[], &mut reference, &mut scratch)
                .unwrap();
            let good_ref = reference.clone();
            let mut good = Vec::new();
            soa.simulate_wide_into(&block, &mut good).unwrap();
            assert!(good.iter().zip(&good_ref).all(|(w, &r)| w.0[0] == r));
            let mut cs = ConeScratch::default();
            let mut rng = XorShift64Star::seed_from_u64(0x9E37_79B9_7F4A_7C15);
            for n in nl.net_ids() {
                for held in [rng.next_u64(), !good_ref[n.index()]] {
                    simulate_block_forced_into(
                        &nl,
                        &order,
                        &block,
                        &[(n, held)],
                        &mut reference,
                        &mut scratch,
                    )
                    .unwrap();
                    let expected = nl.outputs().iter().fold(0u64, |d, &po| {
                        d | (good_ref[po.index()] ^ reference[po.index()])
                    });
                    let got = soa.propagate_held(&good, n, LaneWord([held]), &mut cs);
                    assert_eq!(got.0[0], expected, "{name} net {}", nl.net_name(n));
                }
            }
        }
    }

    /// Width 8 against a full forced sweep, for every net with random
    /// held words, on a block whose last lanes are partly and wholly
    /// empty (every lane is compared, valid or not).
    #[test]
    fn cone_propagation_matches_full_forced_sweep_at_width_8() {
        for (name, nl) in oracle_circuits() {
            let soa = SoaNetlist::compile(&nl).unwrap();
            let vectors = vectors_for(nl.inputs().len(), 3 * 64 + 29, 0xD1CE);
            let block = WideBlock::<8>::pack(&vectors).unwrap();
            let mut good = Vec::new();
            soa.simulate_wide_into(&block, &mut good).unwrap();
            let mut cs = ConeScratch::default();
            let mut rng = XorShift64Star::seed_from_u64(0xB5AD_4ECE_DA1C_E2A9);
            for net in 0..soa.num_nets {
                let held = LaneWord::<8>(std::array::from_fn(|_| rng.next_u64()));
                let faulty = forced_sweep(&soa, &block, net, held);
                let got = soa.propagate_held(&good, nl.net(net), held, &mut cs);
                assert_eq!(got, po_diff(&soa, &good, &faulty), "{name} net {net}");
            }
        }
    }

    /// The edge cases a cone kernel is most likely to get wrong, each
    /// checked explicitly on every oracle circuit.
    #[test]
    fn cone_propagation_edge_cases() {
        for (name, nl) in oracle_circuits() {
            let soa = SoaNetlist::compile(&nl).unwrap();
            let block = WideBlock::<4>::pack(&vectors_for(nl.inputs().len(), 200, 0xED6E)).unwrap();
            let mut good = Vec::new();
            soa.simulate_wide_into(&block, &mut good).unwrap();
            let mut cs = ConeScratch::default();
            // Primary-output nets with no consumers: the difference is
            // the held word itself, never zero.
            let dangling = dangling_outputs(&soa);
            assert!(!dangling.is_empty(), "{name} has consumer-free outputs");
            for &po in &dangling {
                let held = !good[po];
                let got = soa.propagate_held(&good, nl.net(po), held, &mut cs);
                assert_eq!(got, LaneWord::ONES, "{name} output net {po}");
            }
            // Primary inputs agree with the full sweep.
            for &pi in &soa.inputs {
                let pi = pi as usize;
                let held = !good[pi];
                let faulty = forced_sweep(&soa, &block, pi, held);
                assert_eq!(
                    soa.propagate_held(&good, nl.net(pi), held, &mut cs),
                    po_diff(&soa, &good, &faulty),
                    "{name} input net {pi}"
                );
            }
            // Holding the good word is a no-op that leaves the scratch
            // untouched.
            for net in 0..soa.num_nets {
                let epoch = cs.epoch;
                let got = soa.propagate_held(&good, nl.net(net), good[net], &mut cs);
                assert!(got.is_zero(), "{name} net {net} no-op");
                assert_eq!(cs.epoch, epoch, "{name} net {net} no-op opened an epoch");
            }
            // Epoch wrap-around: the stamps one call left behind must not
            // read as current once the epoch counter wraps.
            let mut cs = ConeScratch::default();
            let net = soa.inputs[0] as usize;
            soa.propagate_held(&good, nl.net(net), !good[net], &mut cs);
            cs.epoch = u32::MAX;
            let held = good[net] ^ LaneWord([0x5555_5555_5555_5555; 4]);
            let faulty = forced_sweep(&soa, &block, net, held);
            assert_eq!(
                soa.propagate_held(&good, nl.net(net), held, &mut cs),
                po_diff(&soa, &good, &faulty),
                "{name} net {net} after the epoch wrap"
            );
        }
    }

    #[test]
    fn cone_propagation_matches_scalar_forced_evaluation() {
        let nl = circuits::fig8_sum_circuit();
        let soa = SoaNetlist::compile(&nl).unwrap();
        let vectors = vectors_for(nl.inputs().len(), 256, 0xB00);
        let block = WideBlock::<4>::pack(&vectors).unwrap();
        let target = nl.find_net("n7").unwrap_or_else(|_| nl.net(6));
        let held = LaneWord::<4>([0xDEAD_BEEF, !0, 0, 0xAAAA_AAAA_AAAA_AAAA]);
        let mut good = Vec::new();
        soa.simulate_wide_into(&block, &mut good).unwrap();
        let diff = soa.propagate_held(&good, target, held, &mut ConeScratch::default());
        // Cross-check a few lanes against the scalar forced evaluation.
        let order = nl.levelize().unwrap();
        for k in [0usize, 63, 64, 130, 255] {
            let mut vals = vec![Lv::X; nl.num_nets()];
            for (i, &n) in nl.inputs().iter().enumerate() {
                vals[n.index()] = vectors[k][i];
            }
            vals[target.index()] = Lv::from_bool(held.bit(k));
            for &g in &order {
                let gate = nl.gate(g);
                if gate.output == target {
                    continue;
                }
                let ins: Vec<Lv> = gate.inputs.iter().map(|n| vals[n.index()]).collect();
                vals[gate.output.index()] = gate.kind.eval(&ins);
            }
            let scalar_good = simulate(&nl, &vectors[k]).unwrap();
            let differs = nl
                .outputs()
                .iter()
                .any(|&o| vals[o.index()] != scalar_good.value(o));
            assert_eq!(diff.bit(k), differs, "pattern {k}");
        }
    }

    #[test]
    fn width_mismatch_rejected() {
        let nl = circuits::c17();
        let soa = SoaNetlist::compile(&nl).unwrap();
        let block = WideBlock::<1>::pack(&[vec![Lv::One]]).unwrap();
        let mut words = Vec::new();
        assert!(matches!(
            soa.simulate_wide_into(&block, &mut words),
            Err(LogicError::InputCountMismatch {
                expected: 5,
                found: 1
            })
        ));
    }
}
