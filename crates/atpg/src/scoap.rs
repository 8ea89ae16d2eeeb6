//! SCOAP testability measures (Goldstein's controllability /
//! observability analysis).
//!
//! `CC0(net)` / `CC1(net)` estimate how many line assignments are needed
//! to set a net to 0 / 1; `CO(net)` how many to propagate its value to a
//! primary output. PODEM uses them to pick the *easiest* input when one
//! controlling value suffices and the *hardest* when all inputs must be
//! justified — replacing the crude depth heuristic.

use obd_logic::netlist::{GateKind, NetId, Netlist};
use obd_logic::LogicError;

/// SCOAP numbers for every net.
#[derive(Debug, Clone)]
pub struct Scoap {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
}

/// Saturating cap so reconvergent circuits cannot overflow.
const CAP: u32 = 1_000_000;

fn sat_add(a: u32, b: u32) -> u32 {
    a.saturating_add(b).min(CAP)
}

impl Scoap {
    /// Computes controllability (forward pass) and observability
    /// (backward pass).
    ///
    /// # Errors
    ///
    /// Propagates levelization failures.
    pub fn compute(nl: &Netlist) -> Result<Self, LogicError> {
        let order = nl.levelize()?;
        let n = nl.num_nets();
        let mut cc0 = vec![CAP; n];
        let mut cc1 = vec![CAP; n];
        for &pi in nl.inputs() {
            cc0[pi.index()] = 1;
            cc1[pi.index()] = 1;
        }
        for &g in &order {
            let gate = nl.gate(g);
            let ins: Vec<(u32, u32)> = gate
                .inputs
                .iter()
                .map(|i| (cc0[i.index()], cc1[i.index()]))
                .collect();
            // Controllability of the underlying AND/OR/XOR function.
            let (and0, and1) = {
                // AND = 0: cheapest single 0; AND = 1: all 1s.
                let zero = ins.iter().map(|&(c0, _)| c0).min().unwrap_or(CAP);
                let one = ins.iter().map(|&(_, c1)| c1).fold(0, sat_add);
                (sat_add(zero, 1), sat_add(one, 1))
            };
            let (or0, or1) = {
                let zero = ins.iter().map(|&(c0, _)| c0).fold(0, sat_add);
                let one = ins.iter().map(|&(_, c1)| c1).min().unwrap_or(CAP);
                (sat_add(zero, 1), sat_add(one, 1))
            };
            let (xor0, xor1) = {
                // Two-input approximation generalized: parity of ones.
                // 0: all same parity-even combos; use cheapest even
                // assignment ≈ min(both 0, both 1) pairwise-folded.
                let mut c0 = ins[0].0;
                let mut c1 = ins[0].1;
                for &(i0, i1) in &ins[1..] {
                    let n0 = sat_add(c0, i0).min(sat_add(c1, i1));
                    let n1 = sat_add(c0, i1).min(sat_add(c1, i0));
                    c0 = n0;
                    c1 = n1;
                }
                (sat_add(c0, 1), sat_add(c1, 1))
            };
            let (o0, o1) = match gate.kind {
                GateKind::Buf => (sat_add(ins[0].0, 1), sat_add(ins[0].1, 1)),
                GateKind::Inv => (sat_add(ins[0].1, 1), sat_add(ins[0].0, 1)),
                GateKind::And => (and0, and1),
                GateKind::Nand => (and1, and0),
                GateKind::Or => (or0, or1),
                GateKind::Nor => (or1, or0),
                GateKind::Xor => (xor0, xor1),
                GateKind::Xnor => (xor1, xor0),
            };
            cc0[gate.output.index()] = o0;
            cc1[gate.output.index()] = o1;
        }

        // Observability: POs are free; each gate input sees the output's
        // observability plus the cost of setting the side inputs
        // non-controlling.
        let mut co = vec![CAP; n];
        for &po in nl.outputs() {
            co[po.index()] = 0;
        }
        for &g in order.iter().rev() {
            let gate = nl.gate(g);
            let out_co = co[gate.output.index()];
            for (pin, &inp) in gate.inputs.iter().enumerate() {
                let side_cost: u32 = gate
                    .inputs
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != pin)
                    .map(|(_, &side)| match gate.kind {
                        GateKind::And | GateKind::Nand => cc1[side.index()],
                        GateKind::Or | GateKind::Nor => cc0[side.index()],
                        // XOR family: either value propagates; take the
                        // cheaper.
                        GateKind::Xor | GateKind::Xnor => cc0[side.index()].min(cc1[side.index()]),
                        GateKind::Inv | GateKind::Buf => 0,
                    })
                    .fold(0, sat_add);
                let candidate = sat_add(sat_add(out_co, side_cost), 1);
                if candidate < co[inp.index()] {
                    co[inp.index()] = candidate;
                }
            }
        }
        Ok(Scoap { cc0, cc1, co })
    }

    /// Cost of setting the net to 0.
    pub fn cc0(&self, n: NetId) -> u32 {
        self.cc0[n.index()]
    }

    /// Cost of setting the net to 1.
    pub fn cc1(&self, n: NetId) -> u32 {
        self.cc1[n.index()]
    }

    /// Cost of setting the net to a given value.
    pub(crate) fn cc(&self, n: NetId, value: bool) -> u32 {
        if value {
            self.cc1(n)
        } else {
            self.cc0(n)
        }
    }

    /// Cost of observing the net at a primary output.
    pub fn co(&self, n: NetId) -> u32 {
        self.co[n.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_logic::circuits::{c17, fig8_sum_circuit, ripple_carry_adder};
    use obd_logic::netlist::Netlist;

    #[test]
    fn primary_inputs_are_unit_cost() {
        let nl = c17();
        let s = Scoap::compute(&nl).unwrap();
        for &pi in nl.inputs() {
            assert_eq!(s.cc0(pi), 1);
            assert_eq!(s.cc1(pi), 1);
        }
    }

    #[test]
    fn nand_controllabilities_follow_goldstein() {
        // y = NAND(a, b): CC0(y) = CC1(a)+CC1(b)+1 = 3; CC1(y) =
        // min(CC0) + 1 = 2.
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::Nand, "y", &[a, b]).unwrap();
        nl.mark_output(y);
        let s = Scoap::compute(&nl).unwrap();
        assert_eq!(s.cc0(y), 3);
        assert_eq!(s.cc1(y), 2);
        // Observability of a: output free, side input must be 1: CO =
        // 0 + CC1(b) + 1 = 2.
        assert_eq!(s.co(a), 2);
        assert_eq!(s.co(y), 0);
    }

    #[test]
    fn deeper_nets_cost_more() {
        let nl = ripple_carry_adder(4);
        let s = Scoap::compute(&nl).unwrap();
        // The last carry is much harder to control than the first sum
        // XOR node.
        let cout = *nl.outputs().last().unwrap();
        let first_in = nl.inputs()[0];
        assert!(s.cc1(cout) > s.cc1(first_in));
        assert!(s.co(first_in) > s.co(cout.to_owned()) || s.co(cout) == 0);
    }

    #[test]
    fn redundant_duplicates_share_costs() {
        let nl = fig8_sum_circuit();
        let s = Scoap::compute(&nl).unwrap();
        let gm = nl.find_net("gm").unwrap();
        let gmp = nl.find_net("gmp").unwrap();
        // Identical structure -> identical controllability.
        assert_eq!(s.cc0(gm), s.cc0(gmp));
        assert_eq!(s.cc1(gm), s.cc1(gmp));
        // Every net in this observable circuit has finite measures.
        for net in nl.net_ids() {
            assert!(s.cc0(net) < CAP);
            assert!(s.cc1(net) < CAP);
        }
    }

    #[test]
    fn unobservable_dangling_gate_has_cap_observability() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let y = nl.add_gate(GateKind::Inv, "y", &[a]).unwrap();
        let d = nl.add_gate(GateKind::Inv, "dangling", &[a]).unwrap();
        nl.mark_output(y);
        let s = Scoap::compute(&nl).unwrap();
        assert_eq!(s.co(d), CAP);
        assert!(s.co(a) < CAP);
    }
}
