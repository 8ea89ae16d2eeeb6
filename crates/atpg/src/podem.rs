//! PODEM over a two-machine (good/faulty) algebra with required-line
//! constraints.
//!
//! Decisions are made only at primary inputs (the defining PODEM
//! property); each decision triggers a full two-machine implication pass
//! (cheap at the circuit sizes of this suite). The engine serves three
//! client modes:
//!
//! * classical stuck-at test generation,
//! * frame-2 OBD/transition generation — the fault is "output holds its
//!   frame-1 value", with the excitation condition supplied as required
//!   line values at the defective gate's inputs,
//! * frame-1 justification — no fault, only required lines.

use obd_logic::netlist::{GateId, GateKind, NetId, Netlist};
use obd_logic::value::Lv;

use crate::scoap::Scoap;
use crate::AtpgError;
use obd_metrics::{Counter, Histogram};

/// PODEM searches run (one per fault targeting attempt).
static PODEM_RUNS: Counter = Counter::new("atpg.podem_runs");
/// Total PODEM backtracks across all runs.
static PODEM_BACKTRACKS: Counter = Counter::new("atpg.podem_backtracks");
/// Runs that hit the backtrack limit and aborted.
static PODEM_ABORTS: Counter = Counter::new("atpg.podem_aborts");
/// Two-machine implication passes.
static PODEM_IMPLICATIONS: Counter = Counter::new("atpg.podem_implications");
/// Backtracks needed per PODEM run.
static PODEM_BACKTRACKS_PER_RUN: Histogram = Histogram::new(
    "atpg.podem_backtracks_per_run",
    &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256],
);

/// Outcome of a PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A satisfying PI assignment (with `X` for don't-cares).
    Test(Vec<Lv>),
    /// The search space was exhausted: provably untestable /
    /// unjustifiable.
    Untestable,
    /// The backtrack limit was hit before a conclusion.
    Aborted,
}

/// A PODEM problem statement.
#[derive(Debug, Clone)]
pub struct PodemRequest {
    /// The fault: a net forced to a value in the faulty machine. `None`
    /// for pure justification problems.
    pub fault: Option<(NetId, bool)>,
    /// Line values that must hold in the good machine.
    pub required: Vec<(NetId, bool)>,
    /// Whether the fault effect must reach a primary output.
    pub propagate: bool,
    /// Backtrack budget before aborting.
    pub backtrack_limit: usize,
}

impl PodemRequest {
    /// A classical stuck-at request.
    pub fn stuck_at(net: NetId, value: bool) -> Self {
        PodemRequest {
            fault: Some((net, value)),
            required: Vec::new(),
            propagate: true,
            backtrack_limit: 10_000,
        }
    }

    /// A pure justification request (frame 1 of a two-pattern test).
    pub fn justify(required: Vec<(NetId, bool)>) -> Self {
        PodemRequest {
            fault: None,
            required,
            propagate: false,
            backtrack_limit: 10_000,
        }
    }
}

/// The PODEM engine, reusable across requests on one netlist.
#[derive(Debug)]
pub struct Podem<'a> {
    nl: &'a Netlist,
    order: Vec<GateId>,
    scoap: Scoap,
    pi_index: Vec<Option<usize>>,
    /// Statistics: backtracks used by the last run.
    pub(crate) backtracks: usize,
}

impl<'a> Podem<'a> {
    /// Prepares the engine (levelizes once).
    ///
    /// # Errors
    ///
    /// Propagates structural netlist errors.
    pub fn new(nl: &'a Netlist) -> Result<Self, AtpgError> {
        let order = nl.levelize()?;
        let scoap = Scoap::compute(nl)?;
        let mut pi_index = vec![None; nl.num_nets()];
        for (i, &pi) in nl.inputs().iter().enumerate() {
            pi_index[pi.index()] = Some(i);
        }
        Ok(Podem {
            nl,
            order,
            scoap,
            pi_index,
            backtracks: 0,
        })
    }

    /// Runs a request.
    pub fn run(&mut self, req: &PodemRequest) -> PodemOutcome {
        let mut state = State {
            pis: vec![Lv::X; self.nl.inputs().len()],
            good: vec![Lv::X; self.nl.num_nets()],
            faulty: vec![Lv::X; self.nl.num_nets()],
        };
        self.backtracks = 0;
        PODEM_RUNS.inc();
        self.imply(req, &mut state);
        let result = self.search(req, &mut state);
        PODEM_BACKTRACKS.add(self.backtracks as u64);
        PODEM_BACKTRACKS_PER_RUN.record(self.backtracks as u64);
        match result {
            SearchResult::Found => PodemOutcome::Test(state.pis),
            SearchResult::Exhausted => PodemOutcome::Untestable,
            SearchResult::Aborted => {
                PODEM_ABORTS.inc();
                PodemOutcome::Aborted
            }
        }
    }
}

#[derive(Debug, Clone)]
struct State {
    pis: Vec<Lv>,
    good: Vec<Lv>,
    faulty: Vec<Lv>,
}

enum SearchResult {
    Found,
    Exhausted,
    Aborted,
}

impl<'a> Podem<'a> {
    /// Full two-machine implication from the current PI assignment.
    fn imply(&self, req: &PodemRequest, st: &mut State) {
        PODEM_IMPLICATIONS.inc();
        for v in st.good.iter_mut() {
            *v = Lv::X;
        }
        for v in st.faulty.iter_mut() {
            *v = Lv::X;
        }
        for (i, &pi) in self.nl.inputs().iter().enumerate() {
            st.good[pi.index()] = st.pis[i];
            st.faulty[pi.index()] = st.pis[i];
        }
        // If the fault sits on a PI, force it in the faulty machine.
        if let Some((fnet, fval)) = req.fault {
            if self.nl.driver(fnet).is_none() {
                st.faulty[fnet.index()] = Lv::from_bool(fval);
            }
        }
        let mut ins_g = Vec::new();
        let mut ins_f = Vec::new();
        for &g in &self.order {
            let gate = self.nl.gate(g);
            ins_g.clear();
            ins_f.clear();
            for n in &gate.inputs {
                ins_g.push(st.good[n.index()]);
                ins_f.push(st.faulty[n.index()]);
            }
            let out = gate.output;
            st.good[out.index()] = gate.kind.eval(&ins_g);
            st.faulty[out.index()] = match req.fault {
                Some((fnet, fval)) if fnet == out => Lv::from_bool(fval),
                _ => gate.kind.eval(&ins_f),
            };
        }
    }

    fn violated(&self, req: &PodemRequest, st: &State) -> bool {
        req.required.iter().any(|&(net, val)| {
            let v = st.good[net.index()];
            v.is_known() && v != Lv::from_bool(val)
        })
    }

    fn success(&self, req: &PodemRequest, st: &State) -> bool {
        let justified = req
            .required
            .iter()
            .all(|&(net, val)| st.good[net.index()] == Lv::from_bool(val));
        if !justified {
            return false;
        }
        if let Some((fnet, fval)) = req.fault {
            // Activation: good machine must hold the opposite value.
            let gv = st.good[fnet.index()];
            if gv != Lv::from_bool(!fval) {
                return false;
            }
            if req.propagate {
                return self.nl.outputs().iter().any(|&po| {
                    let g = st.good[po.index()];
                    let f = st.faulty[po.index()];
                    g.is_known() && f.is_known() && g != f
                });
            }
        }
        true
    }

    /// X-path check: can the fault effect still reach an output?
    fn xpath_ok(&self, req: &PodemRequest, st: &State) -> bool {
        let (fnet, fval) = match req.fault {
            Some(f) if req.propagate => f,
            _ => return true,
        };
        // Activation must still be possible.
        let gv = st.good[fnet.index()];
        if gv == Lv::from_bool(fval) {
            return false;
        }
        // Potential-D nets: known discrepancies, plus the fault net while
        // activation is open.
        let mut potential = vec![false; self.nl.num_nets()];
        let mut stack = Vec::new();
        for net in self.nl.net_ids() {
            let g = st.good[net.index()];
            let f = st.faulty[net.index()];
            if g.is_known() && f.is_known() && g != f {
                potential[net.index()] = true;
                stack.push(net);
            }
        }
        if !potential[fnet.index()] {
            potential[fnet.index()] = true;
            stack.push(fnet);
        }
        let fanouts = self.nl.fanouts();
        while let Some(net) = stack.pop() {
            if self.nl.outputs().contains(&net) {
                return true;
            }
            for &(g, _) in &fanouts[net.index()] {
                let out = self.nl.gate(g).output;
                if potential[out.index()] {
                    continue;
                }
                // The effect can pass if the output is not yet fixed to
                // equal values in both machines.
                let go = st.good[out.index()];
                let fo = st.faulty[out.index()];
                let blocked = go.is_known() && fo.is_known() && go == fo;
                if !blocked {
                    potential[out.index()] = true;
                    stack.push(out);
                }
            }
        }
        false
    }

    /// Chooses the next objective `(net, value)`.
    fn objective(&self, req: &PodemRequest, st: &State) -> Option<(NetId, bool)> {
        // 1. Unjustified required lines.
        for &(net, val) in &req.required {
            if st.good[net.index()] == Lv::X {
                return Some((net, val));
            }
        }
        // 2. Fault activation.
        if let Some((fnet, fval)) = req.fault {
            if st.good[fnet.index()] == Lv::X {
                return Some((fnet, !fval));
            }
            if req.propagate {
                // 3. D-frontier: a gate with a discrepancy on an input and
                //    an undetermined output.
                for &g in &self.order {
                    let gate = self.nl.gate(g);
                    let out = gate.output;
                    let out_known =
                        st.good[out.index()].is_known() && st.faulty[out.index()].is_known();
                    if out_known {
                        continue;
                    }
                    let has_d = gate.inputs.iter().any(|n| {
                        let a = st.good[n.index()];
                        let b = st.faulty[n.index()];
                        a.is_known() && b.is_known() && a != b
                    });
                    if !has_d {
                        continue;
                    }
                    // Set an X input to the non-controlling value.
                    for n in &gate.inputs {
                        if st.good[n.index()] == Lv::X {
                            let val = match gate.kind.controlling_value() {
                                Some(Lv::Zero) => true,
                                Some(Lv::One) => false,
                                _ => false,
                            };
                            return Some((*n, val));
                        }
                    }
                }
            }
        }
        None
    }

    /// Backtraces an objective to a PI assignment.
    fn backtrace(&self, st: &State, mut net: NetId, mut val: bool) -> Option<(usize, bool)> {
        loop {
            if let Some(pi) = self.pi_index[net.index()] {
                return Some((pi, val));
            }
            let g = self.nl.driver(net)?;
            let gate = self.nl.gate(g);
            match gate.kind {
                GateKind::Inv => {
                    net = gate.inputs[0];
                    val = !val;
                }
                GateKind::Buf => {
                    net = gate.inputs[0];
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let inverted = gate.kind.inverting();
                    let base_val = if inverted { !val } else { val };
                    // base_val is the desired AND/OR value.
                    let is_and = matches!(gate.kind, GateKind::And | GateKind::Nand);
                    let need_ctrl = if is_and { !base_val } else { base_val };
                    // SCOAP-guided choice: when one controlling input
                    // suffices, take the *easiest* to set to the
                    // controlling value; when every input must be
                    // non-controlling, justify the *hardest* one first so
                    // dead ends surface early.
                    let ctrl_is_zero = is_and;
                    val = if need_ctrl {
                        !ctrl_is_zero
                    } else {
                        ctrl_is_zero
                    };
                    let xs: Vec<&NetId> = gate
                        .inputs
                        .iter()
                        .filter(|n| st.good[n.index()] == Lv::X)
                        .collect();
                    let pick = if need_ctrl {
                        xs.iter().min_by_key(|n| self.scoap.cc(***n, val))
                    } else {
                        xs.iter().max_by_key(|n| self.scoap.cc(***n, val))
                    };
                    let pick = *pick?;
                    net = *pick;
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Choose an X input; derive its value from the known
                    // siblings when possible, else guess 0.
                    let mut acc = gate.kind == GateKind::Xnor;
                    let mut chosen: Option<NetId> = None;
                    let mut all_known_others = true;
                    for n in &gate.inputs {
                        match st.good[n.index()] {
                            Lv::X => {
                                if chosen.is_none() {
                                    chosen = Some(*n);
                                } else {
                                    all_known_others = false;
                                }
                            }
                            Lv::One => acc = !acc,
                            Lv::Zero => {}
                        }
                    }
                    let pick = chosen?;
                    val = if all_known_others { val != acc } else { false };
                    net = pick;
                }
            }
        }
    }

    fn search(&mut self, req: &PodemRequest, st: &mut State) -> SearchResult {
        if self.violated(req, st) {
            return SearchResult::Exhausted;
        }
        if self.success(req, st) {
            return SearchResult::Found;
        }
        if !self.xpath_ok(req, st) {
            return SearchResult::Exhausted;
        }
        let (net, val) = match self.objective(req, st) {
            Some(o) => o,
            None => return SearchResult::Exhausted,
        };
        let (pi, pival) = match self.backtrace(st, net, val) {
            Some(d) => d,
            None => return SearchResult::Exhausted,
        };
        debug_assert_eq!(st.pis[pi], Lv::X, "backtrace must land on a free PI");
        for attempt in [pival, !pival] {
            st.pis[pi] = Lv::from_bool(attempt);
            self.imply(req, st);
            match self.search(req, st) {
                SearchResult::Found => return SearchResult::Found,
                SearchResult::Aborted => return SearchResult::Aborted,
                SearchResult::Exhausted => {
                    self.backtracks += 1;
                    if self.backtracks > req.backtrack_limit {
                        return SearchResult::Aborted;
                    }
                }
            }
        }
        st.pis[pi] = Lv::X;
        self.imply(req, st);
        SearchResult::Exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_logic::circuits::{c17, fig8_sum_circuit};
    use obd_logic::netlist::Netlist;
    use obd_logic::sim::simulate;

    fn as_full(pis: &[Lv]) -> Vec<Lv> {
        pis.iter()
            .map(|&v| if v == Lv::X { Lv::Zero } else { v })
            .collect()
    }

    #[test]
    fn generates_test_for_simple_stuck_at() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::And, "y", &[a, b]).unwrap();
        nl.mark_output(y);
        let mut podem = Podem::new(&nl).unwrap();
        // y stuck-at-0: needs a=b=1.
        match podem.run(&PodemRequest::stuck_at(y, false)) {
            PodemOutcome::Test(pis) => {
                assert_eq!(pis, vec![Lv::One, Lv::One]);
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn every_c17_stuck_at_fault_is_testable() {
        let nl = c17();
        let mut podem = Podem::new(&nl).unwrap();
        for f in crate::fault::stuck_at_faults(&nl) {
            let (net, value) = match f {
                crate::fault::Fault::StuckAt { net, value } => (net, value),
                _ => unreachable!(),
            };
            let outcome = podem.run(&PodemRequest::stuck_at(net, value));
            let pis = match outcome {
                PodemOutcome::Test(p) => p,
                other => panic!("{}: {other:?}", f.describe(&nl)),
            };
            // Verify by simulation: good vs forced-faulty differ at a PO.
            let full = as_full(&pis);
            let good = simulate(&nl, &full).unwrap();
            // Check activation.
            assert_eq!(good.value(net), Lv::from_bool(!value));
        }
    }

    #[test]
    fn detects_untestable_fault_in_redundant_logic() {
        // y = OR(a, NOT a) is constant 1: y sa-1 is untestable.
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let an = nl.add_gate(GateKind::Inv, "an", &[a]).unwrap();
        let y = nl.add_gate(GateKind::Or, "y", &[a, an]).unwrap();
        nl.mark_output(y);
        let mut podem = Podem::new(&nl).unwrap();
        assert_eq!(
            podem.run(&PodemRequest::stuck_at(y, true)),
            PodemOutcome::Untestable
        );
        // sa-0 is testable by any vector.
        assert!(matches!(
            podem.run(&PodemRequest::stuck_at(y, false)),
            PodemOutcome::Test(_)
        ));
    }

    #[test]
    fn justification_of_internal_lines() {
        let nl = fig8_sum_circuit();
        let g5 = nl.find_net("g5").unwrap();
        let c4 = nl.find_net("c4").unwrap();
        let mut podem = Podem::new(&nl).unwrap();
        // Ask for g5 = 0 (requires X=1 and C=0) and c4 = 0 simultaneously
        // (c4 follows C, so C = 0 is consistent).
        match podem.run(&PodemRequest::justify(vec![(g5, false), (c4, false)])) {
            PodemOutcome::Test(pis) => {
                let full = as_full(&pis);
                let r = simulate(&nl, &full).unwrap();
                assert_eq!(r.value(g5), Lv::Zero);
                assert_eq!(r.value(c4), Lv::Zero);
            }
            other => panic!("justification failed: {other:?}"),
        }
    }

    #[test]
    fn justification_detects_impossible_combination() {
        let nl = fig8_sum_circuit();
        // gm and gmp are duplicates: requiring opposite values is
        // unsatisfiable.
        let gm = nl.find_net("gm").unwrap();
        let gmp = nl.find_net("gmp").unwrap();
        let mut podem = Podem::new(&nl).unwrap();
        assert_eq!(
            podem.run(&PodemRequest::justify(vec![(gm, true), (gmp, false)])),
            PodemOutcome::Untestable
        );
    }

    #[test]
    fn required_lines_constrain_stuck_at_generation() {
        let nl = c17();
        let mut podem = Podem::new(&nl).unwrap();
        let n10 = nl.find_net("10").unwrap();
        let i1 = nl.find_net("1").unwrap();
        // Force input 1 to 0 while testing 10 sa-0 (10 = NAND(1,3), so
        // with 1=0 the output is 1: activation consistent).
        let mut req = PodemRequest::stuck_at(n10, false);
        req.required.push((i1, false));
        match podem.run(&req) {
            PodemOutcome::Test(pis) => assert_eq!(pis[0], Lv::Zero),
            other => panic!("{other:?}"),
        }
        // Conversely 10 sa-1 needs 1=1 AND 3=1; requiring 1=0 makes it
        // impossible.
        let mut req = PodemRequest::stuck_at(n10, true);
        req.required.push((i1, false));
        assert_eq!(podem.run(&req), PodemOutcome::Untestable);
    }
}
