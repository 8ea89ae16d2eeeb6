//! Static timing analysis over a delay-annotated netlist.
//!
//! Computes arrival times (latest transition at each net), required times
//! (latest arrival that still meets the capture clock) and per-gate
//! slack. The OBD detection semantics use the slack at the defective
//! gate: the defect's extra delay is observable at-speed exactly when it
//! exceeds that slack — §4.2's argument, as an algorithm.

use crate::netlist::{NetId, Netlist};
use crate::timing::DelayModel;
use crate::LogicError;

/// Arrival/required/slack report for a netlist under one clock period.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Latest arrival time per net (ps); PIs at 0.
    arrivals: Vec<f64>,
    /// Required time per net (ps).
    required: Vec<f64>,
}

impl TimingReport {
    /// Latest arrival at a net (ps).
    pub fn arrival(&self, n: NetId) -> f64 {
        self.arrivals[n.index()]
    }

    /// Slack at a net (ps); negative means the path already misses the
    /// clock.
    pub fn slack(&self, n: NetId) -> f64 {
        self.required[n.index()] - self.arrivals[n.index()]
    }

    /// The critical-path delay: the latest primary-output arrival (ps).
    pub fn critical_path(&self, nl: &Netlist) -> f64 {
        nl.outputs()
            .iter()
            .map(|n| self.arrivals[n.index()])
            .fold(0.0, f64::max)
    }
}

/// Runs STA with per-gate worst-case (max of rise/fall) delays.
///
/// # Errors
///
/// Propagates levelization failures.
pub fn analyze(
    nl: &Netlist,
    delays: &DelayModel,
    clock_ps: f64,
) -> Result<TimingReport, LogicError> {
    let order = nl.levelize()?;
    let n_nets = nl.num_nets();
    let mut arrivals = vec![0.0f64; n_nets];
    // Arrival: forward pass in topological order.
    for &g in &order {
        let gate = nl.gate(g);
        let (r, f) = delays.delays(nl, g);
        let d = r.max(f);
        let in_arr = gate
            .inputs
            .iter()
            .map(|n| arrivals[n.index()])
            .fold(0.0, f64::max);
        arrivals[gate.output.index()] = in_arr + d;
    }
    // Required: backward pass. POs are required at the clock edge.
    let mut required = vec![f64::INFINITY; n_nets];
    for &po in nl.outputs() {
        required[po.index()] = clock_ps;
    }
    for &g in order.iter().rev() {
        let gate = nl.gate(g);
        let (r, f) = delays.delays(nl, g);
        let d = r.max(f);
        let out_req = required[gate.output.index()];
        for n in &gate.inputs {
            let candidate = out_req - d;
            if candidate < required[n.index()] {
                required[n.index()] = candidate;
            }
        }
    }
    // Unconstrained nets (no path to a PO) keep infinite required time;
    // clamp to the clock for a readable report.
    for r in required.iter_mut() {
        if !r.is_finite() {
            *r = clock_ps;
        }
    }
    Ok(TimingReport { arrivals, required })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GateKind;

    /// Chain of 3 inverters at 10 ps each: arrivals 10/20/30, slack at
    /// the first stage = clock − 30 + 10·(position from end)… checked
    /// directly.
    #[test]
    fn chain_arrivals_and_slacks() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let g1 = nl.add_gate(GateKind::Inv, "g1", &[a]).unwrap();
        let g2 = nl.add_gate(GateKind::Inv, "g2", &[g1]).unwrap();
        let g3 = nl.add_gate(GateKind::Inv, "g3", &[g2]).unwrap();
        nl.mark_output(g3);
        let delays = DelayModel::uniform(10.0, 10.0);
        let r = analyze(&nl, &delays, 100.0).unwrap();
        assert_eq!(r.arrival(g1), 10.0);
        assert_eq!(r.arrival(g3), 30.0);
        assert_eq!(r.critical_path(&nl), 30.0);
        // Every chain net has the same slack: 100 − 30.
        for n in [g1, g2, g3] {
            assert!((r.slack(n) - 70.0).abs() < 1e-9);
        }
        // PI required time = clock − 30.
        assert!((r.slack(a) - 70.0).abs() < 1e-9);
    }

    /// Reconvergent paths: slack is set by the longer branch.
    #[test]
    fn reconvergence_uses_worst_path() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let slow1 = nl.add_gate(GateKind::Inv, "s1", &[a]).unwrap();
        let slow2 = nl.add_gate(GateKind::Inv, "s2", &[slow1]).unwrap();
        let fast = nl.add_gate(GateKind::Inv, "f", &[a]).unwrap();
        let y = nl.add_gate(GateKind::Nand, "y", &[slow2, fast]).unwrap();
        nl.mark_output(y);
        let delays = DelayModel::uniform(10.0, 10.0);
        let r = analyze(&nl, &delays, 50.0).unwrap();
        assert_eq!(r.arrival(y), 30.0); // through the 2-stage branch
                                        // The fast branch has more slack than the slow branch.
        assert!(r.slack(fast) > r.slack(slow2));
        assert!((r.slack(slow2) - 20.0).abs() < 1e-9);
        assert!((r.slack(fast) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn negative_slack_when_clock_too_fast() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let g1 = nl.add_gate(GateKind::Inv, "g1", &[a]).unwrap();
        let g2 = nl.add_gate(GateKind::Inv, "g2", &[g1]).unwrap();
        nl.mark_output(g2);
        let delays = DelayModel::uniform(10.0, 10.0);
        let r = analyze(&nl, &delays, 15.0).unwrap();
        assert!(r.slack(g2) < 0.0);
    }

    #[test]
    fn per_gate_override_shifts_slack() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let g1 = nl.add_gate(GateKind::Inv, "g1", &[a]).unwrap();
        let g2 = nl.add_gate(GateKind::Inv, "g2", &[g1]).unwrap();
        nl.mark_output(g2);
        let mut delays = DelayModel::uniform(10.0, 10.0);
        let r0 = analyze(&nl, &delays, 100.0).unwrap();
        delays.set_gate(nl.driver(g1).unwrap(), 40.0, 40.0);
        let r1 = analyze(&nl, &delays, 100.0).unwrap();
        assert!(r1.slack(g2) < r0.slack(g2));
        assert_eq!(r1.critical_path(&nl), 50.0);
    }

    #[test]
    fn fig8_critical_path_is_nine_stages() {
        let nl = crate::circuits::fig8_sum_circuit();
        let delays = DelayModel::uniform(100.0, 100.0);
        let report = analyze(&nl, &delays, 1200.0).unwrap();
        // Depth 9 at 100 ps/stage: critical path 900 ps.
        assert_eq!(report.critical_path(&nl), 900.0);
    }
}
