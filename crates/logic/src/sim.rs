//! Levelized three-valued simulation, including two-pattern simulation.

use crate::netlist::{NetId, Netlist};
use crate::value::Lv;
use crate::LogicError;

/// Result of a single-vector simulation: the value of every net.
#[derive(Debug, Clone)]
pub struct SimResult {
    values: Vec<Lv>,
}

impl SimResult {
    /// Value of a net.
    pub fn value(&self, n: NetId) -> Lv {
        self.values[n.index()]
    }

    /// Values of all nets, indexed by [`NetId::index`].
    pub(crate) fn values(&self) -> &[Lv] {
        &self.values
    }

    /// Values of the primary outputs in declaration order.
    pub fn outputs(&self, nl: &Netlist) -> Vec<Lv> {
        nl.outputs().iter().map(|&n| self.value(n)).collect()
    }
}

/// Simulates one input vector (three-valued).
///
/// # Errors
///
/// * [`LogicError::InputCountMismatch`] if the vector length differs from
///   the number of primary inputs.
/// * Propagates structural errors from levelization.
///
/// # Example
///
/// ```rust
/// use obd_logic::netlist::{Netlist, GateKind};
/// use obd_logic::sim::simulate;
/// use obd_logic::value::Lv;
///
/// # fn main() -> Result<(), obd_logic::LogicError> {
/// let mut nl = Netlist::new();
/// let a = nl.add_input("a");
/// let y = nl.add_gate(GateKind::Inv, "y", &[a])?;
/// nl.mark_output(y);
/// assert_eq!(simulate(&nl, &[Lv::Zero])?.value(y), Lv::One);
/// # Ok(())
/// # }
/// ```
pub fn simulate(nl: &Netlist, inputs: &[Lv]) -> Result<SimResult, LogicError> {
    let order = nl.levelize()?;
    simulate_with_order(nl, &order, inputs)
}

/// Simulates using a precomputed topological order (avoids re-levelizing in
/// inner loops such as fault simulation).
///
/// # Errors
///
/// [`LogicError::InputCountMismatch`] on a wrong-length vector.
pub fn simulate_with_order(
    nl: &Netlist,
    order: &[crate::netlist::GateId],
    inputs: &[Lv],
) -> Result<SimResult, LogicError> {
    if inputs.len() != nl.inputs().len() {
        return Err(LogicError::InputCountMismatch {
            expected: nl.inputs().len(),
            found: inputs.len(),
        });
    }
    let mut values = vec![Lv::X; nl.num_nets()];
    for (i, &n) in nl.inputs().iter().enumerate() {
        values[n.index()] = inputs[i];
    }
    let mut scratch = Vec::new();
    for &g in order {
        let gate = nl.gate(g);
        scratch.clear();
        scratch.extend(gate.inputs.iter().map(|n| values[n.index()]));
        values[gate.output.index()] = gate.kind.eval(&scratch);
    }
    Ok(SimResult { values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GateKind;

    fn mux() -> (Netlist, NetId) {
        // y = s ? b : a  built from NAND gates.
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let s = nl.add_input("s");
        let sn = nl.add_gate(GateKind::Inv, "sn", &[s]).unwrap();
        let t1 = nl.add_gate(GateKind::Nand, "t1", &[a, sn]).unwrap();
        let t2 = nl.add_gate(GateKind::Nand, "t2", &[b, s]).unwrap();
        let y = nl.add_gate(GateKind::Nand, "y", &[t1, t2]).unwrap();
        nl.mark_output(y);
        (nl, y)
    }

    #[test]
    fn mux_selects() {
        use Lv::*;
        let (nl, y) = mux();
        assert_eq!(simulate(&nl, &[One, Zero, Zero]).unwrap().value(y), One);
        assert_eq!(simulate(&nl, &[One, Zero, One]).unwrap().value(y), Zero);
        assert_eq!(simulate(&nl, &[Zero, One, One]).unwrap().value(y), One);
    }

    #[test]
    fn x_propagates_conservatively() {
        use Lv::*;
        let (nl, y) = mux();
        // Select unknown, but both data inputs equal: output may still be X
        // with naive 3-valued simulation (known pessimism).
        let r = simulate(&nl, &[One, One, X]).unwrap();
        assert!(matches!(r.value(y), One | X));
        // Select unknown with differing data: must be X.
        assert_eq!(simulate(&nl, &[One, Zero, X]).unwrap().value(y), X);
    }

    #[test]
    fn input_count_checked() {
        let (nl, _) = mux();
        assert!(matches!(
            simulate(&nl, &[Lv::One]),
            Err(LogicError::InputCountMismatch { .. })
        ));
    }
}
