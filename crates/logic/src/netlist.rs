//! Combinational gate-level netlists.

use std::collections::HashMap;
use std::fmt;

pub use crate::gate::GateKind;
use crate::LogicError;

/// Handle to a net (signal) in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) usize);

impl NetId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// Handle to a gate instance in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) usize);

impl GateId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gate{}", self.0)
    }
}

/// A gate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Instance name.
    pub name: String,
    /// Gate kind.
    pub kind: GateKind,
    /// Input nets, in pin order.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
}

/// A combinational netlist.
///
/// Nets are created implicitly: each gate's output is a fresh net named
/// after the gate, and primary inputs create their own nets. The structure
/// is append-only, which keeps `GateId`/`NetId` handles stable.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    net_names: Vec<String>,
    net_by_name: HashMap<String, NetId>,
    gates: Vec<Gate>,
    driver: Vec<Option<GateId>>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    fn new_net(&mut self, name: &str) -> NetId {
        debug_assert!(!self.net_by_name.contains_key(name), "duplicate net {name}");
        let id = NetId(self.net_names.len());
        self.net_names.push(name.to_string());
        self.net_by_name.insert(name.to_string(), id);
        self.driver.push(None);
        id
    }

    /// Adds a primary input with the given name and returns its net.
    ///
    /// # Panics
    ///
    /// Panics if a net with the same name already exists.
    pub fn add_input(&mut self, name: &str) -> NetId {
        assert!(
            !self.net_by_name.contains_key(name),
            "net '{name}' already exists"
        );
        let id = self.new_net(name);
        self.inputs.push(id);
        id
    }

    /// Adds a gate driving a fresh net named after the gate instance.
    ///
    /// # Errors
    ///
    /// * [`LogicError::ArityMismatch`] for an illegal input count.
    /// * [`LogicError::MultipleDrivers`] if the name collides with an
    ///   existing net.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        name: &str,
        inputs: &[NetId],
    ) -> Result<NetId, LogicError> {
        if !kind.arity_ok(inputs.len()) {
            return Err(LogicError::ArityMismatch {
                kind: kind.name(),
                expected: kind.arity_description(),
                found: inputs.len(),
            });
        }
        if self.net_by_name.contains_key(name) {
            return Err(LogicError::MultipleDrivers {
                net: name.to_string(),
            });
        }
        let out = self.new_net(name);
        let gid = GateId(self.gates.len());
        self.gates.push(Gate {
            name: name.to_string(),
            kind,
            inputs: inputs.to_vec(),
            output: out,
        });
        self.driver[out.0] = Some(gid);
        Ok(out)
    }

    /// Marks a net as a primary output. Marking twice is idempotent.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// All gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// A gate by id.
    pub fn gate(&self, g: GateId) -> &Gate {
        &self.gates[g.0]
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// Net name.
    pub fn net_name(&self, n: NetId) -> &str {
        &self.net_names[n.0]
    }

    /// Net handle for a raw index (`0..num_nets`).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[cfg(test)]
    pub(crate) fn net(&self, idx: usize) -> NetId {
        assert!(idx < self.num_nets(), "net index {idx} out of range");
        NetId(idx)
    }

    /// Gate handle for a raw index (`0..num_gates`).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn gate_id(&self, idx: usize) -> GateId {
        assert!(idx < self.num_gates(), "gate index {idx} out of range");
        GateId(idx)
    }

    /// Iterates all net handles.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.num_nets()).map(NetId)
    }

    /// Iterates all gate handles.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> {
        (0..self.num_gates()).map(GateId)
    }

    /// Looks up a net by name.
    ///
    /// # Errors
    ///
    /// [`LogicError::NotFound`] if absent.
    pub fn find_net(&self, name: &str) -> Result<NetId, LogicError> {
        self.net_by_name
            .get(name)
            .copied()
            .ok_or_else(|| LogicError::NotFound(format!("net '{name}'")))
    }

    /// The gate driving a net, or `None` for primary inputs.
    pub fn driver(&self, n: NetId) -> Option<GateId> {
        self.driver[n.0]
    }

    /// Whether the net is a primary input.
    pub(crate) fn is_input(&self, n: NetId) -> bool {
        self.inputs.contains(&n)
    }

    /// Gates reading each net: `fanout[net][k] = (gate, pin)`.
    pub fn fanouts(&self) -> Vec<Vec<(GateId, usize)>> {
        let mut fo = vec![Vec::new(); self.num_nets()];
        for (gi, g) in self.gates.iter().enumerate() {
            for (pin, inp) in g.inputs.iter().enumerate() {
                fo[inp.0].push((GateId(gi), pin));
            }
        }
        fo
    }

    /// Gates in topological (input-to-output) order.
    ///
    /// # Errors
    ///
    /// * [`LogicError::Undriven`] for a net that is neither a PI nor a gate
    ///   output.
    /// * [`LogicError::CombinationalCycle`] if the netlist is cyclic.
    pub fn levelize(&self) -> Result<Vec<GateId>, LogicError> {
        // First check every net is driven or a PI.
        for n in 0..self.num_nets() {
            let id = NetId(n);
            if self.driver[n].is_none() && !self.is_input(id) {
                return Err(LogicError::Undriven {
                    net: self.net_names[n].clone(),
                });
            }
        }
        // Kahn's algorithm over gates.
        let mut indeg = vec![0usize; self.gates.len()];
        let fanouts = self.fanouts();
        for (gi, g) in self.gates.iter().enumerate() {
            indeg[gi] = g
                .inputs
                .iter()
                .filter(|n| self.driver[n.0].is_some())
                .count();
        }
        let mut queue: Vec<GateId> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| GateId(i))
            .collect();
        let mut order = Vec::with_capacity(self.gates.len());
        let mut qi = 0;
        while qi < queue.len() {
            let g = queue[qi];
            qi += 1;
            order.push(g);
            let out = self.gates[g.0].output;
            for &(succ, _) in &fanouts[out.0] {
                indeg[succ.0] -= 1;
                if indeg[succ.0] == 0 {
                    queue.push(succ);
                }
            }
        }
        if order.len() != self.gates.len() {
            // Find a gate still with positive in-degree for the report.
            let stuck = indeg
                .iter()
                .position(|&d| d > 0)
                .expect("cycle implies a stuck gate");
            return Err(LogicError::CombinationalCycle {
                net: self.gates[stuck].name.clone(),
            });
        }
        Ok(order)
    }

    /// Logic depth of each net (PIs at 0; a gate output is one more than
    /// its deepest input).
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::levelize`] failures.
    pub(crate) fn depths(&self) -> Result<Vec<usize>, LogicError> {
        let order = self.levelize()?;
        let mut depth = vec![0usize; self.num_nets()];
        for g in order {
            let gate = &self.gates[g.0];
            let d = gate.inputs.iter().map(|n| depth[n.0]).max().unwrap_or(0);
            depth[gate.output.0] = d + 1;
        }
        Ok(depth)
    }

    /// Maximum logic depth over primary outputs.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::levelize`] failures.
    pub fn max_depth(&self) -> Result<usize, LogicError> {
        let depth = self.depths()?;
        Ok(self.outputs.iter().map(|n| depth[n.0]).max().unwrap_or(0))
    }

    /// Counts gates of a given kind.
    pub fn count_kind(&self, kind: GateKind) -> usize {
        self.gates.iter().filter(|g| g.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_or() -> (Netlist, NetId, NetId, NetId, NetId, NetId) {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_gate(GateKind::And, "g1", &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::Or, "g2", &[g1, c]).unwrap();
        nl.mark_output(g2);
        (nl, a, b, c, g1, g2)
    }

    #[test]
    fn construction_and_lookup() {
        let (nl, a, _, _, g1, g2) = and_or();
        assert_eq!(nl.num_gates(), 2);
        assert_eq!(nl.num_nets(), 5);
        assert_eq!(nl.find_net("g1").unwrap(), g1);
        assert!(nl.is_input(a));
        assert!(!nl.is_input(g1));
        assert_eq!(nl.outputs(), &[g2]);
        assert!(nl.driver(g1).is_some());
        assert!(nl.driver(a).is_none());
    }

    #[test]
    fn arity_is_enforced() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        assert!(matches!(
            nl.add_gate(GateKind::Inv, "g", &[a, a]),
            Err(LogicError::ArityMismatch { .. })
        ));
        assert!(matches!(
            nl.add_gate(GateKind::Nand, "g", &[a]),
            Err(LogicError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        nl.add_gate(GateKind::Inv, "g", &[a]).unwrap();
        assert!(matches!(
            nl.add_gate(GateKind::Inv, "g", &[a]),
            Err(LogicError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn levelize_orders_dependencies() {
        let (nl, ..) = and_or();
        let order = nl.levelize().unwrap();
        assert_eq!(order.len(), 2);
        // g1 must come before g2.
        assert!(order[0].index() < order[1].index());
    }

    #[test]
    fn depths_and_max_depth() {
        let (nl, a, _, _, g1, g2) = and_or();
        let d = nl.depths().unwrap();
        assert_eq!(d[a.index()], 0);
        assert_eq!(d[g1.index()], 1);
        assert_eq!(d[g2.index()], 2);
        assert_eq!(nl.max_depth().unwrap(), 2);
    }

    #[test]
    fn fanouts_report_pins() {
        let (nl, a, ..) = and_or();
        let fo = nl.fanouts();
        assert_eq!(fo[a.index()].len(), 1);
        assert_eq!(fo[a.index()][0].1, 0); // pin 0 of g1
    }

    #[test]
    fn count_kind_counts() {
        let (nl, ..) = and_or();
        assert_eq!(nl.count_kind(GateKind::And), 1);
        assert_eq!(nl.count_kind(GateKind::Nand), 0);
    }
}
