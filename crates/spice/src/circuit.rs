//! Circuit representation: nodes, devices and lookup.

use std::collections::HashMap;
use std::fmt;

use crate::devices::{Capacitor, Device, Diode, Isource, Mosfet, Resistor, Vsource};
use crate::SpiceError;

/// A circuit node. `NodeId(0)` is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// Whether this is the ground node.
    pub(crate) fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Handle to a device inside a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub(crate) usize);

/// A flat analog circuit: a set of named nodes plus a device list.
///
/// Nodes are created with [`Circuit::node`]; asking for the same name twice
/// returns the same node, which makes hierarchical netlist emission easy.
///
/// # Example
///
/// ```rust
/// use obd_spice::Circuit;
/// use obd_spice::devices::Resistor;
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// assert_eq!(a, ckt.node("a")); // same name, same node
/// ckt.add_resistor(Resistor::new("R1", a, Circuit::GROUND, 50.0));
/// assert_eq!(ckt.num_nodes(), 2); // ground + a
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    names: Vec<String>,
    by_name: HashMap<String, NodeId>,
    devices: Vec<Device>,
}

impl Circuit {
    /// The ground node, present in every circuit.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut c = Circuit {
            names: vec!["0".to_string()],
            by_name: HashMap::new(),
            devices: Vec::new(),
        };
        c.by_name.insert("0".to_string(), NodeId(0));
        c
    }

    /// Returns the node with the given name, creating it if necessary.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NodeId(self.names.len());
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Creates a fresh anonymous node (named `_anonN`).
    pub fn fresh_node(&mut self) -> NodeId {
        let name = format!("_anon{}", self.names.len());
        self.node(&name)
    }

    /// Total node count including ground.
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// Node handle for a raw index (`0` is ground).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn node_by_index(&self, idx: usize) -> NodeId {
        assert!(idx < self.num_nodes(), "node index {idx} out of range");
        NodeId(idx)
    }

    /// All devices, in insertion order.
    pub(crate) fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Mutable device access, for in-place edits such as swapping the OBD
    /// ladder parameters between breakdown stages.
    pub(crate) fn device_mut(&mut self, id: DeviceId) -> &mut Device {
        &mut self.devices[id.0]
    }

    /// Device access by id.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0]
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Number of independent voltage sources (each adds one MNA branch
    /// current unknown).
    pub(crate) fn num_vsources(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| matches!(d, Device::Vsource(_)))
            .count()
    }

    fn push(&mut self, d: Device) -> DeviceId {
        let id = DeviceId(self.devices.len());
        self.devices.push(d);
        id
    }

    /// Adds a resistor.
    pub fn add_resistor(&mut self, r: Resistor) -> DeviceId {
        self.push(Device::Resistor(r))
    }

    /// Adds a capacitor.
    pub fn add_capacitor(&mut self, c: Capacitor) -> DeviceId {
        self.push(Device::Capacitor(c))
    }

    /// Adds a diode.
    pub fn add_diode(&mut self, d: Diode) -> DeviceId {
        self.push(Device::Diode(d))
    }

    /// Adds an independent voltage source.
    pub fn add_vsource(&mut self, v: Vsource) -> DeviceId {
        self.push(Device::Vsource(v))
    }

    /// Adds an independent current source.
    pub fn add_isource(&mut self, i: Isource) -> DeviceId {
        self.push(Device::Isource(i))
    }

    /// Adds a MOSFET.
    pub fn add_mosfet(&mut self, m: Mosfet) -> DeviceId {
        self.push(Device::Mosfet(m))
    }

    /// Finds a device by its instance name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] if no device has that name.
    pub(crate) fn find_device(&self, name: &str) -> Result<DeviceId, SpiceError> {
        self.devices
            .iter()
            .position(|d| d.name() == name)
            .map(DeviceId)
            .ok_or_else(|| SpiceError::NotFound(format!("device '{name}'")))
    }

    /// Structural sanity checks: every non-ground node must be reachable
    /// from at least two device terminals or be a source terminal, and
    /// element values must be physical.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] describing the first problem
    /// found.
    pub(crate) fn validate(&self) -> Result<(), SpiceError> {
        let mut touch = vec![0usize; self.num_nodes()];
        for d in &self.devices {
            for n in d.terminals() {
                touch[n.0] += 1;
            }
            d.validate()
                .map_err(|m| SpiceError::InvalidCircuit(format!("{}: {m}", d.name())))?;
        }
        for (i, count) in touch.iter().enumerate().skip(1) {
            if *count == 0 {
                return Err(SpiceError::InvalidCircuit(format!(
                    "node '{}' is not connected to any device",
                    self.names[i]
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::SourceWave;

    #[test]
    fn ground_exists() {
        let c = Circuit::new();
        assert_eq!(c.num_nodes(), 1);
        assert!(Circuit::GROUND.is_ground());
    }

    #[test]
    fn node_names_are_idempotent() {
        let mut c = Circuit::new();
        let a = c.node("x");
        let b = c.node("x");
        assert_eq!(a, b);
        assert_eq!(c.num_nodes(), 2);
        assert_ne!(c.fresh_node(), a);
    }

    #[test]
    fn device_lookup_by_name() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let id = c.add_resistor(Resistor::new("R1", a, Circuit::GROUND, 1.0));
        assert_eq!(c.find_device("R1").unwrap(), id);
        assert!(c.find_device("R2").is_err());
    }

    #[test]
    fn vsource_count() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource(Vsource::new("V1", a, Circuit::GROUND, SourceWave::dc(1.0)));
        c.add_resistor(Resistor::new("R1", a, Circuit::GROUND, 1.0));
        assert_eq!(c.num_vsources(), 1);
    }

    #[test]
    fn validate_flags_floating_node() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.node("floating");
        c.add_resistor(Resistor::new("R1", a, Circuit::GROUND, 1.0));
        assert!(matches!(c.validate(), Err(SpiceError::InvalidCircuit(_))));
    }

    #[test]
    fn validate_flags_bad_resistance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor(Resistor::new("R1", a, Circuit::GROUND, -5.0));
        assert!(matches!(c.validate(), Err(SpiceError::InvalidCircuit(_))));
    }
}
