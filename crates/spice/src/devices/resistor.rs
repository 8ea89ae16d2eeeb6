use crate::circuit::NodeId;
use crate::stamp::Stamp;

/// A linear resistor between nodes `a` and `b`.
///
/// # Example
///
/// ```rust
/// use obd_spice::Circuit;
/// use obd_spice::devices::Resistor;
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add_resistor(Resistor::new("Rload", a, Circuit::GROUND, 10e3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Resistor {
    /// Instance name.
    pub(crate) name: String,
    /// First terminal.
    pub(crate) a: NodeId,
    /// Second terminal.
    pub(crate) b: NodeId,
    /// Resistance in ohms; must be positive and finite.
    pub(crate) ohms: f64,
}

impl Resistor {
    /// Creates a resistor.
    pub fn new(name: &str, a: NodeId, b: NodeId, ohms: f64) -> Self {
        Resistor {
            name: name.to_string(),
            a,
            b,
            ohms,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.ohms.is_finite() && self.ohms > 0.0) {
            return Err(format!("resistance must be positive, got {}", self.ohms));
        }
        Ok(())
    }

    pub(crate) fn stamp(&self, st: &mut Stamp) {
        st.add_conductance(self.a, self.b, 1.0 / self.ohms);
    }
}
