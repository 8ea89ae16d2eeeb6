use crate::circuit::NodeId;
use crate::devices::{DeviceState, EvalCtx, Integration};
use crate::stamp::Stamp;

/// A linear capacitor between nodes `a` and `b`.
///
/// In DC analyses the capacitor is an open circuit. In transient analyses it
/// is replaced by its integration companion model (Norton equivalent):
///
/// * backward Euler: `i = (C/h)·(v − v_prev)`
/// * trapezoidal:    `i = (2C/h)·(v − v_prev) − i_prev`
///
/// The previous-step voltage and current live in the solver-owned
/// `DeviceState::tran` slots (`[v_prev, i_prev]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    /// Instance name.
    pub(crate) name: String,
    /// First terminal.
    pub(crate) a: NodeId,
    /// Second terminal.
    pub(crate) b: NodeId,
    /// Capacitance in farads; must be positive and finite.
    pub(crate) farads: f64,
}

impl Capacitor {
    /// Creates a capacitor.
    pub fn new(name: &str, a: NodeId, b: NodeId, farads: f64) -> Self {
        Capacitor {
            name: name.to_string(),
            a,
            b,
            farads,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.farads.is_finite() && self.farads > 0.0) {
            return Err(format!("capacitance must be positive, got {}", self.farads));
        }
        Ok(())
    }

    fn companion(&self, integ: Integration, state: &DeviceState) -> Option<(f64, f64)> {
        let v_prev = state.tran[0];
        let i_prev = state.tran[1];
        match integ {
            Integration::Dc => None,
            Integration::BackwardEuler { h } => {
                let geq = self.farads / h;
                Some((geq, -geq * v_prev))
            }
            Integration::Trapezoidal { h } => {
                let geq = 2.0 * self.farads / h;
                Some((geq, -geq * v_prev - i_prev))
            }
        }
    }

    pub(crate) fn stamp(&self, st: &mut Stamp, _x: &[f64], ctx: &EvalCtx, state: &mut DeviceState) {
        if let Some((geq, ieq)) = self.companion(ctx.integ, state) {
            st.add_conductance(self.a, self.b, geq);
            // i(v) = geq·v + ieq, flowing a -> b.
            st.add_current(self.a, self.b, ieq);
        }
    }

    pub(crate) fn accept_timestep(&self, x: &[f64], ctx: &EvalCtx, state: &mut DeviceState) {
        // Recompute branch voltage from node rows; ground maps to 0.
        let va = node_voltage(x, self.a);
        let vb = node_voltage(x, self.b);
        let v_new = va - vb;
        let i_new = match self.companion(ctx.integ, state) {
            Some((geq, ieq)) => geq * v_new + ieq,
            None => 0.0,
        };
        state.tran[0] = v_new;
        state.tran[1] = i_new;
    }
}

/// Node voltage from the MNA unknown vector (node `k > 0` lives at `k − 1`).
fn node_voltage(x: &[f64], n: NodeId) -> f64 {
    if n.is_ground() {
        0.0
    } else {
        x[n.index() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    #[test]
    fn dc_stamps_nothing() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let cap = Capacitor::new("C1", a, Circuit::GROUND, 1e-12);
        let mut st = Stamp::new(c.num_nodes(), 0);
        let mut state = DeviceState::default();
        let ctx = EvalCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: 1e-12,
            integ: Integration::Dc,
            vt: crate::THERMAL_VOLTAGE,
        };
        cap.stamp(&mut st, &[0.0], &ctx, &mut state);
        assert_eq!(st.a.norm_inf(), 0.0);
    }

    #[test]
    fn backward_euler_companion_matches_formula() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let cap = Capacitor::new("C1", a, Circuit::GROUND, 2e-12);
        let mut st = Stamp::new(c.num_nodes(), 0);
        let mut state = DeviceState::default();
        state.tran[0] = 1.0; // v_prev
        let ctx = EvalCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: 1e-12,
            integ: Integration::BackwardEuler { h: 1e-12 },
            vt: crate::THERMAL_VOLTAGE,
        };
        cap.stamp(&mut st, &[1.0], &ctx, &mut state);
        let geq = 2e-12 / 1e-12;
        assert!((st.a[(0, 0)] - geq).abs() < 1e-15);
        // ieq = -geq * v_prev, stamped as current a->ground: z[a] -= ieq.
        assert!((st.z[0] - geq).abs() < 1e-12);
    }

    #[test]
    fn accept_timestep_records_voltage_and_current() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let cap = Capacitor::new("C1", a, Circuit::GROUND, 1e-12);
        let mut state = DeviceState::default();
        let ctx = EvalCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: 1e-12,
            integ: Integration::Trapezoidal { h: 1e-12 },
            vt: crate::THERMAL_VOLTAGE,
        };
        // From v_prev = 0, i_prev = 0 to v = 1: i = 2C/h * 1 = 2e0 A.
        cap.accept_timestep(&[1.0], &ctx, &mut state);
        assert!((state.tran[0] - 1.0).abs() < 1e-15);
        assert!((state.tran[1] - 2.0).abs() < 1e-12);
    }
}
