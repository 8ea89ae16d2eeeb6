use crate::circuit::NodeId;
use crate::devices::{DeviceState, EvalCtx};
use crate::stamp::Stamp;

/// MOSFET channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

impl MosPolarity {
    /// +1 for NMOS, −1 for PMOS; all terminal voltages are multiplied by
    /// this to evaluate the device in a common N-channel frame.
    pub(crate) fn sign(self) -> f64 {
        match self {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        }
    }
}

/// Level-1 (Shichman–Hodges) model parameters.
///
/// `vt0` is the threshold magnitude in the device's forward convention and
/// is positive for both polarities (a PMOS with `vt0 = 0.5` has
/// V<sub>tp</sub> = −0.5 V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Zero-bias threshold voltage magnitude (V).
    pub vt0: f64,
    /// Transconductance parameter KP = µ·Cox (A/V²).
    pub kp: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Body-effect coefficient (√V); 0 disables the body effect.
    pub gamma: f64,
    /// Surface potential 2φ_F (V).
    pub phi: f64,
    /// Channel width (m).
    pub w: f64,
    /// Channel length (m).
    pub l: f64,
}

impl MosParams {
    /// β = KP·W/L.
    pub(crate) fn beta(&self) -> f64 {
        self.kp * self.w / self.l
    }
}

/// A four-terminal Level-1 MOSFET.
///
/// The model is quasi-static (DC current only); gate/junction capacitances
/// are attached as explicit [`Capacitor`](crate::devices::Capacitor)
/// devices by the cell-synthesis layer, which keeps the dynamics visible in
/// the netlist — the same structure the paper's Fig. 3b model uses for the
/// breakdown network.
#[derive(Debug, Clone, PartialEq)]
pub struct Mosfet {
    /// Instance name.
    pub(crate) name: String,
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Drain.
    pub drain: NodeId,
    /// Gate.
    pub gate: NodeId,
    /// Source.
    pub source: NodeId,
    /// Bulk.
    pub bulk: NodeId,
    /// Model parameters.
    pub(crate) params: MosParams,
}

/// Result of evaluating the Level-1 equations in the common N frame.
#[derive(Debug, Clone, Copy)]
struct MosEval {
    id: f64,
    gm: f64,
    gds: f64,
    gmbs: f64,
}

impl Mosfet {
    /// Creates a MOSFET.
    pub fn new(
        name: &str,
        polarity: MosPolarity,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        bulk: NodeId,
        params: MosParams,
    ) -> Self {
        Mosfet {
            name: name.to_string(),
            polarity,
            drain,
            gate,
            source,
            bulk,
            params,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        let p = &self.params;
        if !(p.kp.is_finite() && p.kp > 0.0) {
            return Err(format!("kp must be positive, got {}", p.kp));
        }
        if !(p.w > 0.0 && p.l > 0.0) {
            return Err(format!("w and l must be positive, got {} and {}", p.w, p.l));
        }
        if p.lambda < 0.0 {
            return Err(format!("lambda must be nonnegative, got {}", p.lambda));
        }
        if p.gamma != 0.0 && p.phi <= 0.0 {
            return Err("phi must be positive when gamma is nonzero".into());
        }
        Ok(())
    }

    /// Threshold voltage including body effect, in the N frame.
    fn vth(&self, vbs: f64) -> f64 {
        let p = &self.params;
        if p.gamma == 0.0 {
            return p.vt0;
        }
        // Clamp the square-root argument for forward body bias.
        let arg = (p.phi - vbs).max(1e-3);
        p.vt0 + p.gamma * (arg.sqrt() - p.phi.sqrt())
    }

    /// Level-1 equations for `vds ≥ 0` in the N frame.
    fn eval_forward(&self, vgs: f64, vds: f64, vbs: f64) -> MosEval {
        debug_assert!(vds >= 0.0);
        let p = &self.params;
        let beta = p.beta();
        let vth = self.vth(vbs);
        let vov = vgs - vth;
        if vov <= 0.0 {
            return MosEval {
                id: 0.0,
                gm: 0.0,
                gds: 0.0,
                gmbs: 0.0,
            };
        }
        let clm = 1.0 + p.lambda * vds;
        let dvth_dvbs = if p.gamma == 0.0 {
            0.0
        } else {
            -p.gamma / (2.0 * (p.phi - vbs).max(1e-3).sqrt())
        };
        if vds >= vov {
            // Saturation.
            let id = 0.5 * beta * vov * vov * clm;
            let gm = beta * vov * clm;
            let gds = 0.5 * beta * vov * vov * p.lambda;
            MosEval {
                id,
                gm,
                gds,
                gmbs: -gm * dvth_dvbs,
            }
        } else {
            // Linear / triode.
            let core = vov * vds - 0.5 * vds * vds;
            let id = beta * core * clm;
            let gm = beta * vds * clm;
            let gds = beta * (vov - vds) * clm + beta * core * p.lambda;
            MosEval {
                id,
                gm,
                gds,
                gmbs: -gm * dvth_dvbs,
            }
        }
    }

    /// Drain current (out of the drain terminal, into the channel, toward
    /// the source) at the given real-space terminal voltages. Positive for
    /// a conducting NMOS with `v_ds > 0`.
    #[cfg(test)]
    pub(crate) fn drain_current(&self, vd: f64, vg: f64, vs: f64, vb: f64) -> f64 {
        let s = self.polarity.sign();
        let (vdt, vgt, vst, vbt) = (s * vd, s * vg, s * vs, s * vb);
        if vdt >= vst {
            let e = self.eval_forward(vgt - vst, vdt - vst, vbt - vst);
            s * e.id
        } else {
            // Source and drain exchange roles.
            let e = self.eval_forward(vgt - vdt, vst - vdt, vbt - vdt);
            -s * e.id
        }
    }

    pub(crate) fn stamp(&self, st: &mut Stamp, x: &[f64], ctx: &EvalCtx, _state: &mut DeviceState) {
        let s = self.polarity.sign();
        let vd = st.voltage(x, self.drain);
        let vg = st.voltage(x, self.gate);
        let vsx = st.voltage(x, self.source);
        let vb = st.voltage(x, self.bulk);
        let (vdt, vgt, vst, vbt) = (s * vd, s * vg, s * vsx, s * vb);

        // Choose the terminal acting as the source in the N frame.
        let (nd, ns, vds_t, vgs_t, vbs_t) = if vdt >= vst {
            (self.drain, self.source, vdt - vst, vgt - vst, vbt - vst)
        } else {
            (self.source, self.drain, vst - vdt, vgt - vdt, vbt - vdt)
        };
        let e = self.eval_forward(vgs_t, vds_t, vbs_t);

        // Real-space current nd -> ns and its derivatives w.r.t. real node
        // voltages (sign factors cancel for the conductances).
        let i_real = s * e.id;
        let (gm, gds, gmbs) = (e.gm, e.gds, e.gmbs);
        let gsum = gm + gds + gmbs;

        st.add_entry(nd, self.gate, gm);
        st.add_entry(nd, nd, gds);
        st.add_entry(nd, self.bulk, gmbs);
        st.add_entry(nd, ns, -gsum);
        st.add_entry(ns, self.gate, -gm);
        st.add_entry(ns, nd, -gds);
        st.add_entry(ns, self.bulk, -gmbs);
        st.add_entry(ns, ns, gsum);

        let v_nd = st.voltage(x, nd);
        let v_ns = st.voltage(x, ns);
        let ieq = i_real - (gm * vg + gds * v_nd + gmbs * vb - gsum * v_ns);
        st.add_current(nd, ns, ieq);

        // Weak channel conductance keeps cutoff devices nonsingular.
        st.add_conductance(self.drain, self.source, ctx.gmin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> Mosfet {
        let mut c = crate::Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        Mosfet::new(
            "M1",
            MosPolarity::Nmos,
            d,
            g,
            crate::Circuit::GROUND,
            crate::Circuit::GROUND,
            MosParams {
                vt0: 0.5,
                kp: 100e-6,
                lambda: 0.02,
                gamma: 0.0,
                phi: 0.7,
                w: 2e-6,
                l: 0.5e-6,
            },
        )
    }

    fn pmos() -> Mosfet {
        let mut m = nmos();
        m.polarity = MosPolarity::Pmos;
        m
    }

    #[test]
    fn cutoff_below_threshold() {
        let m = nmos();
        assert_eq!(m.drain_current(3.3, 0.3, 0.0, 0.0), 0.0);
    }

    #[test]
    fn saturation_current_matches_square_law() {
        let m = nmos();
        let id = m.drain_current(3.3, 1.5, 0.0, 0.0);
        let beta = 100e-6 * 4.0;
        let expect = 0.5 * beta * 1.0 * 1.0 * (1.0 + 0.02 * 3.3);
        assert!((id - expect).abs() < 1e-12, "{id} vs {expect}");
    }

    #[test]
    fn linear_region_current() {
        let m = nmos();
        let id = m.drain_current(0.1, 3.3, 0.0, 0.0);
        let beta = 100e-6 * 4.0;
        let vov = 3.3 - 0.5;
        let expect = beta * (vov * 0.1 - 0.005) * (1.0 + 0.02 * 0.1);
        assert!((id - expect).abs() < 1e-12);
    }

    #[test]
    fn symmetric_under_drain_source_swap() {
        let m = nmos();
        let forward = m.drain_current(0.2, 3.3, 0.0, 0.0);
        let reversed = m.drain_current(0.0, 3.3, 0.2, 0.0);
        assert!((forward + reversed).abs() < 1e-15);
    }

    #[test]
    fn pmos_mirror_of_nmos() {
        let n = nmos();
        let p = pmos();
        // PMOS with source at 3.3, gate at 0, drain at 0.3 conducts like an
        // NMOS with source 0, gate 3.3, drain 3.0 (all voltages mirrored
        // around the rails): currents are equal and opposite in sign.
        let i_n = n.drain_current(3.0, 3.3, 0.0, 0.0);
        let i_p = p.drain_current(0.3, 0.0, 3.3, 3.3);
        assert!((i_n + i_p).abs() < 1e-12, "{i_n} vs {i_p}");
        assert!(i_p < 0.0, "pmos current flows source->drain");
    }

    #[test]
    fn body_effect_raises_threshold() {
        let mut m = nmos();
        m.params.gamma = 0.4;
        // Reverse body bias (vbs < 0) raises vth, reducing current.
        let id_nobias = m.drain_current(3.3, 1.0, 0.0, 0.0);
        let id_bias = {
            // vb at -1V.
            m.drain_current(3.3, 1.0, 0.0, -1.0)
        };
        assert!(id_bias < id_nobias);
    }

    #[test]
    fn gm_matches_numeric_derivative() {
        let m = nmos();
        let e1 = m.eval_forward(1.2, 2.0, 0.0);
        let dv = 1e-7;
        let e2 = m.eval_forward(1.2 + dv, 2.0, 0.0);
        let numeric = (e2.id - e1.id) / dv;
        assert!((e1.gm - numeric).abs() < 1e-4 * numeric.abs());
    }

    #[test]
    fn gds_matches_numeric_derivative_in_both_regions() {
        let m = nmos();
        for vds in [0.2, 2.5] {
            let e1 = m.eval_forward(1.2, vds, 0.0);
            let dv = 1e-7;
            let e2 = m.eval_forward(1.2, vds + dv, 0.0);
            let numeric = (e2.id - e1.id) / dv;
            assert!(
                (e1.gds - numeric).abs() < 1e-3 * numeric.abs().max(1e-9),
                "vds={vds}: {} vs {numeric}",
                e1.gds
            );
        }
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut m = nmos();
        m.params.w = 0.0;
        assert!(m.validate().is_err());
    }
}
