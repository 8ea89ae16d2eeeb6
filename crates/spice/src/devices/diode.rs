use crate::circuit::NodeId;
use crate::devices::{DeviceState, EvalCtx};
use crate::stamp::Stamp;
use crate::THERMAL_VOLTAGE;

/// Exponent cap for the Shockley equation; `exp(120)` is representable and
/// keeps Jacobian entries finite even for the extreme OBD ladder values
/// (saturation currents down to 1e-30 A).
const MAX_EXP_ARG: f64 = 120.0;

/// Diode model parameters.
///
/// The OBD breakdown path of the paper's Fig. 3b is modeled with exactly
/// this device: the progression from soft to hard breakdown is an increase
/// in `isat` over ~6 orders of magnitude (Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodeParams {
    /// Saturation current in amps, at the nominal temperature (300 K).
    pub(crate) isat: f64,
    /// Emission coefficient (ideality factor).
    pub(crate) n: f64,
    /// Energy gap (eV) for the saturation-current temperature law
    /// (SPICE `EG`, silicon default 1.11).
    pub(crate) eg: f64,
    /// Saturation-current temperature exponent (SPICE `XTI`, default 3).
    pub(crate) xti: f64,
}

impl DiodeParams {
    /// Creates parameters with the given saturation current, an ideality
    /// factor of 1 and silicon temperature defaults.
    pub fn new(isat: f64) -> Self {
        DiodeParams {
            isat,
            n: 1.0,
            eg: 1.11,
            xti: 3.0,
        }
    }

    /// Effective saturation current at the thermal voltage `vt`
    /// (SPICE temperature law):
    /// `IS(T) = IS·(T/Tnom)^(XTI/n)·exp(EG/(n·vt_nom) − EG/(n·vt))`.
    ///
    /// Hotter junctions conduct exponentially more — the physically
    /// dominant effect that makes OBD leakage grow with self-heating.
    pub fn isat_at(&self, vt: f64) -> f64 {
        let vt_nom = THERMAL_VOLTAGE;
        if (vt - vt_nom).abs() < 1e-12 {
            return self.isat;
        }
        let t_ratio = vt / vt_nom; // T / Tnom
        self.isat
            * t_ratio.powf(self.xti / self.n)
            * ((self.eg / (self.n * vt_nom)) - (self.eg / (self.n * vt))).exp()
    }

    /// Thermal voltage scaled by the emission coefficient, for an
    /// arbitrary kT/q.
    pub(crate) fn vte_at(&self, vt: f64) -> f64 {
        self.n * vt
    }

    /// Critical voltage for junction limiting at an arbitrary kT/q.
    pub(crate) fn vcrit_at(&self, vt: f64) -> f64 {
        let vte = self.vte_at(vt);
        vte * (vte / (std::f64::consts::SQRT_2 * self.isat_at(vt))).ln()
    }
}

/// SPICE3 `pnjlim`: limits the per-iteration change of a junction voltage so
/// that Newton cannot overshoot the exponential.
///
/// Returns the limited voltage to evaluate the junction at.
pub(crate) fn pnjlim(v_new: f64, v_old: f64, vte: f64, vcrit: f64) -> f64 {
    if v_new > vcrit && (v_new - v_old).abs() > 2.0 * vte {
        if v_old > 0.0 {
            let arg = 1.0 + (v_new - v_old) / vte;
            if arg > 0.0 {
                v_old + vte * arg.ln()
            } else {
                vcrit
            }
        } else {
            vte * (v_new / vte).ln().max(1.0)
        }
    } else {
        v_new
    }
}

/// A Shockley diode `i = isat·(exp(v/(n·vt)) − 1)` with junction limiting
/// and a parallel `gmin`.
#[derive(Debug, Clone, PartialEq)]
pub struct Diode {
    /// Instance name.
    pub(crate) name: String,
    /// Anode (current flows in here when forward biased).
    pub(crate) anode: NodeId,
    /// Cathode.
    pub(crate) cathode: NodeId,
    /// Model parameters.
    pub(crate) params: DiodeParams,
}

impl Diode {
    /// Creates a diode.
    pub fn new(name: &str, anode: NodeId, cathode: NodeId, params: DiodeParams) -> Self {
        Diode {
            name: name.to_string(),
            anode,
            cathode,
            params,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.params.isat.is_finite() && self.params.isat > 0.0) {
            return Err(format!(
                "diode saturation current must be positive, got {}",
                self.params.isat
            ));
        }
        if !(self.params.n.is_finite() && self.params.n > 0.0) {
            return Err(format!(
                "diode emission coefficient must be positive, got {}",
                self.params.n
            ));
        }
        Ok(())
    }

    /// Evaluates current and conductance at junction voltage `vd` for an
    /// arbitrary thermal voltage kT/q.
    pub(crate) fn eval_at(&self, vd: f64, vt: f64) -> (f64, f64) {
        let vte = self.params.vte_at(vt);
        let isat = self.params.isat_at(vt);
        let arg = vd / vte;
        if arg >= MAX_EXP_ARG {
            // Linear extension beyond the cap keeps i and g consistent.
            let e = MAX_EXP_ARG.exp();
            let i_cap = isat * (e - 1.0);
            let g_cap = isat * e / vte;
            (i_cap + g_cap * (vd - MAX_EXP_ARG * vte), g_cap)
        } else if arg <= -MAX_EXP_ARG {
            (-isat, 0.0)
        } else {
            let e = arg.exp();
            (isat * (e - 1.0), isat * e / vte)
        }
    }

    pub(crate) fn stamp(&self, st: &mut Stamp, x: &[f64], ctx: &EvalCtx, state: &mut DeviceState) {
        let v_raw = st.voltage(x, self.anode) - st.voltage(x, self.cathode);
        let v_old = state.limit[0];
        let vd = pnjlim(
            v_raw,
            v_old,
            self.params.vte_at(ctx.vt),
            self.params.vcrit_at(ctx.vt),
        );
        state.limit[0] = vd;
        let (i0, g0) = self.eval_at(vd, ctx.vt);
        let g = g0 + ctx.gmin;
        let ieq = i0 + ctx.gmin * vd - g * vd;
        st.add_conductance(self.anode, self.cathode, g);
        st.add_current(self.anode, self.cathode, ieq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diode() -> Diode {
        let mut c = crate::Circuit::new();
        let a = c.node("a");
        Diode::new("D1", a, crate::Circuit::GROUND, DiodeParams::new(1e-14))
    }

    #[test]
    fn zero_bias_zero_current() {
        let (i, g) = diode().eval_at(0.0, THERMAL_VOLTAGE);
        assert_eq!(i, 0.0);
        assert!(g > 0.0);
    }

    #[test]
    fn forward_current_matches_shockley() {
        let d = diode();
        let (i, _) = d.eval_at(0.6, THERMAL_VOLTAGE);
        let expect = 1e-14 * ((0.6 / THERMAL_VOLTAGE).exp() - 1.0);
        assert!((i - expect).abs() < 1e-9 * expect);
    }

    #[test]
    fn reverse_current_saturates() {
        let d = diode();
        let (i, _) = d.eval_at(-5.0, THERMAL_VOLTAGE);
        assert!((i + 1e-14).abs() < 1e-20);
    }

    #[test]
    fn extreme_forward_bias_is_finite() {
        let d = diode();
        let (i, g) = d.eval_at(50.0, THERMAL_VOLTAGE);
        assert!(i.is_finite() && g.is_finite());
        // The tiny-isat OBD regime must also be finite at full supply.
        let tiny = Diode::new("D2", d.anode, d.cathode, DiodeParams::new(1e-30));
        let (i2, g2) = tiny.eval_at(3.3, THERMAL_VOLTAGE);
        assert!(i2.is_finite() && g2.is_finite() && i2 > 0.0);
    }

    #[test]
    fn conductance_is_derivative() {
        let d = diode();
        let v = 0.55;
        let dv = 1e-7;
        let (i1, g) = d.eval_at(v, THERMAL_VOLTAGE);
        let (i2, _) = d.eval_at(v + dv, THERMAL_VOLTAGE);
        let numeric = (i2 - i1) / dv;
        assert!((g - numeric).abs() < 1e-3 * numeric.abs());
    }

    #[test]
    fn pnjlim_passes_small_steps() {
        assert_eq!(pnjlim(0.1, 0.09, 0.026, 0.9), 0.1);
    }

    #[test]
    fn pnjlim_limits_large_jumps_above_vcrit() {
        let vte = 0.026;
        let limited = pnjlim(3.3, 0.7, vte, 0.9);
        assert!(limited < 1.0, "limited to ~{limited}");
        assert!(limited > 0.7);
    }

    #[test]
    fn vcrit_grows_as_isat_shrinks() {
        let big = DiodeParams::new(1e-14).vcrit_at(THERMAL_VOLTAGE);
        let small = DiodeParams::new(1e-30).vcrit_at(THERMAL_VOLTAGE);
        assert!(small > big);
        assert!(small > 1.5 && small < 2.2, "vcrit for 1e-30 ≈ {small}");
    }

    /// The classic silicon behavior under the SPICE temperature law: the
    /// forward drop at fixed current falls by roughly 1–2 mV/K.
    #[test]
    fn silicon_forward_drop_falls_with_temperature() {
        let p = DiodeParams::new(1e-14);
        let i_target = 1e-3;
        let vf = |temp_c: f64| -> f64 {
            let vt = crate::thermal_voltage_at(temp_c);
            // Invert the Shockley equation at the effective Isat(T).
            p.vte_at(vt) * (i_target / p.isat_at(vt)).ln()
        };
        let v_cold = vf(-40.0);
        let v_nom = vf(26.85);
        let v_hot = vf(125.0);
        assert!(v_cold > v_nom && v_nom > v_hot, "{v_cold} {v_nom} {v_hot}");
        let slope_mv_per_k = (v_hot - v_nom) / (125.0 - 26.85) * 1e3;
        assert!(
            (-3.0..=-0.5).contains(&slope_mv_per_k),
            "slope {slope_mv_per_k} mV/K out of the physical band"
        );
    }

    #[test]
    fn isat_at_nominal_is_identity() {
        let p = DiodeParams::new(1e-14);
        assert_eq!(p.isat_at(THERMAL_VOLTAGE), 1e-14);
        // Hotter -> larger saturation current, and strongly so.
        let hot = p.isat_at(crate::thermal_voltage_at(125.0));
        assert!(hot > 1e3 * p.isat, "hot isat {hot}");
    }
}
