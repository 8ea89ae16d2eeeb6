//! Technology parameters.
//!
//! [`TechParams::date05`] is a Level-1 parameter set for a 3.3 V,
//! 0.35 µm-class process, hand-calibrated so that the fault-free NAND2 in
//! the paper's Fig. 5 characterization bench lands near the Table 1
//! baseline (≈ 96 ps fall, ≈ 110 ps rise at the 50 % points). Absolute
//! delays only anchor the comparison; every claim in the paper rests on
//! relative changes as the OBD parameters progress.

use obd_spice::devices::{MosParams, MosPolarity, Mosfet};
use obd_spice::NodeId;

/// Process + sizing + parasitic parameters used when expanding cells.
#[derive(Debug, Clone, PartialEq)]
pub struct TechParams {
    /// Supply voltage (V).
    pub vdd: f64,
    /// NMOS threshold magnitude (V).
    pub nmos_vt0: f64,
    /// NMOS transconductance KP (A/V²).
    pub nmos_kp: f64,
    /// PMOS threshold magnitude (V).
    pub pmos_vt0: f64,
    /// PMOS transconductance KP (A/V²).
    pub pmos_kp: f64,
    /// Channel-length modulation (1/V), both polarities.
    pub lambda: f64,
    /// Drawn channel length (m).
    pub length: f64,
    /// NMOS width (m).
    pub nmos_w: f64,
    /// PMOS width (m).
    pub pmos_w: f64,
    /// Lumped gate capacitance per transistor gate terminal (F).
    pub c_gate: f64,
    /// Lumped junction capacitance per source/drain terminal (F).
    pub c_junction: f64,
    /// Extra wire load on every gate output (F).
    pub c_wire: f64,
}

impl TechParams {
    /// The calibrated 3.3 V preset used throughout the reproduction.
    ///
    /// Calibrated against the Fig. 5 bench: fault-free NAND2 ≈ 102 ps fall
    /// / 123 ps rise (paper: 96 ps / 110 ps); the NMOS OBD ladder is
    /// monotone and goes stuck at HBD; the PMOS MBD2 row lands at ≈ 720 ps
    /// (paper: 736 ps) and stays input-specific.
    pub fn date05() -> Self {
        TechParams {
            vdd: 3.3,
            nmos_vt0: 0.70,
            nmos_kp: 120e-6,
            pmos_vt0: 0.80,
            pmos_kp: 40e-6,
            lambda: 0.05,
            length: 0.35e-6,
            nmos_w: 0.6e-6,
            pmos_w: 0.6e-6,
            c_gate: 2.0e-15,
            c_junction: 1.2e-15,
            c_wire: 5.0e-15,
        }
    }

    /// Level-1 parameter block for an NMOS of this technology.
    pub(crate) fn nmos_params(&self) -> MosParams {
        MosParams {
            vt0: self.nmos_vt0,
            kp: self.nmos_kp,
            lambda: self.lambda,
            gamma: 0.0,
            phi: 0.7,
            w: self.nmos_w,
            l: self.length,
        }
    }

    /// Level-1 parameter block for a PMOS of this technology.
    pub(crate) fn pmos_params(&self) -> MosParams {
        MosParams {
            vt0: self.pmos_vt0,
            kp: self.pmos_kp,
            lambda: self.lambda,
            gamma: 0.0,
            phi: 0.7,
            w: self.pmos_w,
            l: self.length,
        }
    }

    /// Builds a transistor of the given polarity with this technology's
    /// parameters.
    pub(crate) fn mosfet(
        &self,
        name: &str,
        polarity: MosPolarity,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        bulk: NodeId,
    ) -> Mosfet {
        let params = match polarity {
            MosPolarity::Nmos => self.nmos_params(),
            MosPolarity::Pmos => self.pmos_params(),
        };
        Mosfet::new(name, polarity, drain, gate, source, bulk, params)
    }

    /// Half-supply level used for 50 % delay measurements.
    pub fn half_vdd(&self) -> f64 {
        0.5 * self.vdd
    }
}

impl Default for TechParams {
    fn default() -> Self {
        TechParams::date05()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_is_sane() {
        let t = TechParams::date05();
        assert!(t.vdd > 3.0 && t.vdd < 3.6);
        assert!(t.nmos_kp > t.pmos_kp, "electron mobility advantage");
        assert!(t.c_gate > 0.0 && t.c_junction > 0.0);
        assert_eq!(t.half_vdd(), t.vdd / 2.0);
        assert_eq!(TechParams::default(), t);
    }

    #[test]
    fn mos_params_use_widths() {
        let t = TechParams::date05();
        assert_eq!(t.nmos_params().w, t.nmos_w);
        assert_eq!(t.pmos_params().w, t.pmos_w);
        assert_eq!(t.nmos_params().vt0, t.nmos_vt0);
    }
}
