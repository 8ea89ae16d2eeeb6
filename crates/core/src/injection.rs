//! Splicing the diode-resistor OBD network into an analog circuit.

use obd_spice::devices::{Device, Diode, DiodeParams, MosPolarity, Resistor};
use obd_spice::{Circuit, DeviceId};

use crate::stage::{ObdParams, R_SUBSTRATE};
use crate::ObdError;

/// Handles to the four elements of one injected OBD network, so the
/// progression parameters can be swept in place between simulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObdInstance {
    /// Gate → breakdown-point resistor.
    pub(crate) r_bd: DeviceId,
    /// Breakdown-point ↔ source junction.
    pub(crate) d_source: DeviceId,
    /// Breakdown-point ↔ drain junction.
    pub(crate) d_drain: DeviceId,
    /// Breakdown-point → substrate resistor (fixed, high).
    pub(crate) r_sub: DeviceId,
}

/// Injects the Fig. 3b breakdown network at the given MOSFET.
///
/// For an NMOS the breakdown point sits in the p-bulk, so the junctions
/// conduct from the breakdown point (anode) into the n+ source/drain
/// (cathodes). For a PMOS the orientation mirrors: n-bulk breakdown point
/// is the cathode, p+ source/drain are the anodes.
///
/// # Errors
///
/// [`ObdError::NotAMosfet`] if `device` is not a MOSFET.
///
/// # Example
///
/// ```rust
/// use obd_core::{inject_obd, BreakdownStage, Polarity};
/// use obd_spice::{Circuit, devices::{Mosfet, MosPolarity, MosParams}};
///
/// # fn main() -> Result<(), obd_core::ObdError> {
/// let mut ckt = Circuit::new();
/// let d = ckt.node("d");
/// let g = ckt.node("g");
/// let m = ckt.add_mosfet(Mosfet::new(
///     "M1", MosPolarity::Nmos, d, g, Circuit::GROUND, Circuit::GROUND,
///     MosParams { vt0: 0.5, kp: 1e-4, lambda: 0.0, gamma: 0.0, phi: 0.7,
///                 w: 1e-6, l: 0.35e-6 },
/// ));
/// let params = BreakdownStage::Mbd1.params(Polarity::Nmos)?;
/// let before = ckt.num_devices();
/// inject_obd(&mut ckt, m, params, "bd")?;
/// assert_eq!(ckt.num_devices(), before + 4); // Rbd, both junctions, Rsub
/// # Ok(())
/// # }
/// ```
pub fn inject_obd(
    ckt: &mut Circuit,
    device: DeviceId,
    params: ObdParams,
    label: &str,
) -> Result<ObdInstance, ObdError> {
    let (gate, drain, source, bulk, polarity) = match ckt.device(device) {
        Device::Mosfet(m) => (m.gate, m.drain, m.source, m.bulk, m.polarity),
        other => {
            return Err(ObdError::NotAMosfet {
                device: other.name().to_string(),
            })
        }
    };
    let x = ckt.node(&format!("obd_{label}_x"));
    let r_bd = ckt.add_resistor(Resistor::new(
        &format!("Robd_{label}"),
        gate,
        x,
        params.r_bd.max(1e-3),
    ));
    let dp = DiodeParams::new(params.isat);
    let (d_source, d_drain) = match polarity {
        MosPolarity::Nmos => (
            ckt.add_diode(Diode::new(&format!("Dobds_{label}"), x, source, dp)),
            ckt.add_diode(Diode::new(&format!("Dobdd_{label}"), x, drain, dp)),
        ),
        MosPolarity::Pmos => (
            ckt.add_diode(Diode::new(&format!("Dobds_{label}"), source, x, dp)),
            ckt.add_diode(Diode::new(&format!("Dobdd_{label}"), drain, x, dp)),
        ),
    };
    let r_sub = ckt.add_resistor(Resistor::new(
        &format!("Robdsub_{label}"),
        x,
        bulk,
        R_SUBSTRATE,
    ));
    Ok(ObdInstance {
        r_bd,
        d_source,
        d_drain,
        r_sub,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultmodel::Polarity;
    use crate::BreakdownStage;
    use obd_spice::analysis::op::operating_point;
    use obd_spice::devices::{Capacitor, MosParams, Mosfet, SourceWave, Vsource};
    use obd_spice::SimOptions;

    fn nmos_inverter_with_defect(stage: BreakdownStage) -> (Circuit, obd_spice::NodeId, f64) {
        // Resistively driven inverter-like structure: VIN -> Rdrive -> gate
        // of NMOS with resistive pull-up load; OBD at the NMOS.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("vin");
        let g = ckt.node("g");
        let out = ckt.node("out");
        ckt.add_vsource(Vsource::new(
            "VDD",
            vdd,
            Circuit::GROUND,
            SourceWave::dc(3.3),
        ));
        ckt.add_vsource(Vsource::new(
            "VIN",
            vin,
            Circuit::GROUND,
            SourceWave::dc(3.3),
        ));
        ckt.add_resistor(Resistor::new("Rdrive", vin, g, 5e3));
        ckt.add_resistor(Resistor::new("RL", vdd, out, 20e3));
        ckt.add_capacitor(Capacitor::new("Cg", g, Circuit::GROUND, 2e-15));
        let m = ckt.add_mosfet(Mosfet::new(
            "M1",
            MosPolarity::Nmos,
            out,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosParams {
                vt0: 0.5,
                kp: 120e-6,
                lambda: 0.05,
                gamma: 0.0,
                phi: 0.7,
                w: 2e-6,
                l: 0.35e-6,
            },
        ));
        if stage != BreakdownStage::FaultFree {
            let p = stage.params(Polarity::Nmos).unwrap();
            inject_obd(&mut ckt, m, p, "t").unwrap();
        }
        (ckt, g, 3.3)
    }

    #[test]
    fn injection_adds_four_devices() {
        let (ckt_ff, ..) = nmos_inverter_with_defect(BreakdownStage::FaultFree);
        let (ckt_bd, ..) = nmos_inverter_with_defect(BreakdownStage::Mbd1);
        assert_eq!(ckt_bd.num_devices(), ckt_ff.num_devices() + 4);
    }

    #[test]
    fn injection_rejects_non_mosfet() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let r = ckt.add_resistor(Resistor::new("R1", a, Circuit::GROUND, 1.0));
        let p = BreakdownStage::Mbd1.params(Polarity::Nmos).unwrap();
        assert!(matches!(
            inject_obd(&mut ckt, r, p, "x"),
            Err(ObdError::NotAMosfet { .. })
        ));
    }

    /// The defining static effect: breakdown leaks current from the gate,
    /// dragging the (resistively driven) gate voltage down as the defect
    /// progresses.
    #[test]
    fn gate_voltage_degrades_with_progression() {
        let opts = SimOptions::new();
        let mut last_vg = f64::INFINITY;
        for stage in [
            BreakdownStage::FaultFree,
            BreakdownStage::Mbd1,
            BreakdownStage::Mbd2,
            BreakdownStage::Mbd3,
            BreakdownStage::Hbd,
        ] {
            let (ckt, g, _) = nmos_inverter_with_defect(stage);
            let op = operating_point(&ckt, &opts).unwrap();
            let vg = op.voltage(g);
            assert!(
                vg < last_vg + 1e-9,
                "{stage}: vg = {vg} should not exceed previous {last_vg}"
            );
            last_vg = vg;
        }
        // At HBD the gate is clamped near a junction drop above ground.
        assert!(last_vg < 2.0, "HBD gate voltage {last_vg} should collapse");
    }
}
