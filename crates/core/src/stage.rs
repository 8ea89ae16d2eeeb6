//! Breakdown stages and the Table 1 parameter ladders.

use std::fmt;

use crate::faultmodel::Polarity;
use crate::ObdError;

/// The electrical parameters of the diode-resistor OBD model at one point
/// of its progression: the junction saturation current and the breakdown
/// path resistance (Fig. 3b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObdParams {
    /// Diode saturation current (A) of the X→source and X→drain
    /// junctions.
    pub isat: f64,
    /// Gate-to-breakdown-point resistance (Ω).
    pub r_bd: f64,
}

impl ObdParams {
    /// Creates a parameter point.
    pub fn new(isat: f64, r_bd: f64) -> Self {
        ObdParams { isat, r_bd }
    }
}

/// Fixed substrate resistance of the model: "we assume that the substrate
/// connection is farther away, resulting in a high resistance" (§3.2).
pub const R_SUBSTRATE: f64 = 100e3;

/// Progression stages of an OBD defect, matching the rows of Table 1.
///
/// `Sbd` (soft breakdown) precedes the table's MBD rows: detectable delay
/// is marginal there, which is precisely the paper's point about the
/// detection window opening only once appreciable leakage flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BreakdownStage {
    /// No defect (the "Fault Free" row).
    FaultFree,
    /// Soft breakdown: first transient conductive paths.
    Sbd,
    /// Medium breakdown, first table row.
    Mbd1,
    /// Medium breakdown, second table row.
    Mbd2,
    /// Medium breakdown, third table row.
    Mbd3,
    /// Hard breakdown: persistent low-resistance path.
    Hbd,
}

impl BreakdownStage {
    /// All stages in progression order.
    pub const ALL: [BreakdownStage; 6] = [
        BreakdownStage::FaultFree,
        BreakdownStage::Sbd,
        BreakdownStage::Mbd1,
        BreakdownStage::Mbd2,
        BreakdownStage::Mbd3,
        BreakdownStage::Hbd,
    ];

    /// The Table 1 rows (medium-breakdown states plus hard breakdown).
    pub const TABLE1: [BreakdownStage; 5] = [
        BreakdownStage::FaultFree,
        BreakdownStage::Mbd1,
        BreakdownStage::Mbd2,
        BreakdownStage::Mbd3,
        BreakdownStage::Hbd,
    ];

    /// Model parameters for this stage and polarity, straight from
    /// Table 1 (with an interpolated SBD point).
    ///
    /// # Errors
    ///
    /// [`ObdError::StageUnavailable`] for PMOS HBD, which the paper marks
    /// N/A — by then the gate has been destroyed.
    pub fn params(self, polarity: Polarity) -> Result<ObdParams, ObdError> {
        use BreakdownStage::*;
        let p = match (polarity, self) {
            // NMOS ladder (Table 1, left half).
            (Polarity::Nmos, FaultFree) => ObdParams::new(1e-30, 10e3),
            (Polarity::Nmos, Sbd) => ObdParams::new(5e-29, 2e3),
            (Polarity::Nmos, Mbd1) => ObdParams::new(2e-28, 500.0),
            (Polarity::Nmos, Mbd2) => ObdParams::new(1e-27, 100.0),
            (Polarity::Nmos, Mbd3) => ObdParams::new(5e-27, 20.0),
            (Polarity::Nmos, Hbd) => ObdParams::new(2e-24, 0.05),
            // PMOS ladder (Table 1, right half).
            (Polarity::Pmos, FaultFree) => ObdParams::new(1e-30, 10e3),
            (Polarity::Pmos, Sbd) => ObdParams::new(5e-30, 3e3),
            (Polarity::Pmos, Mbd1) => ObdParams::new(1e-29, 1e3),
            (Polarity::Pmos, Mbd2) => ObdParams::new(1.1e-29, 900.0),
            (Polarity::Pmos, Mbd3) => ObdParams::new(1.2e-29, 830.0),
            (Polarity::Pmos, Hbd) => {
                return Err(ObdError::StageUnavailable {
                    stage: self,
                    polarity,
                })
            }
        };
        Ok(p)
    }
}

impl fmt::Display for BreakdownStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BreakdownStage::FaultFree => "Fault Free",
            BreakdownStage::Sbd => "SBD",
            BreakdownStage::Mbd1 => "MBD1",
            BreakdownStage::Mbd2 => "MBD2",
            BreakdownStage::Mbd3 => "MBD3",
            BreakdownStage::Hbd => "HBD",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nmos_ladder_is_monotone() {
        // Saturation current rises, resistance falls, stage over stage.
        let mut prev: Option<ObdParams> = None;
        for s in BreakdownStage::ALL {
            let p = s.params(Polarity::Nmos).unwrap();
            if let Some(q) = prev {
                assert!(p.isat > q.isat, "{s}: isat must grow");
                assert!(p.r_bd < q.r_bd, "{s}: r_bd must fall");
            }
            prev = Some(p);
        }
    }

    #[test]
    fn pmos_ladder_matches_table1() {
        let p = BreakdownStage::Mbd2.params(Polarity::Pmos).unwrap();
        assert_eq!(p.isat, 1.1e-29);
        assert_eq!(p.r_bd, 900.0);
    }

    #[test]
    fn pmos_hbd_is_not_available() {
        let err = BreakdownStage::Hbd.params(Polarity::Pmos).unwrap_err();
        assert_eq!(
            err,
            ObdError::StageUnavailable {
                stage: BreakdownStage::Hbd,
                polarity: Polarity::Pmos,
            }
        );
        assert_eq!(err.to_string(), "no PMOS parameters for stage HBD");
    }

    #[test]
    fn stages_are_ordered() {
        assert!(BreakdownStage::Mbd3 >= BreakdownStage::Mbd1);
        assert!(BreakdownStage::Sbd < BreakdownStage::Mbd1);
    }

    #[test]
    fn table1_rows_are_five() {
        assert_eq!(BreakdownStage::TABLE1.len(), 5);
        assert_eq!(BreakdownStage::TABLE1[0], BreakdownStage::FaultFree);
    }
}
