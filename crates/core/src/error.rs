use std::error::Error;
use std::fmt;

use obd_cmos::CmosError;
use obd_logic::LogicError;
use obd_spice::SpiceError;

use crate::faultmodel::Polarity;
use crate::stage::BreakdownStage;

/// Errors from OBD modeling, injection and characterization.
#[derive(Debug, Clone, PartialEq)]
pub enum ObdError {
    /// The referenced device is not a MOSFET.
    NotAMosfet {
        /// The device's instance name.
        device: String,
    },
    /// The stage has no parameters for this polarity (the paper's PMOS
    /// table ends at MBD3 with "N/A" for HBD).
    StageUnavailable {
        /// Requested stage.
        stage: BreakdownStage,
        /// Polarity of the device.
        polarity: Polarity,
    },
    /// The fault site does not exist in the netlist (bad gate/pin).
    BadSite(String),
    /// A measurement produced a non-physical value (NaN or negative
    /// delay); raised by the measurement guards instead of tabulating
    /// garbage.
    CorruptMeasurement(String),
    /// Underlying analog simulation failed.
    Spice(String),
    /// Underlying logic-level operation failed.
    Logic(String),
    /// Underlying cell expansion failed.
    Cmos(String),
}

impl fmt::Display for ObdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObdError::NotAMosfet { device } => write!(f, "device '{device}' is not a MOSFET"),
            ObdError::StageUnavailable { stage, polarity } => {
                write!(f, "no {polarity} parameters for stage {stage}")
            }
            ObdError::BadSite(s) => write!(f, "bad fault site: {s}"),
            ObdError::CorruptMeasurement(s) => write!(f, "corrupt measurement: {s}"),
            ObdError::Spice(s) => write!(f, "analog simulation: {s}"),
            ObdError::Logic(s) => write!(f, "logic netlist: {s}"),
            ObdError::Cmos(s) => write!(f, "cell expansion: {s}"),
        }
    }
}

impl Error for ObdError {}

impl From<SpiceError> for ObdError {
    fn from(e: SpiceError) -> Self {
        ObdError::Spice(e.to_string())
    }
}

impl From<LogicError> for ObdError {
    fn from(e: LogicError) -> Self {
        ObdError::Logic(e.to_string())
    }
}

impl From<CmosError> for ObdError {
    fn from(e: CmosError) -> Self {
        ObdError::Cmos(e.to_string())
    }
}
