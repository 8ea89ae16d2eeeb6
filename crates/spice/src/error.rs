use std::error::Error;
use std::fmt;

use obd_linalg::LinalgError;

/// Errors produced by circuit construction and simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// Newton iteration failed to converge, even after gmin and source
    /// stepping.
    Convergence {
        /// Which analysis failed, e.g. `"op"`, `"tran"`, `"dc"`.
        analysis: &'static str,
        /// Simulation time (transient) or sweep value (DC) at the failure,
        /// if meaningful.
        at: Option<f64>,
        /// Detail message.
        detail: String,
    },
    /// The MNA matrix was singular — usually a floating node or a loop of
    /// ideal voltage sources.
    Singular {
        /// Description of the likely cause.
        detail: String,
    },
    /// A Newton iterate or linear-solve result contained NaN/Inf. Raised
    /// by the finiteness guards instead of letting garbage propagate into
    /// a "converged" solution.
    NonFinite {
        /// Which analysis detected it, e.g. `"newton"`, `"tran"`.
        analysis: &'static str,
        /// Simulation time at detection, if meaningful.
        at: Option<f64>,
    },
    /// The per-solve iteration budget ran out before the escalation
    /// ladder found a solution. Deliberately not retried: budgets exist to
    /// bound worst-case solve cost.
    BudgetExhausted {
        /// Which analysis hit the budget.
        analysis: &'static str,
        /// Simulation time at exhaustion, if meaningful.
        at: Option<f64>,
        /// Which budget ran out.
        detail: String,
    },
    /// The circuit is structurally invalid (e.g. nonpositive resistance,
    /// unknown node, empty PWL list).
    InvalidCircuit(String),
    /// A requested node or device name does not exist.
    NotFound(String),
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::Convergence {
                analysis,
                at,
                detail,
            } => match at {
                Some(t) => write!(
                    f,
                    "{analysis} analysis failed to converge at {t:.4e}: {detail}"
                ),
                None => write!(f, "{analysis} analysis failed to converge: {detail}"),
            },
            SpiceError::Singular { detail } => write!(f, "singular MNA matrix: {detail}"),
            SpiceError::NonFinite { analysis, at } => match at {
                Some(t) => write!(f, "{analysis} produced a non-finite solution at {t:.4e}"),
                None => write!(f, "{analysis} produced a non-finite solution"),
            },
            SpiceError::BudgetExhausted {
                analysis,
                at,
                detail,
            } => match at {
                Some(t) => write!(f, "{analysis} solve budget exhausted at {t:.4e}: {detail}"),
                None => write!(f, "{analysis} solve budget exhausted: {detail}"),
            },
            SpiceError::InvalidCircuit(msg) => write!(f, "invalid circuit: {msg}"),
            SpiceError::NotFound(what) => write!(f, "not found: {what}"),
        }
    }
}

impl Error for SpiceError {}

impl From<LinalgError> for SpiceError {
    fn from(e: LinalgError) -> Self {
        match e {
            // A NaN/Inf solution is a distinct failure mode from a
            // structurally singular matrix and escalates differently.
            LinalgError::NonFinite => SpiceError::NonFinite {
                analysis: "linalg",
                at: None,
            },
            other => SpiceError::Singular {
                detail: other.to_string(),
            },
        }
    }
}
