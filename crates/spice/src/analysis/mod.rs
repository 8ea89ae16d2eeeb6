//! Analyses: DC operating point, DC sweep and transient.

pub mod dc;
pub mod op;
pub mod tran;

pub use dc::{dc_sweep, DcSweep, SweepResult};
pub use op::{operating_point, OpResult};
pub use tran::{transient, transient_until, transient_with_options, TranParams};
