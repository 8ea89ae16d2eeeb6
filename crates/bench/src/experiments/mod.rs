//! Experiment implementations, one per paper artifact.

pub mod bist_eval;
pub mod chaos;
pub mod clock_sweep;
pub mod em_contrast;
pub mod excitation;
pub mod fig4;
pub mod fig9;
pub mod fleet;
pub mod iddq;
pub mod metrics_run;
pub mod monte;
pub mod scaling;
pub mod scan_eval;
pub mod stats;
pub mod table1;
pub mod tpg_compare;
pub mod variation;
pub mod waveforms;
pub mod window;
