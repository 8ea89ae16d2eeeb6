//! Dense linear algebra kernel for modified nodal analysis (MNA).
//!
//! Circuit matrices arising from the OBD reproduction suite are small
//! (tens of nodes) but can be very badly scaled: a hard-breakdown path has a
//! resistance of 0.05 Ω sitting next to 100 kΩ substrate resistors and
//! pico-farad capacitor companions. This crate therefore provides an LU
//! factorization with partial pivoting plus iterative refinement, which is
//! robust at these condition numbers.
//!
//! The matrices are also sparse: the Fig. 8 sum circuit's system, about 48
//! unknowns, holds about 184 nonzeros, 8 % of its entries. Storage stays
//! dense, but a reused [`LuWorkspace`] records the pivot order and fill
//! pattern of its dense factorizations and replays them on later matrices.
//! The replay touches only the entries that can be nonzero and gives the
//! dense kernel's bits. A matrix that breaks the record runs the dense
//! kernel again.
//!
//! # Example
//!
//! ```rust
//! use obd_linalg::{Matrix, solve};
//!
//! # fn main() -> Result<(), obd_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let x = solve(&a, &[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

// Library code must surface failures as typed errors, never panic;
// tests keep the ergonomic forms.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod error;
mod lu;
mod matrix;

pub use error::LinalgError;
pub use lu::{solve, solve_refined, Lu, LuWorkspace};
pub use matrix::Matrix;
