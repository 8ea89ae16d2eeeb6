//! LU factorization with partial pivoting, plus iterative refinement.

use crate::{LinalgError, Matrix};
use obd_chaos::InjectionPoint;
use obd_metrics::Counter;

/// Chaos: report the matrix singular even though a pivot exists, the
/// failure shape of a floating node or an ideal-source loop.
static CHAOS_SINGULAR: InjectionPoint = InjectionPoint::new("linalg.forced_singular");
/// Chaos: report a non-finite substitution result, the failure shape of
/// an overflowing badly-scaled (ill-conditioned) system.
static CHAOS_NONFINITE: InjectionPoint = InjectionPoint::new("linalg.forced_nonfinite");

/// Total LU factorizations (all entry points: one-shot and workspace).
static LU_FACTORIZATIONS: Counter = Counter::new("linalg.lu_factorizations");
/// Iterative-refinement passes whose residual exceeded the gate.
static REFINEMENT_STEPS: Counter = Counter::new("linalg.refinement_steps");

/// An LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// The factors are stored packed in a single matrix: the strict lower
/// triangle holds `L` (unit diagonal implied) and the upper triangle holds
/// `U`. `perm[i]` records which original row ended up at position `i`.
///
/// # Example
///
/// ```rust
/// use obd_linalg::{Lu, Matrix};
///
/// # fn main() -> Result<(), obd_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?; // needs pivoting
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[2.0, 3.0])?;
/// assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    packed: Matrix,
    perm: Vec<usize>,
    /// Sign of the permutation, used for the determinant.
    perm_sign: f64,
}

/// Pivots smaller than this (relative to the largest entry in the matrix)
/// are treated as exact zeros, i.e. the matrix is reported singular.
const PIVOT_REL_TOL: f64 = 1e-280;

/// Relative residual (against `‖b‖_inf`) above which one step of iterative
/// refinement runs. Newton iterations only need voltages to ~1 µV against
/// volts-scale right-hand sides, so residuals below this threshold cannot
/// move the converged answer; badly scaled MNA systems (milliohm breakdown
/// paths against gigohm leakage) overshoot it by many orders of magnitude
/// and still get refined.
const REFINE_REL_TOL: f64 = 1e-9;

/// Factors `packed` in place (crout-style, partial pivoting), recording
/// row exchanges in `perm`. Returns the permutation sign.
///
/// Shared kernel behind [`Lu::factor`] and [`LuWorkspace::factor_into`].
fn factor_in_place(packed: &mut Matrix, perm: &mut [usize]) -> Result<f64, LinalgError> {
    LU_FACTORIZATIONS.inc();
    let n = packed.rows();
    if CHAOS_SINGULAR.fire() {
        return Err(LinalgError::Singular { column: 0 });
    }
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    let mut perm_sign = 1.0;
    // One fused pass computes the pivot scale (infinity norm) and the
    // finiteness check: a NaN/inf entry makes its row sum non-finite.
    // (An absolute row sum can also overflow to inf from extreme finite
    // entries near 1e308; such a matrix is beyond f64 factorization
    // anyway, so reporting NonFinite for it is fair.)
    let mut scale: f64 = 0.0;
    for r in 0..n {
        let row_sum: f64 = packed.row(r).iter().map(|x| x.abs()).sum();
        if !row_sum.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        scale = scale.max(row_sum);
    }
    let tiny = scale.max(f64::MIN_POSITIVE) * PIVOT_REL_TOL;

    for k in 0..n {
        // Find pivot row.
        let mut pivot_row = k;
        let mut pivot_val = packed[(k, k)].abs();
        for r in (k + 1)..n {
            let v = packed[(r, k)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val <= tiny || !pivot_val.is_finite() {
            return Err(LinalgError::Singular { column: k });
        }
        if pivot_row != k {
            perm.swap(k, pivot_row);
            perm_sign = -perm_sign;
            packed.row_swap(k, pivot_row);
        }
        // Split once per pivot step: everything above row k+1 (read-only,
        // holds the pivot row) and the trailing rows (updated in place).
        // The inner loops then run on plain slices — no per-element index
        // computation or bounds check, which dominates at MNA sizes
        // (n ≈ 10–100) where each row is only a cache line or two.
        let cols = n;
        let data = packed.as_mut_slice();
        let (top, bottom) = data.split_at_mut((k + 1) * cols);
        let pivot_row = &top[k * cols..(k + 1) * cols];
        let pivot = pivot_row[k];
        for row in bottom.chunks_exact_mut(cols) {
            let m = row[k] / pivot;
            row[k] = m;
            if m != 0.0 {
                for (x, &u) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                    *x -= m * u;
                }
            }
        }
    }
    Ok(perm_sign)
}

/// Permutes `b` by `perm` into `x`, then substitutes through the packed
/// factors in place. `x` must already have length `n`.
///
/// Shared kernel behind [`Lu::solve`] and [`LuWorkspace::solve_into`].
// Triangular substitution indexes `x` behind the write cursor, which
// iterator adapters cannot express without a split borrow.
#[allow(clippy::needless_range_loop)]
fn solve_in_place(packed: &Matrix, perm: &[usize], b: &[f64], x: &mut [f64]) {
    let n = perm.len();
    for i in 0..n {
        x[i] = b[perm[i]];
    }
    // Forward substitution with unit lower triangle; rows are walked as
    // slices, keeping the accumulation order of the naive loops.
    for r in 1..n {
        let row = packed.row(r);
        let mut acc = x[r];
        for (&l, &xc) in row[..r].iter().zip(x.iter()) {
            acc -= l * xc;
        }
        x[r] = acc;
    }
    // Back substitution with upper triangle.
    for r in (0..n).rev() {
        let row = packed.row(r);
        let mut acc = x[r];
        for (&u, &xc) in row[r + 1..].iter().zip(x[r + 1..].iter()) {
            acc -= u * xc;
        }
        x[r] = acc / row[r];
    }
}

/// Squareness is checked up front; finiteness is caught by
/// [`factor_in_place`]'s fused norm pass, so no separate O(n²) scan runs.
fn check_square(a: &Matrix) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::DimensionMismatch {
            expected: a.rows(),
            found: a.cols(),
        });
    }
    Ok(())
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::NonFinite`] if `a` contains NaN/inf.
    /// * [`LinalgError::Singular`] if no acceptable pivot exists in some
    ///   column.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        check_square(a)?;
        Lu::factor_owned(a.clone())
    }

    /// Factors a matrix the caller no longer needs, reusing its storage
    /// for the packed factors — no clone.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Lu::factor`].
    pub fn factor_owned(mut a: Matrix) -> Result<Self, LinalgError> {
        check_square(&a)?;
        let n = a.rows();
        let mut perm: Vec<usize> = (0..n).collect();
        let perm_sign = factor_in_place(&mut a, &mut perm)?;
        Ok(Lu {
            packed: a,
            perm,
            perm_sign,
        })
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.packed.rows()
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len()` differs from
    /// the matrix order, and [`LinalgError::NonFinite`] if the solve produces
    /// non-finite values (e.g. overflow from extreme scaling).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.order();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        let mut x = vec![0.0; n];
        solve_in_place(&self.packed, &self.perm, b, &mut x);
        if x.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::NonFinite);
        }
        Ok(x)
    }

    /// Determinant of the original matrix (product of pivots times the
    /// permutation sign).
    pub fn determinant(&self) -> f64 {
        let n = self.order();
        let mut det = self.perm_sign;
        for i in 0..n {
            det *= self.packed[(i, i)];
        }
        det
    }
}

/// One-shot solve of `A·x = b`.
///
/// # Errors
///
/// Propagates factorization and solve errors from [`Lu`].
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), obd_linalg::LinalgError> {
/// let a = obd_linalg::Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]])?;
/// let x = obd_linalg::solve(&a, &[2.0, 8.0])?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Lu::factor(a)?.solve(b)
}

/// Solves `A·x = b` with one step of iterative refinement when the
/// residual demands it, recovering the accuracy lost to the extreme
/// entry-magnitude spread of MNA matrices containing both milliohm
/// breakdown paths and gigohm leakage conductances.
///
/// One-shot convenience over [`LuWorkspace::solve_refined_into`]; repeated
/// solves of same-order systems should hold a workspace instead.
///
/// # Errors
///
/// Propagates factorization and solve errors from [`Lu`].
pub fn solve_refined(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let mut ws = LuWorkspace::new();
    let mut x = Vec::new();
    ws.solve_refined_into(a, b, &mut x)?;
    Ok(x)
}

/// A reusable LU solve workspace: the packed factors, the pivot
/// permutation and the refinement scratch buffers all persist across
/// calls, so repeated same-order solves — the shape of every Newton
/// iteration — allocate nothing.
///
/// # Example
///
/// ```rust
/// use obd_linalg::{LuWorkspace, Matrix};
///
/// # fn main() -> Result<(), obd_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?;
/// let mut ws = LuWorkspace::new();
/// let mut x = Vec::new();
/// ws.solve_refined_into(&a, &[2.0, 3.0], &mut x)?;
/// assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// // Second solve of the same order reuses every buffer.
/// ws.solve_refined_into(&a, &[4.0, 6.0], &mut x)?;
/// assert!((x[0] - 4.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuWorkspace {
    packed: Matrix,
    perm: Vec<usize>,
    perm_sign: f64,
    factored: bool,
    /// Residual / correction scratch for refinement.
    residual: Vec<f64>,
    correction: Vec<f64>,
}

impl Default for LuWorkspace {
    fn default() -> Self {
        LuWorkspace::new()
    }
}

impl LuWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on the first
    /// factorization.
    pub fn new() -> Self {
        LuWorkspace {
            packed: Matrix::zeros(0, 0),
            perm: Vec::new(),
            perm_sign: 1.0,
            factored: false,
            residual: Vec::new(),
            correction: Vec::new(),
        }
    }

    /// Creates a workspace pre-sized for order-`n` systems, so even the
    /// first solve allocates nothing.
    pub fn with_order(n: usize) -> Self {
        LuWorkspace {
            packed: Matrix::zeros(n, n),
            perm: vec![0; n],
            perm_sign: 1.0,
            factored: false,
            residual: vec![0.0; n],
            correction: vec![0.0; n],
        }
    }

    /// Order of the currently factored system (0 before the first
    /// factorization).
    pub fn order(&self) -> usize {
        self.perm.len()
    }

    /// Factors `a` into the workspace, reusing the packed/perm buffers.
    /// Allocates only when the order changes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Lu::factor`].
    pub fn factor_into(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        self.factored = false;
        check_square(a)?;
        let n = a.rows();
        self.packed.copy_from(a);
        if self.perm.len() != n {
            self.perm.resize(n, 0);
            self.residual.resize(n, 0.0);
            self.correction.resize(n, 0.0);
        }
        self.perm_sign = factor_in_place(&mut self.packed, &mut self.perm)?;
        self.factored = true;
        Ok(())
    }

    /// Solves `A·x = b` with the stored factors, writing into `x`
    /// (resized to the system order; no allocation once `x` has capacity).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] when nothing has been factored
    /// or `b` has the wrong length; [`LinalgError::NonFinite`] when the
    /// substitution overflows.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), LinalgError> {
        let n = self.order();
        if !self.factored || b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        x.resize(n, 0.0);
        solve_in_place(&self.packed, &self.perm, b, x);
        if CHAOS_NONFINITE.fire() {
            return Err(LinalgError::NonFinite);
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::NonFinite);
        }
        Ok(())
    }

    /// Factor + solve + conditional refinement, the full Newton-iteration
    /// kernel: refinement (one extra substitution with the same factors)
    /// runs only when `‖b − A·x‖_inf` exceeds `1e-9·‖b‖_inf` — i.e. only
    /// when the plain solve's backward error could actually disturb a
    /// microvolt-tolerance convergence check.
    ///
    /// # Errors
    ///
    /// Propagates factorization and solve errors.
    pub fn solve_refined_into(
        &mut self,
        a: &Matrix,
        b: &[f64],
        x: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        self.factor_into(a)?;
        self.solve_into(b, x)?;
        self.refine_against(a, b, x);
        Ok(())
    }

    /// One step of iterative refinement against the original system, run
    /// only when the residual is large enough to matter (see
    /// [`LuWorkspace::solve_refined_into`]).
    fn refine_against(&mut self, a: &Matrix, b: &[f64], x: &mut [f64]) {
        // Residual r = b − A·x into the persistent scratch buffer.
        a.mul_vec_into(x, &mut self.residual);
        let mut r_norm: f64 = 0.0;
        let mut b_norm: f64 = 0.0;
        for (ri, &bi) in self.residual.iter_mut().zip(b) {
            *ri = bi - *ri;
            r_norm = r_norm.max(ri.abs());
            b_norm = b_norm.max(bi.abs());
        }
        if r_norm > REFINE_REL_TOL * b_norm.max(f64::MIN_POSITIVE) {
            REFINEMENT_STEPS.inc();
            solve_in_place(
                &self.packed,
                &self.perm,
                &self.residual,
                &mut self.correction,
            );
            if self.correction.iter().all(|v| v.is_finite()) {
                for (xi, di) in x.iter_mut().zip(self.correction.iter()) {
                    *xi += di;
                }
            }
        }
    }

    /// Determinant of the last factored matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.order() {
            det *= self.packed[(i, i)];
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{x} vs {y} (tol {tol})"
            );
        }
    }

    #[test]
    fn solves_diagonal_system() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
        let x = solve(&a, &[2.0, 8.0]).unwrap();
        assert_vec_close(&x, &[1.0, 2.0], 1e-14);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[3.0, 7.0]).unwrap();
        assert_vec_close(&x, &[7.0, 3.0], 1e-14);
    }

    #[test]
    fn detects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::factor(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(Lu::factor(&a), Err(LinalgError::NonFinite)));
    }

    #[test]
    fn determinant_of_permutation_matrix() {
        // Swap matrix has determinant -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.determinant() + 1.0).abs() < 1e-14);
    }

    #[test]
    fn badly_scaled_system_solved_with_refinement() {
        // Entries spanning ~14 orders of magnitude, like an MNA matrix with
        // a 0.05 ohm HBD path next to pF-scale capacitor companions.
        let a = Matrix::from_rows(&[
            &[2e13, -2e13, 0.0],
            &[-2e13, 2e13 + 1e-2, -1e-2],
            &[0.0, -1e-2, 2e-2],
        ])
        .unwrap();
        let x_true = vec![1.0, 1.0 - 1e-13, 0.5];
        let b = a.mul_vec(&x_true);
        let x = solve_refined(&a, &b).unwrap();
        assert_vec_close(&x, &x_true, 1e-6);
    }

    #[test]
    fn solve_checks_rhs_length() {
        let lu = Lu::factor(&Matrix::identity(3)).unwrap();
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
