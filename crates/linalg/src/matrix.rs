use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::LinalgError;

/// A dense, row-major matrix of `f64`.
///
/// This is the working representation for MNA system matrices. It favors
/// simplicity and cache-friendly row access over sparsity; circuit matrices in
/// this suite are at most a few hundred rows.
///
/// # Example
///
/// ```rust
/// use obd_linalg::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 0)] = 1.0;
/// m[(1, 1)] = 2.0;
/// assert_eq!(m.mul_vec(&[3.0, 4.0]), vec![3.0, 8.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(LinalgError::RaggedRows {
                    expected: ncols,
                    found: r.len(),
                    row: i,
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow a row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Sets every entry to zero, keeping the shape. Useful when re-stamping
    /// an MNA matrix every Newton iteration.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Copies `other`'s entries into `self` without reallocating when the
    /// shapes already match — the backbone of workspace reuse in the
    /// Newton hot path.
    ///
    /// Reshapes (and reallocates) only when the dimensions differ.
    pub fn copy_from(&mut self, other: &Matrix) {
        if self.rows != other.rows || self.cols != other.cols {
            self.rows = other.rows;
            self.cols = other.cols;
            self.data.resize(other.data.len(), 0.0);
        }
        self.data.copy_from_slice(&other.data);
    }

    /// Swaps two rows in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub(crate) fn row_swap(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        let (lo, hi) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// The flat row-major entries.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat row-major entries, mutably. Row `r` occupies
    /// `[r * cols, (r + 1) * cols)`; kernels that need simultaneous
    /// access to several rows (Gaussian elimination) split this slice.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Adds `v` to the entry at `(r, c)` — the fundamental MNA "stamp"
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        self[(r, c)] += v;
    }

    /// Matrix–vector product `A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut out);
        out
    }

    /// Matrix–vector product written into a caller-owned buffer —
    /// allocation-free for repeated residual computations.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub(crate) fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mul_vec dimension mismatch");
        assert_eq!(out.len(), self.rows, "mul_vec output length mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.row(r).iter().zip(x.iter()).map(|(a, b)| a * b).sum();
        }
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Matrix–matrix product.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn mul_mat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "mul_mat dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out[(r, c)] += a * other[(k, c)];
                }
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        let mut out = self.clone();
        for a in out.data.iter_mut() {
            *a *= rhs;
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.5e}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_shape_and_zero_entries() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(!m.is_square());
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(m[(r, c)], 0.0);
            }
        }
    }

    #[test]
    fn identity_mul_vec_is_identity() {
        let m = Matrix::identity(3);
        let x = vec![1.0, -2.0, 3.5];
        assert_eq!(m.mul_vec(&x), x);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, crate::LinalgError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn add_at_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_at(0, 1, 2.0);
        m.add_at(0, 1, 3.0);
        assert_eq!(m[(0, 1)], 5.0);
    }

    #[test]
    fn mul_mat_against_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.mul_mat(&b);
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn norm_inf_is_max_row_sum() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 0.5]]).unwrap();
        assert_eq!(m.norm_inf(), 3.5);
    }

    #[test]
    fn clear_resets_but_keeps_shape() {
        let mut m = Matrix::identity(4);
        m.clear();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.norm_inf(), 0.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = &sum - &a;
        assert_eq!(diff, b);
        let scaled = &a * 3.0;
        assert_eq!(scaled[(1, 1)], 3.0);
    }
}
