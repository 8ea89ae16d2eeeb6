//! LU factorization with partial pivoting, plus iterative refinement.
//!
//! [`Lu`] and the one-shot [`solve`]/[`solve_refined`] always run the
//! dense kernel. [`LuWorkspace`] runs the same kernel until it has learned
//! the matrix's nonzero structure, then replays that structure: the same
//! arithmetic on the entries that can be nonzero, so the same bits.

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
/// Workspace factorizations that ran the dense kernel and rebuilt the
/// replay record.
static SYMBOLIC_BUILDS: Counter = Counter::new("linalg.symbolic_builds");
/// Workspace factorizations that replayed the recorded structure.
static SYMBOLIC_REUSE: Counter = Counter::new("linalg.symbolic_reuse");
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

/// The prologue every factorization runs once, whichever kernel follows:
/// count it and consult the forced-singular chaos point.
fn begin_factorization() -> Result<(), LinalgError> {
    LU_FACTORIZATIONS.inc();
    if CHAOS_SINGULAR.fire() {
        return Err(LinalgError::Singular { column: 0 });
    }
    Ok(())
}

/// Pivot magnitudes at or below this are zero, given the matrix's
/// infinity norm `scale`.
fn pivot_floor(scale: f64) -> f64 {
    scale.max(f64::MIN_POSITIVE) * PIVOT_REL_TOL
}

/// The dense kernel: factors `packed` in place (partial pivoting),
/// recording row exchanges in `perm`. Returns the permutation sign.
///
/// Behind [`Lu::factor`], and behind [`LuWorkspace::factor_into`] whenever
/// the workspace cannot replay.
fn factor_in_place(packed: &mut Matrix, perm: &mut [usize]) -> Result<f64, LinalgError> {
    let n = packed.rows();
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
    let tiny = pivot_floor(scale);

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
/// Shared kernel behind [`Lu::solve`] and [`solve_refined`].
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

/// Squareness is checked up front; finiteness is caught by the
/// factorization's fused norm pass, so no separate O(n²) scan runs.
fn check_square(a: &Matrix) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::DimensionMismatch {
            expected: a.rows(),
            found: a.cols(),
        });
    }
    Ok(())
}

/// The length check every solve against order-`n` factors starts with.
fn check_rhs(n: usize, b: &[f64]) -> Result<(), LinalgError> {
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    Ok(())
}

/// Vets a workspace-style substitution result: the forced-nonfinite chaos
/// point, then a real finiteness check.
fn check_solution(x: &[f64]) -> Result<(), LinalgError> {
    if CHAOS_NONFINITE.fire() || x.iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::NonFinite);
    }
    Ok(())
}

/// One step of iterative refinement, run only when the residual is large
/// enough to matter (see [`LuWorkspace::solve_refined_into`]). `residual`
/// holds `A·x` on entry; `solve` substitutes a right-hand side through the
/// factors that produced `x`.
fn refine(
    b: &[f64],
    x: &mut [f64],
    residual: &mut [f64],
    correction: &mut [f64],
    solve: impl FnOnce(&[f64], &mut [f64]),
) {
    let mut r_norm: f64 = 0.0;
    let mut b_norm: f64 = 0.0;
    for (ri, &bi) in residual.iter_mut().zip(b) {
        *ri = bi - *ri;
        r_norm = r_norm.max(ri.abs());
        b_norm = b_norm.max(bi.abs());
    }
    if r_norm > REFINE_REL_TOL * b_norm.max(f64::MIN_POSITIVE) {
        REFINEMENT_STEPS.inc();
        solve(residual, correction);
        if correction.iter().all(|v| v.is_finite()) {
            for (xi, di) in x.iter_mut().zip(correction.iter()) {
                *xi += di;
            }
        }
    }
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
    pub(crate) fn factor_owned(mut a: Matrix) -> Result<Self, LinalgError> {
        check_square(&a)?;
        let n = a.rows();
        let mut perm: Vec<usize> = (0..n).collect();
        begin_factorization()?;
        let perm_sign = factor_in_place(&mut a, &mut perm)?;
        Ok(Lu {
            packed: a,
            perm,
            perm_sign,
        })
    }

    /// Order of the factored matrix.
    pub(crate) fn order(&self) -> usize {
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
        check_rhs(n, b)?;
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
/// The one-shot, dense-kernel form of
/// [`LuWorkspace::solve_refined_into`], with the same result bits and the
/// same chaos points; repeated solves of same-order systems should hold a
/// workspace instead.
///
/// # Errors
///
/// Propagates factorization and solve errors from [`Lu`].
pub fn solve_refined(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let lu = Lu::factor(a)?;
    let n = lu.order();
    check_rhs(n, b)?;
    let mut x = vec![0.0; n];
    solve_in_place(&lu.packed, &lu.perm, b, &mut x);
    check_solution(&x)?;
    let mut residual = vec![0.0; n];
    let mut correction = vec![0.0; n];
    a.mul_vec_into(&x, &mut residual);
    refine(b, &mut x, &mut residual, &mut correction, |r, d| {
        solve_in_place(&lu.packed, &lu.perm, r, d)
    });
    Ok(x)
}

/// A compressed list of index rows: row `i` is
/// `idx[start[i]..start[i + 1]]`.
#[derive(Debug, Clone, Default)]
struct IndexRows {
    start: Vec<usize>,
    idx: Vec<usize>,
}

impl IndexRows {
    fn clear(&mut self) {
        self.start.clear();
        self.start.push(0);
        self.idx.clear();
    }

    /// Closes the row being pushed.
    fn end_row(&mut self) {
        self.start.push(self.idx.len());
    }

    fn row(&self, i: usize) -> &[usize] {
        &self.idx[self.start[i]..self.start[i + 1]]
    }
}

/// Whether bit `c` is set in the bitset row `row`.
fn has_bit(row: &[u64], c: usize) -> bool {
    row[c / 64] >> (c % 64) & 1 != 0
}

/// The structure a workspace learned from its own dense factorizations,
/// replayed by [`LuWorkspace::factor_into`] while it stays valid.
///
/// Positions are pivot order: position `i` holds input row `perm[i]`, as
/// in the dense kernel's packed factors. Bitset rows are `words` `u64`s
/// long, bit `c` standing for column `c`.
#[derive(Debug, Clone, Default)]
struct Replay {
    /// Whether the fields below describe an order-`n` factorization.
    built: bool,
    n: usize,
    words: usize,
    /// Union of the nonzero patterns of every matrix the dense kernel
    /// factored, by input row.
    pattern: Vec<u64>,
    /// The pivot order of the current factors and its permutation sign.
    perm: Vec<usize>,
    sign: f64,
    /// Per position, the columns that can be nonzero, ascending: `L`
    /// left of `diag[i]`, then the diagonal, then `U`.
    cols: IndexRows,
    diag: Vec<usize>,
    /// Per elimination step `k`, the positions whose row can hold a
    /// nonzero in column `k`, in the dense kernel's physical row order at
    /// that step: its pivot candidates and, less the pivot, the rows it
    /// eliminates.
    cand: IndexRows,
    /// Whether `cand` row `k` starts with the row at physical position
    /// `k`, where the dense argmax takes its starting value.
    lead: Vec<bool>,
    /// Build scratch: the fill closure by position, and the position of
    /// the row at each physical row.
    fill: Vec<u64>,
    phys: Vec<usize>,
}

impl Replay {
    /// Forgets the record and sizes the buffers for order `n`, when `n`
    /// differs from the recorded order.
    fn reset_order(&mut self, n: usize) {
        if self.n == n {
            return;
        }
        self.built = false;
        self.n = n;
        self.words = n.div_ceil(64);
        self.pattern.clear();
        self.pattern.resize(n * self.words, 0);
        self.fill.resize(n * self.words, 0);
        for v in [&mut self.perm, &mut self.diag, &mut self.phys] {
            v.resize(n, 0);
        }
        self.lead.resize(n, false);
    }

    /// Rebuilds the record after the dense kernel factored `a` with
    /// pivot order `perm`: adds `a`'s nonzeros to the pattern, then
    /// derives the fill closure of that pattern under the new pivot
    /// order. Allocation-free once the lists have grown to their steady
    /// size.
    fn rebuild(&mut self, a: &Matrix, perm: &[usize], sign: f64) {
        let (n, w) = (self.n, self.words);
        for r in 0..n {
            let bits = &mut self.pattern[r * w..(r + 1) * w];
            for (c, &v) in a.row(r).iter().enumerate() {
                bits[c / 64] |= u64::from(v != 0.0) << (c % 64);
            }
        }
        self.perm.copy_from_slice(perm);
        self.sign = sign;
        for (i, &r) in perm.iter().enumerate() {
            self.phys[r] = i;
            self.fill[i * w..(i + 1) * w].copy_from_slice(&self.pattern[r * w..(r + 1) * w]);
        }

        // Replay the dense kernel's row exchanges symbolically: at step k
        // every row that can hold a nonzero in column k is a candidate,
        // and each one but the pivot takes on the pivot row's pattern
        // right of k.
        self.cand.clear();
        for k in 0..n {
            let mut at = k;
            for p in k..n {
                let i = self.phys[p];
                if i == k {
                    at = p;
                }
                if has_bit(&self.fill[i * w..(i + 1) * w], k) {
                    self.cand.idx.push(i);
                }
            }
            self.cand.end_row();
            self.lead[k] = has_bit(&self.fill[self.phys[k] * w..(self.phys[k] + 1) * w], k);
            for &i in self.cand.row(k) {
                if i == k {
                    continue;
                }
                for t in k / 64..w {
                    let right = if t == k / 64 {
                        (!0u64 << (k % 64)) << 1
                    } else {
                        !0
                    };
                    self.fill[i * w + t] |= self.fill[k * w + t] & right;
                }
            }
            self.phys.swap(k, at);
        }

        // Under partial pivoting every multiplier the dense kernel
        // applied was finite (|m| ≤ 1; a row holding NaN can never become
        // a pivot), so outside the closure its factors hold only zeros.
        self.cols.clear();
        for i in 0..n {
            let bits = &self.fill[i * w..(i + 1) * w];
            for c in 0..n {
                if c == i {
                    self.diag[i] = self.cols.idx.len() - self.cols.start[i];
                }
                if has_bit(bits, c) {
                    self.cols.idx.push(c);
                }
            }
            self.cols.end_row();
        }
        self.built = true;
    }

    /// Factors `a` into `packed` along the record. `None` asks for the
    /// dense kernel instead: `a` has a nonzero the record does not
    /// cover, a recorded pivot loses the dense argmax, or a multiplier is
    /// not finite (the dense kernel would spread it outside the
    /// closure). Inside the closure every value gets the dense kernel's
    /// operations in the dense kernel's order; outside it the dense
    /// kernel only ever holds zeros, which this never writes.
    fn replay(&self, a: &Matrix, packed: &mut Matrix) -> Option<Result<(), LinalgError>> {
        let n = self.n;
        let p = packed.as_mut_slice();
        // Gather the covered entries into their pivot positions, taking
        // the scale pass's row sums on the way: the columns ascend as in
        // the dense pass, and the zeros it adds besides cannot change a
        // sum. Counting nonzeros here and over all of `a` proves the
        // record covers every one.
        let mut covered = 0;
        let mut scale: f64 = 0.0;
        for (i, &r) in self.perm.iter().enumerate() {
            let src = a.row(r);
            let dst = &mut p[i * n..(i + 1) * n];
            let mut row_sum: f64 = 0.0;
            for &c in self.cols.row(i) {
                let v = src[c];
                dst[c] = v;
                covered += usize::from(v != 0.0);
                row_sum += v.abs();
            }
            if !row_sum.is_finite() {
                return Some(Err(LinalgError::NonFinite));
            }
            scale = scale.max(row_sum);
        }
        let nonzeros: usize = a.as_slice().iter().map(|&v| usize::from(v != 0.0)).sum();
        if nonzeros != covered {
            return None;
        }
        let tiny = pivot_floor(scale);

        for k in 0..n {
            let cand = self.cand.row(k);
            // The dense argmax: strict `>` over physical rows, starting
            // from the row at physical position k (a zero when that row
            // cannot hold a nonzero here).
            let (mut best, mut best_val, rest) = match (self.lead[k], cand.split_first()) {
                (true, Some((&i, rest))) => (i, p[i * n + k].abs(), rest),
                _ => (n, 0.0, cand),
            };
            for &i in rest {
                let v = p[i * n + k].abs();
                if v > best_val {
                    best_val = v;
                    best = i;
                }
            }
            if best_val <= tiny || !best_val.is_finite() {
                return Some(Err(LinalgError::Singular { column: k }));
            }
            if best != k {
                return None;
            }
            let (top, bottom) = p.split_at_mut((k + 1) * n);
            let pivot_row = &top[k * n..];
            let pivot = pivot_row[k];
            let upper = &self.cols.row(k)[self.diag[k] + 1..];
            for &i in cand {
                if i == k {
                    continue;
                }
                let row = &mut bottom[(i - k - 1) * n..(i - k) * n];
                let m = row[k] / pivot;
                if !m.is_finite() {
                    return None;
                }
                row[k] = m;
                if m != 0.0 {
                    for &j in upper {
                        row[j] -= m * pivot_row[j];
                    }
                }
            }
        }
        Some(Ok(()))
    }

    /// [`solve_in_place`] over the recorded columns: the same
    /// accumulation order, skipping only entries that hold zeros.
    fn solve(&self, packed: &Matrix, b: &[f64], x: &mut [f64]) {
        for (xi, &r) in x.iter_mut().zip(&self.perm) {
            *xi = b[r];
        }
        for r in 1..self.n {
            let row = packed.row(r);
            let mut acc = x[r];
            for &c in &self.cols.row(r)[..self.diag[r]] {
                acc -= row[c] * x[c];
            }
            x[r] = acc;
        }
        for r in (0..self.n).rev() {
            let row = packed.row(r);
            let mut acc = x[r];
            for &c in &self.cols.row(r)[self.diag[r] + 1..] {
                acc -= row[c] * x[c];
            }
            x[r] = acc / row[r];
        }
    }

    /// `A·x` into `out` over the recorded columns, in
    /// [`Matrix::mul_vec_into`]'s accumulation order; `a` must be the
    /// matrix last factored.
    fn mul_vec_into(&self, a: &Matrix, x: &[f64], out: &mut [f64]) {
        for (i, &r) in self.perm.iter().enumerate() {
            let row = a.row(r);
            out[r] = self.cols.row(i).iter().map(|&c| row[c] * x[c]).sum();
        }
    }
}

/// A reusable LU solve workspace: the packed factors, the pivot
/// permutation and the refinement scratch buffers all persist across
/// calls, so repeated same-order solves — the shape of every Newton
/// iteration — allocate nothing.
///
/// The workspace also learns the structure of what it factors. Its first
/// factorization runs the dense kernel of [`Lu::factor`] and records the
/// pivot order and the fill that order can produce from the nonzero
/// pattern. Later factorizations of matrices inside that pattern replay
/// the record and touch only entries that can be nonzero. A replay checks
/// every pivot against the dense kernel's choice. A matrix with a new
/// nonzero, or one whose pivot order changes, runs the dense kernel again
/// and rebuilds the record. Substitution and the refinement residual
/// always walk the record. Every result has the bits [`Lu`] would give,
/// except that a right-hand side holding `-0.0` may flip the sign of a
/// solution entry that is exactly zero.
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
    /// Row exchanges of the dense kernel; the factors' own pivot order is
    /// the record's.
    perm: Vec<usize>,
    plan: Replay,
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
        LuWorkspace::with_order(0)
    }

    /// Creates a workspace pre-sized for order-`n` systems. The first
    /// factorization still sizes the structure record; later ones
    /// allocate nothing.
    pub fn with_order(n: usize) -> Self {
        let mut plan = Replay::default();
        plan.reset_order(n);
        LuWorkspace {
            packed: Matrix::zeros(n, n),
            perm: vec![0; n],
            plan,
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

    /// Factors `a` into the workspace, reusing the packed/perm buffers:
    /// a replay of the recorded structure when `a` fits it, the dense
    /// kernel (and a rebuilt record) otherwise. Allocates only when the
    /// order changes or the record grows.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Lu::factor`].
    pub fn factor_into(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        self.factored = false;
        check_square(a)?;
        let n = a.rows();
        if self.perm.len() != n {
            self.perm.resize(n, 0);
            self.residual.resize(n, 0.0);
            self.correction.resize(n, 0.0);
        }
        begin_factorization()?;
        if self.plan.built && self.plan.n == n {
            if let Some(result) = self.plan.replay(a, &mut self.packed) {
                SYMBOLIC_REUSE.inc();
                result?;
                self.factored = true;
                return Ok(());
            }
        }
        self.plan.reset_order(n);
        self.packed.copy_from(a);
        let sign = factor_in_place(&mut self.packed, &mut self.perm)?;
        self.plan.rebuild(a, &self.perm, sign);
        SYMBOLIC_BUILDS.inc();
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
        if !self.factored {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        check_rhs(n, b)?;
        x.resize(n, 0.0);
        self.plan.solve(&self.packed, b, x);
        check_solution(x)
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
        let (plan, packed) = (&self.plan, &self.packed);
        plan.mul_vec_into(a, x, &mut self.residual);
        refine(b, x, &mut self.residual, &mut self.correction, |r, d| {
            plan.solve(packed, r, d)
        });
        Ok(())
    }

    /// Determinant of the last factored matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.plan.sign;
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
