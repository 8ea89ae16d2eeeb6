//! Property-style tests for the LU kernel: each test sweeps many seeded
//! random cases so they are deterministic and dependency-free (the suite
//! must build with no registry access).

use std::sync::Mutex;

use obd_linalg::{solve_refined, LinalgError, Lu, LuWorkspace, Matrix};

/// Every test that factors in a workspace holds this lock, so the tests
/// that read the process-global `linalg.symbolic_*` counters see only
/// their own factorizations.
static COUNTERS: Mutex<()> = Mutex::new(());

/// Deterministic xorshift64* generator for the random-case sweeps.
struct TestRng(u64);

impl TestRng {
    fn new(seed: u64) -> Self {
        TestRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }
}

/// A well-conditioned random square matrix built as a diagonally dominant
/// perturbation, which is guaranteed nonsingular.
fn diag_dominant(n: usize, rng: &mut TestRng) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for r in 0..n {
        let mut rowsum = 0.0;
        for c in 0..n {
            if r != c {
                let v = rng.uniform(-1.0, 1.0);
                m[(r, c)] = v;
                rowsum += v.abs();
            }
        }
        // Strict diagonal dominance.
        m[(r, r)] = rowsum + 1.0 + rng.uniform(0.0, 1.0);
    }
    m
}

#[test]
fn solve_residual_is_small() {
    let mut rng = TestRng::new(0x1057);
    for _ in 0..64 {
        let a = diag_dominant(6, &mut rng);
        let b: Vec<f64> = (0..6).map(|_| rng.uniform(-10.0, 10.0)).collect();
        let x = solve_refined(&a, &b).unwrap();
        let ax = a.mul_vec(&x);
        for (axi, bi) in ax.iter().zip(b.iter()) {
            assert!((axi - bi).abs() < 1e-9 * (1.0 + bi.abs()));
        }
    }
}

#[test]
fn lu_reconstructs_matrix() {
    let mut rng = TestRng::new(0x2EC0);
    for _ in 0..32 {
        // Solve A x = e_i column by column; the assembled inverse times A
        // must be the identity.
        let a = diag_dominant(5, &mut rng);
        let lu = Lu::factor(&a).unwrap();
        let n = a.rows();
        let mut inv = Matrix::zeros(n, n);
        for i in 0..n {
            let mut e = vec![0.0; n];
            e[i] = 1.0;
            let col = lu.solve(&e).unwrap();
            for r in 0..n {
                inv[(r, i)] = col[r];
            }
        }
        let prod = a.mul_mat(&inv);
        for r in 0..n {
            for c in 0..n {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((prod[(r, c)] - expect).abs() < 1e-8);
            }
        }
    }
}

#[test]
fn determinant_sign_matches_diagonal_product_for_triangular() {
    let mut rng = TestRng::new(0xDE73);
    for _ in 0..32 {
        let d: Vec<f64> = (0..4).map(|_| rng.uniform(0.5, 3.0)).collect();
        let n = d.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = d[i];
        }
        let lu = Lu::factor(&m).unwrap();
        let expect: f64 = d.iter().product();
        assert!((lu.determinant() - expect).abs() < 1e-10 * expect);
    }
}

#[test]
fn scaling_rows_scales_determinant() {
    let mut rng = TestRng::new(0x5CA1);
    for _ in 0..32 {
        let a = diag_dominant(4, &mut rng);
        let s = rng.uniform(0.5, 2.0);
        let lu = Lu::factor(&a).unwrap();
        let scaled = &a * s;
        let lu2 = Lu::factor(&scaled).unwrap();
        let expect = lu.determinant() * s.powi(a.rows() as i32);
        assert!((lu2.determinant() - expect).abs() < 1e-6 * expect.abs().max(1.0));
    }
}

/// The workspace path (`factor_into` + `solve_into`) must agree with the
/// allocating `Lu::factor` + `Lu::solve` path bit-for-bit — same kernels,
/// same pivoting — on random well-conditioned matrices of varying order,
/// including order changes that force buffer resizes mid-sequence.
#[test]
fn factor_into_matches_lu_factor() {
    let _g = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = TestRng::new(0xFAC7);
    let mut ws = LuWorkspace::new();
    let mut x_ws = Vec::new();
    for trial in 0..96 {
        let n = 2 + (rng.next_u64() % 7) as usize;
        let a = diag_dominant(n, &mut rng);
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-5.0, 5.0)).collect();

        let lu = Lu::factor(&a).unwrap();
        let x_ref = lu.solve(&b).unwrap();

        ws.factor_into(&a).unwrap();
        ws.solve_into(&b, &mut x_ws).unwrap();

        assert_eq!(x_ref, x_ws, "trial {trial}: order {n} solves diverged");
        assert_eq!(
            lu.determinant(),
            ws.determinant(),
            "trial {trial}: determinants diverged"
        );
    }
}

/// Refined workspace solves match the one-shot `solve_refined` exactly.
#[test]
fn solve_refined_into_matches_one_shot() {
    let _g = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = TestRng::new(0x4EF1);
    let mut ws = LuWorkspace::new();
    let mut x_ws = Vec::new();
    for _ in 0..48 {
        let n = 3 + (rng.next_u64() % 5) as usize;
        let a = diag_dominant(n, &mut rng);
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-10.0, 10.0)).collect();
        let x_ref = solve_refined(&a, &b).unwrap();
        ws.solve_refined_into(&a, &b, &mut x_ws).unwrap();
        assert_eq!(x_ref, x_ws);
    }
}

/// The badly scaled case from the unit suite still triggers refinement
/// through the workspace path and recovers the true solution.
#[test]
fn workspace_refines_badly_scaled_system() {
    let _g = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let a = Matrix::from_rows(&[
        &[2e13, -2e13, 0.0],
        &[-2e13, 2e13 + 1e-2, -1e-2],
        &[0.0, -1e-2, 2e-2],
    ])
    .unwrap();
    let x_true = vec![1.0, 1.0 - 1e-13, 0.5];
    let b = a.mul_vec(&x_true);
    let mut ws = LuWorkspace::with_order(3);
    let mut x = Vec::with_capacity(3);
    ws.solve_refined_into(&a, &b, &mut x).unwrap();
    for (xi, ti) in x.iter().zip(x_true.iter()) {
        assert!((xi - ti).abs() <= 1e-6 * (1.0 + ti.abs()), "{xi} vs {ti}");
    }
}

/// Workspace error paths: solving before factoring, wrong RHS length, and
/// a singular factor leaves the workspace unfactored.
#[test]
fn workspace_error_paths() {
    let _g = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut ws = LuWorkspace::new();
    let mut x = Vec::new();
    assert!(ws.solve_into(&[], &mut x).is_err() || ws.order() == 0);

    let a = Matrix::identity(3);
    ws.factor_into(&a).unwrap();
    assert!(ws.solve_into(&[1.0, 2.0], &mut x).is_err());

    let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
    assert!(ws.factor_into(&singular).is_err());
    // A failed factorization must poison the workspace, not leave stale
    // factors from the identity solve above.
    assert!(ws.solve_into(&[1.0, 2.0], &mut x).is_err());
}

/// `(builds, reuses)` of the workspace replay record so far.
fn symbolic_counts() -> (u64, u64) {
    let snap = obd_metrics::snapshot();
    (
        snap.counter("linalg.symbolic_builds").unwrap_or(0),
        snap.counter("linalg.symbolic_reuse").unwrap_or(0),
    )
}

/// The shape of a modified-nodal-analysis system: node rows coupled by
/// two-terminal conductances, each node leaking to ground, and ideal
/// voltage sources whose branch rows and columns hold ±1 entries.
struct MnaShape {
    nodes: usize,
    /// `(a, b, siemens)`; `b == None` is a conductance to ground.
    edges: Vec<(usize, Option<usize>, f64)>,
    /// `(plus, minus)` node of each source; `None` is ground.
    sources: Vec<(usize, Option<usize>)>,
}

impl MnaShape {
    /// A connected random circuit: every node hangs off an earlier one,
    /// a few chords close loops, and conductances span 1e-11 S to 100 S
    /// (1e-2 Ω to 1e11 Ω). Each source drives its own node.
    fn random(nodes: usize, sources: usize, rng: &mut TestRng) -> Self {
        let mut edges = Vec::new();
        let g = |rng: &mut TestRng| 10f64.powf(rng.uniform(-11.0, 2.0));
        for a in 0..nodes {
            edges.push((a, None, 1e-12));
            if a > 0 {
                let b = (rng.next_u64() % a as u64) as usize;
                edges.push((a, Some(b), g(rng)));
            }
        }
        for _ in 0..nodes / 3 {
            let a = (rng.next_u64() % nodes as u64) as usize;
            let b = (rng.next_u64() % nodes as u64) as usize;
            if a != b {
                edges.push((a, Some(b), g(rng)));
            }
        }
        let sources = (0..sources)
            .map(|k| {
                let minus = (k % 2 == 1).then(|| (k * 7 + 1) % nodes);
                (k * 3 % nodes, minus.filter(|&m| m != k * 3 % nodes))
            })
            .collect();
        MnaShape {
            nodes,
            edges,
            sources,
        }
    }

    fn order(&self) -> usize {
        self.nodes + self.sources.len()
    }

    /// The system matrix with every conductance scaled by its own factor
    /// in `1 ± drift`.
    fn matrix(&self, drift: f64, rng: &mut TestRng) -> Matrix {
        let mut m = Matrix::zeros(self.order(), self.order());
        for &(a, b, g) in &self.edges {
            let g = g * (1.0 + rng.uniform(-drift, drift));
            m.add_at(a, a, g);
            if let Some(b) = b {
                m.add_at(b, b, g);
                m.add_at(a, b, -g);
                m.add_at(b, a, -g);
            }
        }
        for (k, &(plus, minus)) in self.sources.iter().enumerate() {
            let br = self.nodes + k;
            m[(plus, br)] = 1.0;
            m[(br, plus)] = 1.0;
            if let Some(minus) = minus {
                m[(minus, br)] = -1.0;
                m[(br, minus)] = -1.0;
            }
        }
        m
    }
}

/// The dense oracle for `LuWorkspace::solve_refined_into`: `Lu::factor`,
/// `Lu::solve`, then one refinement step written out here.
fn dense_refined(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let lu = Lu::factor(a)?;
    let mut x = lu.solve(b)?;
    let ax = a.mul_vec(&x);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
    let r_norm = r.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let b_norm = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if r_norm > 1e-9 * b_norm.max(f64::MIN_POSITIVE) {
        let d = lu.solve(&r);
        if let Ok(d) = d {
            for (xi, di) in x.iter_mut().zip(&d) {
                *xi += di;
            }
        }
    }
    Ok(x)
}

/// Solves `a·x = b` in `ws` and asserts the same bits, or the same
/// error, as the dense oracle.
fn assert_matches_dense(ws: &mut LuWorkspace, a: &Matrix, b: &[f64], what: &str) {
    let mut x = Vec::new();
    let got = ws.solve_refined_into(a, b, &mut x).map(|()| x);
    let want = dense_refined(a, b);
    match (&got, &want) {
        (Ok(x), Ok(y)) => {
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(x), bits(y), "{what}: solutions differ");
        }
        _ => assert_eq!(got, want, "{what}: outcomes differ"),
    }
}

fn rhs(n: usize, rng: &mut TestRng) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(-3.3, 3.3)).collect()
}

/// Drifting MNA systems factored in sequence in one workspace: after the
/// first factorization they replay the recorded structure, and every
/// solution keeps the dense kernel's bits.
#[test]
fn replayed_solves_are_bitwise_dense() {
    let _g = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    obd_metrics::enable();
    let mut rng = TestRng::new(0x5EED);
    for (nodes, sources) in [(6, 2), (20, 4), (40, 7)] {
        let shape = MnaShape::random(nodes, sources, &mut rng);
        let mut ws = LuWorkspace::new();
        let (builds0, reuse0) = symbolic_counts();
        for step in 0..40 {
            let a = shape.matrix(1e-3, &mut rng);
            let b = rhs(shape.order(), &mut rng);
            assert_matches_dense(&mut ws, &a, &b, &format!("{nodes} nodes, step {step}"));
        }
        let (builds, reuse) = symbolic_counts();
        assert!(
            reuse - reuse0 >= 30 && builds - builds0 <= 10,
            "{nodes} nodes: {} replays, {} builds",
            reuse - reuse0,
            builds - builds0
        );
    }
}

/// The record's fallbacks, each checked against the dense oracle: a pivot
/// order flip and a new nonzero rebuild it, and NaN and singular inputs
/// give `Lu::factor`'s errors whether or not the record covers them.
#[test]
fn replay_fallbacks_match_dense() {
    let _g = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    obd_metrics::enable();
    let mut rng = TestRng::new(0xFA11);
    let shape = MnaShape::random(12, 3, &mut rng);
    let n = shape.order();
    let base = shape.matrix(0.0, &mut rng);
    let b = rhs(n, &mut rng);
    let mut ws = LuWorkspace::new();
    assert_matches_dense(&mut ws, &base, &b, "first");

    // One counted factorization of `a`; returns (builds, reuses) it took.
    let step = |ws: &mut LuWorkspace, a: &Matrix, what: &str| {
        let before = symbolic_counts();
        assert_matches_dense(ws, a, &b, what);
        let after = symbolic_counts();
        (after.0 - before.0, after.1 - before.1)
    };
    assert_eq!(step(&mut ws, &base, "replay"), (0, 1));

    // The column of the node source 0 drives: a conductance above 1 S
    // pivots on the node row, one below it on the source's branch row.
    let (plus, _) = shape.sources[0];
    let mut strong = base.clone();
    let mut weak = base.clone();
    strong[(plus, plus)] = 50.0;
    weak[(plus, plus)] = 0.02;
    for r in 0..shape.nodes {
        if r != plus {
            strong[(r, plus)] = strong[(r, plus)].clamp(-0.5, 0.5);
            weak[(r, plus)] = weak[(r, plus)].clamp(-0.01, 0.01);
        }
    }
    assert_eq!(step(&mut ws, &strong, "strong"), (1, 0));
    assert_eq!(step(&mut ws, &weak, "pivot flip"), (1, 0));
    assert_eq!(step(&mut ws, &strong, "flip back"), (1, 0));
    assert_eq!(step(&mut ws, &strong, "settled"), (0, 1));

    // A nonzero outside the learned pattern.
    let (r, c) = (0..n)
        .flat_map(|r| (0..n).map(move |c| (r, c)))
        .find(|&(r, c)| r != c && strong[(r, c)] == 0.0 && c < shape.nodes)
        .unwrap();
    let mut grown = strong.clone();
    grown[(r, c)] = -1e-3;
    assert_eq!(step(&mut ws, &grown, "new nonzero"), (1, 0));
    assert_eq!(step(&mut ws, &strong, "inside grown pattern"), (0, 1));

    // NaN inside the pattern is caught by the replayed scale pass; NaN
    // outside the record sends the factorization to the dense kernel.
    let mut nan_in = strong.clone();
    nan_in[(plus, plus)] = f64::NAN;
    assert_eq!(step(&mut ws, &nan_in, "NaN inside"), (0, 1));
    assert_eq!(ws.factor_into(&nan_in), Err(LinalgError::NonFinite));
    let mut nan_out = strong.clone();
    let (r, c) = (0..n)
        .flat_map(|r| (0..n).map(move |c| (r, c)))
        .find(|&(r, c)| grown[(r, c)] == 0.0 && c > 0)
        .unwrap();
    nan_out[(r, c)] = f64::NAN;
    assert_eq!(step(&mut ws, &nan_out, "NaN outside"), (0, 0));
    assert_eq!(ws.factor_into(&nan_out), Err(LinalgError::NonFinite));

    // A column emptied inside the pattern: the replay reports the same
    // singular column as the dense kernel.
    let mut singular = strong.clone();
    let col = shape.nodes / 2;
    for r in 0..n {
        singular[(r, col)] = 0.0;
    }
    assert_eq!(step(&mut ws, &singular, "singular"), (0, 1));
    let err = ws.factor_into(&singular).unwrap_err();
    assert!(matches!(err, LinalgError::Singular { .. }));
    assert_eq!(Err(err), Lu::factor(&singular).map(|_| ()));

    // None of the failures spoiled the record.
    assert_eq!(step(&mut ws, &strong, "after failures"), (0, 1));
}
