//! Property-based tests for the linear-algebra and linear-systems core.

use linsys::complex::Complex;
use linsys::matrix::{solve, Matrix};
use linsys::polynomial::Polynomial;
use linsys::transfer::{ContinuousTransferFunction, DiscreteTransferFunction};
use proptest::prelude::*;

/// Strategy: well-conditioned square matrices (diagonally dominant).
fn dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, n * n).prop_map(move |vals| {
        let mut m = Matrix::zeros(n, n);
        for r in 0..n {
            let mut row_sum = 0.0;
            for c in 0..n {
                let v = vals[r * n + c];
                m[(r, c)] = v;
                row_sum += v.abs();
            }
            // Diagonal dominance guarantees invertibility.
            m[(r, r)] += row_sum + 1.0;
        }
        m
    })
}

proptest! {
    #[test]
    fn lu_solve_residual_is_small(
        a in dominant_matrix(5),
        b in proptest::collection::vec(-100.0..100.0f64, 5),
    ) {
        let x = solve(&a, &b).expect("dominant matrix is invertible");
        let back = a.mul_vec(&x);
        for (bb, rb) in b.iter().zip(&back) {
            prop_assert!((bb - rb).abs() < 1e-8, "residual {} vs {}", bb, rb);
        }
    }

    #[test]
    fn expm_inverse_property(a in dominant_matrix(3)) {
        // e^A · e^{-A} = I (scale down so the series is benign).
        let a = a.scale(0.05);
        let e = a.expm();
        let einv = a.scale(-1.0).expm();
        let prod = e.mul_mat(&einv);
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                prop_assert!((prod[(r, c)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn matrix_transpose_involution(a in dominant_matrix(4)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn polynomial_roots_roundtrip(
        roots in proptest::collection::vec(-5.0..5.0f64, 1..5),
    ) {
        // Keep roots separated so the iteration converges crisply.
        let mut rs = roots.clone();
        rs.sort_by(f64::total_cmp);
        prop_assume!(rs.windows(2).all(|w| w[1] - w[0] > 0.25));
        let poly = Polynomial::from_roots(
            &rs.iter().map(|&r| Complex::real(r)).collect::<Vec<_>>(),
        );
        let mut found: Vec<f64> = poly.roots().iter().map(|z| z.re).collect();
        found.sort_by(f64::total_cmp);
        for (want, got) in rs.iter().zip(&found) {
            prop_assert!((want - got).abs() < 1e-5, "{want} vs {got}");
        }
    }

    #[test]
    fn polynomial_eval_agrees_with_horner_expansion(
        coeffs in proptest::collection::vec(-3.0..3.0f64, 1..6),
        x in -2.0..2.0f64,
    ) {
        let p = Polynomial::new(coeffs.clone());
        let manual: f64 = coeffs
            .iter()
            .enumerate()
            .map(|(k, &c)| c * x.powi(k as i32))
            .sum();
        prop_assert!((p.eval(x) - manual).abs() < 1e-9);
    }

    #[test]
    fn complex_field_axioms(
        re1 in -10.0..10.0f64, im1 in -10.0..10.0f64,
        re2 in -10.0..10.0f64, im2 in -10.0..10.0f64,
    ) {
        let a = Complex::new(re1, im1);
        let b = Complex::new(re2, im2);
        prop_assume!(b.abs() > 1e-6);
        // Multiplication distributes over addition.
        let lhs = a * (b + Complex::ONE);
        let rhs = a * b + a;
        prop_assert!((lhs - rhs).abs() < 1e-9);
        // Division inverts multiplication.
        let q = (a * b) / b;
        prop_assert!((q - a).abs() < 1e-8 * (1.0 + a.abs()));
    }

    #[test]
    fn stable_tf_impulse_decays(pole in 0.5..20.0f64, gain in 0.1..10.0f64) {
        let tf = ContinuousTransferFunction::from_coeffs(&[gain], &[1.0, pole]);
        let ss = tf.to_state_space();
        // Sample fine relative to the pole so the integral converges.
        let dt = 0.1 / pole;
        let h = linsys::response::impulse_response(&ss, dt, 300);
        // Strictly decaying magnitude for a single real pole.
        for w in h.windows(2) {
            prop_assert!(w[1].abs() <= w[0].abs() + 1e-12);
        }
        // Trapezoidal integral of the impulse response = DC gain.
        let integral = (h.iter().sum::<f64>() - h[0] / 2.0) * dt;
        let expect = tf.dc_gain();
        prop_assert!(
            (integral - expect).abs() < 0.02 * expect.abs() + 1e-6,
            "{integral} vs {expect}"
        );
    }

    #[test]
    fn discrete_filter_is_linear(
        x in proptest::collection::vec(-5.0..5.0f64, 10..30),
        k in -3.0..3.0f64,
    ) {
        let h = DiscreteTransferFunction::new(vec![0.4, 0.3], vec![1.0, -0.5], 1.0);
        let y1 = h.filter(&x);
        let scaled: Vec<f64> = x.iter().map(|v| v * k).collect();
        let y2 = h.filter(&scaled);
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((a * k - b).abs() < 1e-9);
        }
    }
}

proptest! {
    /// Complex LU: the solution of a diagonally dominant complex system
    /// reproduces the right-hand side.
    #[test]
    fn complex_lu_residual_is_small(
        res in proptest::collection::vec(-5.0..5.0f64, 16),
        ims in proptest::collection::vec(-5.0..5.0f64, 16),
        b_re in proptest::collection::vec(-10.0..10.0f64, 4),
        b_im in proptest::collection::vec(-10.0..10.0f64, 4),
    ) {
        use linsys::cmatrix::{solve, CMatrix};

        let n = 4;
        let mut a = CMatrix::zeros(n, n);
        for r in 0..n {
            let mut dominance = 0.0;
            for c in 0..n {
                let z = Complex::new(res[r * n + c], ims[r * n + c]);
                a[(r, c)] = z;
                dominance += z.abs();
            }
            a[(r, r)] = a[(r, r)] + Complex::real(dominance + 1.0);
        }
        let b: Vec<Complex> = b_re
            .iter()
            .zip(&b_im)
            .map(|(&re, &im)| Complex::new(re, im))
            .collect();
        let x = solve(&a, &b).expect("dominant complex system solves");
        let back = a.mul_vec(&x);
        for (want, got) in b.iter().zip(&back) {
            prop_assert!((*want - *got).abs() < 1e-9, "{want} vs {got}");
        }
    }

    /// ZOH discretisation at two half-steps composes to one full step
    /// for the autonomous part (semigroup property of e^{At}).
    #[test]
    fn zoh_semigroup_property(pole in 0.2..10.0f64, dt in 0.001..0.2f64) {
        use linsys::matrix::Matrix;

        let a = Matrix::from_rows(&[vec![-pole]]);
        let full = a.scale(dt).expm();
        let half = a.scale(dt / 2.0).expm();
        let composed = half.mul_mat(&half);
        prop_assert!((full[(0, 0)] - composed[(0, 0)]).abs() < 1e-12);
    }
}

/// A random MNA-style conductance stamp: `n` nodes, each grounded
/// through its own conductance (diagonal dominance ⇒ invertibility),
/// plus a set of two-terminal conductances between node pairs stamped
/// the usual way (`+g` on both diagonals, `-g` off-diagonal).
#[derive(Debug, Clone)]
struct MnaStamp {
    n: usize,
    ground: Vec<f64>,
    branches: Vec<(usize, usize, f64)>,
}

fn mna_stamp(n: usize) -> impl Strategy<Value = MnaStamp> {
    let ground = proptest::collection::vec(0.1..10.0f64, n);
    let branches = proptest::collection::vec(
        (0..n, 0..n, 0.01..100.0f64),
        1..(3 * n),
    );
    (ground, branches).prop_map(move |(ground, raw)| MnaStamp {
        n,
        ground,
        branches: raw
            .into_iter()
            .filter(|&(a, b, _)| a != b)
            .collect(),
    })
}

impl MnaStamp {
    /// Stamp positions (with duplicates), as MNA assembly produces them.
    fn positions(&self) -> Vec<(usize, usize)> {
        let mut pos: Vec<(usize, usize)> = (0..self.n).map(|k| (k, k)).collect();
        for &(a, b, _) in &self.branches {
            pos.extend([(a, a), (b, b), (a, b), (b, a)]);
        }
        pos
    }

    fn stamp(&self, mut add: impl FnMut(usize, usize, f64)) {
        for (k, &g) in self.ground.iter().enumerate() {
            add(k, k, g);
        }
        for &(a, b, g) in &self.branches {
            add(a, a, g);
            add(b, b, g);
            add(a, b, -g);
            add(b, a, -g);
        }
    }

    fn dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        self.stamp(|r, c, v| m.add(r, c, v));
        m
    }

    fn sparse(&self) -> linsys::sparse::SparseMatrix {
        let structure =
            linsys::sparse::SparseStructure::from_positions(self.n, &self.positions());
        let mut m = linsys::sparse::SparseMatrix::zeros(structure);
        self.stamp(|r, c, v| m.add(r, c, v));
        m
    }
}

proptest! {
    /// The sparse Gilbert–Peierls factorisation agrees with the dense
    /// LU on random well-conditioned MNA stamps — and not merely within
    /// tolerance: the sparse core replays the dense pivot order and
    /// arithmetic, so the solutions are bit-identical.
    #[test]
    fn sparse_factorisation_agrees_with_dense_on_mna_stamps(
        stamp in mna_stamp(7),
        b in proptest::collection::vec(-100.0..100.0f64, 7),
    ) {
        use linsys::matrix::Lu;
        use linsys::sparse::SparseLu;

        let dense_x = Lu::factor(&stamp.dense()).expect("dominant").solve(&b);
        let sparse_x = SparseLu::factor(&stamp.sparse()).expect("dominant").solve(&b);
        for (k, (d, s)) in dense_x.iter().zip(&sparse_x).enumerate() {
            prop_assert!(
                d.to_bits() == s.to_bits(),
                "x[{k}]: dense {d:e} != sparse {s:e}"
            );
        }
        // And both actually solve the system.
        let back = stamp.dense().mul_vec(&dense_x);
        for (want, got) in b.iter().zip(&back) {
            prop_assert!((want - got).abs() < 1e-7, "{want} vs {got}");
        }
    }
}

proptest! {
    /// The scale-relative pivot threshold classifies identically on the
    /// dense and sparse backends: graded (uniformly rescaled) systems
    /// factor on both, rank-deficient ones fail on both with the same
    /// breakdown row — byte-compared campaign reports depend on the two
    /// backends never disagreeing about what is singular.
    #[test]
    fn dense_and_sparse_classify_graded_and_rank_deficient_alike(
        stamp in mna_stamp(6),
        scale_exp in 0..605usize,
        kill in 0..7usize,
    ) {
        use linsys::matrix::Lu;
        use linsys::sparse::SparseLu;

        // Shifted draws: the shim only samples unsigned ranges.
        let scale = 10f64.powi(scale_exp as i32 - 305);
        let kill = if kill == 6 { None } else { Some(kill) };
        let mut dense = Matrix::zeros(stamp.n, stamp.n);
        let structure =
            linsys::sparse::SparseStructure::from_positions(stamp.n, &stamp.positions());
        let mut sparse = linsys::sparse::SparseMatrix::zeros(structure);
        stamp.stamp(|r, c, v| {
            // `kill` empties one node's row and column (stamping zeros
            // keeps the sparsity pattern), leaving the system exactly
            // rank-deficient at O(scale) magnitude — the shape the old
            // absolute 1e-300 floor silently factored into garbage.
            let v = if Some(r) == kill || Some(c) == kill { 0.0 } else { v * scale };
            dense.add(r, c, v);
            sparse.add(r, c, v);
        });
        let d = Lu::factor(&dense);
        let s = SparseLu::factor(&sparse);
        match (&d, &s) {
            (Ok(dlu), Ok(slu)) => {
                prop_assert!(kill.is_none(), "rank-deficient system factored");
                let b: Vec<f64> = (0..stamp.n).map(|i| i as f64 - 1.5).collect();
                for (k, (dv, sv)) in dlu.solve(&b).iter().zip(&slu.solve(&b)).enumerate() {
                    prop_assert!(
                        dv.to_bits() == sv.to_bits(),
                        "x[{k}]: dense {dv:e} != sparse {sv:e}"
                    );
                }
                // The growth factor is part of the hazard story, so it
                // must agree bit for bit too.
                prop_assert!(dlu.pivot_growth().to_bits() == slu.pivot_growth().to_bits());
            }
            (Err(de), Err(se)) => prop_assert_eq!(de, se),
            _ => prop_assert!(
                false,
                "classification split: dense {:?} vs sparse {:?}",
                d.as_ref().map(|_| ()),
                s.as_ref().map(|_| ())
            ),
        }
    }

    /// One round of iterative refinement through a deliberately
    /// perturbed factorisation never increases the true residual norm:
    /// the contraction gate commits the corrected iterate only when it
    /// strictly improves.
    #[test]
    fn refinement_round_never_increases_the_true_residual(
        stamp in mna_stamp(5),
        b in proptest::collection::vec(-10.0..10.0f64, 5),
        perturb in 1.0..4.0f64,
    ) {
        use linsys::matrix::Lu;
        use linsys::refine::{norm_inf, refine_once};

        let a = stamp.dense();
        let mut lu = Lu::factor(&a).expect("dominant");
        lu.perturb_first_pivot(perturb);
        let mut x = lu.solve(&b);
        let n = stamp.n;
        let residual_of = |x: &[f64], out: &mut [f64]| {
            let ax = a.mul_vec(x);
            for (o, (axv, bv)) in out.iter_mut().zip(ax.iter().zip(&b)) {
                *o = axv - bv;
            }
        };
        let mut before_buf = vec![0.0; n];
        residual_of(&x, &mut before_buf);
        let before = norm_inf(&before_buf);
        let (mut r, mut d, mut t) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let out = refine_once(
            &mut x,
            &mut r,
            &mut d,
            &mut t,
            residual_of,
            |rhs, sol| lu.solve_into(rhs, sol),
        );
        let mut after_buf = vec![0.0; n];
        residual_of(&x, &mut after_buf);
        let after = norm_inf(&after_buf);
        prop_assert!(after <= before, "residual grew: {before:e} -> {after:e} ({out:?})");
        prop_assert_eq!(out.accepted, out.residual_after < out.residual_before);
    }

    /// Transpose solves and the Hager condition estimate built on them
    /// are bit-identical between backends (zeros may differ only in
    /// sign), and the transpose solve actually solves Aᵀx = b.
    #[test]
    fn transpose_solve_and_condest_are_bit_identical_across_backends(
        stamp in mna_stamp(6),
        b in proptest::collection::vec(-10.0..10.0f64, 6),
    ) {
        use linsys::matrix::Lu;
        use linsys::sparse::SparseLu;

        let dense = stamp.dense();
        let dlu = Lu::factor(&dense).expect("dominant");
        let slu = SparseLu::factor(&stamp.sparse()).expect("dominant");
        let n = stamp.n;
        let (mut xd, mut xs) = (vec![0.0; n], vec![0.0; n]);
        dlu.solve_transpose_into(&b, &mut xd);
        slu.solve_transpose_into(&b, &mut xs);
        for (k, (d, s)) in xd.iter().zip(&xs).enumerate() {
            prop_assert!(
                d.to_bits() == s.to_bits() || (*d == 0.0 && *s == 0.0),
                "xT[{k}]: dense {d:e} != sparse {s:e}"
            );
        }
        // Aᵀ·x reproduces b (the matrix is symmetric only in pattern,
        // not in values, so this genuinely exercises the transpose).
        let back = dense.transpose().mul_vec(&xd);
        for (want, got) in b.iter().zip(&back) {
            prop_assert!((want - got).abs() < 1e-7 * (1.0 + want.abs()), "{want} vs {got}");
        }
        let anorm = 1.0; // placeholder scale: identical on both sides
        let cd = dlu.condest(anorm);
        let cs = slu.condest(anorm);
        prop_assert!(cd.to_bits() == cs.to_bits(), "condest dense {cd:e} != sparse {cs:e}");
        prop_assert!(cd.is_finite() && cd > 0.0);
    }
}

/// A well-conditioned system scaled far below the old absolute pivot
/// floor of `1e-300` must still factor: singularity is a property of
/// the matrix, not of its units. This is the regression the
/// scale-relative threshold exists for.
#[test]
fn graded_matrix_below_the_old_absolute_floor_still_factors() {
    use linsys::matrix::Lu;
    use linsys::sparse::SparseLu;

    let scale = 1e-305;
    let mut dense = Matrix::zeros(3, 3);
    let structure = linsys::sparse::SparseStructure::from_positions(
        3,
        &[(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)],
    );
    let mut sparse = linsys::sparse::SparseMatrix::zeros(structure);
    for (r, c, v) in [
        (0, 0, 4.0),
        (0, 1, -1.0),
        (1, 0, -1.0),
        (1, 1, 4.0),
        (1, 2, -1.0),
        (2, 1, -1.0),
        (2, 2, 4.0),
    ] {
        dense.add(r, c, v * scale);
        sparse.add(r, c, v * scale);
    }
    let dlu = Lu::factor(&dense).expect("well-conditioned tiny-scale system must factor");
    let slu = SparseLu::factor(&sparse).expect("well-conditioned tiny-scale system must factor");
    // Scale b the same way so the solution is O(1) and checkable.
    let b = [scale, 2.0 * scale, 3.0 * scale];
    let xd = dlu.solve(&b);
    let xs = slu.solve(&b);
    for (d, s) in xd.iter().zip(&xs) {
        assert_eq!(d.to_bits(), s.to_bits());
    }
    let back = dense.mul_vec(&xd);
    for (want, got) in b.iter().zip(&back) {
        assert!((want - got).abs() <= 1e-10 * scale, "{want:e} vs {got:e}");
    }
}

/// An O(1)-scale matrix whose elimination collapses a column to
/// rounding noise is *numerically* rank-deficient: the old absolute
/// floor happily divided by the ~1e-17 leftover and returned garbage;
/// the scale-relative threshold classifies it as singular on both
/// backends, at the same column.
#[test]
fn cancellation_garbage_is_rejected_as_singular() {
    use linsys::matrix::Lu;
    use linsys::sparse::SparseLu;

    // Row 1 is row 0 plus a perturbation 1e-17 — far below the working
    // precision of the O(1) entries, so the matrix has rank one for
    // any practical purpose.
    let mut dense = Matrix::zeros(2, 2);
    let structure =
        linsys::sparse::SparseStructure::from_positions(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
    let mut sparse = linsys::sparse::SparseMatrix::zeros(structure);
    for (r, c, v) in [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0 + 1e-17)] {
        dense.add(r, c, v);
        sparse.add(r, c, v);
    }
    let de = Lu::factor(&dense).expect_err("numerically rank-deficient");
    let se = SparseLu::factor(&sparse).expect_err("numerically rank-deficient");
    assert_eq!(de, se);
    assert_eq!(de.row, 1, "breakdown at the collapsed second column");
}
