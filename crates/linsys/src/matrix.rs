//! Dense real matrices: arithmetic, LU factorisation and the matrix
//! exponential.
//!
//! Systems in this workspace are small (tens of states at most), so a
//! dense representation with partial-pivot LU is simpler and faster than
//! any sparse scheme would be at this scale.

use crate::SingularMatrixError;

/// A dense, row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use linsys::matrix::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 4.0;
/// assert_eq!(m[(1, 1)], 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged (not all the same length).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|r| r.len() == ncols),
            "ragged rows in Matrix::from_rows"
        );
        Matrix {
            rows: nrows,
            cols: ncols,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Builds a column vector from a slice.
    pub fn column(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Adds `value` to entry `(r, c)`.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, value: f64) {
        self[(r, c)] += value;
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        (0..self.rows)
            .map(|r| {
                let row = &self.data[r * self.cols..(r + 1) * self.cols];
                row.iter().zip(v).map(|(a, b)| a * b).sum()
            })
            .collect()
    }

    /// The backing storage in row-major order, writable, indexed by
    /// [`Matrix::slot`].
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Value index of `(r, c)` in [`Matrix::values_mut`]: `r · cols + c`.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of range.
    #[inline]
    pub fn slot(&self, r: usize, c: usize) -> usize {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        r * self.cols + c
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn mul_mat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in mul_mat");
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

    /// Returns `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_mat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row mismatch in add_mat");
        assert_eq!(self.cols, other.cols, "col mismatch in add_mat");
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        out
    }

    /// Returns `self` scaled by `k`.
    pub fn scale(&self, k: f64) -> Matrix {
        let mut out = self.clone();
        out.data.iter_mut().for_each(|x| *x *= k);
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| {
                self.data[r * self.cols..(r + 1) * self.cols]
                    .iter()
                    .map(|x| x.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Matrix exponential `e^self` via scaling-and-squaring with a Taylor
    /// series, accurate for the small systems used here.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn expm(&self) -> Matrix {
        assert_eq!(self.rows, self.cols, "expm requires a square matrix");
        let n = self.rows;
        // Scale so the norm is below 0.5 before the series.
        let norm = self.norm_inf();
        let squarings = if norm > 0.5 {
            (norm / 0.5).log2().ceil() as u32
        } else {
            0
        };
        let a = self.scale(1.0 / f64::powi(2.0, squarings as i32));

        // Taylor series: I + A + A²/2! + ...
        let mut result = Matrix::identity(n);
        let mut term = Matrix::identity(n);
        for k in 1..=20 {
            term = term.mul_mat(&a).scale(1.0 / k as f64);
            result = result.add_mat(&term);
            if term.norm_inf() < 1e-18 {
                break;
            }
        }
        // Square back up.
        for _ in 0..squarings {
            result = result.mul_mat(&result);
        }
        result
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of range");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of range");
        &mut self.data[r * self.cols + c]
    }
}

/// LU decomposition with partial pivoting of a square matrix.
///
/// Factorises `P·A = L·U` once, then solves any number of right-hand
/// sides with [`Lu::solve`].
#[derive(Debug, Clone)]
pub struct Lu {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
    growth: f64,
}

impl Lu {
    /// Matrix dimension the factorisation was computed for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Factorises `a` (a copy is taken).
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if elimination finds a column
    /// whose best pivot is smaller than [`crate::PIVOT_REL_TOL`] times
    /// the largest updated magnitude in that column (or exactly zero).
    /// The threshold is scale-relative, so uniformly tiny or huge but
    /// well-conditioned matrices factor cleanly while numerically
    /// rank-deficient ones are rejected instead of factoring
    /// cancellation garbage.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &Matrix) -> Result<Lu, SingularMatrixError> {
        assert_eq!(a.rows, a.cols, "LU requires a square matrix");
        let n = a.rows;
        let mut lu = a.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut max_orig = 0.0_f64;
        for v in &lu {
            let m = v.abs();
            if m > max_orig {
                max_orig = m;
            }
        }
        let mut max_grown = max_orig;

        for col in 0..n {
            let mut pivot_row = col;
            let mut pivot_val = lu[col * n + col].abs();
            for r in col + 1..n {
                let v = lu[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            // Column scale: the largest updated magnitude anywhere in
            // the column — U entries above the diagonal are final,
            // candidate rows are fully updated by the right-looking
            // elimination.
            let mut col_scale = pivot_val;
            for r in 0..col {
                let v = lu[r * n + col].abs();
                if v > col_scale {
                    col_scale = v;
                }
            }
            if pivot_val == 0.0 || pivot_val < crate::PIVOT_REL_TOL * col_scale {
                return Err(SingularMatrixError { row: col });
            }
            if col_scale > max_grown {
                max_grown = col_scale;
            }
            if pivot_row != col {
                perm.swap(col, pivot_row);
                for c in 0..n {
                    lu.swap(col * n + c, pivot_row * n + c);
                }
            }
            let pivot = lu[col * n + col];
            for r in col + 1..n {
                let factor = lu[r * n + col] / pivot;
                lu[r * n + col] = factor;
                if factor != 0.0 {
                    for c in col + 1..n {
                        lu[r * n + c] -= factor * lu[col * n + c];
                    }
                }
            }
        }
        let growth = if max_orig > 0.0 {
            max_grown / max_orig
        } else {
            1.0
        };
        Ok(Lu {
            n,
            lu,
            perm,
            growth,
        })
    }

    /// Element growth factor of the elimination: the largest updated
    /// magnitude seen during factorisation divided by the largest input
    /// magnitude. Growth near 1 means the factorisation lost no
    /// accuracy; very large growth (say above 1e8) is an advisory
    /// hazard — the factors are usable but solutions deserve a residual
    /// check.
    pub fn pivot_growth(&self) -> f64 {
        self.growth
    }

    /// Estimates the 1-norm condition number `||A||₁·||A⁻¹||₁` with
    /// Hager's algorithm, given `anorm` = `||A||₁` of the factored
    /// matrix. Costs a handful of substitutions against the stored
    /// factors; returns `f64::INFINITY` when solves produce non-finite
    /// values.
    pub fn condest(&self, anorm: f64) -> f64 {
        crate::condest::condest_1(
            self.n,
            |b, x| self.solve_into(b, x),
            |b, x| self.solve_transpose_into(b, x),
            anorm,
        )
    }

    /// Multiplies the first stored pivot `U(0,0)` by `scale`, making
    /// every subsequent solve deterministically wrong by a known
    /// amount. This exists for numeric fault-injection drills (the
    /// numeric-chaos harness perturbs a factor entry and expects the
    /// residual gate to catch it); it has no place on any healthy path.
    pub fn perturb_first_pivot(&mut self, scale: f64) {
        if self.n > 0 {
            self.lu[0] *= scale;
        }
    }

    /// Solves `A·x = b` using the stored factorisation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    #[allow(clippy::needless_range_loop)] // triangular index patterns read clearest this way
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "rhs dimension mismatch");
        let n = self.n;
        let mut x: Vec<f64> = self.perm.iter().map(|&i| b[i]).collect();
        for r in 1..n {
            let mut sum = x[r];
            for c in 0..r {
                sum -= self.lu[r * n + c] * x[c];
            }
            x[r] = sum;
        }
        for r in (0..n).rev() {
            let mut sum = x[r];
            for c in r + 1..n {
                sum -= self.lu[r * n + c] * x[c];
            }
            x[r] = sum / self.lu[r * n + r];
        }
        x
    }

    /// [`Lu::solve`] into a caller-provided buffer, identical
    /// arithmetic, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` have the wrong length.
    #[allow(clippy::needless_range_loop)] // triangular index patterns read clearest this way
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs dimension mismatch");
        assert_eq!(x.len(), self.n, "solution dimension mismatch");
        let n = self.n;
        for i in 0..n {
            x[i] = b[self.perm[i]];
        }
        for r in 1..n {
            let mut sum = x[r];
            for c in 0..r {
                sum -= self.lu[r * n + c] * x[c];
            }
            x[r] = sum;
        }
        for r in (0..n).rev() {
            let mut sum = x[r];
            for c in r + 1..n {
                sum -= self.lu[r * n + c] * x[c];
            }
            x[r] = sum / self.lu[r * n + r];
        }
    }

    /// Solves `Aᵀ·x = b` using the stored factorisation: with
    /// `P·A = L·U`, forward-substitute `Uᵀ·z = b`, back-substitute
    /// `Lᵀ·w = z`, then scatter through the permutation
    /// (`x[perm[i]] = w[i]`). Needed by the 1-norm condition estimator.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` have the wrong length.
    #[allow(clippy::needless_range_loop)] // triangular index patterns read clearest this way
    pub fn solve_transpose_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs dimension mismatch");
        assert_eq!(x.len(), self.n, "solution dimension mismatch");
        let n = self.n;
        let mut w = vec![0.0; n];
        for r in 0..n {
            let mut sum = b[r];
            for k in 0..r {
                sum -= self.lu[k * n + r] * w[k];
            }
            w[r] = sum / self.lu[r * n + r];
        }
        for r in (0..n).rev() {
            let mut sum = w[r];
            for k in r + 1..n {
                sum -= self.lu[k * n + r] * w[k];
            }
            w[r] = sum;
        }
        for i in 0..n {
            x[self.perm[i]] = w[i];
        }
    }
}

/// Convenience: solves `A·x = b` with a one-shot factorisation.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] if `a` is singular.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
    Ok(Lu::factor(a)?.solve(b))
}


/// Dominant eigenpair of a symmetric matrix by power iteration.
///
/// Returns `(eigenvalue, unit eigenvector)`. Convergence is geometric in
/// the eigenvalue gap; `iterations` around 100 suffices for the
/// covariance matrices used in this workspace.
///
/// # Panics
///
/// Panics if the matrix is not square or is empty.
pub fn power_iteration(a: &Matrix, iterations: usize) -> (f64, Vec<f64>) {
    assert_eq!(a.rows(), a.cols(), "power iteration needs a square matrix");
    let n = a.rows();
    assert!(n >= 1, "empty matrix");
    // Deterministic, non-degenerate start vector.
    let mut v: Vec<f64> = (0..n).map(|k| 1.0 + (k as f64) * 0.37).collect();
    normalise(&mut v);
    let mut lambda = 0.0;
    for _ in 0..iterations {
        let mut w = a.mul_vec(&v);
        lambda = v.iter().zip(&w).map(|(x, y)| x * y).sum();
        if normalise(&mut w) < 1e-300 {
            return (0.0, v);
        }
        v = w;
    }
    (lambda, v)
}

/// Top-`k` eigenpairs of a symmetric positive semi-definite matrix via
/// power iteration with deflation.
///
/// # Panics
///
/// Panics if the matrix is not square or `k` exceeds its dimension.
pub fn top_eigenpairs(a: &Matrix, k: usize, iterations: usize) -> Vec<(f64, Vec<f64>)> {
    assert_eq!(a.rows(), a.cols(), "eigen decomposition needs square");
    assert!(k <= a.rows(), "k exceeds dimension");
    let mut work = a.clone();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let (lambda, v) = power_iteration(&work, iterations);
        // Deflate: A <- A - lambda v v^T.
        for r in 0..work.rows() {
            for c in 0..work.cols() {
                work[(r, c)] -= lambda * v[r] * v[c];
            }
        }
        out.push((lambda, v));
    }
    out
}

fn normalise(v: &mut [f64]) -> f64 {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        v.iter_mut().for_each(|x| *x /= norm);
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let a = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.5, 0.0];
        let x = solve(&a, &b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solves_small_system() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(solve(&a, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let z = Matrix::zeros(3, 3);
        assert_eq!(z.expm(), Matrix::identity(3));
    }

    #[test]
    fn expm_of_diagonal() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = -2.0;
        let e = a.expm();
        assert!((e[(0, 0)] - 1.0_f64.exp()).abs() < 1e-12);
        assert!((e[(1, 1)] - (-2.0_f64).exp()).abs() < 1e-12);
        assert!(e[(0, 1)].abs() < 1e-15);
    }

    #[test]
    fn expm_rotation_matrix() {
        // exp([[0, -t], [t, 0]]) = rotation by t.
        let t = 0.7;
        let a = Matrix::from_rows(&[vec![0.0, -t], vec![t, 0.0]]);
        let e = a.expm();
        assert!((e[(0, 0)] - t.cos()).abs() < 1e-12);
        assert!((e[(1, 0)] - t.sin()).abs() < 1e-12);
    }

    #[test]
    fn expm_large_norm_uses_squaring() {
        let a = Matrix::from_rows(&[vec![-100.0]]);
        let e = a.expm();
        assert!((e[(0, 0)] - (-100.0_f64).exp()).abs() < 1e-40);
    }

    #[test]
    fn norm_inf_is_max_row_sum() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, 0.5]]);
        assert_eq!(a.norm_inf(), 3.5);
    }

    #[test]
    fn column_vector_shape() {
        let v = Matrix::column(&[1.0, 2.0, 3.0]);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 1);
    }

    #[test]
    fn power_iteration_finds_dominant_eigenpair() {
        // Symmetric with eigenvalues 5 (along [1,1]/sqrt2) and 1.
        let a = Matrix::from_rows(&[vec![3.0, 2.0], vec![2.0, 3.0]]);
        let (lambda, v) = power_iteration(&a, 200);
        assert!((lambda - 5.0).abs() < 1e-9, "lambda {lambda}");
        let expect = 1.0 / 2.0_f64.sqrt();
        assert!((v[0].abs() - expect).abs() < 1e-6);
        assert!((v[0] - v[1]).abs() < 1e-6);
    }

    #[test]
    fn deflation_recovers_full_spectrum() {
        let a = Matrix::from_rows(&[
            vec![4.0, 0.0, 0.0],
            vec![0.0, 2.5, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let pairs = top_eigenpairs(&a, 3, 300);
        let lambdas: Vec<f64> = pairs.iter().map(|(l, _)| *l).collect();
        assert!((lambdas[0] - 4.0).abs() < 1e-8);
        assert!((lambdas[1] - 2.5).abs() < 1e-8);
        assert!((lambdas[2] - 1.0).abs() < 1e-8);
        // Eigenvectors of distinct eigenvalues are orthogonal.
        let dot: f64 = pairs[0].1.iter().zip(&pairs[1].1).map(|(x, y)| x * y).sum();
        assert!(dot.abs() < 1e-6);
    }

    #[test]
    fn factor_reuse_for_multiple_rhs() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let lu = Lu::factor(&a).unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]] {
            let x = lu.solve(&b);
            let back = a.mul_vec(&x);
            assert!((back[0] - b[0]).abs() < 1e-12);
            assert!((back[1] - b[1]).abs() < 1e-12);
        }
    }
}
