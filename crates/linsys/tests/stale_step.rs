//! Property tests for the fused stale Newton step:
//! [`SparseLu::stale_step_into`] must equal, bit for bit, the two-pass
//! composition it replaced — the residual, the solve, the zero-sign
//! normalisation, the update and its largest delta — on factors from
//! the full kernel and from a replay, applied to a matrix other than
//! the one they factor, as a stale Jacobian is.

use std::sync::Arc;

use linsys::sparse::{SparseLu, SparseMatrix, SparseStructure, SparseWorkspace};
use proptest::prelude::*;

/// Deterministic xorshift stream in `[0, 1)`.
struct Stream(u64);

impl Stream {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// A value in ±`scale`, a signed zero one time in `zeros`.
    fn value(&mut self, scale: f64, zeros: usize) -> f64 {
        if self.below(zeros) == 0 {
            if self.unit() < 0.5 {
                0.0
            } else {
                -0.0
            }
        } else {
            scale * (2.0 * self.unit() - 1.0)
        }
    }
}

/// Two matrices over one MNA-like structure — grounded conductances
/// between `nodes` nodes plus `branches` (at most `nodes`)
/// voltage-source rows with zero diagonals, so pivoting reorders rows —
/// the second a jittered copy of the first.
fn matrix_pair(rng: &mut Stream, nodes: usize, branches: usize) -> (SparseMatrix, SparseMatrix) {
    let n = nodes + branches;
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    for k in 0..nodes {
        entries.push((k, k, 0.1 + 10.0 * rng.unit()));
    }
    for _ in 0..2 * nodes {
        let (a, b) = (rng.below(nodes), rng.below(nodes));
        if a != b {
            let g = 0.01 + 100.0 * rng.unit();
            entries.extend([(a, a, g), (b, b, g), (a, b, -g), (b, a, -g)]);
        }
    }
    // Each branch drives its own node, so the system stays regular.
    let first_node = rng.below(nodes);
    for j in nodes..n {
        let a = (first_node + j - nodes) % nodes;
        entries.extend([(a, j, 1.0), (j, a, 1.0), (j, j, 0.0)]);
    }
    let positions: Vec<(usize, usize)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
    let structure = SparseStructure::from_positions(n, &positions);
    let mut first = SparseMatrix::zeros(Arc::clone(&structure));
    let mut second = SparseMatrix::zeros(structure);
    for &(r, c, v) in &entries {
        first.add(r, c, v);
        second.add(r, c, v * (1.0 + 1e-3 * (2.0 * rng.unit() - 1.0)));
    }
    (first, second)
}

/// The two-pass stale step: `residual_into`, `solve_into`, `+= 0.0`,
/// `x − step`, then the largest `|x_new − x|`, `INFINITY` at the first
/// non-finite one.
fn two_pass(lu: &SparseLu, a: &SparseMatrix, x: &[f64], b: &[f64]) -> (Vec<f64>, f64) {
    let n = a.n();
    let mut resid = vec![0.0; n];
    a.residual_into(x, b, &mut resid);
    let mut step = vec![0.0; n];
    lu.solve_into(&resid, &mut step);
    for v in &mut step {
        *v += 0.0;
    }
    let x_new: Vec<f64> = x.iter().zip(&step).map(|(xk, s)| xk - s).collect();
    let mut worst = 0.0_f64;
    for (xn, xk) in x_new.iter().zip(x) {
        let d = (xn - xk).abs();
        if !d.is_finite() {
            worst = f64::INFINITY;
            break;
        }
        if d > worst {
            worst = d;
        }
    }
    (x_new, worst)
}

/// Compares the fused step with the two-pass one on `lu` against `a`.
fn check_step(lu: &SparseLu, a: &SparseMatrix, x: &[f64], b: &[f64]) -> Result<f64, String> {
    let n = a.n();
    let (want, want_worst) = two_pass(lu, a, x, b);
    let mut y = vec![0.0; n];
    let mut got = vec![f64::NAN; n];
    let worst = lu.stale_step_into(a, x, b, &mut y, &mut got);
    if worst.to_bits() != want_worst.to_bits() {
        return Err(format!("worst {worst:e} vs {want_worst:e}"));
    }
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        if g.to_bits() != w.to_bits() {
            return Err(format!("x_new[{k}] {g:e} vs {w:e}"));
        }
    }
    Ok(worst)
}

/// Factors the first matrix of a pair by the full kernel and, after a
/// schedule is built, the second by a replay; checks the fused step of
/// each against both matrices.
fn check(seed: u64, nodes: usize, branches: usize, poison: usize) -> Result<(), String> {
    let mut rng = Stream(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let (first, second) = matrix_pair(&mut rng, nodes, branches.min(nodes));
    let n = first.n();
    let mut ws = SparseWorkspace::new(n);
    let mut schedule = None;
    let mut full = SparseLu::default();
    full.refactor_scheduled(&first, &mut ws, &mut schedule)
        .map_err(|e| format!("full factor: {e:?}"))?;
    let mut replayed = full.clone();
    replayed
        .refactor_scheduled(&second, &mut ws, &mut schedule)
        .map_err(|e| format!("replay: {e:?}"))?;

    let mut x: Vec<f64> = (0..n).map(|_| rng.value(5.0, 6)).collect();
    let mut b: Vec<f64> = (0..n).map(|_| rng.value(1.0, 4)).collect();
    // Poisoning: 1 and 2 make one `x` entry infinite or NaN, 3 one `b`
    // entry infinite; the step must then report `INFINITY`.
    let k = rng.below(n);
    match poison {
        1 => x[k] = f64::INFINITY,
        2 => x[k] = f64::NAN,
        3 => b[k] = f64::NEG_INFINITY,
        _ => {}
    }
    for (lu, name) in [(&full, "full"), (&replayed, "replayed")] {
        for a in [&first, &second] {
            let worst = check_step(lu, a, &x, &b).map_err(|m| format!("{name}: {m}"))?;
            if poison != 0 && worst != f64::INFINITY {
                return Err(format!("{name}: poisoned step returned {worst:e}"));
            }
        }
    }
    // A right-hand side the matrix maps `x` onto exactly zeroes the
    // residual, so the step is all signed zeros and `x`'s own `-0.0`
    // entries meet them; the negated matrix flips the pivots' signs.
    let mut negated = first.clone();
    for v in negated.values_mut() {
        *v = -*v;
    }
    for a in [&first, &negated] {
        let mut exact = vec![0.0; n];
        a.residual_into(&x, &vec![0.0; n], &mut exact);
        let lu = SparseLu::factor(a).map_err(|e| format!("exact factor: {e:?}"))?;
        check_step(&lu, a, &x, &exact).map_err(|m| format!("exact: {m}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_stale_step_matches_the_two_pass_composition(
        seed in 0..u64::MAX,
        nodes in 1usize..9,
        branches in 0usize..3,
        poison in 0usize..4,
    ) {
        if let Err(msg) = check(seed, nodes, branches, poison) {
            prop_assert!(false, "seed {} nodes {} branches {} poison {}: {}", seed, nodes, branches, poison, msg);
        }
    }
}

#[test]
fn a_one_unknown_step_is_the_scalar_newton_step() {
    // n = 1: A = [4], b = [2], stale factor of [5]: x_new = x − (4x − 2)/5.
    let structure = SparseStructure::from_positions(1, &[(0, 0)]);
    let mut a = SparseMatrix::zeros(Arc::clone(&structure));
    a.add(0, 0, 4.0);
    let mut m = SparseMatrix::zeros(structure);
    m.add(0, 0, 5.0);
    let lu = SparseLu::factor(&m).unwrap();
    let x = [1.0];
    let (mut y, mut x_new) = ([0.0], [0.0]);
    let worst = lu.stale_step_into(&a, &x, &[2.0], &mut y, &mut x_new);
    assert_eq!(x_new[0], 1.0 - (4.0 - 2.0) / 5.0);
    assert_eq!(worst, (x_new[0] - x[0]).abs());
    assert_eq!(check_step(&lu, &a, &x, &[2.0]), Ok(worst));
    let worst = lu.stale_step_into(&a, &x, &[f64::NAN], &mut y, &mut x_new);
    assert_eq!(worst, f64::INFINITY);
}
