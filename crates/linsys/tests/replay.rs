//! Property tests for the replayed refactorisation: whatever the
//! values, [`RefactorSchedule::replay`] either declines or produces the
//! full pivoting kernel's factor — solves equal bit for bit after zero
//! normalisation, the same growth factor and condition estimate — and a
//! declined singular matrix reports the full kernel's breakdown row.

use std::sync::Arc;

use linsys::sparse::{RefactorSchedule, SparseLu, SparseMatrix, SparseStructure, SparseWorkspace};
use linsys::SingularMatrixError;
use proptest::prelude::*;

/// How the second matrix's values relate to the first's.
#[derive(Debug, Clone, Copy)]
enum Change {
    /// Relative jitter of 1e-3: the pivot order nearly always holds.
    Jitter,
    /// Jitter, and every exact zero of the first matrix turns nonzero
    /// while some nonzeros turn exactly zero: multipliers appear and
    /// vanish.
    ZerosFlip,
    /// Values rescaled by up to 100× either way, signs flipped at
    /// random: the pivot order often changes.
    Reorder,
    /// Jitter with one node's row zeroed: exactly singular.
    ZeroRow,
    /// Jitter with one node's row scaled by 1e-20: singular at the
    /// relative pivot threshold.
    TinyRow,
}

const CHANGES: [Change; 5] = [
    Change::Jitter,
    Change::ZerosFlip,
    Change::Reorder,
    Change::ZeroRow,
    Change::TinyRow,
];

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
}

/// Two matrices over one MNA-like structure: grounded conductances
/// between `nodes` nodes (some stamped as exact zeros), plus two
/// voltage-source branches whose rows have structurally present but
/// zero diagonals, so the pivot order is not the identity.
fn matrix_pair(seed: u64, change: Change) -> (SparseMatrix, SparseMatrix) {
    let nodes = 6;
    let n = nodes + 2;
    let mut rng = Stream(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    for k in 0..nodes {
        entries.push((k, k, 0.1 + 10.0 * rng.unit()));
    }
    for _ in 0..2 * nodes {
        let (a, b) = (rng.below(nodes), rng.below(nodes));
        if a == b {
            continue;
        }
        let g = if rng.unit() < 0.2 {
            0.0
        } else {
            0.01 + 100.0 * rng.unit()
        };
        entries.extend([(a, a, g), (b, b, g), (a, b, -g), (b, a, -g)]);
    }
    for j in nodes..n {
        let a = rng.below(nodes);
        entries.extend([(a, j, 1.0), (j, a, 1.0), (j, j, 0.0)]);
    }
    let positions: Vec<(usize, usize)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
    let structure = SparseStructure::from_positions(n, &positions);

    let mut first = SparseMatrix::zeros(Arc::clone(&structure));
    let mut second = SparseMatrix::zeros(structure);
    let victim = rng.below(nodes);
    for &(r, c, v) in &entries {
        first.add(r, c, v);
        let jitter = 1.0 + 1e-3 * (2.0 * rng.unit() - 1.0);
        let w = match change {
            Change::Jitter => v * jitter,
            Change::ZerosFlip => {
                if v == 0.0 {
                    0.5 + rng.unit()
                } else if rng.unit() < 0.15 {
                    0.0
                } else {
                    v * jitter
                }
            }
            Change::Reorder => {
                let scale = 10f64.powf(4.0 * rng.unit() - 2.0);
                let sign = if rng.unit() < 0.3 { -1.0 } else { 1.0 };
                v * scale * sign
            }
            Change::ZeroRow if r == victim => 0.0,
            Change::TinyRow if r == victim => v * 1e-20,
            Change::ZeroRow | Change::TinyRow => v * jitter,
        };
        second.add(r, c, w);
    }
    (first, second)
}

/// What the replay did with the second matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Outcome {
    Replayed,
    DeclinedFactored,
    DeclinedSingular,
}

fn normalised_solve(lu: &SparseLu, b: &[f64]) -> Vec<u64> {
    let mut x = vec![0.0; b.len()];
    lu.solve_into(b, &mut x);
    x.iter().map(|v| (v + 0.0).to_bits()).collect()
}

/// Asserts `got` is `want`'s factor as far as any caller can see.
fn same_factor(got: &SparseLu, want: &SparseLu, a: &SparseMatrix) -> Result<(), String> {
    let n = a.n();
    for b in [
        (0..n).map(|i| i as f64 - 2.5).collect::<Vec<_>>(),
        (0..n)
            .map(|i| if i % 3 == 0 { 0.0 } else { 1e-3 * i as f64 })
            .collect(),
    ] {
        if normalised_solve(got, &b) != normalised_solve(want, &b) {
            return Err(format!("solves differ for b = {b:?}"));
        }
    }
    if got.pivot_growth().to_bits() != want.pivot_growth().to_bits() {
        return Err(format!(
            "growth {:e} vs {:e}",
            got.pivot_growth(),
            want.pivot_growth()
        ));
    }
    let anorm = a.norm_one();
    if got.condest(anorm).to_bits() != want.condest(anorm).to_bits() {
        return Err("condition estimates differ".into());
    }
    Ok(())
}

/// Factors the first matrix with the full kernel, builds its schedule
/// and replays the second, checking the result against a fresh full
/// factorisation. `None` when the first matrix itself is singular.
fn check(seed: u64, change: Change) -> Option<Result<Outcome, String>> {
    let (first, second) = matrix_pair(seed, change);
    let mut ws = SparseWorkspace::new(first.n());
    let mut lu = SparseLu::default();
    lu.refactor(&first, &mut ws).ok()?;
    let mut schedule = RefactorSchedule::new(first.structure(), &lu);
    let accepted = schedule.replay(&second, &mut lu);
    let fresh: Result<SparseLu, SingularMatrixError> = SparseLu::factor(&second);
    Some(if accepted {
        match fresh {
            Ok(want) => same_factor(&lu, &want, &second).map(|()| Outcome::Replayed),
            Err(e) => Err(format!(
                "replay accepted a matrix the full kernel rejects: {e}"
            )),
        }
    } else {
        // The declined matrix goes through the full path, which must
        // report exactly what the full kernel alone does.
        let mut scheduled = SparseLu::default();
        let mut slot = Some(schedule);
        let got = scheduled.refactor_scheduled(&second, &mut ws, &mut slot);
        match (got, fresh) {
            (Ok(()), Ok(want)) => {
                same_factor(&scheduled, &want, &second).map(|()| Outcome::DeclinedFactored)
            }
            (Err(g), Err(w)) if g == w => Ok(Outcome::DeclinedSingular),
            (g, w) => Err(format!(
                "full path {g:?} vs full kernel {:?}",
                w.map(|_| ())
            )),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replay_declines_or_matches_the_full_kernel(
        seed in 0..u64::MAX,
        change in 0..CHANGES.len(),
    ) {
        let outcome = check(seed, CHANGES[change]);
        prop_assume!(outcome.is_some());
        if let Some(Err(msg)) = outcome {
            prop_assert!(false, "{:?} seed {}: {}", CHANGES[change], seed, msg);
        }
    }
}

/// Every outcome the property quantifies over actually occurs: replays
/// under jitter and under appearing multipliers, declines that refactor
/// and declines on singular matrices, at the threshold too.
#[test]
fn replay_outcomes_are_all_exercised() {
    let mut seen = std::collections::HashMap::new();
    for change in CHANGES {
        for seed in 0..150 {
            if let Some(outcome) = check(seed, change) {
                let outcome = outcome.unwrap_or_else(|m| panic!("{change:?} seed {seed}: {m}"));
                *seen.entry((format!("{change:?}"), outcome)).or_insert(0) += 1;
            }
        }
    }
    for want in [
        ("Jitter", Outcome::Replayed),
        ("ZerosFlip", Outcome::Replayed),
        ("Reorder", Outcome::DeclinedFactored),
        ("ZeroRow", Outcome::DeclinedSingular),
        ("TinyRow", Outcome::DeclinedSingular),
    ] {
        assert!(
            seen.contains_key(&(want.0.to_string(), want.1)),
            "{want:?} never happened: {seen:?}"
        );
    }
}
