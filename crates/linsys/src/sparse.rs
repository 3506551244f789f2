//! Sparse matrices and a sparse LU factorisation whose arithmetic
//! mirrors the dense [`crate::matrix::Lu`] bit for bit.
//!
//! The MNA systems the circuit solver assembles are small but very
//! sparse (a handful of entries per row), and the Newton hot loop
//! factorises one per iteration. This module splits that work the way
//! sparse direct solvers do:
//!
//! * [`SparseStructure`] — the *symbolic* side: the sparsity pattern of
//!   the assembled system plus a dense position→slot lookup table, so
//!   stamping into a [`SparseMatrix`] costs the same indexed add a
//!   dense matrix would. The structure is computed once per (netlist,
//!   fault) structure and shared (`Arc`) across every Newton iteration
//!   and timestep.
//! * [`SparseMatrix`] — the numeric values over a shared structure, in
//!   row-major slot order: clear, indexed add, row-oriented
//!   matrix–vector products that read the values contiguously.
//! * [`SparseLu`] — a left-looking Gilbert–Peierls LU with partial
//!   pivoting. Pivot choice, update order and per-entry arithmetic
//!   replicate the dense `Lu::factor`/`Lu::solve` exactly (see below),
//!   and [`SparseLu::refactor`] reuses every allocation for the
//!   numeric-only refactorisations the Newton loop performs.
//! * [`RefactorSchedule`] — the last full factorisation's pivot order
//!   with its structural fill, replayed by
//!   [`SparseLu::refactor_scheduled`] without the pivot search, the
//!   pattern discovery or the row-major transpose; the full kernel
//!   runs only when the replay declines.
//!
//! Either way the factor stores only the L and strict-U entries that
//! are `!= 0.0` (a NaN is kept), so the substitutions never walk a
//! term that cannot change a nonzero result, and a replayed factor is
//! the full kernel's entry for entry.
//!
//! # Bit-compatibility with the dense factorisation
//!
//! The solver promises canonical reports that are byte-identical
//! between its dense and sparse backends, which requires the two
//! factorisations to produce bit-identical *nonzero* values (zeros are
//! normalised at the solve boundary by the caller):
//!
//! * **Pivoting** — the dense code scans physical rows `col..n` in
//!   current order, keeps the strictly-greater maximum of `|value|`,
//!   rejects pivots below [`crate::PIVOT_REL_TOL`] times the column's
//!   largest updated magnitude, and swaps whole rows. Here the physical
//!   order lives in a permutation vector scanned the same way with the
//!   same strict comparison; the column scale is the maximum over the
//!   accumulator pattern, which matches the dense maximum because every
//!   entry the dense code sees outside the pattern is an exact zero.
//! * **Update order** — the dense right-looking elimination applies,
//!   to each entry, the updates from pivot columns `k` in ascending
//!   order, skipping a pivot row whose multiplier is exactly `0.0`.
//!   The left-looking column solve here walks `k` ascending and keeps
//!   the same `multiplier != 0.0` skip, so every entry accumulates the
//!   same terms in the same order.
//! * **Substitution order** — forward substitution walks rows
//!   ascending with columns ascending inside each row; backward
//!   substitution walks rows descending with columns ascending, one
//!   division by the diagonal per row. [`SparseLu`] stores L and U in
//!   row-major form post-factorisation so its substitutions visit
//!   entries in exactly that order.
//!
//! Entries the dense code touches that the sparse pattern omits, and
//! the exact zeros the factor drops, are exact (signed) zeros on both
//! sides; skipping them can flip the sign of a zero but never changes a
//! nonzero value. The one exception is a non-finite right-hand side,
//! where the dense code's explicit `0 × ∞` is NaN and the sparse solve
//! has no such term.

use std::sync::Arc;

use crate::error::SingularMatrixError;
use crate::matrix::Matrix;

/// Marker for an absent entry in the dense position→slot table.
const NO_SLOT: u32 = u32::MAX;

/// The symbolic half of a sparse system: the sparsity pattern of an
/// `n × n` matrix, with row-major and column-major index forms plus a
/// dense lookup table mapping `(row, col)` to a value slot.
///
/// Value slots are in row-major order (rows ascending, columns
/// ascending inside a row), so the matrix–vector products the Newton
/// loop runs on every iteration read the values contiguously; the
/// factorisations reach columns through the `col_slot` map.
///
/// Build one with [`SparseStructure::from_positions`] and share it
/// (`Arc`) between every [`SparseMatrix`] that assembles the same
/// circuit structure.
#[derive(Debug)]
pub struct SparseStructure {
    n: usize,
    /// Row pointers (`n + 1` entries) and per-slot column indices:
    /// slot `e` of row `r` lies in `row_ptr[r]..row_ptr[r + 1]`.
    row_ptr: Vec<usize>,
    row_col: Vec<u32>,
    /// `slot[r * n + c]` is the value index of `(r, c)`, or [`NO_SLOT`].
    slot: Vec<u32>,
    /// Column-major traversal of the same slots: column pointers,
    /// per-entry row indices (ascending within a column) and value
    /// slots.
    col_ptr: Vec<usize>,
    col_row: Vec<u32>,
    col_slot: Vec<u32>,
}

impl SparseStructure {
    /// Builds a structure from the set of occupied `(row, col)`
    /// positions (duplicates are fine).
    ///
    /// # Panics
    ///
    /// Panics if any position lies outside the `n × n` grid.
    pub fn from_positions(n: usize, positions: &[(usize, usize)]) -> Arc<Self> {
        let mut slot = vec![NO_SLOT; n * n];
        for &(r, c) in positions {
            assert!(r < n && c < n, "position ({r}, {c}) outside {n}x{n} matrix");
            slot[r * n + c] = 0;
        }
        let mut row_ptr = vec![0usize; n + 1];
        let mut row_col = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if slot[r * n + c] != NO_SLOT {
                    slot[r * n + c] = u32::try_from(row_col.len()).expect("pattern fits u32");
                    row_col.push(c as u32);
                }
            }
            row_ptr[r + 1] = row_col.len();
        }
        let mut col_ptr = vec![0usize; n + 1];
        let mut col_row = Vec::with_capacity(row_col.len());
        let mut col_slot = Vec::with_capacity(row_col.len());
        for c in 0..n {
            for r in 0..n {
                let s = slot[r * n + c];
                if s != NO_SLOT {
                    col_row.push(r as u32);
                    col_slot.push(s);
                }
            }
            col_ptr[c + 1] = col_row.len();
        }
        Arc::new(SparseStructure {
            n,
            row_ptr,
            row_col,
            slot,
            col_ptr,
            col_row,
            col_slot,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of structurally nonzero entries.
    pub fn nnz(&self) -> usize {
        self.row_col.len()
    }

    /// Value-slot index of `(r, c)`, if the position is in the pattern.
    pub fn slot_of(&self, r: usize, c: usize) -> Option<usize> {
        match self.slot[r * self.n + c] {
            NO_SLOT => None,
            s => Some(s as usize),
        }
    }
}

/// Numeric values over a shared [`SparseStructure`].
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    structure: Arc<SparseStructure>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// An all-zero matrix over `structure`.
    pub fn zeros(structure: Arc<SparseStructure>) -> Self {
        let nnz = structure.nnz();
        SparseMatrix {
            structure,
            values: vec![0.0; nnz],
        }
    }

    /// The shared structure.
    pub fn structure(&self) -> &Arc<SparseStructure> {
        &self.structure
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.structure.n
    }

    /// Resets every stored value to zero (the pattern is retained).
    pub fn clear(&mut self) {
        self.values.fill(0.0);
    }

    /// Stored values in canonical (row-major) slot order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Stored values, writable, indexed by [`SparseMatrix::slot_of`].
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Value-slot index of `(r, c)`, if the position is in the pattern.
    #[inline]
    pub fn slot_of(&self, r: usize, c: usize) -> Option<usize> {
        self.structure.slot_of(r, c)
    }

    /// Overwrites the stored values from a snapshot taken with
    /// [`SparseMatrix::values`] (the linear-stamp baseline fast path).
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong length.
    pub fn load_values(&mut self, values: &[f64]) {
        self.values.copy_from_slice(values);
    }

    /// Adds `value` at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is not in the pattern — the structure must
    /// have been built from a superset of the stamped positions.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, value: f64) {
        let s = self.structure.slot[r * self.structure.n + c];
        assert!(s != NO_SLOT, "stamp at ({r}, {c}) outside sparse pattern");
        self.values[s as usize] += value;
    }

    /// Entry at `(r, c)` (zero when outside the pattern).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.structure.slot_of(r, c).map_or(0.0, |s| self.values[s])
    }

    /// Row `r`'s column indices and values, columns ascending.
    #[inline]
    fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let s = &*self.structure;
        let (lo, hi) = (s.row_ptr[r], s.row_ptr[r + 1]);
        (&s.row_col[lo..hi], &self.values[lo..hi])
    }

    /// Row `r` of the residual `A·x − b`: the row's products summed
    /// into an accumulator that starts at `0.0`, in ascending column
    /// order (the dense `Matrix::mul_vec` order restricted to the
    /// pattern), then `b[r]` subtracted.
    ///
    /// # Safety
    ///
    /// `r < n`, `x.len() >= n`, `b.len() >= n`, and `values` holds one
    /// value per structural entry. `from_positions` builds `row_ptr`
    /// with `n + 1` non-decreasing entries ending at `row_col.len()`
    /// and asserts every column below `n`, and the structure is
    /// immutable once built, so every read here is then in bounds.
    #[inline(always)]
    unsafe fn row_residual(&self, r: usize, x: &[f64], b: &[f64]) -> f64 {
        let s = &*self.structure;
        let mut acc = 0.0;
        for e in *s.row_ptr.get_unchecked(r)..*s.row_ptr.get_unchecked(r + 1) {
            acc += self.values.get_unchecked(e)
                * x.get_unchecked(*s.row_col.get_unchecked(e) as usize);
        }
        acc - b.get_unchecked(r)
    }

    /// Asserts the lengths [`SparseMatrix::row_residual`] relies on.
    fn check_residual_args(&self, x: &[f64], b: &[f64]) {
        let n = self.structure.n;
        assert!(
            x.len() >= n && b.len() >= n && self.values.len() == self.structure.row_col.len(),
            "vector shorter than the matrix"
        );
    }

    /// Residual `A·x − b` into `out`, one row at a time: each row
    /// accumulates its products in ascending column order, then
    /// subtracts `b[r]`.
    pub fn residual_into(&self, x: &[f64], b: &[f64], out: &mut [f64]) {
        let n = self.structure.n;
        self.check_residual_args(x, b);
        for (r, slot) in out[..n].iter_mut().enumerate() {
            // SAFETY: `r < n` and the lengths were asserted above.
            *slot = unsafe { self.row_residual(r, x, b) };
        }
    }

    /// Residual `A·x − b` into `out` plus the Oettli–Prager gate scale
    /// `max_r(Σ_c |a_rc·x_c| + |b_r|)`, in one pass, visiting each row's
    /// entries in ascending column order. The entries outside the
    /// pattern are exact zeros whose `|0·x|` contribution cannot change
    /// a non-negative sum, so the scale is the dense formula's.
    pub fn residual_gate_into(&self, x: &[f64], b: &[f64], out: &mut [f64]) -> (f64, f64) {
        let mut rnorm = 0.0_f64;
        let mut scale = 0.0_f64;
        for (r, (slot, &br)) in out.iter_mut().zip(b).enumerate().take(self.n()) {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0_f64;
            let mut mag = 0.0_f64;
            for (&c, &v) in cols.iter().zip(vals) {
                let p = v * x[c as usize];
                acc += p;
                mag += p.abs();
            }
            *slot = acc - br;
            let ra = slot.abs();
            if ra.is_nan() {
                rnorm = f64::INFINITY;
            } else if ra > rnorm {
                rnorm = ra;
            }
            let g = mag + br.abs();
            if g.is_nan() {
                scale = f64::INFINITY;
            } else if g > scale {
                scale = g;
            }
        }
        (rnorm, scale)
    }

    /// 1-norm `max_c Σ_r |a_rc|`, each column accumulated in ascending
    /// row order; the entries outside the pattern are exact zeros.
    pub fn norm_one(&self) -> f64 {
        let s = &*self.structure;
        let mut colsum = vec![0.0_f64; s.n];
        for (&c, &v) in s.row_col.iter().zip(&self.values) {
            colsum[c as usize] += v.abs();
        }
        let mut m = 0.0_f64;
        for v in colsum {
            if v.is_nan() {
                return f64::INFINITY;
            }
            if v > m {
                m = v;
            }
        }
        m
    }

    /// Dense copy (diagnostics and tests).
    pub fn to_dense(&self) -> Matrix {
        let n = self.structure.n;
        let mut m = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                if let Some(s) = self.structure.slot_of(r, c) {
                    m.add(r, c, self.values[s]);
                }
            }
        }
        m
    }
}

/// Reusable scratch space for [`SparseLu::refactor`]: the dense
/// accumulator column, pattern flags and the by-column intermediate
/// factors. One workspace serves any number of refactorisations of the
/// same dimension without allocating.
#[derive(Debug, Clone, Default)]
pub struct SparseWorkspace {
    /// Dense accumulator for the active column, indexed by original
    /// row.
    x: Vec<f64>,
    /// Pattern membership of `x`, indexed by original row.
    in_pattern: Vec<bool>,
    /// Original rows currently in the pattern (reset list).
    pattern: Vec<u32>,
    /// L by pivot column: `(original row, multiplier)` per entry.
    lcol_ptr: Vec<usize>,
    lcol_row: Vec<u32>,
    lcol_val: Vec<f64>,
    /// U by column: `(pivot step k, value)` per entry, diagonal
    /// included.
    ucol_ptr: Vec<usize>,
    ucol_k: Vec<u32>,
    ucol_val: Vec<f64>,
    /// Original row → pivotal position (inverse of the permutation).
    pos: Vec<usize>,
    /// Pivot step → original pivot row.
    pivot_row: Vec<usize>,
    /// Per-row entry counters for the row-major transposes.
    row_count: Vec<usize>,
}

impl SparseWorkspace {
    /// A workspace for `n × n` factorisations.
    pub fn new(n: usize) -> Self {
        let mut ws = SparseWorkspace::default();
        ws.resize(n);
        ws
    }

    fn resize(&mut self, n: usize) {
        self.x.resize(n, 0.0);
        self.in_pattern.resize(n, false);
        self.pos.resize(n, 0);
        self.pivot_row.resize(n, 0);
        self.row_count.resize(n, 0);
    }
}

/// A sparse LU factorisation `P·A = L·U` with the same pivot sequence
/// and arithmetic as the dense [`crate::matrix::Lu`].
///
/// L and U are stored row-major (by pivotal row) so the substitutions
/// visit entries in the dense order; L's unit diagonal is implicit.
/// Only the off-diagonal entries that are `!= 0.0` are stored.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    n: usize,
    /// `perm[i]` = original row at pivotal position `i`.
    perm: Vec<usize>,
    lrow_ptr: Vec<usize>,
    lrow_col: Vec<u32>,
    lrow_val: Vec<f64>,
    /// Strictly-upper entries, columns ascending within a row.
    urow_ptr: Vec<usize>,
    urow_col: Vec<u32>,
    urow_val: Vec<f64>,
    diag: Vec<f64>,
    /// Element growth factor of the last (re)factorisation.
    growth: f64,
}

/// A column-major transpose of one of a [`SparseLu`]'s row-major
/// triangles, row indices ascending within each column.
///
/// Only the condition estimate's `Aᵀ` solves read these, so they are
/// built on demand — once per [`SparseLu::condest`] call — instead of on
/// every refactorisation.
struct ColumnForm {
    ptr: Vec<usize>,
    row: Vec<u32>,
    val: Vec<f64>,
}

impl ColumnForm {
    /// Transposes a row-major triangle (`ptr`/`col`/`val`). Iterating
    /// source rows ascending lands each column's row indices already
    /// sorted, which is exactly the ascending-k accumulation order the
    /// dense transpose substitutions use.
    fn transpose(n: usize, ptr: &[usize], col: &[u32], val: &[f64]) -> ColumnForm {
        let mut count = vec![0usize; n];
        for &c in col {
            count[c as usize] += 1;
        }
        let mut tptr = Vec::with_capacity(n + 1);
        tptr.push(0);
        for c in 0..n {
            tptr.push(tptr[c] + count[c]);
        }
        let mut row = vec![0u32; col.len()];
        let mut tval = vec![0.0; val.len()];
        count.copy_from_slice(&tptr[..n]);
        for r in 0..n {
            for e in ptr[r]..ptr[r + 1] {
                let c = col[e] as usize;
                let dst = count[c];
                count[c] += 1;
                row[dst] = r as u32;
                tval[dst] = val[e];
            }
        }
        ColumnForm {
            ptr: tptr,
            row,
            val: tval,
        }
    }
}

impl SparseLu {
    /// Factorises `a`, allocating a fresh factor and workspace.
    ///
    /// # Errors
    ///
    /// [`SingularMatrixError`] when no usable pivot exists, mirroring
    /// the dense factorisation's threshold and breakdown row.
    pub fn factor(a: &SparseMatrix) -> Result<SparseLu, SingularMatrixError> {
        let mut ws = SparseWorkspace::new(a.n());
        let mut lu = SparseLu::default();
        lu.refactor(a, &mut ws)?;
        Ok(lu)
    }

    /// Numeric refactorisation of `a` into `self` that replays
    /// `schedule` when it was built over `a`'s structure, and otherwise
    /// — or when the replay declines — runs the full kernel
    /// ([`SparseLu::refactor`]) and rebuilds `schedule` from its pivot
    /// order. Either way the factor is the full kernel's, entry for
    /// entry.
    ///
    /// # Errors
    ///
    /// [`SingularMatrixError`] from the full kernel; `schedule` is then
    /// left as it was.
    pub fn refactor_scheduled(
        &mut self,
        a: &SparseMatrix,
        ws: &mut SparseWorkspace,
        schedule: &mut Option<RefactorSchedule>,
    ) -> Result<(), SingularMatrixError> {
        if let Some(s) = schedule.as_mut() {
            if Arc::ptr_eq(&s.structure, a.structure()) && s.replay(a, self) {
                return Ok(());
            }
        }
        self.refactor(a, ws)?;
        match schedule {
            Some(s) => s.rebuild(a.structure(), self),
            None => *schedule = Some(RefactorSchedule::new(a.structure(), self)),
        }
        Ok(())
    }

    /// Numeric (re)factorisation of `a` into `self`, reusing both the
    /// factor's and the workspace's allocations. On error the factor
    /// contents are unspecified and must not be used for solves.
    ///
    /// # Errors
    ///
    /// [`SingularMatrixError`] when no usable pivot exists.
    pub fn refactor(
        &mut self,
        a: &SparseMatrix,
        ws: &mut SparseWorkspace,
    ) -> Result<(), SingularMatrixError> {
        let s = &**a.structure();
        let n = s.n;
        ws.resize(n);
        self.n = n;
        self.perm.clear();
        self.perm.extend(0..n);
        ws.lcol_ptr.clear();
        ws.lcol_ptr.push(0);
        ws.lcol_row.clear();
        ws.lcol_val.clear();
        ws.ucol_ptr.clear();
        ws.ucol_ptr.push(0);
        ws.ucol_k.clear();
        ws.ucol_val.clear();
        for (row, pos) in ws.pos.iter_mut().enumerate() {
            *pos = row;
        }
        let mut max_orig = 0.0_f64;
        for v in &a.values {
            let m = v.abs();
            if m > max_orig {
                max_orig = m;
            }
        }
        let mut max_grown = max_orig;

        for col in 0..n {
            // Scatter A's column into the dense accumulator.
            ws.pattern.clear();
            for e in s.col_ptr[col]..s.col_ptr[col + 1] {
                let r = s.col_row[e] as usize;
                ws.x[r] = a.values[s.col_slot[e] as usize];
                ws.in_pattern[r] = true;
                ws.pattern.push(r as u32);
            }

            // Left-looking update: pivot steps in ascending order are
            // exactly the ascending-`k` updates each entry of this
            // column receives in the dense right-looking elimination.
            for k in 0..col {
                let pr = ws.pivot_row[k];
                if !ws.in_pattern[pr] {
                    // Structurally zero U(k, col): the dense code
                    // subtracts `multiplier * ±0.0` here, which never
                    // changes a nonzero value.
                    continue;
                }
                let ukc = ws.x[pr];
                for e in ws.lcol_ptr[k]..ws.lcol_ptr[k + 1] {
                    let lik = ws.lcol_val[e];
                    // The dense elimination skips a row whose stored
                    // multiplier is exactly zero; keep that skip so
                    // fill-in and arithmetic match.
                    if lik != 0.0 {
                        let r = ws.lcol_row[e] as usize;
                        if !ws.in_pattern[r] {
                            ws.x[r] = 0.0;
                            ws.in_pattern[r] = true;
                            ws.pattern.push(r as u32);
                        }
                        ws.x[r] -= lik * ukc;
                    }
                }
            }

            // Partial pivoting over the not-yet-pivotal rows in current
            // physical order: same scan, same strict comparison, same
            // threshold as the dense code.
            let value_at = |row: usize| {
                if ws.in_pattern[row] {
                    ws.x[row]
                } else {
                    0.0
                }
            };
            let mut pivot_phys = col;
            let mut pivot_val = value_at(self.perm[col]).abs();
            for i in col + 1..n {
                let v = value_at(self.perm[i]).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_phys = i;
                }
            }
            // Column scale over the accumulator pattern: U entries
            // already gathered for this column plus the pivot
            // candidates. Entries outside the pattern are exact zeros
            // on the dense side too, so the maximum matches the dense
            // scan over all rows.
            let mut col_scale = pivot_val;
            for &r in &ws.pattern {
                let v = ws.x[r as usize].abs();
                if v > col_scale {
                    col_scale = v;
                }
            }
            if pivot_val == 0.0 || pivot_val < crate::PIVOT_REL_TOL * col_scale {
                // Leave the accumulator clean: the workspace outlives
                // this error and serves the caller's next attempt.
                for &r in &ws.pattern {
                    ws.in_pattern[r as usize] = false;
                    ws.x[r as usize] = 0.0;
                }
                return Err(SingularMatrixError { row: col });
            }
            if col_scale > max_grown {
                max_grown = col_scale;
            }
            self.perm.swap(col, pivot_phys);
            let pr = self.perm[col];
            ws.pos[pr] = col;
            ws.pos[self.perm[pivot_phys]] = pivot_phys;
            ws.pivot_row[col] = pr;
            let pivot = ws.x[pr];

            // Gather U(·, col) in ascending pivot-step order and the L
            // multipliers (one division by the pivot each, exactly as
            // the dense code computes its stored factors).
            for &r in &ws.pattern {
                let r = r as usize;
                let k = ws.pos[r];
                if k < col {
                    ws.ucol_k.push(k as u32);
                    ws.ucol_val.push(ws.x[r]);
                }
            }
            ws.ucol_k.push(col as u32);
            ws.ucol_val.push(pivot);
            ws.ucol_ptr.push(ws.ucol_k.len());
            for &r in &ws.pattern {
                let r = r as usize;
                if ws.pos[r] > col {
                    ws.lcol_row.push(r as u32);
                    ws.lcol_val.push(ws.x[r] / pivot);
                }
            }
            ws.lcol_ptr.push(ws.lcol_row.len());

            for &r in &ws.pattern {
                ws.in_pattern[r as usize] = false;
                ws.x[r as usize] = 0.0;
            }
        }

        self.growth = if max_orig > 0.0 {
            max_grown / max_orig
        } else {
            1.0
        };
        self.build_row_forms(ws);
        Ok(())
    }

    /// Transposes the by-column intermediates into the row-major forms
    /// the substitutions consume, keeping only the off-diagonal entries
    /// that are `!= 0.0`. Iterating source columns in ascending order
    /// lands each row's entries already sorted by column.
    fn build_row_forms(&mut self, ws: &mut SparseWorkspace) {
        let n = self.n;

        ws.row_count[..n].fill(0);
        for (&r, &v) in ws.lcol_row.iter().zip(&ws.lcol_val) {
            if v != 0.0 {
                ws.row_count[ws.pos[r as usize]] += 1;
            }
        }
        self.lrow_ptr.clear();
        self.lrow_ptr.push(0);
        for r in 0..n {
            self.lrow_ptr.push(self.lrow_ptr[r] + ws.row_count[r]);
        }
        self.lrow_col.resize(self.lrow_ptr[n], 0);
        self.lrow_val.resize(self.lrow_ptr[n], 0.0);
        ws.row_count[..n].copy_from_slice(&self.lrow_ptr[..n]);
        for k in 0..n {
            for e in ws.lcol_ptr[k]..ws.lcol_ptr[k + 1] {
                if ws.lcol_val[e] == 0.0 {
                    continue;
                }
                let row = ws.pos[ws.lcol_row[e] as usize];
                let dst = ws.row_count[row];
                ws.row_count[row] += 1;
                self.lrow_col[dst] = k as u32;
                self.lrow_val[dst] = ws.lcol_val[e];
            }
        }

        self.diag.resize(n, 0.0);
        ws.row_count[..n].fill(0);
        for c in 0..n {
            for e in ws.ucol_ptr[c]..ws.ucol_ptr[c + 1] {
                let k = ws.ucol_k[e] as usize;
                if k < c && ws.ucol_val[e] != 0.0 {
                    ws.row_count[k] += 1;
                }
            }
        }
        self.urow_ptr.clear();
        self.urow_ptr.push(0);
        for r in 0..n {
            self.urow_ptr.push(self.urow_ptr[r] + ws.row_count[r]);
        }
        let strict_upper = self.urow_ptr[n];
        self.urow_col.resize(strict_upper, 0);
        self.urow_val.resize(strict_upper, 0.0);
        ws.row_count[..n].copy_from_slice(&self.urow_ptr[..n]);
        for c in 0..n {
            for e in ws.ucol_ptr[c]..ws.ucol_ptr[c + 1] {
                let k = ws.ucol_k[e] as usize;
                if k == c {
                    self.diag[c] = ws.ucol_val[e];
                } else if ws.ucol_val[e] != 0.0 {
                    let dst = ws.row_count[k];
                    ws.row_count[k] += 1;
                    self.urow_col[dst] = c as u32;
                    self.urow_val[dst] = ws.ucol_val[e];
                }
            }
        }
        assert_triangle(n, &self.lrow_ptr, &self.lrow_col, true);
        assert_triangle(n, &self.urow_ptr, &self.urow_col, false);
    }

    /// Builds the column-major transposes of L and strict-upper U that
    /// the `Aᵀ` solves consume.
    fn transposes(&self) -> (ColumnForm, ColumnForm) {
        (
            ColumnForm::transpose(self.n, &self.lrow_ptr, &self.lrow_col, &self.lrow_val),
            ColumnForm::transpose(self.n, &self.urow_ptr, &self.urow_col, &self.urow_val),
        )
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Asserts the lengths the substitution rows
    /// ([`SparseLu::forward_row`], [`SparseLu::backward_row`]) rely on.
    fn check_factor(&self) {
        let n = self.n;
        let (lp, up) = (&self.lrow_ptr, &self.urow_ptr);
        assert!(
            self.perm.len() == n
                && lp.len() == n + 1
                && up.len() == n + 1
                && lp[n] <= self.lrow_col.len().min(self.lrow_val.len())
                && up[n] <= self.urow_col.len().min(self.urow_val.len())
                && self.diag.len() >= n,
            "factor not built for dimension {n}"
        );
    }

    /// Forward substitution of pivotal row `r`: `sum` minus L's row `r`
    /// against the already-final `y[..r]`, columns ascending.
    ///
    /// # Safety
    ///
    /// [`SparseLu::check_factor`] passed, `r < n` and `y.len() >= n`.
    /// `build_row_forms` ends with `assert_triangle`, and a replay's
    /// `keep_nonzeros` keeps a subsequence of each row of a triangle
    /// that `RefactorSchedule::rebuild` asserted, so the pointers are
    /// non-decreasing and every column index is below `r`; the asserted
    /// lengths then put `e < lp[n]` and `c < n` in bounds.
    #[inline(always)]
    unsafe fn forward_row(&self, r: usize, mut sum: f64, y: &[f64]) -> f64 {
        let (lp, lc, lv) = (&self.lrow_ptr, &self.lrow_col, &self.lrow_val);
        for e in *lp.get_unchecked(r)..*lp.get_unchecked(r + 1) {
            sum -= lv.get_unchecked(e) * y.get_unchecked(*lc.get_unchecked(e) as usize);
        }
        sum
    }

    /// Back substitution of pivotal row `r`: `y[r]` minus U's strict row
    /// `r` against the already-final `y[r + 1..]`, columns ascending,
    /// divided by the pivot.
    ///
    /// # Safety
    ///
    /// As [`SparseLu::forward_row`], with U's columns between `r` and
    /// `n`.
    #[inline(always)]
    unsafe fn backward_row(&self, r: usize, y: &[f64]) -> f64 {
        let (up, uc, uv) = (&self.urow_ptr, &self.urow_col, &self.urow_val);
        let mut sum = *y.get_unchecked(r);
        for e in *up.get_unchecked(r)..*up.get_unchecked(r + 1) {
            sum -= uv.get_unchecked(e) * y.get_unchecked(*uc.get_unchecked(e) as usize);
        }
        sum / self.diag.get_unchecked(r)
    }

    /// Solves `A·x = b` into `x`, mirroring the dense substitution
    /// order (forward rows ascending, backward rows descending, columns
    /// ascending within each row).
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` have the wrong length.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length");
        assert_eq!(x.len(), n, "solution length");
        if n == 0 {
            return;
        }
        self.check_factor();
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        // SAFETY: the factor's shape was checked above and
        // `x.len() == n`; see `forward_row`.
        unsafe {
            for r in 1..n {
                *x.get_unchecked_mut(r) = self.forward_row(r, *x.get_unchecked(r), x);
            }
            for r in (0..n).rev() {
                *x.get_unchecked_mut(r) = self.backward_row(r, x);
            }
        }
    }

    /// One modified-Newton step against these (stale) factors, fused
    /// into a single pass: `x_new = x − M⁻¹·(A·x − b)` with the step's
    /// zero signs normalised, returning `max_r |x_new[r] − x[r]|`, or
    /// `INFINITY` if any of those deltas is not finite. `y` is scratch.
    ///
    /// Bit for bit the composition [`SparseMatrix::residual_into`] →
    /// [`SparseLu::solve_into`] → `step += 0.0` → `x − step` → the max
    /// delta: each pivotal row `i` computes residual row `perm[i]` (the
    /// gather) and feeds it straight into L's row `i`; the back sweep
    /// writes `x_new[r]` as soon as `y[r]` is final. Later back-sweep
    /// rows read the raw `y`, because the two-pass form normalises zero
    /// signs only after the whole solve; and the delta is taken from
    /// `x_new − x`, not from the step, because that subtraction rounds.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s dimension differs from the factor's or a vector
    /// is shorter than it.
    pub fn stale_step_into(
        &self,
        a: &SparseMatrix,
        x: &[f64],
        b: &[f64],
        y: &mut [f64],
        x_new: &mut [f64],
    ) -> f64 {
        let n = self.n;
        assert_eq!(a.n(), n, "matrix dimension");
        assert!(
            y.len() >= n && x_new.len() >= n,
            "vector shorter than the factor"
        );
        a.check_residual_args(x, b);
        if n == 0 {
            return 0.0;
        }
        self.check_factor();
        let mut worst = 0.0_f64;
        let mut finite = true;
        // SAFETY: the lengths were asserted above (see `row_residual`,
        // `forward_row`); `perm` is a permutation of `0..n` — the full
        // kernel builds it by swaps from the identity and a replay
        // copies one the full kernel built — so `perm[i] < n`.
        unsafe {
            for i in 0..n {
                let res = a.row_residual(*self.perm.get_unchecked(i), x, b);
                *y.get_unchecked_mut(i) = self.forward_row(i, res, y);
            }
            for r in (0..n).rev() {
                let yr = self.backward_row(r, y);
                *y.get_unchecked_mut(r) = yr;
                let xr = *x.get_unchecked(r);
                let xn = xr - (yr + 0.0);
                *x_new.get_unchecked_mut(r) = xn;
                let d = (xn - xr).abs();
                finite &= d < f64::INFINITY;
                if d > worst {
                    worst = d;
                }
            }
        }
        if finite {
            worst
        } else {
            f64::INFINITY
        }
    }

    /// Solves `A·x = b`, allocating the solution.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `Aᵀ·x = b`, mirroring [`crate::matrix::Lu::solve_transpose_into`]:
    /// forward-substitute `Uᵀ·z = b` and back-substitute `Lᵀ·w = z`
    /// over the column-major transposes (row indices ascending inside
    /// each column, the dense accumulation order), then scatter through
    /// the permutation. Entries the dense code touches that the pattern
    /// omits are exact zeros, so nonzero results are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` have the wrong length.
    pub fn solve_transpose_into(&self, b: &[f64], x: &mut [f64]) {
        let (lt, ut) = self.transposes();
        self.solve_transpose_with(&lt, &ut, b, x);
    }

    /// [`SparseLu::solve_transpose_into`] over transposes the caller
    /// built once.
    fn solve_transpose_with(&self, lt: &ColumnForm, ut: &ColumnForm, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length");
        assert_eq!(x.len(), n, "solution length");
        let mut w = vec![0.0; n];
        for r in 0..n {
            let mut sum = b[r];
            for e in ut.ptr[r]..ut.ptr[r + 1] {
                sum -= ut.val[e] * w[ut.row[e] as usize];
            }
            w[r] = sum / self.diag[r];
        }
        for r in (0..n).rev() {
            let mut sum = w[r];
            for e in lt.ptr[r]..lt.ptr[r + 1] {
                sum -= lt.val[e] * w[lt.row[e] as usize];
            }
            w[r] = sum;
        }
        for (i, &wv) in w.iter().enumerate() {
            x[self.perm[i]] = wv;
        }
    }

    /// Element growth factor of the last (re)factorisation; see
    /// [`crate::matrix::Lu::pivot_growth`].
    pub fn pivot_growth(&self) -> f64 {
        self.growth
    }

    /// 1-norm condition estimate; see [`crate::matrix::Lu::condest`].
    /// Bit-identical to the dense estimate for the same matrix.
    pub fn condest(&self, anorm: f64) -> f64 {
        let (lt, ut) = self.transposes();
        crate::condest::condest_1(
            self.n,
            |b, x| self.solve_into(b, x),
            |b, x| self.solve_transpose_with(&lt, &ut, b, x),
            anorm,
        )
    }

    /// Multiplies the first stored pivot `U(0,0)` by `scale`; see
    /// [`crate::matrix::Lu::perturb_first_pivot`]. Fault-injection
    /// support only.
    pub fn perturb_first_pivot(&mut self, scale: f64) {
        if self.n > 0 {
            self.diag[0] *= scale;
        }
    }
}

/// A replayable numeric refactorisation: the pivot order of one
/// successful full factorisation over a [`SparseStructure`], the
/// *structural* fill that order produces (no pruning of numerically
/// zero multipliers), and where every L and U entry lands in the
/// schedule's own structural row-major buffers.
///
/// [`RefactorSchedule::replay`] reruns the full kernel's arithmetic for
/// that pivot order without its pivot search, pattern discovery or
/// transpose, and declines whenever the full kernel could choose
/// differently. An accepted replay agrees with the full kernel bit for
/// bit on every nonzero; the extra structural positions hold exact
/// zeros, and the factor, like the full kernel's, stores none of them.
/// So a replayed factor is the full kernel's entry for entry, zero
/// signs included.
#[derive(Debug, Clone)]
pub struct RefactorSchedule {
    structure: Arc<SparseStructure>,
    /// `perm[k]` = original row pivotal at step `k`.
    perm: Vec<usize>,
    /// Column `c` of A as (value slot, pivotal position) pairs in
    /// `a_ptr[c]..a_ptr[c + 1]`.
    a_ptr: Vec<usize>,
    a_slot: Vec<u32>,
    a_pos: Vec<u32>,
    /// Column `c`'s U pivot steps `k < c`, ascending, in
    /// `u_ptr[c]..u_ptr[c + 1]`, with each entry's index in the
    /// structural row-major U values.
    u_ptr: Vec<usize>,
    u_k: Vec<u32>,
    u_dst: Vec<u32>,
    /// Column `c`'s L rows (pivotal positions `> c`, ascending) in
    /// `l_ptr[c]..l_ptr[c + 1]`, with each entry's index in the
    /// structural row-major L values.
    l_ptr: Vec<usize>,
    l_pos: Vec<u32>,
    l_dst: Vec<u32>,
    /// The structural row-major L and strict-U a replay fills, before
    /// it copies their nonzeros into the factor.
    lrow_ptr: Vec<usize>,
    lrow_col: Vec<u32>,
    lrow_val: Vec<f64>,
    urow_ptr: Vec<usize>,
    urow_col: Vec<u32>,
    urow_val: Vec<f64>,
    /// Replay scratch: the active column by pivotal position (all zero
    /// between columns and between calls) and L's values by column.
    x: Vec<f64>,
    lval: Vec<f64>,
}

impl RefactorSchedule {
    /// The schedule for `lu`'s pivot order over `structure`; `lu` must
    /// be a successful factorisation of a matrix over `structure`.
    ///
    /// # Panics
    ///
    /// Panics if `lu`'s dimension differs from the structure's, or if a
    /// pivot lies outside the structural pattern its order implies
    /// (impossible for a factor of a matrix over `structure`).
    pub fn new(structure: &Arc<SparseStructure>, lu: &SparseLu) -> Self {
        let mut schedule = RefactorSchedule {
            structure: Arc::clone(structure),
            perm: Vec::new(),
            a_ptr: Vec::new(),
            a_slot: Vec::new(),
            a_pos: Vec::new(),
            u_ptr: Vec::new(),
            u_k: Vec::new(),
            u_dst: Vec::new(),
            l_ptr: Vec::new(),
            l_pos: Vec::new(),
            l_dst: Vec::new(),
            lrow_ptr: Vec::new(),
            lrow_col: Vec::new(),
            lrow_val: Vec::new(),
            urow_ptr: Vec::new(),
            urow_col: Vec::new(),
            urow_val: Vec::new(),
            x: Vec::new(),
            lval: Vec::new(),
        };
        schedule.rebuild(structure, lu);
        schedule
    }

    /// Rebuilds the schedule for `lu`'s pivot order over `structure`,
    /// reusing every allocation.
    fn rebuild(&mut self, structure: &Arc<SparseStructure>, lu: &SparseLu) {
        let s = &**structure;
        let n = s.n;
        assert_eq!(lu.n, n, "factor dimension differs from the structure's");
        self.structure = Arc::clone(structure);
        self.perm.clone_from(&lu.perm);
        let mut pos = vec![0u32; n];
        for (k, &r) in self.perm.iter().enumerate() {
            pos[r] = k as u32;
        }

        // Symbolic elimination in pivotal coordinates: column `col`
        // holds A's entries plus, for each U step `k` it contains
        // (ascending, so fill reached through earlier steps is seen),
        // all of L's column `k`.
        let mut mark = vec![false; n];
        for v in [&mut self.a_ptr, &mut self.u_ptr, &mut self.l_ptr] {
            v.clear();
            v.push(0);
        }
        for v in [
            &mut self.a_slot,
            &mut self.a_pos,
            &mut self.u_k,
            &mut self.l_pos,
        ] {
            v.clear();
        }
        for col in 0..n {
            for e in s.col_ptr[col]..s.col_ptr[col + 1] {
                let p = pos[s.col_row[e] as usize];
                mark[p as usize] = true;
                self.a_slot.push(s.col_slot[e]);
                self.a_pos.push(p);
            }
            self.a_ptr.push(self.a_slot.len());
            for k in 0..col {
                if mark[k] {
                    self.u_k.push(k as u32);
                    for &i in &self.l_pos[self.l_ptr[k]..self.l_ptr[k + 1]] {
                        mark[i as usize] = true;
                    }
                }
            }
            self.u_ptr.push(self.u_k.len());
            assert!(mark[col], "pivot {col} outside the structural pattern");
            for (i, m) in mark.iter().enumerate().skip(col + 1) {
                if *m {
                    self.l_pos.push(i as u32);
                }
            }
            self.l_ptr.push(self.l_pos.len());
            mark.fill(false);
        }

        // Row-major destinations: walking columns ascending lands each
        // row's entries sorted by column, the substitution order.
        let mut next = vec![0usize; n];
        row_major(
            n,
            &self.l_ptr,
            &self.l_pos,
            &mut next,
            &mut self.lrow_ptr,
            &mut self.lrow_col,
            &mut self.l_dst,
        );
        row_major(
            n,
            &self.u_ptr,
            &self.u_k,
            &mut next,
            &mut self.urow_ptr,
            &mut self.urow_col,
            &mut self.u_dst,
        );

        assert_triangle(n, &self.lrow_ptr, &self.lrow_col, true);
        assert_triangle(n, &self.urow_ptr, &self.urow_col, false);
        self.lrow_val.clear();
        self.lrow_val.resize(self.lrow_col.len(), 0.0);
        self.urow_val.clear();
        self.urow_val.resize(self.urow_col.len(), 0.0);
        self.x.clear();
        self.x.resize(n, 0.0);
        self.lval.clear();
        self.lval.resize(self.l_pos.len(), 0.0);
    }

    /// Refactorises `a` into `lu` along this schedule's pivot order.
    ///
    /// Reproduces the full kernel ([`SparseLu::refactor`]) step for
    /// step: the same ascending-`k` updates with the same zero-multiplier
    /// skip, the same column-scale threshold and growth arithmetic, L's
    /// multipliers formed by the same one division. It accepts a
    /// column's scheduled pivot only when its magnitude is strictly
    /// larger than every other candidate's — then the full kernel's
    /// strict-greater scan picks it whatever the physical row order —
    /// and returns `false` (leaving `lu`'s values unspecified) on a
    /// lost or tied pivot, a non-finite value or a threshold failure.
    /// An accepted replay ends by copying the structural L and U's
    /// nonzeros into `lu`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not over this schedule's structure.
    pub fn replay(&mut self, a: &SparseMatrix, lu: &mut SparseLu) -> bool {
        assert!(
            Arc::ptr_eq(&self.structure, a.structure()),
            "schedule replayed over a foreign structure"
        );
        let n = self.perm.len();
        lu.diag.resize(n, 0.0);
        let values = a.values();
        let mut max_orig = 0.0_f64;
        for v in values {
            let m = v.abs();
            if m > max_orig {
                max_orig = m;
            }
        }
        let mut max_grown = max_orig;
        let x = &mut self.x[..];
        let lval = &mut self.lval[..];
        let (lrow_val, urow_val) = (&mut self.lrow_val[..], &mut self.urow_val[..]);
        let (l_pos, l_dst, u_k, u_dst) = (
            &self.l_pos[..],
            &self.l_dst[..],
            &self.u_k[..],
            &self.u_dst[..],
        );
        for col in 0..n {
            for e in self.a_ptr[col]..self.a_ptr[col + 1] {
                x[self.a_pos[e] as usize] = values[self.a_slot[e] as usize];
            }
            let (ulo, uhi) = (self.u_ptr[col], self.u_ptr[col + 1]);
            for &k in &u_k[ulo..uhi] {
                let k = k as usize;
                let ukc = x[k];
                let (llo, lhi) = (self.l_ptr[k], self.l_ptr[k + 1]);
                for (&i, &lik) in l_pos[llo..lhi].iter().zip(&lval[llo..lhi]) {
                    if lik != 0.0 {
                        x[i as usize] -= lik * ukc;
                    }
                }
            }

            let pivot = x[col];
            let pivot_abs = pivot.abs();
            let mut ok = pivot_abs.is_finite();
            let mut col_scale = pivot_abs;
            for &k in &u_k[ulo..uhi] {
                let v = x[k as usize].abs();
                ok &= v.is_finite();
                if v > col_scale {
                    col_scale = v;
                }
            }
            let (llo, lhi) = (self.l_ptr[col], self.l_ptr[col + 1]);
            for &i in &l_pos[llo..lhi] {
                ok &= x[i as usize].abs() < pivot_abs;
            }
            if !ok || pivot_abs == 0.0 || pivot_abs < crate::PIVOT_REL_TOL * col_scale {
                x.fill(0.0);
                return false;
            }
            if col_scale > max_grown {
                max_grown = col_scale;
            }

            lu.diag[col] = pivot;
            x[col] = 0.0;
            for (&k, &d) in u_k[ulo..uhi].iter().zip(&u_dst[ulo..uhi]) {
                urow_val[d as usize] = x[k as usize];
                x[k as usize] = 0.0;
            }
            for ((&i, &d), lv) in l_pos[llo..lhi]
                .iter()
                .zip(&l_dst[llo..lhi])
                .zip(&mut lval[llo..lhi])
            {
                *lv = x[i as usize] / pivot;
                lrow_val[d as usize] = *lv;
                x[i as usize] = 0.0;
            }
        }
        lu.growth = if max_orig > 0.0 {
            max_grown / max_orig
        } else {
            1.0
        };
        lu.n = n;
        lu.perm.clone_from(&self.perm);
        keep_nonzeros(
            n,
            (&self.lrow_ptr, &self.lrow_col, &self.lrow_val),
            (&mut lu.lrow_ptr, &mut lu.lrow_col, &mut lu.lrow_val),
        );
        keep_nonzeros(
            n,
            (&self.urow_ptr, &self.urow_col, &self.urow_val),
            (&mut lu.urow_ptr, &mut lu.urow_col, &mut lu.urow_val),
        );
        true
    }
}

/// Copies the entries of the row-major triangle `src` that are
/// `!= 0.0` (a NaN is kept) into `dst`, rows and columns in order.
/// Each row of `dst` is a subsequence of the same row of `src`, so a
/// triangle `assert_triangle` accepted stays one.
fn keep_nonzeros(
    n: usize,
    (ptr, col, val): (&[usize], &[u32], &[f64]),
    (dst_ptr, dst_col, dst_val): (&mut Vec<usize>, &mut Vec<u32>, &mut Vec<f64>),
) {
    dst_ptr.clear();
    dst_ptr.push(0);
    dst_col.clear();
    dst_val.clear();
    for r in 0..n {
        for e in ptr[r]..ptr[r + 1] {
            if val[e] != 0.0 {
                dst_col.push(col[e]);
                dst_val.push(val[e]);
            }
        }
        dst_ptr.push(dst_col.len());
    }
}

/// Checks the shape [`SparseLu::solve_into`]'s unchecked reads rely
/// on: `ptr` has `n + 1` non-decreasing entries from `0` to
/// `col.len()`, and row `r`'s column indices lie strictly below `r`
/// (`lower`) or strictly between `r` and `n` (upper).
///
/// # Panics
///
/// Panics if the triangle is malformed.
fn assert_triangle(n: usize, ptr: &[usize], col: &[u32], lower: bool) {
    assert!(
        ptr.len() == n + 1 && ptr[0] == 0 && ptr[n] == col.len(),
        "triangle row pointers malformed"
    );
    for r in 0..n {
        let ok = col[ptr[r]..ptr[r + 1]].iter().all(|&c| {
            let c = c as usize;
            if lower {
                c < r
            } else {
                r < c && c < n
            }
        });
        assert!(ok, "triangle row {r} has a column outside its half");
    }
}

/// Lays the by-column entries `idx[ptr[c]..ptr[c + 1]]` (row index per
/// entry) out row-major: fills `row_ptr`/`row_col` and records each
/// entry's row-major index in `dst`. `next` is `n`-long scratch.
fn row_major(
    n: usize,
    ptr: &[usize],
    idx: &[u32],
    next: &mut [usize],
    row_ptr: &mut Vec<usize>,
    row_col: &mut Vec<u32>,
    dst: &mut Vec<u32>,
) {
    next.fill(0);
    for &r in idx {
        next[r as usize] += 1;
    }
    row_ptr.clear();
    row_ptr.push(0);
    for r in 0..n {
        row_ptr.push(row_ptr[r] + next[r]);
    }
    next.copy_from_slice(&row_ptr[..n]);
    row_col.clear();
    row_col.resize(idx.len(), 0);
    dst.clear();
    for c in 0..n {
        for &r in &idx[ptr[c]..ptr[c + 1]] {
            let d = next[r as usize];
            next[r as usize] += 1;
            row_col[d] = c as u32;
            dst.push(d as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Lu;

    fn dense_of(n: usize, entries: &[(usize, usize, f64)]) -> (Matrix, SparseMatrix) {
        let positions: Vec<(usize, usize)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
        let structure = SparseStructure::from_positions(n, &positions);
        let mut sparse = SparseMatrix::zeros(structure);
        let mut dense = Matrix::zeros(n, n);
        for &(r, c, v) in entries {
            sparse.add(r, c, v);
            dense.add(r, c, v);
        }
        (dense, sparse)
    }

    /// A well-conditioned MNA-shaped system: diagonally dominant
    /// conductance grid with a couple of off-diagonal couplings.
    fn mna_like(n: usize, seed: u64) -> Vec<(usize, usize, f64)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut entries = Vec::new();
        for r in 0..n {
            entries.push((r, r, 2.0 + next()));
            let c = (r + 1) % n;
            let g = 0.5 + next();
            entries.push((r, c, -g));
            entries.push((c, r, -g));
        }
        entries
    }

    #[test]
    fn structure_maps_positions_to_slots() {
        let s = SparseStructure::from_positions(3, &[(0, 0), (2, 1), (0, 0), (1, 2)]);
        assert_eq!(s.n(), 3);
        assert_eq!(s.nnz(), 3);
        assert!(s.slot_of(0, 0).is_some());
        assert!(s.slot_of(2, 1).is_some());
        assert!(s.slot_of(1, 1).is_none());
    }

    #[test]
    fn add_accumulates_duplicates() {
        let (_, mut m) = dense_of(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        m.add(0, 0, 2.5);
        assert_eq!(m.get(0, 0), 3.5);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside sparse pattern")]
    fn add_outside_pattern_panics() {
        let (_, mut m) = dense_of(2, &[(0, 0, 1.0)]);
        m.add(1, 0, 1.0);
    }

    #[test]
    fn residual_matches_dense() {
        let (dense, sparse) = dense_of(3, &mna_like(3, 7));
        let x = [1.5, -2.0, 0.25];
        let b = [0.5, 1.0, -3.0];
        let mut out = [0.0; 3];
        sparse.residual_into(&x, &b, &mut out);
        let want: Vec<f64> = dense
            .mul_vec(&x)
            .iter()
            .zip(&b)
            .map(|(ax, bv)| ax - bv)
            .collect();
        assert_eq!(out.to_vec(), want);
    }

    #[test]
    fn sparse_lu_is_bit_identical_to_dense_lu() {
        for n in [2usize, 5, 9, 16, 31] {
            for seed in [3u64, 17, 99] {
                let (dense, sparse) = dense_of(n, &mna_like(n, seed));
                let dlu = Lu::factor(&dense).expect("dense factors");
                let slu = SparseLu::factor(&sparse).expect("sparse factors");
                let b: Vec<f64> = (0..n).map(|i| (i as f64) - 0.3 * n as f64).collect();
                let xd = dlu.solve(&b);
                let xs = slu.solve(&b);
                for (i, (d, s)) in xd.iter().zip(&xs).enumerate() {
                    assert_eq!(
                        d.to_bits(),
                        s.to_bits(),
                        "n={n} seed={seed} x[{i}]: dense {d:e} sparse {s:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn pivoting_kicks_in_on_zero_diagonal() {
        // (0,0) is structurally present but zero: the first pivot must
        // come from row 1, exactly as the dense code picks it.
        let entries = [(0, 0, 0.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 1.0)];
        let (dense, sparse) = dense_of(2, &entries);
        let dlu = Lu::factor(&dense).unwrap();
        let slu = SparseLu::factor(&sparse).unwrap();
        let b = [4.0, 5.0];
        assert_eq!(dlu.solve(&b), slu.solve(&b));
    }

    #[test]
    fn singular_matrix_reports_breakdown_row() {
        let entries = [(0, 0, 1.0), (1, 1, 0.0), (0, 1, 0.0), (1, 0, 0.0)];
        let (dense, sparse) = dense_of(2, &entries);
        let derr = Lu::factor(&dense).unwrap_err();
        let serr = SparseLu::factor(&sparse).unwrap_err();
        assert_eq!(derr, serr);
        assert_eq!(serr.row, 1);
    }

    #[test]
    fn refactor_reuses_allocations_and_stays_exact() {
        let entries = mna_like(12, 5);
        let (dense, mut sparse) = dense_of(12, &entries);
        let mut ws = SparseWorkspace::new(12);
        let mut lu = SparseLu::default();
        lu.refactor(&sparse, &mut ws).unwrap();

        // Perturb the values (same structure), refactor in place.
        sparse.clear();
        for &(r, c, v) in &entries {
            sparse.add(r, c, v * 1.5);
        }
        let dense2 = dense.scale(1.5);
        lu.refactor(&sparse, &mut ws).unwrap();
        let b: Vec<f64> = (0..12).map(|i| 1.0 + i as f64).collect();
        let want = Lu::factor(&dense2).unwrap().solve(&b);
        let mut got = vec![0.0; 12];
        lu.solve_into(&b, &mut got);
        assert_eq!(want, got);
    }

    #[test]
    fn slots_are_row_major() {
        let s = SparseStructure::from_positions(3, &[(2, 0), (0, 2), (1, 1), (0, 0), (2, 2)]);
        let slots: Vec<usize> = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]
            .iter()
            .map(|&(r, c)| s.slot_of(r, c).unwrap())
            .collect();
        assert_eq!(slots, [0, 1, 2, 3, 4]);
    }

    fn solve_bits(lu: &SparseLu, b: &[f64]) -> Vec<u64> {
        lu.solve(b).iter().map(|v| (v + 0.0).to_bits()).collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts `got` equals `want` entry for entry: permutation, L and
    /// U row pointers and columns, value bits, pivots and growth.
    fn assert_same_factor(got: &SparseLu, want: &SparseLu) {
        assert_eq!(got.n, want.n, "dimension");
        assert_eq!(got.perm, want.perm, "permutation");
        assert_eq!(got.lrow_ptr, want.lrow_ptr, "L row pointers");
        assert_eq!(got.lrow_col, want.lrow_col, "L columns");
        assert_eq!(bits(&got.lrow_val), bits(&want.lrow_val), "L values");
        assert_eq!(got.urow_ptr, want.urow_ptr, "U row pointers");
        assert_eq!(got.urow_col, want.urow_col, "U columns");
        assert_eq!(bits(&got.urow_val), bits(&want.urow_val), "U values");
        assert_eq!(bits(&got.diag), bits(&want.diag), "pivots");
        assert_eq!(got.growth.to_bits(), want.growth.to_bits(), "growth");
    }

    /// Asserts `lu` stores no L or strict-U entry equal to zero.
    fn assert_stores_no_zero(lu: &SparseLu) {
        assert!(
            lu.lrow_val.iter().chain(&lu.urow_val).all(|&v| v != 0.0),
            "a stored entry is zero: L {:?} U {:?}",
            lu.lrow_val,
            lu.urow_val
        );
    }

    #[test]
    fn a_replayed_factor_is_the_full_kernels_entry_for_entry() {
        // MNA-like matrices with some couplings stamped as exact zeros;
        // the second matrix of each pair turns those nonzero and zeroes
        // others, so multipliers and fill appear and vanish under one
        // schedule.
        let mut dropped = 0;
        let mut replayed = 0;
        for n in [3usize, 6, 11, 17] {
            for seed in 0..12u64 {
                let entries = mna_like(n, 31 * seed + 7);
                let zeroed = |flip: bool, i: usize| (i % 5 == 2) != (flip && i % 7 == 4);
                let matrix = |flip: bool| {
                    let mut values = entries.clone();
                    for (i, e) in values.iter_mut().enumerate() {
                        if e.0 != e.1 && zeroed(flip, i) {
                            e.2 = 0.0;
                        } else if flip {
                            e.2 *= 1.0 + 1e-3 * ((i as f64) * 0.37).sin();
                        }
                    }
                    dense_of(n, &values).1
                };
                let first = matrix(false);
                let mut lu = SparseLu::factor(&first).unwrap();
                assert_stores_no_zero(&lu);
                let mut schedule = RefactorSchedule::new(first.structure(), &lu);
                // A schedule replays only over its own structure.
                let mut second = SparseMatrix::zeros(Arc::clone(first.structure()));
                second.load_values(matrix(true).values());
                for a in [&second, &first] {
                    if !schedule.replay(a, &mut lu) {
                        continue;
                    }
                    replayed += 1;
                    let want = SparseLu::factor(a).unwrap();
                    assert_same_factor(&lu, &want);
                    assert_stores_no_zero(&lu);
                    let b: Vec<f64> = (0..n).map(|i| i as f64 - 0.4 * n as f64).collect();
                    assert_eq!(
                        bits(&lu.solve(&b)),
                        bits(&want.solve(&b)),
                        "n={n} seed={seed}"
                    );
                    let structural = schedule.lrow_col.len() + schedule.urow_col.len();
                    if lu.lrow_col.len() + lu.urow_col.len() < structural {
                        dropped += 1;
                    }
                }
            }
        }
        assert!(replayed > 40, "only {replayed} replays accepted");
        assert!(dropped > 0, "no replay dropped a structural zero");
    }

    #[test]
    fn replay_follows_a_multiplier_that_turns_nonzero() {
        // L(1,0) is an explicit zero in the first matrix, so the full
        // kernel skips it and stores neither it nor any U(1,2) fill. In
        // the second matrix the multiplier is nonzero and the fill is
        // real: a schedule built from the first factor's own pattern
        // would have nowhere to put it; the structural one does.
        let positions = [(0, 0), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)];
        let structure = SparseStructure::from_positions(3, &positions);
        let matrix = |l10: f64| {
            let mut m = SparseMatrix::zeros(Arc::clone(&structure));
            for (&(r, c), v) in positions.iter().zip([4.0, 1.0, l10, 3.0, 1.0, 5.0]) {
                m.add(r, c, v);
            }
            m
        };
        let (first, second) = (matrix(0.0), matrix(0.5));
        let mut lu = SparseLu::factor(&first).unwrap();
        // The factor stores only its nonzeros: L(2,0) and U(0,2).
        assert_eq!((lu.lrow_col.len(), lu.urow_col.len()), (1, 1));
        let want = SparseLu::factor(&second).unwrap();
        // The nonzero multiplier adds L(1,0) and its fill U(1,2).
        assert_eq!((want.lrow_col.len(), want.urow_col.len()), (2, 2));

        let mut schedule = RefactorSchedule::new(&structure, &lu);
        assert!(
            schedule.replay(&second, &mut lu),
            "same pivot order must replay"
        );
        assert_same_factor(&lu, &want);
        let b = [1.0, -2.0, 0.5];
        assert_eq!(solve_bits(&lu, &b), solve_bits(&want, &b));
        assert_eq!(lu.pivot_growth().to_bits(), want.pivot_growth().to_bits());
        // And back: the multiplier vanishes again, and so do both
        // entries.
        assert!(schedule.replay(&first, &mut lu));
        let want = SparseLu::factor(&first).unwrap();
        assert_same_factor(&lu, &want);
        assert_eq!(solve_bits(&lu, &b), solve_bits(&want, &b));
    }

    #[test]
    fn replay_declines_a_tied_or_lost_pivot() {
        let entries = [(0, 0, 4.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 3.0)];
        let (_, first) = dense_of(2, &entries);
        let mut lu = SparseLu::factor(&first).unwrap();
        let mut schedule = RefactorSchedule::new(first.structure(), &lu);
        let a10_slot = first.slot_of(1, 0).unwrap();
        for a10 in [4.0, -4.0, 5.0] {
            let mut second = first.clone();
            second.values_mut()[a10_slot] = a10;
            assert!(!schedule.replay(&second, &mut lu), "a10 = {a10}");
        }
        // Through the full path the tie goes to the first row, as in
        // the dense kernel.
        let mut second = first.clone();
        second.values_mut()[a10_slot] = -4.0;
        let mut slot = Some(schedule);
        let mut ws = SparseWorkspace::new(2);
        lu.refactor_scheduled(&second, &mut ws, &mut slot).unwrap();
        let want = Lu::factor(&second.to_dense()).unwrap();
        assert_eq!(lu.solve(&[1.0, 2.0]), want.solve(&[1.0, 2.0]));
    }

    #[test]
    fn replay_declines_at_the_pivot_threshold() {
        // The pivot order survives — each column has one candidate —
        // but the last pivot is 1e-20 of its column's U entry: singular
        // by the relative threshold. The replay must decline, and the
        // full path must report the full kernel's breakdown row.
        let (_, first) = dense_of(2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 0.0), (1, 1, 1.0)]);
        let mut lu = SparseLu::factor(&first).unwrap();
        let mut schedule = RefactorSchedule::new(first.structure(), &lu);
        let mut second = first.clone();
        let u01 = first.slot_of(0, 1).unwrap();
        second.values_mut()[u01] = 1e20;
        assert!(!schedule.replay(&second, &mut lu));
        let want = SparseLu::factor(&second).unwrap_err();
        assert_eq!(want.row, 1);
        let mut slot = Some(schedule);
        let mut ws = SparseWorkspace::new(2);
        assert_eq!(
            lu.refactor_scheduled(&second, &mut ws, &mut slot),
            Err(want)
        );
        // The schedule survives the failure and still replays.
        assert!(slot.unwrap().replay(&first, &mut lu));
    }

    #[test]
    fn singular_error_leaves_the_workspace_clean() {
        // The failed factorisation stops in column 2 with rows 0 and 2
        // in its accumulator. The next matrix's column 0 holds only row
        // 1, so a leftover row 0 would pose as a pivot candidate there.
        let singular = [(0, 0, 1.0), (1, 1, 1.0), (0, 2, 1.0), (2, 2, 0.0)];
        let (_, bad) = dense_of(3, &singular);
        let mut ws = SparseWorkspace::new(3);
        let mut lu = SparseLu::default();
        assert_eq!(lu.refactor(&bad, &mut ws).unwrap_err().row, 2);
        let (_, good) = dense_of(3, &[(0, 1, 1.0), (1, 0, 0.5), (2, 2, 1.0)]);
        lu.refactor(&good, &mut ws).unwrap();
        let b = [0.5, 1.0, -1.0];
        assert_eq!(
            solve_bits(&lu, &b),
            solve_bits(&SparseLu::factor(&good).unwrap(), &b)
        );
    }

    #[test]
    fn fill_in_beyond_the_input_pattern_is_handled() {
        // Arrow matrix: elimination of column 0 fills the whole last
        // row/column block.
        let n = 6;
        let mut entries = vec![];
        for i in 0..n {
            entries.push((i, i, 4.0 + i as f64));
        }
        for i in 1..n {
            entries.push((0, i, 1.0));
            entries.push((i, 0, 1.0));
        }
        let (dense, sparse) = dense_of(n, &entries);
        let dlu = Lu::factor(&dense).unwrap();
        let slu = SparseLu::factor(&sparse).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        assert_eq!(dlu.solve(&b), slu.solve(&b));
    }
}
