//! The linear-solver core under the Newton iteration: symbolic-structure
//! and factorisation caching, and golden warm-starts.
//!
//! The Newton hot loop in [`crate::mna`] solves one linearised MNA
//! system per iteration. Historically that meant one dense LU
//! factorisation per iteration; this module supplies the machinery that
//! makes the linear algebra cheap and *reusable*:
//!
//! * [`SolverContext`] — per-analysis mutable state that persists
//!   across Newton iterations *and* timesteps: the assembled
//!   [`SparseMatrix`] workspace, its symbolic structure (computed once
//!   per (netlist, companion-mode) and reused), and the cached
//!   [`SparseLu`] keyed by [`FactorKey`]. The Newton loop consults the
//!   cache to skip refactorisation while the iterate is contracting
//!   ("modified Newton") and to solve linear systems with a single
//!   back-substitution per step.
//! * [`WarmStart`] — a golden operating point mapped onto a faulty
//!   netlist's unknown layout, so fault extractions seed DC from the
//!   golden solution instead of re-running the homotopy chain.
//!
//! The reuse *policy* (when to trust a stale factorisation, when to
//! force a refactorisation) lives in [`crate::mna`]; everything here is
//! deliberately deterministic.

use std::sync::Arc;

use linsys::matrix::Matrix;
use linsys::sparse::{RefactorSchedule, SparseLu, SparseMatrix, SparseStructure, SparseWorkspace};

use crate::mna::{MnaLayout, NonlinearProgram};

/// Anything device stamps can be assembled into: the sparse system
/// matrix, a dense [`Matrix`] (AC analysis and test oracles), and the
/// structure probe that records positions.
pub trait MnaMatrix {
    /// Adds `value` at `(r, c)`.
    fn add(&mut self, r: usize, c: usize, value: f64);
    /// Resets the target for a fresh assembly pass.
    fn clear(&mut self);
}

impl MnaMatrix for Matrix {
    #[inline]
    fn add(&mut self, r: usize, c: usize, value: f64) {
        Matrix::add(self, r, c, value);
    }
    fn clear(&mut self) {
        Matrix::clear(self);
    }
}

impl MnaMatrix for SparseMatrix {
    #[inline]
    fn add(&mut self, r: usize, c: usize, value: f64) {
        SparseMatrix::add(self, r, c, value);
    }
    fn clear(&mut self) {
        SparseMatrix::clear(self);
    }
}

/// Records which `(row, col)` positions a stamping pass touches; used
/// to build the sparse symbolic structure once per (netlist, mode).
#[derive(Debug, Default)]
pub struct PositionProbe {
    positions: Vec<(usize, usize)>,
}

impl PositionProbe {
    /// An empty probe.
    pub fn new() -> Self {
        PositionProbe::default()
    }

    /// The recorded positions (duplicates included).
    pub fn positions(&self) -> &[(usize, usize)] {
        &self.positions
    }

    /// Ensures every diagonal position up to `n` is present, so `gmin`
    /// sweeps and pivoting always have their slots regardless of the
    /// parameters the probe ran under.
    pub fn cover_diagonal(&mut self, n: usize) {
        for i in 0..n {
            self.positions.push((i, i));
        }
    }
}

impl MnaMatrix for PositionProbe {
    #[inline]
    fn add(&mut self, r: usize, c: usize, _value: f64) {
        self.positions.push((r, c));
    }
    fn clear(&mut self) {
        self.positions.clear();
    }
}

/// Solves `A·x = b` through `lu` into `x` and normalises zero signs
/// (`-0.0` → `+0.0`).
///
/// A replayed refactorisation ([`SparseLu::refactor_scheduled`]) and a
/// full one agree bit for bit on every nonzero but may differ in the
/// *sign* of exact zeros: the replay's structural fill carries `0·u`
/// updates the full kernel prunes. Normalising here, after every solve
/// the Newton loop takes, makes the full solution vector — and
/// therefore every downstream waveform and canonical report — bytewise
/// independent of which path produced the factors.
pub(crate) fn solve_into(lu: &SparseLu, b: &[f64], x: &mut [f64]) {
    lu.solve_into(b, x);
    for v in x.iter_mut() {
        *v += 0.0;
    }
}

/// Cache key for a factorisation: everything the assembled matrix `A`
/// depends on *other than* the Newton iterate. Time and `source_scale`
/// only enter the right-hand side, so they are deliberately excluded —
/// a factorisation stays valid across timesteps at the same `dt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FactorKey {
    /// 0 = DC companion stamps, 1 = transient.
    pub mode: u8,
    /// Integrator discriminant (DC solves use a fixed sentinel).
    pub method: u8,
    /// `dt.to_bits()`; zero for DC.
    pub dt_bits: u64,
    /// `gmin.to_bits()` — gmin stepping changes the matrix.
    pub gmin_bits: u64,
}

/// A golden DC operating point, reusable as the Newton seed for faulty
/// variants of the same circuit.
///
/// Fault injection appends nodes and devices at the *end* of the
/// netlist, so golden node indices and the relative order of golden
/// branch currents survive injection; [`WarmStart::seed`] maps them
/// onto the faulty layout and leaves fault-introduced unknowns at zero.
#[derive(Debug, Clone)]
pub struct WarmStart {
    x: Vec<f64>,
    node_count: usize,
}

impl WarmStart {
    /// Captures a solved operating point over a layout with
    /// `node_count` nodes (including ground).
    pub fn new(x: Vec<f64>, node_count: usize) -> Self {
        WarmStart { x, node_count }
    }

    /// The captured solution vector.
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// Seeds `x` (sized for `layout`) from the golden solution:
    /// matching node voltages and branch currents are copied, new
    /// unknowns stay at `0.0`.
    pub fn seed(&self, layout: &MnaLayout, x: &mut [f64]) {
        x.iter_mut().for_each(|v| *v = 0.0);
        let golden_nv = self.node_count.saturating_sub(1);
        let target_nv = layout.node_count().saturating_sub(1);
        let copy_nv = golden_nv.min(target_nv);
        x[..copy_nv].copy_from_slice(&self.x[..copy_nv]);
        let golden_branches = self.x.len() - golden_nv;
        for j in 0..golden_branches {
            let dst = target_nv + j;
            if dst < x.len() {
                x[dst] = self.x[golden_nv + j];
            }
        }
    }
}

/// Per-analysis solver state that outlives individual Newton solves:
/// workspaces, the sparse symbolic structure per companion mode, and
/// the cached factorisation with its reuse bookkeeping.
///
/// One context serves a whole analysis — a DC solve including its
/// homotopy stages, or a transient march including its DC start — and
/// is *not* shared between analyses (each fault extraction owns its
/// own, which keeps parallel campaigns deterministic).
#[derive(Debug, Clone, Default)]
pub struct SolverContext {
    /// Sparse symbolic structures by companion mode (0 = DC,
    /// 1 = transient); built once per mode via a stamping probe.
    pub(crate) structures: [Option<Arc<SparseStructure>>; 2],
    /// The assembled-system workspace and the mode it was built for.
    pub(crate) sys: Option<(usize, SparseMatrix)>,
    /// Right-hand side workspace.
    pub(crate) b: Vec<f64>,
    /// Newton iterate workspace (`x_new`).
    pub(crate) x_new: Vec<f64>,
    /// Residual workspace.
    pub(crate) resid: Vec<f64>,
    /// Correction workspace.
    pub(crate) scratch: Vec<f64>,
    /// Refinement trial-iterate workspace.
    pub(crate) trial: Vec<f64>,
    /// The nonlinear devices compiled against `sys`'s value slots;
    /// rebuilt whenever `sys` is. Empty for a linear netlist.
    pub(crate) program: NonlinearProgram,
    /// Snapshot of the linear-device stamps (matrix values). The linear
    /// matrix depends only on the [`FactorKey`], so the snapshot serves
    /// every iteration of every solve under `baseline_key`.
    pub(crate) baseline_a: Vec<f64>,
    /// The key `baseline_a` was stamped under; `None` once `sys` is
    /// rebuilt (new mode, dimension change, symbolic demotion).
    pub(crate) baseline_key: Option<FactorKey>,
    /// The linear right-hand side of the current solve (sources and
    /// reactive history), restored on its later iterations.
    pub(crate) baseline_b: Vec<f64>,
    /// The cached factorisation and the key it was computed under.
    pub(crate) factor: Option<(FactorKey, SparseLu)>,
    /// Sparse refactorisation scratch.
    pub(crate) ws: SparseWorkspace,
    /// The replay schedule of the last full sparse factorisation. It
    /// holds an `Arc` of the structure it was built over and replays
    /// only on that one, so a rebuilt `sys` never replays a stale
    /// schedule.
    pub(crate) schedule: Option<RefactorSchedule>,
    /// Set when the reuse policy demands a refactorisation before the
    /// next linear solve.
    pub(crate) force_refactor: bool,
    /// Newton iterations taken on the current factorisation since it
    /// was last recomputed.
    pub(crate) stale_iters: u32,
    /// Solves remaining in the current distrust window: while nonzero,
    /// a nonlinear solve refactorises on its first iteration instead of
    /// trialling the cached factors. Set whenever a stale trial fails
    /// its contraction guard — during fast transients (source edges,
    /// switching) consecutive solves land in new operating regions
    /// where the cached Jacobian keeps losing, so skipping the doomed
    /// trial saves an assembled system, two back-substitutions and a
    /// wasted iteration per solve. The window decays so the solver
    /// re-probes reuse once the circuit settles.
    pub(crate) distrust: u8,
}

impl SolverContext {
    /// Drops the cached factorisation and forces the next solve to
    /// refactor — called after non-convergence so a retry (e.g. at a
    /// halved timestep) starts from a fresh Jacobian.
    pub fn invalidate(&mut self) {
        self.factor = None;
        self.force_refactor = false;
        self.stale_iters = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_into_normalises_zero_signs() {
        // A diagonal system whose solution contains -0.0 before
        // normalisation: x = -0.0 / 1.0.
        let mut m = SparseMatrix::zeros(SparseStructure::from_positions(1, &[(0, 0)]));
        m.add(0, 0, 1.0);
        let lu = SparseLu::factor(&m).unwrap();
        let mut x = [f64::NAN];
        solve_into(&lu, &[-0.0], &mut x);
        assert_eq!(x[0].to_bits(), 0.0_f64.to_bits(), "got {:e}", x[0]);
    }

    #[test]
    fn warm_start_maps_golden_unknowns_onto_larger_layout() {
        use crate::netlist::Netlist;
        use crate::source::SourceWaveform;

        // Golden: 2 non-ground nodes + 1 vsource branch.
        let mut golden = Netlist::new();
        let a = golden.node("a");
        let b = golden.node("b");
        golden.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(2.0));
        golden.resistor("R1", a, b, 1e3);
        golden.resistor("R2", b, Netlist::GROUND, 1e3);
        let warm = WarmStart::new(vec![2.0, 1.0, -1e-3], golden.node_count());

        // Faulty: one extra node and one extra vsource appended, the
        // way stuck-at injection does it.
        let mut faulty = golden.clone();
        let gen = faulty.node("fault:gen");
        faulty.vsource("fault:V", gen, Netlist::GROUND, SourceWaveform::dc(5.0));
        let layout = MnaLayout::new(&faulty);
        let mut x = vec![f64::NAN; layout.size()];
        warm.seed(&layout, &mut x);
        // Node voltages land on the same indices; the golden branch
        // current lands after the faulty node block; new unknowns zero.
        assert_eq!(x[0], 2.0);
        assert_eq!(x[1], 1.0);
        assert_eq!(x[2], 0.0); // fault:gen node, new
        assert_eq!(x[3], -1e-3); // V1 branch, shifted by the new node
        assert_eq!(x[4], 0.0); // fault:V branch, new
    }
}
