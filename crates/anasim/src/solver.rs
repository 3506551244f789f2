//! The linear-solver core under the Newton iteration: backend
//! selection, symbolic-structure and factorisation caching, golden
//! warm-starts and rank-1 fault updates.
//!
//! The Newton hot loop in [`crate::mna`] solves one linearised MNA
//! system per iteration. Historically that meant one dense LU
//! factorisation per iteration; this module supplies the machinery that
//! makes the linear algebra cheap and *reusable*:
//!
//! * [`Backend`] — dense ([`linsys::matrix::Lu`]) or sparse
//!   ([`linsys::sparse::SparseLu`]) linear algebra. Both produce
//!   bit-identical solutions (the sparse factorisation replicates the
//!   dense pivot order and arithmetic, and [`LinearFactor::solve_into`]
//!   normalises zero signs on both), so canonical campaign reports do
//!   not depend on the backend.
//! * [`SolverContext`] — per-analysis mutable state that persists
//!   across Newton iterations *and* timesteps: the assembled system
//!   workspace, the sparse symbolic structure (computed once per
//!   (netlist, companion-mode) and reused), and the cached
//!   factorisation keyed by [`FactorKey`]. The Newton loop consults the
//!   cache to skip refactorisation while the iterate is contracting
//!   ("modified Newton") and to solve linear systems with a single
//!   back-substitution per step.
//! * [`WarmStart`] — a golden operating point mapped onto a faulty
//!   netlist's unknown layout, so fault extractions seed DC from the
//!   golden solution instead of re-running the homotopy chain.
//! * [`Rank1Cache`] / [`Rank1Setup`] — Sherman–Morrison support: a
//!   bridge fault on a linear netlist is a rank-1 conductance update
//!   `g·w·wᵀ` to the golden matrix, so the faulty system is solved from
//!   the *golden* factorisation captured during golden extraction,
//!   never factoring the faulty matrix at all.
//!
//! The reuse *policy* (when to trust a stale factorisation, when to
//! force a refactorisation) lives in [`crate::mna`]; everything here is
//! deliberately deterministic and backend-symmetric so the policy makes
//! identical decisions under either backend.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use linsys::matrix::{Lu, Matrix};
use linsys::sparse::{RefactorSchedule, SparseLu, SparseMatrix, SparseStructure, SparseWorkspace};
use linsys::SingularMatrixError;

use crate::mna::{MnaLayout, NonlinearProgram};

/// Which linear-algebra backend the Newton loop assembles and factors
/// with.
///
/// The two backends produce bit-identical solutions; sparse is the
/// default because MNA systems are sparse and the symbolic analysis is
/// computed once per structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Dense row-major matrices with per-factorisation `O(n³)` LU.
    Dense,
    /// Sparse matrices with structure-reusing Gilbert–Peierls LU.
    #[default]
    Sparse,
}

impl Backend {
    /// Parses `"dense"` / `"sparse"` (CLI flag format).
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "dense" => Some(Backend::Dense),
            "sparse" => Some(Backend::Sparse),
            _ => None,
        }
    }

    /// The CLI/report label: `"dense"` or `"sparse"`.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Dense => "dense",
            Backend::Sparse => "sparse",
        }
    }
}

/// Anything device stamps can be assembled into: the dense and sparse
/// system matrices, plus the structure probe that records positions.
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

/// The assembled MNA system under one backend.
#[derive(Debug, Clone)]
pub enum SystemMatrix {
    /// Dense `n × n` workspace.
    Dense(Matrix),
    /// Sparse values over a shared [`SparseStructure`].
    Sparse(SparseMatrix),
}

impl SystemMatrix {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        match self {
            SystemMatrix::Dense(m) => m.rows(),
            SystemMatrix::Sparse(m) => m.n(),
        }
    }

    /// Zeroes the stored values, keeping structure and allocation.
    pub fn clear(&mut self) {
        match self {
            SystemMatrix::Dense(m) => m.clear(),
            SystemMatrix::Sparse(m) => m.clear(),
        }
    }

    /// Matrix–vector product into `out` (row-oriented, ascending
    /// columns — the same accumulation order under both backends, so
    /// results agree bit for bit on every nonzero).
    pub fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) {
        match self {
            SystemMatrix::Dense(m) => m.mul_vec_into(x, out),
            SystemMatrix::Sparse(m) => m.mul_vec_into(x, out),
        }
    }

    /// Residual `A·x − b` into `out` in one pass: each row accumulates
    /// its product exactly as [`SystemMatrix::mul_vec_into`] does, then
    /// subtracts `b[r]` — the same operations the two-pass form
    /// performs, fused so the Newton stale-trial path touches `out`
    /// once instead of twice per iteration.
    pub fn residual_into(&self, x: &[f64], b: &[f64], out: &mut [f64]) {
        match self {
            SystemMatrix::Dense(m) => m.residual_into(x, b, out),
            SystemMatrix::Sparse(m) => m.residual_into(x, b, out),
        }
    }

    /// Residual `A·x − b` into `out` plus the componentwise gate scale
    /// `max_r(Σ_c |a_rc·x_c| + |b_r|)`, in one pass; returns
    /// `(residual_norm, scale)`. The acceptance gates for reused
    /// factorisations compare the residual against `scale`, never
    /// against an absolute number, so uniformly graded systems gate the
    /// same as O(1) ones.
    pub fn residual_gate_into(&self, x: &[f64], b: &[f64], out: &mut [f64]) -> (f64, f64) {
        match self {
            SystemMatrix::Dense(m) => m.residual_gate_into(x, b, out),
            SystemMatrix::Sparse(m) => m.residual_gate_into(x, b, out),
        }
    }

    /// 1-norm of the assembled matrix (bit-identical across backends),
    /// the scale fed to [`LinearFactor::condest`].
    pub fn norm_one(&self) -> f64 {
        match self {
            SystemMatrix::Dense(m) => m.norm_one(),
            SystemMatrix::Sparse(m) => m.norm_one(),
        }
    }

    /// Snapshot of the backing values (dense storage or row-major
    /// sparse slots).
    pub fn values(&self) -> &[f64] {
        match self {
            SystemMatrix::Dense(m) => m.values(),
            SystemMatrix::Sparse(m) => m.values(),
        }
    }

    /// The stored values, writable, indexed by [`SystemMatrix::slot`].
    pub fn values_mut(&mut self) -> &mut [f64] {
        match self {
            SystemMatrix::Dense(m) => m.values_mut(),
            SystemMatrix::Sparse(m) => m.values_mut(),
        }
    }

    /// Value index of `(r, c)` in [`SystemMatrix::values`]: `r·n + c`
    /// on the dense backend, the row-major slot on the sparse one.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is outside the sparse pattern.
    pub fn slot(&self, r: usize, c: usize) -> usize {
        match self {
            SystemMatrix::Dense(m) => m.slot(r, c),
            SystemMatrix::Sparse(m) => m
                .slot_of(r, c)
                .unwrap_or_else(|| panic!("stamp at ({r}, {c}) outside sparse pattern")),
        }
    }

    /// Restores a snapshot taken with [`SystemMatrix::values`] — the
    /// linear-baseline fast path that replaces re-stamping every linear
    /// device on every Newton iteration with one `memcpy`.
    pub fn load_values(&mut self, values: &[f64]) {
        match self {
            SystemMatrix::Dense(m) => m.load_values(values),
            SystemMatrix::Sparse(m) => m.load_values(values),
        }
    }

    /// Factorises the assembled system, recycling `reuse`'s
    /// allocations when the backends match. On the sparse backend the
    /// last pivot order is replayed through `schedule` first, with the
    /// full pivoting kernel as its fallback (see
    /// [`SparseLu::refactor_scheduled`]).
    ///
    /// # Errors
    ///
    /// [`SingularMatrixError`] from either backend (identical pivot
    /// threshold and breakdown row).
    pub fn factor(
        &self,
        ws: &mut SparseWorkspace,
        schedule: &mut Option<RefactorSchedule>,
        reuse: Option<LinearFactor>,
    ) -> Result<LinearFactor, SingularMatrixError> {
        match self {
            SystemMatrix::Dense(m) => Ok(LinearFactor::Dense(Lu::factor(m)?)),
            SystemMatrix::Sparse(m) => {
                let mut slu = match reuse {
                    Some(LinearFactor::Sparse(s)) => s,
                    _ => SparseLu::default(),
                };
                slu.refactor_scheduled(m, ws, schedule)?;
                Ok(LinearFactor::Sparse(slu))
            }
        }
    }
}

impl MnaMatrix for SystemMatrix {
    #[inline]
    fn add(&mut self, r: usize, c: usize, value: f64) {
        match self {
            SystemMatrix::Dense(m) => m.add(r, c, value),
            SystemMatrix::Sparse(m) => m.add(r, c, value),
        }
    }
    fn clear(&mut self) {
        SystemMatrix::clear(self);
    }
}

/// A factorisation that can be applied to right-hand sides.
///
/// This is the small abstraction the backends plug into; the concrete
/// types are [`linsys::matrix::Lu`] and [`linsys::sparse::SparseLu`].
pub trait LinearSolver {
    /// Solves `A·x = b` into `x` without allocating.
    fn solve_in_place(&self, b: &[f64], x: &mut [f64]);
    /// Matrix dimension.
    fn dimension(&self) -> usize;
}

impl LinearSolver for Lu {
    fn solve_in_place(&self, b: &[f64], x: &mut [f64]) {
        self.solve_into(b, x);
    }
    fn dimension(&self) -> usize {
        self.n()
    }
}

impl LinearSolver for SparseLu {
    fn solve_in_place(&self, b: &[f64], x: &mut [f64]) {
        self.solve_into(b, x);
    }
    fn dimension(&self) -> usize {
        self.n()
    }
}

/// A cached factorisation from either backend.
#[derive(Debug, Clone)]
pub enum LinearFactor {
    /// Dense LU.
    Dense(Lu),
    /// Sparse LU over a reusable pattern.
    Sparse(SparseLu),
}

impl LinearFactor {
    /// Solves `A·x = b` into `x` and normalises zero signs (`-0.0` →
    /// `+0.0`).
    ///
    /// The two factorisations agree bit for bit on every nonzero but
    /// may differ in the *sign* of exact zeros (the sparse code skips
    /// arithmetic on entries outside the pattern, and `-0.0 - (-0.0)`
    /// is `+0.0`). Normalising here makes the full solution vector —
    /// and therefore every downstream waveform and canonical report —
    /// bytewise identical across backends.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        match self {
            LinearFactor::Dense(lu) => lu.solve_in_place(b, x),
            LinearFactor::Sparse(slu) => slu.solve_in_place(b, x),
        }
        for v in x.iter_mut() {
            *v += 0.0;
        }
    }

    /// Element-growth factor observed while this factorisation was
    /// computed (bit-identical across backends).
    pub fn pivot_growth(&self) -> f64 {
        match self {
            LinearFactor::Dense(lu) => lu.pivot_growth(),
            LinearFactor::Sparse(slu) => slu.pivot_growth(),
        }
    }

    /// Hager 1-norm condition estimate `anorm · ||A⁻¹||₁` against this
    /// factorisation (bit-identical across backends).
    pub fn condest(&self, anorm: f64) -> f64 {
        match self {
            LinearFactor::Dense(lu) => lu.condest(anorm),
            LinearFactor::Sparse(slu) => slu.condest(anorm),
        }
    }

    /// Fault injection only: scales the first pivot, corrupting every
    /// subsequent solve the same way on both backends. This is how the
    /// numeric-chaos harness manufactures a factorisation whose solves
    /// fail the residual gate.
    pub fn chaos_perturb_pivot(&mut self, scale: f64) {
        match self {
            LinearFactor::Dense(lu) => lu.perturb_first_pivot(scale),
            LinearFactor::Sparse(slu) => slu.perturb_first_pivot(scale),
        }
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

/// A rank-1 conductance perturbation `g·w·wᵀ` with `w = e_pos − e_neg`
/// (`None` = ground, contributing nothing).
///
/// This is exactly what a bridge fault stamps on top of the golden
/// matrix, so a faulty linear system solves from the golden
/// factorisation via Sherman–Morrison.
#[derive(Debug, Clone, Copy)]
pub struct Rank1Delta {
    /// Unknown index of the bridge's first node (`None` for ground).
    pub pos: Option<usize>,
    /// Unknown index of the bridge's second node (`None` for ground).
    pub neg: Option<usize>,
    /// Bridge conductance in siemens.
    pub conductance: f64,
}

impl Rank1Delta {
    /// `wᵀ·v` for this delta's `w`.
    #[inline]
    pub fn w_dot(&self, v: &[f64]) -> f64 {
        self.pos.map_or(0.0, |i| v[i]) - self.neg.map_or(0.0, |i| v[i])
    }

    /// Writes `w` into `out` (which must be zeroed-compatible; it is
    /// overwritten entirely).
    pub fn w_into(&self, out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        if let Some(i) = self.pos {
            out[i] = 1.0;
        }
        if let Some(i) = self.neg {
            out[i] = -1.0;
        }
    }
}

/// Golden factorisations captured during golden extraction, keyed by
/// [`FactorKey`], shared read-only with every fault worker.
///
/// The cache is filled only by the golden run (before workers start)
/// and then frozen; a frozen cache ignores inserts. That makes every
/// lookup deterministic regardless of worker scheduling, which keeps
/// canonical campaign reports byte-identical at any worker count.
#[derive(Debug, Default)]
pub struct Rank1Cache {
    frozen: AtomicBool,
    map: Mutex<HashMap<FactorKey, Arc<LinearFactor>>>,
}

impl Rank1Cache {
    /// An empty, unfrozen cache.
    pub fn new() -> Self {
        Rank1Cache::default()
    }

    /// Stops further inserts; lookups keep working.
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::SeqCst);
    }

    /// Records `factor` under `key` unless frozen or already present.
    pub fn insert(&self, key: FactorKey, factor: &LinearFactor) {
        if self.frozen.load(Ordering::SeqCst) {
            return;
        }
        // A panicking worker poisons the mutex, but every mutation here
        // is a single `HashMap` operation that leaves the map
        // consistent even if the *caller* panicked mid-campaign — so
        // recover the guard instead of cascading the panic into every
        // surviving worker that still shares this cache.
        let mut map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        map.entry(key).or_insert_with(|| Arc::new(factor.clone()));
    }

    /// The captured factorisation for `key`, if any.
    pub fn get(&self, key: &FactorKey) -> Option<Arc<LinearFactor>> {
        self.map
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(key)
            .cloned()
    }

    /// Number of captured factorisations.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a solve should do with a [`Rank1Cache`].
#[derive(Debug, Clone)]
pub enum Rank1Action {
    /// Record every linear factorisation into the cache (golden run).
    Capture,
    /// Solve through the cached golden factorisation with this delta
    /// applied via Sherman–Morrison (fault run). Falls back to normal
    /// factorisation on a cache miss.
    Apply(Rank1Delta),
}

/// A rank-1 configuration threaded into an analysis through
/// [`crate::robust::SolveSettings`].
#[derive(Debug, Clone)]
pub struct Rank1Setup {
    /// The shared golden-factorisation cache.
    pub cache: Arc<Rank1Cache>,
    /// Capture into or apply through the cache.
    pub action: Rank1Action,
}

impl Rank1Setup {
    /// A capturing setup (golden extraction).
    pub fn capture(cache: Arc<Rank1Cache>) -> Self {
        Rank1Setup {
            cache,
            action: Rank1Action::Capture,
        }
    }

    /// An applying setup (fault extraction).
    pub fn apply(cache: Arc<Rank1Cache>, delta: Rank1Delta) -> Self {
        Rank1Setup {
            cache,
            action: Rank1Action::Apply(delta),
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
#[derive(Debug, Clone)]
pub struct SolverContext {
    pub(crate) backend: Backend,
    /// Sparse symbolic structures by companion mode (0 = DC,
    /// 1 = transient); built once per mode via a stamping probe.
    pub(crate) structures: [Option<Arc<SparseStructure>>; 2],
    /// The assembled-system workspace and the mode it was built for.
    pub(crate) sys: Option<(usize, SystemMatrix)>,
    /// Right-hand side workspace.
    pub(crate) b: Vec<f64>,
    /// Newton iterate workspace (`x_new`).
    pub(crate) x_new: Vec<f64>,
    /// Residual / rank-1 `w` workspace.
    pub(crate) resid: Vec<f64>,
    /// Correction / rank-1 `z` workspace.
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
    /// rebuilt (new mode, dimension change, demotion).
    pub(crate) baseline_key: Option<FactorKey>,
    /// The linear right-hand side of the current solve (sources and
    /// reactive history), restored on its later iterations.
    pub(crate) baseline_b: Vec<f64>,
    /// The cached factorisation and the key it was computed under.
    pub(crate) factor: Option<(FactorKey, LinearFactor)>,
    /// Sparse refactorisation scratch.
    pub(crate) ws: SparseWorkspace,
    /// The replay schedule of the last full sparse factorisation. It
    /// holds an `Arc` of the structure it was built over and replays
    /// only on that one, so a rebuilt or demoted `sys` never replays a
    /// stale schedule.
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
    /// A fresh context for `backend`.
    pub fn new(backend: Backend) -> Self {
        SolverContext {
            backend,
            structures: [None, None],
            sys: None,
            b: Vec::new(),
            x_new: Vec::new(),
            resid: Vec::new(),
            scratch: Vec::new(),
            trial: Vec::new(),
            program: NonlinearProgram::default(),
            baseline_a: Vec::new(),
            baseline_key: None,
            baseline_b: Vec::new(),
            factor: None,
            ws: SparseWorkspace::default(),
            schedule: None,
            force_refactor: false,
            stale_iters: 0,
            distrust: 0,
        }
    }

    /// The backend this context assembles under.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Drops the cached factorisation and forces the next solve to
    /// refactor — called after non-convergence so a retry (e.g. at a
    /// halved timestep) starts from a fresh Jacobian.
    pub fn invalidate(&mut self) {
        self.factor = None;
        self.force_refactor = false;
        self.stale_iters = 0;
    }
}

impl Default for SolverContext {
    fn default() -> Self {
        SolverContext::new(Backend::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_labels() {
        assert_eq!(Backend::parse("dense"), Some(Backend::Dense));
        assert_eq!(Backend::parse("sparse"), Some(Backend::Sparse));
        assert_eq!(Backend::parse("fancy"), None);
        assert_eq!(Backend::Sparse.label(), "sparse");
        assert_eq!(Backend::default(), Backend::Sparse);
    }

    #[test]
    fn solve_into_normalises_zero_signs() {
        // A diagonal system whose solution contains -0.0 before
        // normalisation: x = -0.0 / 1.0.
        let mut m = Matrix::zeros(1, 1);
        m.add(0, 0, 1.0);
        let factor = LinearFactor::Dense(Lu::factor(&m).unwrap());
        let mut x = [f64::NAN];
        factor.solve_into(&[-0.0], &mut x);
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

    #[test]
    fn rank1_cache_freezes() {
        let cache = Rank1Cache::new();
        let key = FactorKey {
            mode: 0,
            method: 2,
            dt_bits: 0,
            gmin_bits: 0,
        };
        let mut m = Matrix::zeros(1, 1);
        m.add(0, 0, 2.0);
        let factor = LinearFactor::Dense(Lu::factor(&m).unwrap());
        cache.insert(key, &factor);
        assert_eq!(cache.len(), 1);
        cache.freeze();
        let key2 = FactorKey { mode: 1, ..key };
        cache.insert(key2, &factor);
        assert_eq!(cache.len(), 1, "frozen cache accepted an insert");
        assert!(cache.get(&key).is_some());
        assert!(cache.get(&key2).is_none());
    }

    #[test]
    fn rank1_cache_survives_a_panicking_worker() {
        // A worker that panics while holding the cache mutex poisons
        // it; the cache must keep serving the surviving workers (the
        // map itself is never left mid-mutation). Campaign-level
        // coverage lives in the faultsim chaos tests; this pins the
        // primitive.
        let cache = Arc::new(Rank1Cache::new());
        let key = FactorKey {
            mode: 0,
            method: 2,
            dt_bits: 0,
            gmin_bits: 0,
        };
        let mut m = Matrix::zeros(1, 1);
        m.add(0, 0, 2.0);
        let factor = LinearFactor::Dense(Lu::factor(&m).unwrap());
        cache.insert(key, &factor);
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.map.lock().unwrap();
            panic!("worker dies mid-campaign");
        })
        .join();
        // All three accessors recover from the poison.
        assert!(cache.get(&key).is_some());
        assert_eq!(cache.len(), 1);
        let key2 = FactorKey { mode: 1, ..key };
        cache.insert(key2, &factor);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn rank1_delta_dot_and_vector() {
        let delta = Rank1Delta {
            pos: Some(0),
            neg: Some(2),
            conductance: 1e-2,
        };
        let v = [3.0, 9.0, 1.0];
        assert_eq!(delta.w_dot(&v), 2.0);
        let mut w = [f64::NAN; 3];
        delta.w_into(&mut w);
        assert_eq!(w, [1.0, 0.0, -1.0]);
        // Grounded terminal contributes nothing.
        let grounded = Rank1Delta {
            pos: Some(1),
            neg: None,
            conductance: 1.0,
        };
        assert_eq!(grounded.w_dot(&v), 9.0);
    }
}
