//! Per-session solver metrics.
//!
//! A [`SolverMetrics`] handle is owned by whoever runs an analysis (a
//! campaign worker, a bench experiment, a test) and threaded into the
//! solvers through [`crate::robust::SolveSettings`]. Counters are
//! atomics, so one handle can be shared across an analysis that retries
//! internally; each worker in a parallel campaign gets its *own* handle,
//! which is what makes per-fault counts exact — there is no process- or
//! thread-global state to bleed between consecutive analyses.
//!
//! An optional [`obs::Recorder`] receives wall-clock spans as they
//! close (`anasim.dc`, `anasim.transient`, `anasim.ac`). Counters stay
//! in the atomics until the owner snapshots them, so deterministic
//! quantities can be emitted in a deterministic order after parallel
//! work completes.

use std::fmt;
use std::ops::{Add, AddAssign};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use linsys::NumericalHazard;
use obs::profile::{PhaseProfiler, PhaseSnapshot};
use obs::Recorder;

/// Counter names under which [`SolverSnapshot::emit_to`] publishes to a
/// recorder, in emission order.
pub const COUNTER_NAMES: [&str; 17] = [
    "solver.newton_iterations",
    "solver.steps_accepted",
    "solver.steps_rejected",
    "solver.dt_shrinks",
    "solver.dc_gmin_steps",
    "solver.dc_source_steps",
    "solver.factor_reuse_hits",
    "solver.factor_reuse_misses",
    "solver.hazard.near_singular_pivot",
    "solver.hazard.pivot_growth",
    "solver.hazard.nonfinite",
    "solver.hazard.refinement_stall",
    "solver.hazard.ill_conditioned",
    "solver.demote.stale",
    "solver.demote.refactor",
    "solver.demote.symbolic",
    "solver.refinement.rounds",
];

/// The recovery tier the solver demoted *to* after a numerical hazard,
/// ordered from cheapest to most expensive. The tiers mirror the
/// factorisation-reuse ladder in `mna`: reuse a cached same-key factor
/// as-is, numerically refactor in the existing symbolic structure, and
/// rebuild the symbolic analysis from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DemotionTier {
    /// Fall back to a cached (stale or same-key) factorisation.
    Stale,
    /// Force a numeric refactorisation of the current structure.
    Refactor,
    /// Rebuild the symbolic structure and refactor.
    Symbolic,
}

impl DemotionTier {
    /// Every tier, cheapest first.
    pub const ALL: [DemotionTier; 3] = [
        DemotionTier::Stale,
        DemotionTier::Refactor,
        DemotionTier::Symbolic,
    ];

    /// Stable lowercase label used in counters, markers and journals.
    pub fn label(self) -> &'static str {
        match self {
            DemotionTier::Stale => "stale",
            DemotionTier::Refactor => "refactor",
            DemotionTier::Symbolic => "symbolic",
        }
    }
}

/// Live, thread-safe solver counters plus an optional span recorder.
#[derive(Default)]
pub struct SolverMetrics {
    newton_iterations: AtomicU64,
    steps_accepted: AtomicU64,
    steps_rejected: AtomicU64,
    dt_shrinks: AtomicU64,
    dc_gmin_steps: AtomicU64,
    dc_source_steps: AtomicU64,
    factor_reuse_hits: AtomicU64,
    factor_reuse_misses: AtomicU64,
    hazard_near_singular_pivot: AtomicU64,
    hazard_pivot_growth: AtomicU64,
    hazard_nonfinite: AtomicU64,
    hazard_refinement_stall: AtomicU64,
    hazard_ill_conditioned: AtomicU64,
    demote_stale: AtomicU64,
    demote_refactor: AtomicU64,
    demote_symbolic: AtomicU64,
    refinement_rounds: AtomicU64,
    recorder: Option<Arc<dyn Recorder>>,
    profile: Option<Arc<PhaseProfiler>>,
}

impl fmt::Debug for SolverMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverMetrics")
            .field("snapshot", &self.snapshot())
            .field("has_recorder", &self.recorder.is_some())
            .finish()
    }
}

impl SolverMetrics {
    /// Fresh counters with no span recorder.
    pub fn new() -> Self {
        SolverMetrics::default()
    }

    /// Fresh counters whose spans are forwarded to `recorder`.
    pub fn with_recorder(recorder: Arc<dyn Recorder>) -> Self {
        SolverMetrics {
            recorder: Some(recorder),
            ..SolverMetrics::default()
        }
    }

    /// `self` with a [`PhaseProfiler`] attached (builder style):
    /// [`SolverMetrics::snapshot`] folds the profiler's per-phase
    /// nanosecond totals into [`SolverSnapshot::phases`]. The handle
    /// only links the profiler to the snapshot; arming the solver hot
    /// path itself goes through
    /// [`crate::robust::SolveSettings::profile`].
    pub fn with_profile(mut self, profile: Arc<PhaseProfiler>) -> Self {
        self.profile = Some(profile);
        self
    }

    /// One Newton iteration performed.
    #[inline]
    pub fn newton_iteration(&self) {
        self.newton_iterations.fetch_add(1, Ordering::Relaxed);
    }

    /// One transient timestep accepted.
    #[inline]
    pub fn step_accepted(&self) {
        self.steps_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// One transient timestep rejected (non-convergence at this dt).
    #[inline]
    pub fn step_rejected(&self) {
        self.steps_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// One dt halving after a rejected step.
    #[inline]
    pub fn dt_shrink(&self) {
        self.dt_shrinks.fetch_add(1, Ordering::Relaxed);
    }

    /// One gmin-stepping homotopy stage solved during DC.
    #[inline]
    pub fn dc_gmin_step(&self) {
        self.dc_gmin_steps.fetch_add(1, Ordering::Relaxed);
    }

    /// One source-stepping homotopy stage solved during DC.
    #[inline]
    pub fn dc_source_step(&self) {
        self.dc_source_steps.fetch_add(1, Ordering::Relaxed);
    }

    /// One Newton iteration served by a cached factorisation (a
    /// modified-Newton stale step or a cached linear solve).
    #[inline]
    pub fn factor_reuse_hit(&self) {
        self.factor_reuse_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// One Newton iteration that (re)factorised the system matrix.
    #[inline]
    pub fn factor_reuse_miss(&self) {
        self.factor_reuse_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// One numerical hazard of the given kind detected. Hazards are
    /// *detections*, not necessarily failures: advisory kinds
    /// (pivot-growth, ill-conditioned) are counted without forcing a
    /// demotion, while the rest trigger the demotion ladder.
    #[inline]
    pub fn hazard(&self, hazard: NumericalHazard) {
        let counter = match hazard {
            NumericalHazard::NearSingularPivot => &self.hazard_near_singular_pivot,
            NumericalHazard::PivotGrowth => &self.hazard_pivot_growth,
            NumericalHazard::NonFinite => &self.hazard_nonfinite,
            NumericalHazard::RefinementStall => &self.hazard_refinement_stall,
            NumericalHazard::IllConditioned => &self.hazard_ill_conditioned,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// One demotion onto the given recovery tier after a hazard.
    #[inline]
    pub fn demotion(&self, tier: DemotionTier) {
        let counter = match tier {
            DemotionTier::Stale => &self.demote_stale,
            DemotionTier::Refactor => &self.demote_refactor,
            DemotionTier::Symbolic => &self.demote_symbolic,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// One round of iterative refinement executed (whether or not the
    /// corrected iterate was accepted).
    #[inline]
    pub fn refinement_round(&self) {
        self.refinement_rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Reports a completed analysis span (e.g. `anasim.dc`) to the
    /// attached recorder, if any.
    pub fn record_span(&self, name: &str, elapsed: Duration) {
        if let Some(recorder) = &self.recorder {
            recorder.span(name, elapsed);
        }
    }

    /// The attached span recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<dyn Recorder>> {
        self.recorder.as_ref()
    }

    /// The attached phase profiler, if any.
    pub fn profiler(&self) -> Option<&Arc<PhaseProfiler>> {
        self.profile.as_ref()
    }

    /// A point-in-time copy of all counters, including the per-phase
    /// nanosecond totals of an attached profiler (zero when disarmed).
    pub fn snapshot(&self) -> SolverSnapshot {
        SolverSnapshot {
            newton_iterations: self.newton_iterations.load(Ordering::Relaxed),
            steps_accepted: self.steps_accepted.load(Ordering::Relaxed),
            steps_rejected: self.steps_rejected.load(Ordering::Relaxed),
            dt_shrinks: self.dt_shrinks.load(Ordering::Relaxed),
            dc_gmin_steps: self.dc_gmin_steps.load(Ordering::Relaxed),
            dc_source_steps: self.dc_source_steps.load(Ordering::Relaxed),
            factor_reuse_hits: self.factor_reuse_hits.load(Ordering::Relaxed),
            factor_reuse_misses: self.factor_reuse_misses.load(Ordering::Relaxed),
            hazard_near_singular_pivot: self.hazard_near_singular_pivot.load(Ordering::Relaxed),
            hazard_pivot_growth: self.hazard_pivot_growth.load(Ordering::Relaxed),
            hazard_nonfinite: self.hazard_nonfinite.load(Ordering::Relaxed),
            hazard_refinement_stall: self.hazard_refinement_stall.load(Ordering::Relaxed),
            hazard_ill_conditioned: self.hazard_ill_conditioned.load(Ordering::Relaxed),
            demote_stale: self.demote_stale.load(Ordering::Relaxed),
            demote_refactor: self.demote_refactor.load(Ordering::Relaxed),
            demote_symbolic: self.demote_symbolic.load(Ordering::Relaxed),
            refinement_rounds: self.refinement_rounds.load(Ordering::Relaxed),
            phases: self.profile.as_ref().map(|p| p.snapshot()).unwrap_or_default(),
        }
    }
}

/// An immutable copy of solver counters; add snapshots to aggregate
/// across analyses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverSnapshot {
    /// Newton iterations performed.
    pub newton_iterations: u64,
    /// Transient timesteps accepted.
    pub steps_accepted: u64,
    /// Transient timesteps rejected.
    pub steps_rejected: u64,
    /// dt halvings after rejected steps.
    pub dt_shrinks: u64,
    /// gmin homotopy stages solved.
    pub dc_gmin_steps: u64,
    /// Source-stepping homotopy stages solved.
    pub dc_source_steps: u64,
    /// Newton iterations served by a cached factorisation.
    pub factor_reuse_hits: u64,
    /// Newton iterations that (re)factorised the system matrix.
    pub factor_reuse_misses: u64,
    /// Near-singular pivots detected (scale-relative threshold).
    pub hazard_near_singular_pivot: u64,
    /// Excessive element growth observed during factorisation
    /// (advisory).
    pub hazard_pivot_growth: u64,
    /// Non-finite residuals, solutions or trial steps scrubbed.
    pub hazard_nonfinite: u64,
    /// Refinement rounds that failed to contract the true residual.
    pub hazard_refinement_stall: u64,
    /// Condition estimates above the advisory threshold.
    pub hazard_ill_conditioned: u64,
    /// Demotions onto a cached factorisation.
    pub demote_stale: u64,
    /// Demotions forcing a numeric refactorisation.
    pub demote_refactor: u64,
    /// Demotions rebuilding the symbolic structure.
    pub demote_symbolic: u64,
    /// Iterative-refinement rounds executed.
    pub refinement_rounds: u64,
    /// Per-phase self-time nanoseconds and span counts from an attached
    /// [`PhaseProfiler`]; all-zero when profiling was disarmed. Being
    /// wall-clock measurements these are *not* deterministic, so they
    /// never reach canonical report output — they surface only through
    /// the bench sidecar, the phase table and trace exports.
    pub phases: PhaseSnapshot,
}

impl SolverSnapshot {
    /// Bare field names in [`SolverSnapshot::as_array`] order; the
    /// recorder-facing [`COUNTER_NAMES`] are these with a `solver.`
    /// prefix. Keeping one authoritative name list next to the value
    /// list stops the two from drifting into positional magic.
    pub const FIELDS: [&'static str; 17] = [
        "newton_iterations",
        "steps_accepted",
        "steps_rejected",
        "dt_shrinks",
        "dc_gmin_steps",
        "dc_source_steps",
        "factor_reuse_hits",
        "factor_reuse_misses",
        "hazard.near_singular_pivot",
        "hazard.pivot_growth",
        "hazard.nonfinite",
        "hazard.refinement_stall",
        "hazard.ill_conditioned",
        "demote.stale",
        "demote.refactor",
        "demote.symbolic",
        "refinement.rounds",
    ];

    /// Publishes each counter to `recorder` under its
    /// [`COUNTER_NAMES`] name. Zero counters are emitted too, so
    /// aggregate key sets do not depend on which code paths ran.
    pub fn emit_to(&self, recorder: &dyn Recorder) {
        for (name, value) in COUNTER_NAMES.iter().zip(self.as_array()) {
            recorder.add(name, value);
        }
    }

    /// Counter values in [`COUNTER_NAMES`] order.
    pub fn as_array(&self) -> [u64; 17] {
        [
            self.newton_iterations,
            self.steps_accepted,
            self.steps_rejected,
            self.dt_shrinks,
            self.dc_gmin_steps,
            self.dc_source_steps,
            self.factor_reuse_hits,
            self.factor_reuse_misses,
            self.hazard_near_singular_pivot,
            self.hazard_pivot_growth,
            self.hazard_nonfinite,
            self.hazard_refinement_stall,
            self.hazard_ill_conditioned,
            self.demote_stale,
            self.demote_refactor,
            self.demote_symbolic,
            self.refinement_rounds,
        ]
    }

    /// Hazard counters paired with their [`NumericalHazard::label`]s,
    /// in [`NumericalHazard::ALL`] order — the shape canonical-report
    /// markers and `experiments explain` render from.
    pub fn hazards(&self) -> [(&'static str, u64); 5] {
        [
            ("near-singular-pivot", self.hazard_near_singular_pivot),
            ("pivot-growth", self.hazard_pivot_growth),
            ("non-finite", self.hazard_nonfinite),
            ("refinement-stall", self.hazard_refinement_stall),
            ("ill-conditioned", self.hazard_ill_conditioned),
        ]
    }

    /// Demotion counters paired with their [`DemotionTier::label`]s, in
    /// [`DemotionTier::ALL`] (cheapest-first) order.
    pub fn demotions(&self) -> [(&'static str, u64); 3] {
        [
            ("stale", self.demote_stale),
            ("refactor", self.demote_refactor),
            ("symbolic", self.demote_symbolic),
        ]
    }
}

impl Add for SolverSnapshot {
    type Output = SolverSnapshot;

    fn add(self, rhs: SolverSnapshot) -> SolverSnapshot {
        SolverSnapshot {
            newton_iterations: self.newton_iterations + rhs.newton_iterations,
            steps_accepted: self.steps_accepted + rhs.steps_accepted,
            steps_rejected: self.steps_rejected + rhs.steps_rejected,
            dt_shrinks: self.dt_shrinks + rhs.dt_shrinks,
            dc_gmin_steps: self.dc_gmin_steps + rhs.dc_gmin_steps,
            dc_source_steps: self.dc_source_steps + rhs.dc_source_steps,
            factor_reuse_hits: self.factor_reuse_hits + rhs.factor_reuse_hits,
            factor_reuse_misses: self.factor_reuse_misses + rhs.factor_reuse_misses,
            hazard_near_singular_pivot: self.hazard_near_singular_pivot
                + rhs.hazard_near_singular_pivot,
            hazard_pivot_growth: self.hazard_pivot_growth + rhs.hazard_pivot_growth,
            hazard_nonfinite: self.hazard_nonfinite + rhs.hazard_nonfinite,
            hazard_refinement_stall: self.hazard_refinement_stall + rhs.hazard_refinement_stall,
            hazard_ill_conditioned: self.hazard_ill_conditioned + rhs.hazard_ill_conditioned,
            demote_stale: self.demote_stale + rhs.demote_stale,
            demote_refactor: self.demote_refactor + rhs.demote_refactor,
            demote_symbolic: self.demote_symbolic + rhs.demote_symbolic,
            refinement_rounds: self.refinement_rounds + rhs.refinement_rounds,
            phases: self.phases + rhs.phases,
        }
    }
}

impl AddAssign for SolverSnapshot {
    fn add_assign(&mut self, rhs: SolverSnapshot) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::AggregatingRecorder;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = SolverMetrics::new();
        m.newton_iteration();
        m.newton_iteration();
        m.step_accepted();
        m.step_rejected();
        m.dt_shrink();
        m.dc_gmin_step();
        m.dc_source_step();
        m.factor_reuse_hit();
        m.factor_reuse_hit();
        m.factor_reuse_miss();
        m.hazard(NumericalHazard::PivotGrowth);
        m.hazard(NumericalHazard::NonFinite);
        m.hazard(NumericalHazard::NonFinite);
        m.demotion(DemotionTier::Refactor);
        m.refinement_round();
        let snap = m.snapshot();
        assert_eq!(snap.newton_iterations, 2);
        assert_eq!(snap.steps_accepted, 1);
        assert_eq!(snap.steps_rejected, 1);
        assert_eq!(snap.dt_shrinks, 1);
        assert_eq!(snap.dc_gmin_steps, 1);
        assert_eq!(snap.dc_source_steps, 1);
        assert_eq!(snap.factor_reuse_hits, 2);
        assert_eq!(snap.factor_reuse_misses, 1);
        assert_eq!(snap.hazard_pivot_growth, 1);
        assert_eq!(snap.hazard_nonfinite, 2);
        assert_eq!(snap.hazard_near_singular_pivot, 0);
        assert_eq!(snap.demote_refactor, 1);
        assert_eq!(snap.demote_symbolic, 0);
        assert_eq!(snap.refinement_rounds, 1);
    }

    #[test]
    fn every_hazard_and_tier_lands_on_its_own_counter() {
        let m = SolverMetrics::new();
        for h in NumericalHazard::ALL {
            m.hazard(h);
        }
        for t in DemotionTier::ALL {
            m.demotion(t);
        }
        let snap = m.snapshot();
        for (label, count) in snap.hazards() {
            assert_eq!(count, 1, "hazard {label}");
        }
        for (label, count) in snap.demotions() {
            assert_eq!(count, 1, "demotion {label}");
        }
        // The label pairing matches the authoritative enums.
        for ((label, _), h) in snap.hazards().iter().zip(NumericalHazard::ALL) {
            assert_eq!(*label, h.label());
        }
        for ((label, _), t) in snap.demotions().iter().zip(DemotionTier::ALL) {
            assert_eq!(*label, t.label());
        }
    }

    #[test]
    fn snapshots_add_fieldwise() {
        let a = SolverSnapshot {
            newton_iterations: 10,
            steps_accepted: 5,
            ..SolverSnapshot::default()
        };
        let b = SolverSnapshot {
            newton_iterations: 7,
            dt_shrinks: 2,
            ..SolverSnapshot::default()
        };
        let mut sum = a;
        sum += b;
        assert_eq!(sum.newton_iterations, 17);
        assert_eq!(sum.steps_accepted, 5);
        assert_eq!(sum.dt_shrinks, 2);
    }

    #[test]
    fn emit_publishes_every_counter_even_zeroes() {
        let rec = AggregatingRecorder::new();
        let snap = SolverSnapshot {
            newton_iterations: 3,
            ..SolverSnapshot::default()
        };
        snap.emit_to(&rec);
        let agg = rec.snapshot();
        for name in COUNTER_NAMES {
            assert!(agg.counters.contains_key(name), "{name} missing");
        }
        assert_eq!(agg.counters["solver.newton_iterations"], 3);
        assert_eq!(agg.counters["solver.dt_shrinks"], 0);
    }

    #[test]
    fn field_names_stay_in_sync_with_counter_names_and_as_array() {
        // The recorder names are exactly the field names with the
        // `solver.` prefix, position for position.
        for (counter, field) in COUNTER_NAMES.iter().zip(SolverSnapshot::FIELDS) {
            assert_eq!(*counter, format!("solver.{field}"));
        }
        // Distinct per-position values prove as_array/emit_to use the
        // same ordering as FIELDS: the value emitted under each name
        // matches the field the name claims.
        let snap = SolverSnapshot {
            newton_iterations: 1,
            steps_accepted: 2,
            steps_rejected: 3,
            dt_shrinks: 4,
            dc_gmin_steps: 5,
            dc_source_steps: 6,
            factor_reuse_hits: 7,
            factor_reuse_misses: 8,
            hazard_near_singular_pivot: 9,
            hazard_pivot_growth: 10,
            hazard_nonfinite: 11,
            hazard_refinement_stall: 12,
            hazard_ill_conditioned: 13,
            demote_stale: 14,
            demote_refactor: 15,
            demote_symbolic: 16,
            refinement_rounds: 17,
            ..SolverSnapshot::default()
        };
        assert_eq!(
            snap.as_array(),
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17]
        );
        let rec = AggregatingRecorder::new();
        snap.emit_to(&rec);
        let agg = rec.snapshot();
        for (i, field) in SolverSnapshot::FIELDS.iter().enumerate() {
            assert_eq!(
                agg.counters[&format!("solver.{field}")],
                (i + 1) as u64,
                "{field} emitted out of position"
            );
        }
    }

    #[test]
    fn attached_profiler_totals_reach_the_snapshot() {
        use obs::profile::Phase;

        let profile = Arc::new(PhaseProfiler::new());
        let m = SolverMetrics::new().with_profile(Arc::clone(&profile));
        assert!(m.snapshot().phases.is_empty());
        profile.add_ns(Phase::Factor, 1234, 2);
        let snap = m.snapshot();
        assert_eq!(snap.phases.ns(Phase::Factor), 1234);
        assert_eq!(snap.phases.calls(Phase::Factor), 2);
        // Adding snapshots sums the phase totals too.
        let sum = snap + snap;
        assert_eq!(sum.phases.ns(Phase::Factor), 2468);
        // Without a profiler the phase block stays zero.
        assert!(SolverMetrics::new().snapshot().phases.is_empty());
    }

    #[test]
    fn spans_flow_to_the_attached_recorder() {
        let rec = Arc::new(AggregatingRecorder::new());
        let m = SolverMetrics::with_recorder(rec.clone());
        m.record_span("anasim.dc", Duration::from_millis(2));
        assert_eq!(rec.snapshot().spans["anasim.dc"].count(), 1);
        // Without a recorder, spans are silently dropped.
        SolverMetrics::new().record_span("anasim.dc", Duration::from_millis(1));
    }
}
