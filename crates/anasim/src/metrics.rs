//! Per-session solver metrics.
//!
//! A [`SolverMetrics`] handle is owned by whoever runs an analysis (a
//! campaign worker, a bench experiment, a test) and threaded into the
//! solvers through [`crate::robust::Instruments`]. Counters are
//! atomics, so one handle can be shared across an analysis that retries
//! internally; each worker in a parallel campaign gets its *own* handle,
//! which is what makes per-fault counts exact — there is no process- or
//! thread-global state to bleed between consecutive analyses.
//!
//! Counters stay in the atomics until the owner snapshots them, so
//! deterministic quantities can be emitted in a deterministic order
//! after parallel work completes.

use std::fmt;
use std::ops::{Add, AddAssign};
use std::sync::atomic::{AtomicU64, Ordering};

use linsys::NumericalHazard;
use obs::profile::PhaseSnapshot;

/// Report counter names of the [`SolverSnapshot`] fields, in
/// [`SolverSnapshot::as_array`] order.
pub const COUNTER_NAMES: [&str; 16] = [
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
    "solver.demote.refactor",
    "solver.demote.symbolic",
    "solver.refinement.rounds",
];

/// The recovery tier the solver demoted *to* after a numerical hazard,
/// ordered from cheapest to most expensive. The tiers mirror the
/// demotion ladder in `mna`: numerically refactor in the existing
/// symbolic structure, then rebuild the symbolic analysis from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DemotionTier {
    /// Force a numeric refactorisation of the current structure.
    Refactor,
    /// Rebuild the symbolic structure and refactor.
    Symbolic,
}

impl DemotionTier {
    /// Every tier, cheapest first.
    pub const ALL: [DemotionTier; 2] = [DemotionTier::Refactor, DemotionTier::Symbolic];

    /// Stable lowercase label used in counters, markers and journals.
    pub fn label(self) -> &'static str {
        match self {
            DemotionTier::Refactor => "refactor",
            DemotionTier::Symbolic => "symbolic",
        }
    }
}

/// Live, thread-safe solver counters.
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
    demote_refactor: AtomicU64,
    demote_symbolic: AtomicU64,
    refinement_rounds: AtomicU64,
}

impl fmt::Debug for SolverMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverMetrics")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl SolverMetrics {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        SolverMetrics::default()
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

    /// A point-in-time copy of all counters. Its
    /// [`SolverSnapshot::phases`] stay zero: phase totals come from
    /// [`crate::robust::Instruments::snapshot`].
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
            demote_refactor: self.demote_refactor.load(Ordering::Relaxed),
            demote_symbolic: self.demote_symbolic.load(Ordering::Relaxed),
            refinement_rounds: self.refinement_rounds.load(Ordering::Relaxed),
            phases: PhaseSnapshot::default(),
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
    /// Demotions forcing a numeric refactorisation.
    pub demote_refactor: u64,
    /// Demotions rebuilding the symbolic structure.
    pub demote_symbolic: u64,
    /// Iterative-refinement rounds executed.
    pub refinement_rounds: u64,
    /// Per-phase self-time nanoseconds and span counts from an armed
    /// [`obs::profile::PhaseProfiler`]; all-zero when profiling was
    /// disarmed. Being
    /// wall-clock measurements these are *not* deterministic, so they
    /// never reach canonical report output — they surface only through
    /// the bench sidecar, the phase table and trace exports.
    pub phases: PhaseSnapshot,
}

impl SolverSnapshot {
    /// Bare field names in [`SolverSnapshot::as_array`] order; the
    /// report-facing [`COUNTER_NAMES`] are these with a `solver.`
    /// prefix. Keeping one authoritative name list next to the value
    /// list stops the two from drifting into positional magic.
    pub const FIELDS: [&'static str; 16] = [
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
        "demote.refactor",
        "demote.symbolic",
        "refinement.rounds",
    ];

    /// Counter values in [`COUNTER_NAMES`] order.
    pub fn as_array(&self) -> [u64; 16] {
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
            self.demote_refactor,
            self.demote_symbolic,
            self.refinement_rounds,
        ]
    }

    /// The snapshot whose counters are `values`, in [`COUNTER_NAMES`]
    /// order (the inverse of [`SolverSnapshot::as_array`]), with no
    /// phase times.
    pub fn from_array(v: [u64; 16]) -> Self {
        SolverSnapshot {
            newton_iterations: v[0],
            steps_accepted: v[1],
            steps_rejected: v[2],
            dt_shrinks: v[3],
            dc_gmin_steps: v[4],
            dc_source_steps: v[5],
            factor_reuse_hits: v[6],
            factor_reuse_misses: v[7],
            hazard_near_singular_pivot: v[8],
            hazard_pivot_growth: v[9],
            hazard_nonfinite: v[10],
            hazard_refinement_stall: v[11],
            hazard_ill_conditioned: v[12],
            demote_refactor: v[13],
            demote_symbolic: v[14],
            refinement_rounds: v[15],
            phases: PhaseSnapshot::default(),
        }
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
    pub fn demotions(&self) -> [(&'static str, u64); 2] {
        [
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
    use std::collections::BTreeMap;

    /// The counters as a report section would carry them.
    fn named(snap: &SolverSnapshot) -> BTreeMap<&'static str, u64> {
        COUNTER_NAMES.iter().copied().zip(snap.as_array()).collect()
    }

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
    fn named_counters_include_every_counter_even_zeroes() {
        let snap = SolverSnapshot {
            newton_iterations: 3,
            ..SolverSnapshot::default()
        };
        let counters = named(&snap);
        for name in COUNTER_NAMES {
            assert!(counters.contains_key(name), "{name} missing");
        }
        assert_eq!(counters["solver.newton_iterations"], 3);
        assert_eq!(counters["solver.dt_shrinks"], 0);
    }

    #[test]
    fn field_names_stay_in_sync_with_counter_names_and_as_array() {
        // The report names are exactly the field names with the
        // `solver.` prefix, position for position.
        for (counter, field) in COUNTER_NAMES.iter().zip(SolverSnapshot::FIELDS) {
            assert_eq!(*counter, format!("solver.{field}"));
        }
        // Distinct per-position values prove as_array uses the same
        // ordering as FIELDS: the value paired with each name matches
        // the field the name claims.
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
            demote_refactor: 14,
            demote_symbolic: 15,
            refinement_rounds: 16,
            ..SolverSnapshot::default()
        };
        assert_eq!(
            snap.as_array(),
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]
        );
        assert_eq!(SolverSnapshot::from_array(snap.as_array()), snap);
        let counters = named(&snap);
        for (i, field) in SolverSnapshot::FIELDS.iter().enumerate() {
            assert_eq!(
                counters[format!("solver.{field}").as_str()],
                (i + 1) as u64,
                "{field} emitted out of position"
            );
        }
    }
}
