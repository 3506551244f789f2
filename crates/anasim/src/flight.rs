//! The convergence flight recorder.
//!
//! A [`FlightRecorder`] rides along a hard solve the way a crash
//! recorder rides an aircraft: while the solve is healthy it quietly
//! overwrites a bounded ring of per-iteration records, and when the
//! solve dies the owner freezes the ring into an [`obs::Postmortem`] —
//! the last-K iterations, the residual trajectory, a worst-node
//! histogram with indices resolved to netlist node *names*, the
//! escalation-ladder path and the budget state at death.
//!
//! The recorder is off by default and free when disarmed: solvers
//! receive it through [`SolveHooks`], and a disarmed hook is a `None`
//! branch per Newton iteration — no locks, no allocation. Armed, each
//! iteration is one mutex lock and one `Copy` store into preallocated
//! ring storage; names are resolved only at freeze time, never in the
//! hot loop.

use std::sync::Mutex;

use obs::postmortem::{HazardStep, LadderStep, Postmortem, PostmortemIteration};
use obs::ring::RingBuffer;

use crate::error::AnalysisError;
use crate::metrics::SolverMetrics;
use crate::mna::MnaLayout;
use crate::netlist::{NodeId, Netlist};

/// Which solve the recorded iterations belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolvePhase {
    /// Plain Newton on the DC system.
    #[default]
    DcDirect,
    /// gmin-stepping homotopy during DC.
    DcGmin,
    /// Source-stepping homotopy during DC.
    DcSource,
    /// The transient time-march.
    Transient,
}

impl SolvePhase {
    /// Stable string form used in postmortems, e.g. `dc.gmin`.
    pub fn label(self) -> &'static str {
        match self {
            SolvePhase::DcDirect => "dc.direct",
            SolvePhase::DcGmin => "dc.gmin",
            SolvePhase::DcSource => "dc.source",
            SolvePhase::Transient => "transient",
        }
    }
}

/// One Newton iteration as captured in the ring. `Copy`, so recording
/// never allocates.
#[derive(Debug, Clone, Copy)]
pub struct IterationRecord {
    /// Solve phase active when the iteration ran.
    pub phase: SolvePhase,
    /// Simulated time of the step being solved (0 for DC).
    pub time: f64,
    /// Step size being attempted (0 for DC).
    pub dt: f64,
    /// Iteration number within its Newton solve, from 1.
    pub iteration: u64,
    /// Worst per-unknown update magnitude.
    pub residual: f64,
    /// Index of the worst unknown in the MNA layout.
    pub worst_index: usize,
}

#[derive(Debug)]
struct FlightState {
    ring: RingBuffer<IterationRecord>,
    /// One name per MNA unknown, installed once per topology.
    names: Vec<String>,
    ladder: Vec<LadderStep>,
    hazards: Vec<HazardStep>,
    phase: SolvePhase,
    total_iterations: u64,
}

/// A bounded per-iteration trace of one (possibly retried) solve.
///
/// One recorder is shared across every escalation rung tried for the
/// same extraction, so the frozen postmortem shows the whole ladder
/// path. The mutex makes sharing through
/// [`crate::robust::SolveSettings`] (an `Arc`) safe; a recorder is
/// never contended in practice because each fault owns its own.
#[derive(Debug)]
pub struct FlightRecorder {
    state: Mutex<FlightState>,
}

impl FlightRecorder {
    /// Default ring capacity: enough to hold the full Newton history of
    /// several failing steps without unbounded growth on a long march.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// A recorder retaining the last `capacity` iterations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            state: Mutex::new(FlightState {
                ring: RingBuffer::new(capacity),
                names: Vec::new(),
                ladder: Vec::new(),
                hazards: Vec::new(),
                phase: SolvePhase::default(),
                total_iterations: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightState> {
        self.state.lock().expect("flight recorder poisoned")
    }

    /// Installs the unknown-index → name table from a netlist and its
    /// MNA layout: node voltages resolve to node names, branch currents
    /// to `branch:<device>`. Idempotent — the first installation wins,
    /// so retried rungs over the same topology don't rebuild it.
    pub fn install_names(&self, netlist: &Netlist, layout: &MnaLayout) {
        let mut state = self.lock();
        if !state.names.is_empty() {
            return;
        }
        let mut names = vec![String::new(); layout.size()];
        for idx in 1..layout.node_count() {
            names[idx - 1] = netlist.node_name(NodeId(idx)).to_owned();
        }
        for (id, name, _) in netlist.devices() {
            if let Some(j) = layout.branch_index(id) {
                names[j] = format!("branch:{name}");
            }
        }
        state.names = names;
    }

    /// Declares which solve subsequent iterations belong to.
    pub fn set_phase(&self, phase: SolvePhase) {
        self.lock().phase = phase;
    }

    /// Records one Newton iteration. Called from the solver hot loop:
    /// one lock, one `Copy` store, no allocation.
    pub fn record_iteration(&self, time: f64, dt: f64, iteration: u64, residual: f64, worst_index: usize) {
        let mut state = self.lock();
        let phase = state.phase;
        state.total_iterations += 1;
        state.ring.push(IterationRecord {
            phase,
            time,
            dt,
            iteration,
            residual,
            worst_index,
        });
    }

    /// Opens a new escalation-ladder rung with outcome `pending`.
    pub fn begin_rung(&self, rung: usize, label: &str) {
        self.lock().ladder.push(LadderStep {
            rung: rung as u64,
            label: label.to_owned(),
            outcome: "pending".to_owned(),
        });
    }

    /// Closes the most recently opened rung with its outcome tag
    /// (e.g. `ok`, `no-convergence`, `budget`).
    pub fn end_rung(&self, outcome: &str) {
        if let Some(step) = self.lock().ladder.last_mut() {
            step.outcome = outcome.to_owned();
        }
    }

    /// Hazard entries retained per recorder: enough to narrate any
    /// realistic demotion story, bounded so a pathologically unstable
    /// solve cannot grow the postmortem without limit.
    pub const MAX_HAZARDS: usize = 32;

    /// Records one numerical hazard and the recovery action taken
    /// (e.g. `refinement-stall` → `demote:refactor`). Entries beyond
    /// [`FlightRecorder::MAX_HAZARDS`] are dropped — the *counters* in
    /// [`SolverMetrics`] stay exact; this trace exists so postmortems
    /// and `experiments explain` can narrate the order of events.
    pub fn record_hazard(&self, hazard: &str, action: &str, time: f64) {
        let mut state = self.lock();
        if state.hazards.len() < Self::MAX_HAZARDS {
            state.hazards.push(HazardStep {
                hazard: hazard.to_owned(),
                action: action.to_owned(),
                time,
            });
        }
    }

    /// Total Newton iterations recorded, including ones the ring has
    /// already overwritten.
    pub fn total_iterations(&self) -> u64 {
        self.lock().total_iterations
    }

    /// True once at least one iteration has been recorded.
    pub fn has_data(&self) -> bool {
        self.lock().total_iterations > 0
    }

    fn resolve(names: &[String], idx: usize) -> String {
        match names.get(idx) {
            Some(name) if !name.is_empty() => name.clone(),
            _ => format!("x[{idx}]"),
        }
    }

    /// Freezes the current state into a [`Postmortem`]. The recorder
    /// keeps its contents, so a later rung can still extend the trace.
    ///
    /// `label` names what was being solved (e.g. the fault), `error` is
    /// the terminal failure, and `budget_steps` is the step meter at
    /// death when a budget was armed.
    pub fn freeze(
        &self,
        label: &str,
        error: &AnalysisError,
        budget_steps: Option<u64>,
    ) -> Postmortem {
        let (time, residual) = match error {
            AnalysisError::NoConvergence { time, residual, .. } => (*time, *residual),
            AnalysisError::Numerical { time, .. } => (*time, f64::NAN),
            AnalysisError::BudgetExceeded { time, .. } => (*time, f64::NAN),
            _ => (0.0, f64::NAN),
        };
        self.freeze_with(label, error.to_string(), time, residual, budget_steps)
    }

    /// [`FlightRecorder::freeze`] for deaths that carry no
    /// [`AnalysisError`] — a caught solver panic, for instance. The
    /// free-form `error` string lands verbatim in
    /// [`Postmortem::error`]; time and residual come from the trace.
    pub fn freeze_panic(&self, label: &str, payload: &str) -> Postmortem {
        self.freeze_with(label, format!("panic: {payload}"), 0.0, f64::NAN, None)
    }

    fn freeze_with(
        &self,
        label: &str,
        error: String,
        time: f64,
        residual: f64,
        budget_steps: Option<u64>,
    ) -> Postmortem {
        let state = self.lock();
        // The trace with worst indices resolved to names, oldest first.
        let trace: Vec<PostmortemIteration> = state
            .ring
            .iter()
            .map(|rec| PostmortemIteration {
                phase: rec.phase.label().to_owned(),
                time: rec.time,
                dt: rec.dt,
                iteration: rec.iteration,
                residual: rec.residual,
                worst_index: rec.worst_index as u64,
                worst_node: Self::resolve(&state.names, rec.worst_index),
            })
            .collect();
        // Worst-offender histogram over the retained trace, descending
        // by count then name so output order is deterministic.
        let mut counts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for it in &trace {
            *counts.entry(it.worst_node.as_str()).or_default() += 1;
        }
        let mut worst_nodes: Vec<(String, u64)> = counts
            .into_iter()
            .map(|(name, count)| (name.to_owned(), count))
            .collect();
        worst_nodes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        // A terminal residual that is NAN (budget death mid-step) falls
        // back to the last recorded iteration's residual.
        let residual = if residual.is_nan() {
            trace.last().map_or(f64::INFINITY, |it| it.residual)
        } else {
            residual
        };
        Postmortem {
            label: label.to_owned(),
            error,
            time,
            residual,
            total_iterations: state.total_iterations,
            trace,
            worst_nodes,
            ladder: state.ladder.clone(),
            hazards: state.hazards.clone(),
            budget_steps,
        }
    }
}

/// The per-solve observer bundle threaded through
/// [`crate::mna::newton_solve_budgeted`] and the analyses above it.
///
/// Every hook is an optional borrow: a fully disarmed bundle (the
/// default) costs the solver a few `None` branches per iteration and
/// performs no allocation and no clock reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveHooks<'a> {
    /// Counter handle ([`SolverMetrics`]) — iteration and step totals.
    pub metrics: Option<&'a SolverMetrics>,
    /// Flight recorder — bounded per-iteration trace for postmortems.
    pub flight: Option<&'a FlightRecorder>,
    /// Phase profiler ([`obs::profile::PhaseProfiler`]) — per-phase
    /// wall-time attribution of the Newton loop.
    pub profile: Option<&'a obs::profile::PhaseProfiler>,
    /// Numeric-chaos firing state ([`obs::NumericChaosState`]) —
    /// deterministic arithmetic fault injection. Disarmed, each
    /// injection site is one `None` branch.
    pub chaos: Option<&'a obs::NumericChaosState>,
}

impl<'a> SolveHooks<'a> {
    /// A fully disarmed bundle.
    pub fn none() -> Self {
        SolveHooks::default()
    }

    /// A bundle with only metrics armed (the pre-flight-recorder
    /// calling convention).
    pub fn metrics(metrics: Option<&'a SolverMetrics>) -> Self {
        SolveHooks {
            metrics,
            ..SolveHooks::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;

    fn divider() -> (Netlist, MnaLayout) {
        let mut nl = Netlist::new();
        let a = nl.node("in");
        let b = nl.node("out");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(1.0));
        nl.resistor("R1", a, b, 1e3);
        nl.resistor("R2", b, Netlist::GROUND, 1e3);
        let layout = MnaLayout::new(&nl);
        (nl, layout)
    }

    #[test]
    fn names_resolve_nodes_and_branches() {
        let (nl, layout) = divider();
        let flight = FlightRecorder::new(8);
        flight.install_names(&nl, &layout);
        flight.record_iteration(0.0, 0.0, 1, 0.5, 0);
        flight.record_iteration(0.0, 0.0, 2, 0.25, 2);
        let pm = flight.freeze(
            "t",
            &AnalysisError::NoConvergence {
                time: 0.0,
                residual: 0.25,
                iterations: 2,
            },
            None,
        );
        assert_eq!(pm.trace[0].worst_node, "in");
        assert_eq!(pm.trace[1].worst_node, "branch:V1");
    }

    #[test]
    fn install_names_is_idempotent() {
        let (nl, layout) = divider();
        let flight = FlightRecorder::new(4);
        flight.install_names(&nl, &layout);
        // A second install (e.g. a retried rung) must not rebuild.
        flight.install_names(&nl, &layout);
        flight.record_iteration(0.0, 0.0, 1, 1.0, 1);
        let pm = flight.freeze(
            "t",
            &AnalysisError::NoConvergence {
                time: 0.0,
                residual: 1.0,
                iterations: 1,
            },
            None,
        );
        assert_eq!(pm.trace[0].worst_node, "out");
    }

    #[test]
    fn unknown_indices_fall_back_to_positional_names() {
        let flight = FlightRecorder::new(4);
        flight.record_iteration(0.0, 0.0, 1, 1.0, 7);
        let pm = flight.freeze(
            "t",
            &AnalysisError::NoConvergence {
                time: 0.0,
                residual: 1.0,
                iterations: 1,
            },
            None,
        );
        assert_eq!(pm.trace[0].worst_node, "x[7]");
    }

    #[test]
    fn ring_bounds_the_trace_but_counts_everything() {
        let flight = FlightRecorder::new(3);
        for i in 1..=10 {
            flight.record_iteration(0.0, 0.0, i, 1.0 / i as f64, 0);
        }
        let pm = flight.freeze(
            "t",
            &AnalysisError::NoConvergence {
                time: 0.0,
                residual: 0.1,
                iterations: 10,
            },
            None,
        );
        assert_eq!(pm.total_iterations, 10);
        assert_eq!(pm.trace.len(), 3);
        assert_eq!(pm.trace[0].iteration, 8);
        assert_eq!(pm.trace[2].iteration, 10);
    }

    #[test]
    fn worst_node_histogram_sorts_by_count_then_name() {
        let (nl, layout) = divider();
        let flight = FlightRecorder::new(8);
        flight.install_names(&nl, &layout);
        // "out" dominates twice, "in" once.
        flight.record_iteration(0.0, 0.0, 1, 1.0, 1);
        flight.record_iteration(0.0, 0.0, 2, 0.9, 0);
        flight.record_iteration(0.0, 0.0, 3, 0.8, 1);
        let pm = flight.freeze(
            "t",
            &AnalysisError::NoConvergence {
                time: 0.0,
                residual: 0.8,
                iterations: 3,
            },
            None,
        );
        assert_eq!(pm.worst_nodes, vec![("out".into(), 2), ("in".into(), 1)]);
    }

    #[test]
    fn hazard_history_reaches_the_postmortem_and_is_bounded() {
        let flight = FlightRecorder::new(4);
        flight.record_hazard("refinement-stall", "demote:refactor", 1e-6);
        flight.record_hazard("non-finite", "terminal", 2e-6);
        let pm = flight.freeze(
            "t",
            &AnalysisError::NoConvergence {
                time: 2e-6,
                residual: 1.0,
                iterations: 1,
            },
            None,
        );
        assert_eq!(pm.hazards.len(), 2);
        assert_eq!(pm.hazards[0].hazard, "refinement-stall");
        assert_eq!(pm.hazards[0].action, "demote:refactor");
        assert_eq!(pm.hazards[1].time, 2e-6);
        // The trace is bounded at MAX_HAZARDS even if a solve thrashes.
        for _ in 0..(FlightRecorder::MAX_HAZARDS * 2) {
            flight.record_hazard("non-finite", "demote:refactor", 0.0);
        }
        let pm = flight.freeze(
            "t",
            &AnalysisError::NoConvergence {
                time: 0.0,
                residual: 1.0,
                iterations: 1,
            },
            None,
        );
        assert_eq!(pm.hazards.len(), FlightRecorder::MAX_HAZARDS);
    }

    #[test]
    fn ladder_path_records_rung_outcomes() {
        let flight = FlightRecorder::new(4);
        flight.begin_rung(0, "nominal");
        flight.end_rung("no-convergence");
        flight.begin_rung(1, "dt*0.5");
        flight.end_rung("budget");
        let pm = flight.freeze(
            "t",
            &AnalysisError::BudgetExceeded {
                time: 1e-6,
                steps: 42,
                kind: crate::BudgetKind::Steps,
            },
            Some(42),
        );
        assert_eq!(pm.ladder.len(), 2);
        assert_eq!(pm.ladder[0].outcome, "no-convergence");
        assert_eq!(pm.ladder[1].label, "dt*0.5");
        assert_eq!(pm.ladder[1].outcome, "budget");
        assert_eq!(pm.budget_steps, Some(42));
        assert_eq!(pm.time, 1e-6);
    }

    #[test]
    fn phases_tag_iterations() {
        let flight = FlightRecorder::new(8);
        flight.set_phase(SolvePhase::DcGmin);
        flight.record_iteration(0.0, 0.0, 1, 2.0, 0);
        flight.set_phase(SolvePhase::Transient);
        flight.record_iteration(1e-6, 1e-7, 1, 0.5, 0);
        let pm = flight.freeze(
            "t",
            &AnalysisError::NoConvergence {
                time: 1e-6,
                residual: 0.5,
                iterations: 1,
            },
            None,
        );
        assert_eq!(pm.trace[0].phase, "dc.gmin");
        assert_eq!(pm.trace[1].phase, "transient");
        assert_eq!(pm.trace[1].dt, 1e-7);
    }

    #[test]
    fn budget_death_falls_back_to_last_recorded_residual() {
        let flight = FlightRecorder::new(4);
        flight.record_iteration(1e-6, 1e-7, 1, 0.75, 0);
        let pm = flight.freeze(
            "t",
            &AnalysisError::BudgetExceeded {
                time: 1e-6,
                steps: 7,
                kind: crate::BudgetKind::WallClock,
            },
            Some(7),
        );
        assert_eq!(pm.residual, 0.75);
    }
}
