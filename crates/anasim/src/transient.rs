//! Transient (time-domain) analysis.

use crate::dc::{dc_operating_point_metered, dc_operating_point_solver, DcOptions};
use crate::devices::Device;
use crate::flight::{FlightRecorder, SolveHooks, SolvePhase};
use crate::metrics::SolverMetrics;
use crate::mna::{
    branch_voltage, newton_solve_with_context, CompanionMode, Integrator, MnaLayout, NewtonOptions,
    Reactive, ReactiveHistory, StampParams,
};
use crate::netlist::{DeviceId, Netlist, NodeId};
use crate::robust::{BudgetClock, CancelToken, SolveBudget, SolveSettings, DEFAULT_MAX_STEPS};
use crate::solver::{SolverContext, WarmStart};
use crate::waveform::Waveform;
use crate::AnalysisError;

use std::iter::Peekable;
use std::sync::Arc;
use std::time::Instant;

/// Breakpoint comparisons use a tolerance relative to the analysis
/// horizon rather than an absolute epsilon, so behaviour is invariant
/// under time rescaling (an absolute 1e-15 s is coarse for picosecond
/// circuits and needlessly fine for second-scale ones).
const BREAKPOINT_RELTOL: f64 = 1e-12;

/// How the initial condition at `t = 0` is established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartCondition {
    /// Solve a DC operating point with sources at their `t = 0` values.
    #[default]
    OperatingPoint,
    /// "Use initial conditions": start from zero node voltages, honouring
    /// explicit capacitor `ic` values.
    Uic,
}

/// Transient analysis configuration and runner.
///
/// # Example
///
/// An RC low-pass step response:
///
/// ```
/// use anasim::netlist::Netlist;
/// use anasim::source::SourceWaveform;
/// use anasim::transient::TransientAnalysis;
///
/// # fn main() -> Result<(), anasim::AnalysisError> {
/// let mut nl = Netlist::new();
/// let vin = nl.node("in");
/// let out = nl.node("out");
/// nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::step(1.0, 0.0));
/// nl.resistor("R1", vin, out, 1e3);
/// nl.capacitor("C1", out, Netlist::GROUND, 1e-6);
/// let result = TransientAnalysis::new(5e-3, 10e-6).run(&nl)?;
/// let w = result.voltage(out);
/// // After 5 time constants the output has settled near 1 V.
/// assert!((w.value_at(5e-3) - 1.0).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransientAnalysis {
    t_stop: f64,
    dt: f64,
    min_dt: f64,
    integrator: Integrator,
    start: StartCondition,
    newton: NewtonOptions,
    gmin: f64,
    budget: SolveBudget,
    metrics: Option<Arc<SolverMetrics>>,
    flight: Option<Arc<FlightRecorder>>,
    cancel: Option<CancelToken>,
    profile: Option<Arc<obs::profile::PhaseProfiler>>,
    warm_start: Option<Arc<WarmStart>>,
    numeric_chaos: Option<Arc<obs::NumericChaosState>>,
}

impl TransientAnalysis {
    /// Creates an analysis running to `t_stop` seconds with nominal
    /// timestep `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `t_stop` or `dt` is not finite and positive.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        assert!(t_stop.is_finite() && t_stop > 0.0, "t_stop must be positive");
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive");
        TransientAnalysis {
            t_stop,
            dt,
            min_dt: dt / 1024.0,
            integrator: Integrator::Trapezoidal,
            start: StartCondition::OperatingPoint,
            newton: NewtonOptions::default(),
            gmin: 1e-12,
            budget: SolveBudget::unlimited().steps(DEFAULT_MAX_STEPS),
            metrics: None,
            flight: None,
            cancel: None,
            profile: None,
            warm_start: None,
            numeric_chaos: None,
        }
    }

    /// Seeds the DC starting point from a previously solved golden
    /// operating point instead of the zero vector.
    pub fn warm_start(mut self, warm: Arc<WarmStart>) -> Self {
        self.warm_start = Some(warm);
        self
    }

    /// Selects the integration rule (default: trapezoidal).
    pub fn integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Selects the initial-condition strategy (default: DC operating
    /// point).
    pub fn start_condition(mut self, start: StartCondition) -> Self {
        self.start = start;
        self
    }

    /// Overrides the Newton options.
    pub fn newton_options(mut self, newton: NewtonOptions) -> Self {
        self.newton = newton;
        self
    }

    /// Overrides the minimum timestep used when retrying failed steps.
    pub fn min_dt(mut self, min_dt: f64) -> Self {
        self.min_dt = min_dt;
        self
    }

    /// Overrides the `gmin` conductance stamped from every node to
    /// ground (default `1e-12` S).
    pub fn gmin(mut self, gmin: f64) -> Self {
        self.gmin = gmin;
        self
    }

    /// Installs a resource budget. The default limits the analysis to
    /// 50 million attempted timesteps with no wall-clock ceiling.
    pub fn budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs a [`SolverMetrics`] handle: Newton iterations, step
    /// accept/reject counts and dt shrinks are counted on it, and an
    /// `anasim.transient` span is reported to its recorder per run.
    pub fn metrics(mut self, metrics: Arc<SolverMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Arms a [`FlightRecorder`]: every Newton iteration of the DC
    /// start and the time-march is captured into its bounded ring, so a
    /// failure can be frozen into an [`obs::Postmortem`] afterwards.
    pub fn flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Attaches a [`CancelToken`]: raising it from any thread makes the
    /// run abort with [`AnalysisError::Cancelled`] within one Newton
    /// iteration.
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Arms a phase profiler: the run's wall time is attributed across
    /// the [`obs::profile::Phase`] taxonomy (stamping, device
    /// evaluation, LU factor/solve, residual update, timestep control).
    pub fn profile(mut self, profile: Arc<obs::profile::PhaseProfiler>) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Applies a complete [`SolveSettings`]: the escalation-rung scaling
    /// (timestep, integrator, `gmin`) plus the resource budget.
    ///
    /// This is how fault campaigns retry a failed extraction with a more
    /// conservative configuration without rebuilding the analysis by
    /// hand.
    pub fn with_settings(mut self, settings: &SolveSettings) -> Self {
        let rung = settings.rung;
        self.dt *= rung.dt_scale;
        self.min_dt *= rung.dt_scale * rung.min_dt_scale;
        if rung.force_backward_euler {
            self.integrator = Integrator::BackwardEuler;
        }
        if let Some(gmin) = rung.gmin {
            self.gmin = gmin;
        }
        self.budget = settings.budget;
        if let Some(metrics) = &settings.metrics {
            self.metrics = Some(Arc::clone(metrics));
        }
        if let Some(flight) = &settings.flight {
            self.flight = Some(Arc::clone(flight));
        }
        if let Some(cancel) = &settings.cancel {
            self.cancel = Some(cancel.clone());
        }
        if let Some(profile) = &settings.profile {
            self.profile = Some(Arc::clone(profile));
        }
        if let Some(warm) = &settings.warm_start {
            self.warm_start = Some(Arc::clone(warm));
        }
        if let Some(chaos) = &settings.numeric_chaos {
            self.numeric_chaos = Some(Arc::clone(chaos));
        }
        self
    }

    /// Runs the analysis over `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoConvergence`] if a timestep cannot be
    /// solved even at the minimum step size,
    /// [`AnalysisError::SingularMatrix`] for structurally singular
    /// circuits, or [`AnalysisError::BudgetExceeded`] when the
    /// [`SolveBudget`] runs out of steps or wall-clock time.
    pub fn run(&self, netlist: &Netlist) -> Result<TransientResult, AnalysisError> {
        self.run_until(netlist, |_| false)
    }

    /// Runs the analysis over `netlist` like [`TransientAnalysis::run`],
    /// but ends it early once `stop` — asked after every stored
    /// timepoint, `t = 0` included — returns true. The march, its step
    /// grid and its breakpoints are those of a full run, so an early
    /// stop returns a bit-exact prefix of the full result.
    ///
    /// # Errors
    ///
    /// As for [`TransientAnalysis::run`], up to the point of stopping.
    pub fn run_until(
        &self,
        netlist: &Netlist,
        stop: impl FnMut(&TransientResult) -> bool,
    ) -> Result<TransientResult, AnalysisError> {
        let started = Instant::now();
        let result = self.run_inner(netlist, stop);
        if let Some(metrics) = &self.metrics {
            metrics.record_span("anasim.transient", started.elapsed());
        }
        result
    }

    fn run_inner(
        &self,
        netlist: &Netlist,
        mut stop: impl FnMut(&TransientResult) -> bool,
    ) -> Result<TransientResult, AnalysisError> {
        let layout = MnaLayout::new(netlist);
        let hooks = SolveHooks {
            metrics: self.metrics.as_deref(),
            flight: self.flight.as_deref(),
            profile: self.profile.as_deref(),
            chaos: self.numeric_chaos.as_deref(),
        };
        // Everything in this run not attributed to a nested phase (the
        // Newton solve internals, the DC start) is timestep control:
        // step selection, history updates, dt halving, result storage.
        let _step_control = hooks
            .profile
            .map(|p| p.enter(obs::profile::Phase::StepControl));
        if let Some(flight) = hooks.flight {
            flight.install_names(netlist, &layout);
        }

        // One solver context serves the DC start and the whole march:
        // the sparse symbolic analysis, baseline stamps and LU factors
        // it accumulates are reused across every timestep.
        let mut ctx = SolverContext::default();

        // --- Initial condition ------------------------------------------
        let x = match self.start {
            StartCondition::OperatingPoint => {
                let op = dc_operating_point_solver(
                    netlist,
                    &DcOptions {
                        newton: self.newton,
                        gmin: self.gmin,
                        time: 0.0,
                    },
                    hooks,
                    self.warm_start.as_deref(),
                    &mut ctx,
                )?;
                op.into_solution()
            }
            StartCondition::Uic => vec![0.0; layout.size()],
        };
        if let Some(flight) = hooks.flight {
            flight.set_phase(SolvePhase::Transient);
        }
        let rules = StepRules {
            integrator: self.integrator,
            newton: self.newton,
            gmin: self.gmin,
            min_dt: self.min_dt,
        };
        let mut march = March::new(netlist, layout, ctx, x, self.start, rules);

        // Tolerance for breakpoint bookkeeping, relative to the horizon.
        let bp_tol = BREAKPOINT_RELTOL * self.t_stop;
        let mut bps = source_breakpoints(netlist, 0.0, self.t_stop, bp_tol);

        // --- Time march ---------------------------------------------------
        // Every step ends on the grid or on a breakpoint, so a march that
        // never halves its step stores at most this many rows.
        let rows = ((self.t_stop / self.dt).ceil() as usize)
            .saturating_add(bps.len())
            .saturating_add(1)
            .min(
                self.budget
                    .max_steps
                    .map_or(usize::MAX, |m| m.saturating_add(1)),
            );
        let mut result = TransientResult::with_capacity(march.layout.clone(), rows);
        result.push(0.0, &march.x);
        let mut clock = BudgetClock::new(self.budget).with_cancel(self.cancel.clone());

        while !stop(&result) && march.t < self.t_stop - 1e-15 * self.t_stop {
            // Candidate next time: regular grid, clipped to breakpoint/stop.
            let t_grid = (march.t + self.dt).min(self.t_stop);
            let (t_next, hit_bp) = clip_to_breakpoint(&mut bps, march.t, t_grid, bp_tol);
            march.step(netlist, t_next, &mut clock, hooks)?;
            result.push(march.t, &march.x);
            // Landing exactly on a breakpoint damps the next step.
            if hit_bp && (march.t - t_next).abs() < bp_tol {
                march.post_discontinuity = true;
            }
        }
        Ok(result)
    }
}

/// The state a transient march carries from step to step, and the step
/// routine that [`TransientAnalysis::run`] and
/// [`TransientSession::advance_to`] share.
#[derive(Debug, Clone)]
struct March {
    layout: MnaLayout,
    /// Persistent solver state: sparse structure, baseline stamps and
    /// LU factors are reused across every step.
    ctx: SolverContext,
    /// The netlist's capacitors and inductors, resolved once.
    reactive: Vec<Reactive>,
    history: ReactiveHistory,
    t: f64,
    /// The accepted solution at `t`.
    x: Vec<f64>,
    /// The accepted solution before `x`, and the step between them, for
    /// the linear-extrapolation predictor (`None` before the first step).
    prev: Vec<f64>,
    dt_prev: Option<f64>,
    /// Newton's working vector; rotated into `x` when a step is accepted.
    trial: Vec<f64>,
    /// Damp the next step with backward Euler, which, unlike trapezoidal,
    /// does not ring: set at the start, on a breakpoint (`run` only) and
    /// after a source rewrite.
    post_discontinuity: bool,
    rules: StepRules,
}

/// The per-step solver settings of a march.
#[derive(Debug, Clone, Copy)]
struct StepRules {
    integrator: Integrator,
    newton: NewtonOptions,
    gmin: f64,
    min_dt: f64,
}

impl March {
    fn new(
        netlist: &Netlist,
        layout: MnaLayout,
        ctx: SolverContext,
        x: Vec<f64>,
        start: StartCondition,
        rules: StepRules,
    ) -> Self {
        let reactive = Reactive::all(netlist, &layout);
        let mut history = ReactiveHistory::new(netlist);
        seed_history(&reactive, &x, start, &mut history);
        let n = x.len();
        March {
            layout,
            ctx,
            reactive,
            history,
            t: 0.0,
            x,
            prev: vec![0.0; n],
            dt_prev: None,
            trial: vec![0.0; n],
            post_discontinuity: true,
            rules,
        }
    }

    /// Steps from `t` to `t_next`, halving the step on Newton failure
    /// down to the minimum step, then advances `t`, the history and the
    /// buffers. `clock` is charged for every attempted step.
    /// The loop only exits by accepting a step or propagating a real
    /// error, so a terminal `NoConvergence` always carries the residual
    /// and iteration count of the last actual Newton attempt.
    fn step(
        &mut self,
        netlist: &Netlist,
        t_next: f64,
        clock: &mut BudgetClock,
        hooks: SolveHooks<'_>,
    ) -> Result<(), AnalysisError> {
        clock.charge_step(self.t)?;
        let method = if self.post_discontinuity {
            Integrator::BackwardEuler
        } else {
            self.rules.integrator
        };
        let mut dt_try = t_next - self.t;
        loop {
            // Linear extrapolation predictor: seed Newton from the
            // trajectory's tangent rather than the previous point.
            // Skipped across discontinuities, where extrapolating through
            // the corner would mislead; recomputed from the accepted
            // state on every dt-halving retry.
            match self.dt_prev {
                Some(dt_prev) if !self.post_discontinuity => {
                    let ratio = dt_try / dt_prev;
                    for ((guess, &x), &x_prev) in self.trial.iter_mut().zip(&self.x).zip(&self.prev)
                    {
                        *guess = x + (x - x_prev) * ratio;
                    }
                }
                _ => self.trial.copy_from_slice(&self.x),
            }
            let params = StampParams {
                time: self.t + dt_try,
                companion: CompanionMode::Transient {
                    method,
                    dt: dt_try,
                    history: &self.history,
                },
                gmin: self.rules.gmin,
                source_scale: 1.0,
            };
            match newton_solve_with_context(
                netlist,
                &self.layout,
                &params,
                &self.rules.newton,
                Some(clock),
                hooks,
                &mut self.ctx,
                &mut self.trial,
            ) {
                Ok(()) => break,
                Err(AnalysisError::NoConvergence { .. } | AnalysisError::Numerical { .. })
                    if dt_try / 2.0 >= self.rules.min_dt =>
                {
                    // Each halving retry is a fresh attempted step as
                    // far as the budget is concerned.
                    clock.charge_step(self.t)?;
                    if let Some(metrics) = hooks.metrics {
                        metrics.step_rejected();
                        metrics.dt_shrink();
                    }
                    dt_try /= 2.0;
                }
                Err(e) => return Err(e),
            }
        }

        self.t += dt_try;
        if let Some(metrics) = hooks.metrics {
            metrics.step_accepted();
        }
        // Rotate: x becomes prev, the accepted trial becomes x.
        std::mem::swap(&mut self.prev, &mut self.x);
        std::mem::swap(&mut self.x, &mut self.trial);
        update_history(&self.reactive, &self.x, method, dt_try, &mut self.history);
        self.dt_prev = Some(dt_try);
        self.post_discontinuity = false;
        Ok(())
    }
}

/// Pending source breakpoints, earliest first.
type Breakpoints = Peekable<std::vec::IntoIter<f64>>;

/// The sorted source breakpoints after `t0` up to `t1`, merged within
/// `bp_tol`.
fn source_breakpoints(netlist: &Netlist, t0: f64, t1: f64, bp_tol: f64) -> Breakpoints {
    let mut breakpoints: Vec<f64> = netlist
        .devices()
        .filter_map(|(_, _, dev)| match dev {
            Device::Vsource { wave, .. } | Device::Isource { wave, .. } => {
                Some(wave.breakpoints(t0, t1))
            }
            _ => None,
        })
        .flatten()
        .filter(|&t| t > t0)
        .collect();
    breakpoints.sort_by(|a, b| a.total_cmp(b));
    breakpoints.dedup_by(|a, b| (*a - *b).abs() < bp_tol);
    breakpoints.into_iter().peekable()
}

/// Clips a step from `t` to `t_next` at the first pending breakpoint
/// inside it, dropping the breakpoints already passed. Returns the end
/// of the step and whether a breakpoint set it.
fn clip_to_breakpoint(bps: &mut Breakpoints, t: f64, t_next: f64, bp_tol: f64) -> (f64, bool) {
    while let Some(&bp) = bps.peek() {
        if bp <= t + bp_tol {
            bps.next();
            continue;
        }
        if bp < t_next - bp_tol {
            return (bp, true);
        }
        break;
    }
    (t_next, false)
}

/// Seeds the reactive history from the initial solution.
fn seed_history(
    reactive: &[Reactive],
    x: &[f64],
    start: StartCondition,
    history: &mut ReactiveHistory,
) {
    for &device in reactive {
        match device {
            Reactive::Capacitor { k, a, b, ic, .. } => {
                history.v[k] = match (start, ic) {
                    (StartCondition::Uic, Some(v0)) => v0,
                    _ => branch_voltage(x, a, b),
                };
                history.i[k] = 0.0;
            }
            Reactive::Inductor { k, a, b, j, .. } => {
                history.i[k] = x[j as usize];
                history.v[k] = branch_voltage(x, a, b);
            }
        }
    }
}

/// Updates reactive history after an accepted step.
fn update_history(
    reactive: &[Reactive],
    x: &[f64],
    method: Integrator,
    dt: f64,
    history: &mut ReactiveHistory,
) {
    for &device in reactive {
        match device {
            Reactive::Capacitor {
                k, a, b, farads, ..
            } => {
                let v_new = branch_voltage(x, a, b);
                let v_old = history.v[k];
                let i_old = history.i[k];
                let i_new = match method {
                    Integrator::BackwardEuler => farads / dt * (v_new - v_old),
                    Integrator::Trapezoidal => 2.0 * farads / dt * (v_new - v_old) - i_old,
                };
                history.v[k] = v_new;
                history.i[k] = i_new;
            }
            Reactive::Inductor { k, a, b, j, .. } => {
                history.i[k] = x[j as usize];
                history.v[k] = branch_voltage(x, a, b);
            }
        }
    }
}

/// The result of a transient run: one solution vector per accepted
/// timepoint.
#[derive(Debug, Clone)]
pub struct TransientResult {
    layout: MnaLayout,
    time: Vec<f64>,
    /// The solutions, row after row: `layout.size()` values per
    /// accepted timepoint.
    values: Vec<f64>,
}

impl TransientResult {
    /// An empty result with room for `rows` timepoints. A reservation
    /// the allocator refuses is left to ordinary growth.
    fn with_capacity(layout: MnaLayout, rows: usize) -> Self {
        let mut time = Vec::new();
        let mut values = Vec::new();
        let _ = time.try_reserve_exact(rows);
        let _ = values.try_reserve_exact(rows.saturating_mul(layout.size()));
        TransientResult {
            layout,
            time,
            values,
        }
    }

    /// Appends the solution `x` at time `t`.
    fn push(&mut self, t: f64, x: &[f64]) {
        self.time.push(t);
        self.values.extend_from_slice(x);
    }

    /// Unknown `i` at every timepoint (`None`, ground, reads `0.0`).
    fn column(&self, i: Option<usize>) -> Vec<f64> {
        match i {
            Some(i) => self
                .values
                .iter()
                .skip(i)
                .step_by(self.layout.size())
                .copied()
                .collect(),
            None => vec![0.0; self.len()],
        }
    }

    /// Accepted timepoints.
    pub fn times(&self) -> &[f64] {
        &self.time
    }

    /// Number of accepted timepoints.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// True if the run produced no points (cannot happen for successful
    /// runs, which always include `t = 0`).
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// The voltage waveform at `node`.
    pub fn voltage(&self, node: NodeId) -> Waveform {
        let v = self.column(self.layout.node_index(node));
        Waveform::from_samples(self.time.clone(), v)
    }

    /// The branch-current waveform of a voltage-defined device, if it has
    /// a branch unknown.
    pub fn branch_current(&self, device: DeviceId) -> Option<Waveform> {
        let j = self.layout.branch_index(device)?;
        Some(Waveform::from_samples(
            self.time.clone(),
            self.column(Some(j)),
        ))
    }

    /// Voltage at `node` at the final timepoint.
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        assert!(!self.is_empty(), "non-empty result");
        let last = self.values.len() - self.layout.size();
        self.layout.voltage(&self.values[last..], node)
    }
}

/// A resumable transient simulation for co-simulation: the circuit
/// state persists between calls, sources can be rewritten at run time,
/// and an external controller (e.g. a gate-level state machine) can
/// read node voltages at its clock ticks and steer the analogue side.
///
/// # Example
///
/// An RC charged for one interval, then actively discharged by
/// rewriting its source mid-run:
///
/// ```
/// use anasim::netlist::Netlist;
/// use anasim::source::SourceWaveform;
/// use anasim::transient::TransientSession;
///
/// # fn main() -> Result<(), anasim::AnalysisError> {
/// let mut nl = Netlist::new();
/// let vin = nl.node("in");
/// let out = nl.node("out");
/// let src = nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::dc(5.0));
/// nl.resistor("R1", vin, out, 1e3);
/// nl.capacitor("C1", out, Netlist::GROUND, 1e-6);
///
/// let mut session = TransientSession::begin(&nl, 10e-6)?;
/// session.advance_to(5e-3)?;                    // charge ~5 tau
/// assert!(session.voltage(out) > 4.9);
/// session.set_source(src, SourceWaveform::dc(0.0))?;
/// session.advance_to(10e-3)?;                   // discharge
/// assert!(session.voltage(out) < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransientSession {
    netlist: Netlist,
    dt: f64,
    metrics: Option<Arc<SolverMetrics>>,
    /// The march state survives between `advance_to` calls, solver
    /// context and predictor history included.
    march: March,
}

impl TransientSession {
    /// Opens a session from the DC operating point at `t = 0`, stepping
    /// with nominal timestep `dt`.
    ///
    /// # Errors
    ///
    /// Propagates DC non-convergence.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn begin(netlist: &Netlist, dt: f64) -> Result<Self, AnalysisError> {
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive");
        let rules = StepRules {
            integrator: Integrator::Trapezoidal,
            newton: NewtonOptions::default(),
            gmin: 1e-12,
            min_dt: dt / 1024.0,
        };
        let op = dc_operating_point_metered(
            netlist,
            &DcOptions {
                newton: rules.newton,
                gmin: rules.gmin,
                time: 0.0,
            },
            None,
        )?;
        let layout = MnaLayout::new(netlist);
        let start = StartCondition::OperatingPoint;
        let x = op.into_solution();
        let march = March::new(netlist, layout, SolverContext::default(), x, start, rules);
        Ok(TransientSession {
            netlist: netlist.clone(),
            dt,
            metrics: None,
            march,
        })
    }

    /// Installs a [`SolverMetrics`] handle counting the session's Newton
    /// iterations and step accept/reject totals.
    pub fn with_metrics(mut self, metrics: Arc<SolverMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Present simulation time, seconds.
    pub fn time(&self) -> f64 {
        self.march.t
    }

    /// Voltage at a node at the present time.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.march.layout.voltage(&self.march.x, node)
    }

    /// Branch current of a voltage-defined device at the present time.
    pub fn branch_current(&self, device: DeviceId) -> Option<f64> {
        let march = &self.march;
        march.layout.branch_index(device).map(|j| march.x[j])
    }

    /// Rewrites a source's waveform at the present time (the
    /// co-simulation control input).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::UnknownElement`] if `device` is not an
    /// independent source.
    pub fn set_source(
        &mut self,
        device: DeviceId,
        wave: crate::source::SourceWaveform,
    ) -> Result<(), AnalysisError> {
        match self.netlist.device_mut(device) {
            Device::Vsource { wave: w, .. } | Device::Isource { wave: w, .. } => *w = wave,
            other => {
                return Err(AnalysisError::UnknownElement(format!(
                    "set_source needs an independent source, found {other:?}"
                )))
            }
        }
        self.march.post_discontinuity = true;
        Ok(())
    }

    /// Advances the session to absolute time `t_stop`; on success
    /// [`time`](Self::time) is exactly `t_stop`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoConvergence`] if a step fails at the
    /// minimum step size; [`AnalysisError::InvalidParameter`] if
    /// `t_stop` is not ahead of the present time.
    pub fn advance_to(&mut self, t_stop: f64) -> Result<(), AnalysisError> {
        let march = &mut self.march;
        if t_stop <= march.t {
            return Err(AnalysisError::InvalidParameter(format!(
                "t_stop {t_stop} is not ahead of t = {}",
                march.t
            )));
        }
        // Tolerance relative to the step size: session windows can be
        // arbitrarily short, so the horizon is a poor scale here.
        let bp_tol = BREAKPOINT_RELTOL * t_stop.abs().max(self.dt);
        // Source breakpoints within the window keep steps aligned with
        // waveform corners.
        let mut bps = source_breakpoints(&self.netlist, march.t, t_stop, bp_tol);
        let hooks = SolveHooks::metrics(self.metrics.as_deref());
        // A session has no budget: its clock only counts steps.
        let mut clock = BudgetClock::new(SolveBudget::unlimited());
        while march.t < t_stop - bp_tol {
            // A grid step landing within `bp_tol` of the window end is
            // taken as it is, not clipped to `t_stop`: a rounding-level
            // change of dt is a new factorisation key, which co-simulation
            // would otherwise pay at every window end.
            let grid = march.t + self.dt;
            let t_end = if grid > t_stop + bp_tol { t_stop } else { grid };
            let (t_next, _) = clip_to_breakpoint(&mut bps, march.t, t_end, bp_tol);
            march.step(&self.netlist, t_next, &mut clock, hooks)?;
        }
        march.t = t_stop;
        Ok(())
    }
}

/// The netlist walks the compiled [`Reactive`] list replaced, kept as
/// the test oracle it must match bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Seeds the reactive history from the initial solution.
    pub(super) fn seed_history(
        netlist: &Netlist,
        layout: &MnaLayout,
        x: &[f64],
        start: StartCondition,
        history: &mut ReactiveHistory,
    ) {
        for (id, _, dev) in netlist.devices() {
            match dev {
                Device::Capacitor { a, b, ic, .. } => {
                    history.v[id.index()] = match (start, ic) {
                        (StartCondition::Uic, Some(v0)) => *v0,
                        _ => layout.voltage(x, *a) - layout.voltage(x, *b),
                    };
                    history.i[id.index()] = 0.0;
                }
                Device::Inductor { a, b, .. } => {
                    history.i[id.index()] = layout.branch_index(id).map(|j| x[j]).unwrap_or(0.0);
                    history.v[id.index()] = layout.voltage(x, *a) - layout.voltage(x, *b);
                }
                _ => {}
            }
        }
    }

    /// Updates reactive history after an accepted step.
    pub(super) fn update_history(
        netlist: &Netlist,
        layout: &MnaLayout,
        x: &[f64],
        method: Integrator,
        dt: f64,
        history: &mut ReactiveHistory,
    ) {
        for (id, _, dev) in netlist.devices() {
            match dev {
                Device::Capacitor { a, b, farads, .. } => {
                    let v_new = layout.voltage(x, *a) - layout.voltage(x, *b);
                    let v_old = history.v[id.index()];
                    let i_old = history.i[id.index()];
                    let i_new = match method {
                        Integrator::BackwardEuler => farads / dt * (v_new - v_old),
                        Integrator::Trapezoidal => 2.0 * farads / dt * (v_new - v_old) - i_old,
                    };
                    history.v[id.index()] = v_new;
                    history.i[id.index()] = i_new;
                }
                Device::Inductor { a, b, .. } => {
                    history.i[id.index()] = layout.branch_index(id).map(|j| x[j]).unwrap_or(0.0);
                    history.v[id.index()] = layout.voltage(x, *a) - layout.voltage(x, *b);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;

    /// Asserts two value vectors agree bit for bit.
    fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{k}]: {g:e} vs {w:e}");
        }
    }

    /// Capacitors (with and without an initial condition) and inductors
    /// over nodes `[ground, a, b, c]`, each grounded on either side and
    /// floating, with resistors between them that the history skips.
    fn reactive_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let g = Netlist::GROUND;
        let [a, b, c] = [nl.node("a"), nl.node("b"), nl.node("c")];
        for (k, (p, q)) in [(a, g), (g, b), (b, c), (c, a)].into_iter().enumerate() {
            let farads = 1e-12 * (k + 1) as f64;
            if k % 2 == 0 {
                nl.capacitor(&format!("C{k}"), p, q, farads);
            } else {
                nl.capacitor_ic(&format!("C{k}"), p, q, farads, 0.5 * k as f64);
            }
            nl.resistor(&format!("R{k}"), p, q, 1e3);
            nl.inductor(&format!("L{k}"), q, p, 1e-6 * (k + 1) as f64);
        }
        nl
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The compiled reactive list seeds and updates the history
        /// exactly as the netlist walk does, by `to_bits`, under both
        /// start conditions and both integrators.
        #[test]
        fn history_matches_the_netlist_walk(
            x0 in proptest::collection::vec(-4.0..4.0f64, 7),
            x1 in proptest::collection::vec(-4.0..4.0f64, 7),
            dt in 1e-9..1e-6f64,
            uic in proptest::prelude::any::<bool>(),
            trapezoidal in proptest::prelude::any::<bool>(),
        ) {
            let nl = reactive_netlist();
            let layout = MnaLayout::new(&nl);
            assert_eq!(layout.size(), x0.len());
            let reactive = Reactive::all(&nl, &layout);
            let start = if uic {
                StartCondition::Uic
            } else {
                StartCondition::OperatingPoint
            };
            let method = if trapezoidal {
                Integrator::Trapezoidal
            } else {
                Integrator::BackwardEuler
            };
            let mut got = ReactiveHistory::new(&nl);
            let mut want = ReactiveHistory::new(&nl);
            seed_history(&reactive, &x0, start, &mut got);
            oracle::seed_history(&nl, &layout, &x0, start, &mut want);
            assert_bits("seeded v", &got.v, &want.v);
            assert_bits("seeded i", &got.i, &want.i);
            update_history(&reactive, &x1, method, dt, &mut got);
            oracle::update_history(&nl, &layout, &x1, method, dt, &mut want);
            assert_bits("updated v", &got.v, &want.v);
            assert_bits("updated i", &got.i, &want.i);
        }
    }

    #[test]
    fn flat_results_match_a_session_on_the_grid() {
        // A pulse-driven RLC whose pulse corners all land on the step
        // grid, so `run` never clips a step and a session advanced to
        // each stored time takes the identical steps.
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let mid = nl.node("mid");
        let out = nl.node("out");
        let pulse = SourceWaveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 1e-6,
            rise: 0.5e-6,
            fall: 0.5e-6,
            width: 2e-6,
            period: 5e-6,
        };
        let v1 = nl.vsource("V1", vin, Netlist::GROUND, pulse);
        nl.resistor("R1", vin, mid, 50.0);
        let l1 = nl.inductor("L1", mid, out, 10e-6);
        nl.capacitor("C1", out, Netlist::GROUND, 1e-9);
        let (t_stop, dt) = (12e-6, 0.25e-6);
        let res = TransientAnalysis::new(t_stop, dt).run(&nl).unwrap();

        // The reservation held every row: nothing regrew.
        let bps = source_breakpoints(&nl, 0.0, t_stop, BREAKPOINT_RELTOL * t_stop).len();
        let rows = (t_stop / dt).ceil() as usize + bps + 1;
        let n = res.layout.size();
        assert_eq!(res.len(), (t_stop / dt).round() as usize + 1);
        assert_eq!(res.time.capacity(), rows);
        assert_eq!(res.values.capacity(), rows * n);
        assert_eq!(res.values.len(), res.len() * n);

        let waves = [
            res.voltage(vin),
            res.voltage(mid),
            res.voltage(out),
            res.branch_current(v1).unwrap(),
            res.branch_current(l1).unwrap(),
        ];
        assert!(waves.iter().all(|w| w.len() == res.len()));
        let ground = res.voltage(Netlist::GROUND);
        assert!(ground.values().iter().all(|&v| v == 0.0));
        let mut session = TransientSession::begin(&nl, dt).unwrap();
        for (k, &t) in res.times().iter().enumerate() {
            if k > 0 {
                session.advance_to(t).unwrap();
            }
            let now = [
                session.voltage(vin),
                session.voltage(mid),
                session.voltage(out),
                session.branch_current(v1).unwrap(),
                session.branch_current(l1).unwrap(),
            ];
            for (w, s) in waves.iter().zip(now) {
                assert_eq!(w.values()[k].to_bits(), s.to_bits(), "row {k} at t = {t:e}");
            }
        }
        assert_eq!(
            res.final_voltage(out).to_bits(),
            session.voltage(out).to_bits()
        );
        assert!(res.voltage(out).values().iter().any(|&v| v > 0.5));
    }

    #[test]
    fn an_early_stop_returns_a_prefix_of_the_full_run() {
        // Pulse corners off the step grid, so the march clips steps at
        // breakpoints and damps the step after each.
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        let pulse = SourceWaveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 0.3e-6,
            rise: 0.2e-6,
            fall: 0.2e-6,
            width: 1.1e-6,
            period: 3e-6,
        };
        nl.vsource("V1", vin, Netlist::GROUND, pulse);
        nl.resistor("R1", vin, out, 50.0);
        nl.capacitor("C1", out, Netlist::GROUND, 10e-9);
        let analysis = TransientAnalysis::new(8e-6, 0.25e-6);
        let full = analysis.run(&nl).unwrap();
        let n = full.layout.size();
        for rows in [1, 2, full.len() / 2, full.len()] {
            let mut asked = 0;
            let part = analysis
                .run_until(&nl, |r| {
                    asked += 1;
                    assert_eq!(r.len(), asked, "asked after every stored row");
                    r.len() == rows
                })
                .unwrap();
            assert_eq!(part.len(), rows);
            assert_eq!(part.time.capacity(), full.time.capacity());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&part.time), bits(&full.time[..rows]), "{rows} rows");
            assert_eq!(
                bits(&part.values),
                bits(&full.values[..rows * n]),
                "{rows} rows"
            );
        }
    }

    fn rc_circuit(tau_r: f64, tau_c: f64) -> (Netlist, NodeId) {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::step(1.0, 0.0));
        nl.resistor("R1", vin, out, tau_r);
        nl.capacitor("C1", out, Netlist::GROUND, tau_c);
        (nl, out)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        // tau = 1 ms. UIC start: the source is already high at t = 0, so an
        // operating-point start would begin from the settled state.
        let (nl, out) = rc_circuit(1e3, 1e-6);
        let res = TransientAnalysis::new(5e-3, 5e-6)
            .start_condition(StartCondition::Uic)
            .run(&nl)
            .unwrap();
        let w = res.voltage(out);
        for &frac in &[0.5, 1.0, 2.0, 3.0] {
            let t = frac * 1e-3;
            let expect = 1.0 - (-t / 1e-3_f64).exp();
            assert!(
                (w.value_at(t) - expect).abs() < 2e-3,
                "at t={t}: got {}, want {expect}",
                w.value_at(t)
            );
        }
    }

    #[test]
    fn backward_euler_also_converges() {
        let (nl, out) = rc_circuit(1e3, 1e-6);
        let res = TransientAnalysis::new(5e-3, 2e-6)
            .integrator(Integrator::BackwardEuler)
            .run(&nl)
            .unwrap();
        assert!((res.final_voltage(out) - 1.0).abs() < 5e-3);
    }

    #[test]
    fn uic_honours_capacitor_initial_voltage() {
        let mut nl = Netlist::new();
        let out = nl.node("out");
        nl.resistor("R1", out, Netlist::GROUND, 1e3);
        nl.capacitor_ic("C1", out, Netlist::GROUND, 1e-6, 2.0);
        let res = TransientAnalysis::new(5e-3, 5e-6)
            .start_condition(StartCondition::Uic)
            .run(&nl)
            .unwrap();
        let w = res.voltage(out);
        // Discharges from 2 V with tau = 1 ms.
        let at_tau = w.value_at(1e-3);
        let expect = 2.0 * (-1.0_f64).exp();
        assert!((at_tau - expect).abs() < 0.02, "got {at_tau}, want {expect}");
    }

    #[test]
    fn lc_oscillation_frequency() {
        // Ideal LC tank started via capacitor IC; f = 1/(2*pi*sqrt(LC)).
        let mut nl = Netlist::new();
        let n1 = nl.node("n1");
        nl.inductor("L1", n1, Netlist::GROUND, 1e-3);
        nl.capacitor_ic("C1", n1, Netlist::GROUND, 1e-6, 1.0);
        // Slight damping to keep matrices friendly.
        nl.resistor("Rp", n1, Netlist::GROUND, 1e6);
        let res = TransientAnalysis::new(200e-6, 0.2e-6)
            .start_condition(StartCondition::Uic)
            .run(&nl)
            .unwrap();
        let w = res.voltage(n1);
        // Find first zero crossing (quarter period); T/4 = pi/2*sqrt(LC).
        let expect_quarter = std::f64::consts::FRAC_PI_2 * (1e-3_f64 * 1e-6).sqrt();
        let mut crossing = None;
        let times = w.times();
        let values = w.values();
        for i in 1..w.len() {
            if values[i - 1] > 0.0 && values[i] <= 0.0 {
                crossing = Some(times[i]);
                break;
            }
        }
        let crossing = crossing.expect("oscillation crossed zero");
        assert!(
            (crossing - expect_quarter).abs() / expect_quarter < 0.02,
            "quarter period {crossing}, expected {expect_quarter}"
        );
    }

    #[test]
    fn breakpoints_align_with_pulse_edges() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource(
            "V1",
            a,
            Netlist::GROUND,
            SourceWaveform::Pulse {
                low: 0.0,
                high: 5.0,
                delay: 0.0,
                rise: 1e-9,
                fall: 1e-9,
                width: 10e-6,
                period: 20e-6,
            },
        );
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        let res = TransientAnalysis::new(40e-6, 1.5e-6).run(&nl).unwrap();
        // The step times should include the pulse edges despite the odd dt.
        let has_time = |t: f64| res.times().iter().any(|&ti| (ti - t).abs() < 1e-12);
        assert!(has_time(10e-6 + 1e-9)); // falling edge corner
        assert!(has_time(20e-6)); // next period start
    }

    #[test]
    fn result_reports_branch_current() {
        let (nl, _) = rc_circuit(1e3, 1e-6);
        let v1 = nl.find_device("V1").unwrap();
        let res = TransientAnalysis::new(1e-3, 10e-6)
            .start_condition(StartCondition::Uic)
            .run(&nl)
            .unwrap();
        let i = res.branch_current(v1).unwrap();
        // Inrush current magnitude ~ 1V/1k = 1 mA at t=0+.
        assert!(i.values().iter().any(|&x| x.abs() > 0.5e-3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dt_rejected() {
        let _ = TransientAnalysis::new(1.0, 0.0);
    }

    #[test]
    fn session_matches_one_shot_run() {
        // Advancing a session in three chunks must land on the same
        // trajectory as a single run.
        let (nl, out) = rc_circuit(1e3, 1e-6);
        let mut session = TransientSession::begin(&nl, 5e-6).unwrap();
        session.advance_to(1e-3).unwrap();
        let s1 = session.voltage(out);
        session.advance_to(2e-3).unwrap();
        session.advance_to(4e-3).unwrap();
        let s2 = session.voltage(out);

        let res = TransientAnalysis::new(4e-3, 5e-6).run(&nl).unwrap();
        let w = res.voltage(out);
        assert!((s1 - w.value_at(1e-3)).abs() < 2e-3, "{s1}");
        assert!((s2 - w.value_at(4e-3)).abs() < 2e-3, "{s2}");
        assert!((session.time() - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn session_windows_add_no_factorisations() {
        // Co-simulation advances in short windows of a few steps. Window
        // ends land on the step grid, so windowing keeps every step's dt
        // (an exact factorisation key) and refactorises no more often
        // than one long advance.
        use crate::devices::DiodeParams;
        use crate::metrics::SolverMetrics;
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        let sine = SourceWaveform::Sine {
            offset: 0.5,
            amplitude: 1.0,
            freq: 1e3,
            delay: 0.0,
        };
        nl.vsource("V1", vin, Netlist::GROUND, sine);
        nl.resistor("R1", vin, out, 1e3);
        nl.capacitor("C1", out, Netlist::GROUND, 0.1e-6);
        nl.diode("D1", out, Netlist::GROUND, DiodeParams::default());
        let dt = 2e-6;
        let session = |metrics: &Arc<SolverMetrics>| {
            TransientSession::begin(&nl, dt)
                .unwrap()
                .with_metrics(Arc::clone(metrics))
        };

        let windowed_metrics = Arc::new(SolverMetrics::new());
        let mut windowed = session(&windowed_metrics);
        for _ in 0..400 {
            let t_stop = windowed.time() + 5.0 * dt;
            windowed.advance_to(t_stop).unwrap();
            assert_eq!(windowed.time(), t_stop);
        }
        let single_metrics = Arc::new(SolverMetrics::new());
        let mut single = session(&single_metrics);
        single.advance_to(windowed.time()).unwrap();

        let windowed_misses = windowed_metrics.snapshot().factor_reuse_misses;
        let single_misses = single_metrics.snapshot().factor_reuse_misses;
        assert!(
            windowed_misses <= single_misses + 2,
            "windowed {windowed_misses} vs single {single_misses} fresh factorisations"
        );
        for node in [vin, out] {
            let (w, s) = (windowed.voltage(node), single.voltage(node));
            assert!((w - s).abs() < 1e-9, "windowed {w} vs single {s}");
        }
    }

    #[test]
    fn session_source_rewrite_steers_the_circuit() {
        let (nl, out) = rc_circuit(1e3, 1e-6);
        let v1 = nl.find_device("V1").unwrap();
        let mut session = TransientSession::begin(&nl, 5e-6).unwrap();
        session.advance_to(5e-3).unwrap();
        assert!(session.voltage(out) > 0.99);
        session.set_source(v1, SourceWaveform::dc(-1.0)).unwrap();
        session.advance_to(10e-3).unwrap();
        // 5 tau of swing from +1 toward -1: 2 e^-5 ~ 0.013 remains.
        assert!((session.voltage(out) + 1.0).abs() < 0.02);
    }

    #[test]
    fn session_rejects_backwards_time() {
        let (nl, _) = rc_circuit(1e3, 1e-6);
        let mut session = TransientSession::begin(&nl, 5e-6).unwrap();
        session.advance_to(1e-3).unwrap();
        assert!(session.advance_to(0.5e-3).is_err());
    }

    #[test]
    fn session_set_source_validates_device() {
        let (nl, out) = rc_circuit(1e3, 1e-6);
        let r1 = nl.find_device("R1").unwrap();
        let mut session = TransientSession::begin(&nl, 5e-6).unwrap();
        let err = session.set_source(r1, SourceWaveform::dc(0.0)).unwrap_err();
        assert!(matches!(err, AnalysisError::UnknownElement(_)));
        assert!(err.to_string().contains("independent source"));
        // The session stays usable after the rejected rewrite.
        session.advance_to(1e-3).unwrap();
        assert!(session.voltage(out) > 0.0);
    }

    #[test]
    fn step_budget_is_reported_as_budget_exceeded() {
        use crate::robust::SolveBudget;
        let (nl, _) = rc_circuit(1e3, 1e-6);
        let err = TransientAnalysis::new(5e-3, 5e-6)
            .budget(SolveBudget::unlimited().steps(10))
            .run(&nl)
            .unwrap_err();
        assert!(
            matches!(
                err,
                AnalysisError::BudgetExceeded {
                    kind: crate::BudgetKind::Steps,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn wall_budget_is_reported_as_budget_exceeded() {
        use crate::robust::SolveBudget;
        use std::time::Duration;
        let (nl, _) = rc_circuit(1e3, 1e-6);
        let err = TransientAnalysis::new(5e-3, 5e-6)
            .budget(SolveBudget::unlimited().wall(Duration::ZERO))
            .run(&nl)
            .unwrap_err();
        assert!(
            matches!(
                err,
                AnalysisError::BudgetExceeded {
                    kind: crate::BudgetKind::WallClock,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn dt_halving_rescues_a_tight_newton_budget() {
        use crate::devices::DiodeParams;
        // A 1 mA step into R ∥ C wants to move the node ~1.7 V in the
        // nominal-dt solve at the source corner, but the per-iteration
        // voltage clamp walks at most 0.5 V per Newton iteration, so 4
        // iterations cannot converge there. (The corner step is the
        // binding one: the extrapolation predictor seeds later steps
        // from the trajectory's tangent, but extrapolating the flat
        // pre-step history says nothing about the corner itself.)
        // Every dt halving doubles the capacitor's companion
        // conductance and shrinks the per-step excursion, so a halved
        // retry fits inside the iteration cap. The isolated reverse
        // diode only marks the system nonlinear so the damped Newton
        // walk (and thus the cap) is actually exercised.
        let tight = NewtonOptions {
            max_iterations: 4,
            vstep_limit: 0.5,
            ..NewtonOptions::default()
        };
        let circuit = || {
            let mut nl = Netlist::new();
            let out = nl.node("out");
            let iso = nl.node("iso");
            nl.isource("I1", out, Netlist::GROUND, SourceWaveform::step(1e-3, 2e-6));
            nl.resistor("R1", out, Netlist::GROUND, 5e3);
            nl.capacitor("C1", out, Netlist::GROUND, 0.2e-9);
            nl.diode("D1", iso, Netlist::GROUND, DiodeParams::default());
            (nl, out)
        };

        // Halving forbidden (min_dt pinned at dt): the step cannot
        // converge and the analysis dies at the transition.
        let (nl, _) = circuit();
        let err = TransientAnalysis::new(20e-6, 1e-6)
            .newton_options(tight)
            .min_dt(1e-6)
            .run(&nl)
            .unwrap_err();
        assert!(
            matches!(err, AnalysisError::NoConvergence { .. }),
            "got {err:?}"
        );

        // With halving room the same analysis completes and settles to
        // the I·R level a generously-budgeted run agrees on.
        let (nl, out) = circuit();
        let rescued = TransientAnalysis::new(20e-6, 1e-6)
            .newton_options(tight)
            .run(&nl)
            .unwrap();
        let reference = TransientAnalysis::new(20e-6, 1e-6).run(&nl).unwrap();
        let v = rescued.final_voltage(out);
        let v_ref = reference.final_voltage(out);
        assert!((v - v_ref).abs() < 1e-3, "rescued {v} vs reference {v_ref}");
        assert!((v - 5.0).abs() < 0.05, "settled at {v}");
    }

    #[test]
    fn with_settings_applies_rung_scaling() {
        use crate::robust::{SolveBudget, SolveSettings, SolverRung};
        let base = TransientAnalysis::new(1e-3, 1e-6);
        let settings = SolveSettings {
            rung: SolverRung {
                dt_scale: 0.5,
                min_dt_scale: 4.0,
                force_backward_euler: true,
                gmin: Some(1e-9),
            },
            budget: SolveBudget::unlimited().steps(123),
            metrics: None,
            flight: None,
            cancel: None,
            profile: None,
            warm_start: None,
            numeric_chaos: None,
        };
        let tuned = base.clone().with_settings(&settings);
        assert!((tuned.dt - 0.5e-6).abs() < 1e-18);
        // min_dt scales by dt_scale * min_dt_scale.
        assert!((tuned.min_dt - 1e-6 / 1024.0 * 0.5 * 4.0).abs() < 1e-18);
        assert_eq!(tuned.integrator, Integrator::BackwardEuler);
        assert_eq!(tuned.gmin, 1e-9);
        assert_eq!(tuned.budget.max_steps, Some(123));
        // A nominal rung leaves the analysis unchanged apart from budget.
        let nominal = base.clone().with_settings(&SolveSettings::default());
        assert_eq!(nominal.dt, base.dt);
        assert_eq!(nominal.integrator, base.integrator);
    }

    #[test]
    fn pre_raised_cancel_token_aborts_the_run() {
        use crate::robust::CancelToken;

        let (nl, _) = rc_circuit(1e3, 1e-6);
        let token = CancelToken::new();
        token.cancel();
        let err = TransientAnalysis::new(1e-3, 10e-6)
            .cancel(token)
            .run(&nl)
            .unwrap_err();
        assert_eq!(err, AnalysisError::Cancelled);
    }

    #[test]
    fn cancel_token_arrives_through_with_settings() {
        use crate::robust::{CancelToken, SolveSettings};

        let (nl, _) = rc_circuit(1e3, 1e-6);
        let token = CancelToken::new();
        token.cancel();
        let settings = SolveSettings::default().cancel(token);
        let err = TransientAnalysis::new(1e-3, 10e-6)
            .with_settings(&settings)
            .run(&nl)
            .unwrap_err();
        assert_eq!(err, AnalysisError::Cancelled);
    }

    #[test]
    fn metrics_count_steps_and_newton_iterations() {
        use crate::metrics::SolverMetrics;
        use crate::robust::SolveSettings;
        use std::sync::Arc;

        let (nl, _) = rc_circuit(1e3, 1e-6);
        let metrics = Arc::new(SolverMetrics::new());
        let settings = SolveSettings::default().metrics(Arc::clone(&metrics));
        TransientAnalysis::new(1e-3, 10e-6)
            .with_settings(&settings)
            .run(&nl)
            .unwrap();
        let snap = metrics.snapshot();
        // 1 ms horizon at 10 us nominal dt: ~100 accepted steps, each
        // needing at least one Newton iteration, plus the DC start.
        assert!(snap.steps_accepted >= 100, "accepted {snap:?}");
        assert!(snap.newton_iterations > snap.steps_accepted);
        assert_eq!(snap.steps_rejected, 0);

        // A second run on a fresh handle sees only its own work — there
        // is no cross-analysis bleed-through.
        let fresh = Arc::new(SolverMetrics::new());
        TransientAnalysis::new(1e-4, 10e-6)
            .metrics(Arc::clone(&fresh))
            .run(&nl)
            .unwrap();
        assert!(fresh.snapshot().steps_accepted < snap.steps_accepted);
    }

    #[test]
    fn metrics_record_transient_and_dc_spans() {
        use crate::metrics::SolverMetrics;
        use obs::AggregatingRecorder;
        use std::sync::Arc;

        let (nl, _) = rc_circuit(1e3, 1e-6);
        let recorder = Arc::new(AggregatingRecorder::new());
        let metrics = Arc::new(SolverMetrics::with_recorder(recorder.clone()));
        TransientAnalysis::new(1e-4, 10e-6)
            .metrics(metrics)
            .run(&nl)
            .unwrap();
        let agg = recorder.snapshot();
        assert_eq!(agg.spans["anasim.transient"].count(), 1);
        assert_eq!(agg.spans["anasim.dc"].count(), 1);
    }
}
