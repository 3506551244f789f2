use std::error::Error;
use std::fmt;

/// Error returned by `anasim` analyses.
///
/// All analysis entry points ([`crate::dc::dc_operating_point`],
/// [`crate::transient::TransientAnalysis::run`]) return this type on
/// failure.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The Newton–Raphson iteration failed to converge.
    ///
    /// Carries the simulation time at which convergence was lost (0.0 for a
    /// DC operating point), the worst residual seen on the final
    /// iteration, and how many Newton iterations ran before giving up.
    NoConvergence {
        /// Simulation time in seconds at which convergence failed.
        time: f64,
        /// Infinity norm of the residual on the last Newton iteration.
        residual: f64,
        /// Newton iterations performed by the failing solve.
        iterations: usize,
    },
    /// The MNA matrix was singular (e.g. a floating node with no DC path).
    SingularMatrix {
        /// Row index at which elimination found no usable pivot.
        row: usize,
    },
    /// An analysis parameter was invalid (non-positive timestep, reversed
    /// time interval, ...).
    InvalidParameter(String),
    /// The netlist references a node or device that does not exist.
    UnknownElement(String),
    /// A solver resource budget ([`crate::robust::SolveBudget`]) ran out
    /// before the analysis completed.
    BudgetExceeded {
        /// Simulation time in seconds reached when the budget expired.
        time: f64,
        /// Timesteps attempted so far.
        steps: usize,
        /// Which budget dimension was exhausted.
        kind: BudgetKind,
    },
    /// The analysis was cancelled cooperatively through a
    /// [`crate::robust::CancelToken`] (Ctrl-C, an embedding caller, a
    /// campaign shutting down). Not a solver failure: the circuit may
    /// have been perfectly solvable.
    Cancelled,
    /// A numerical hazard survived the entire tier-demotion ladder:
    /// every recovery tier (cached factor, refactor, symbolic rebuild)
    /// was tried and the hazard persisted. This is the
    /// typed replacement for NaN-poisoned reports and panics.
    Numerical {
        /// The hazard kind that exhausted the ladder.
        hazard: linsys::NumericalHazard,
        /// Simulation time in seconds at which it struck (0.0 for DC).
        time: f64,
    },
}

/// The budget dimension that ran out in
/// [`AnalysisError::BudgetExceeded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The timestep budget was exhausted.
    Steps,
    /// The wall-clock budget was exhausted.
    WallClock,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::NoConvergence {
                time,
                residual,
                iterations,
            } => write!(
                f,
                "newton iteration failed to converge at t = {time:.3e} s \
                 (residual {residual:.3e} after {iterations} iterations)"
            ),
            AnalysisError::SingularMatrix { row } => {
                write!(f, "singular MNA matrix at row {row}")
            }
            AnalysisError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            AnalysisError::UnknownElement(name) => write!(f, "unknown element: {name}"),
            AnalysisError::BudgetExceeded { time, steps, kind } => {
                let what = match kind {
                    BudgetKind::Steps => "timestep budget",
                    BudgetKind::WallClock => "wall-clock budget",
                };
                write!(
                    f,
                    "{what} exhausted at t = {time:.3e} s after {steps} steps"
                )
            }
            AnalysisError::Cancelled => write!(f, "analysis cancelled by caller"),
            AnalysisError::Numerical { hazard, time } => write!(
                f,
                "numerical hazard {hazard} persisted through every recovery tier \
                 at t = {time:.3e} s"
            ),
        }
    }
}

impl Error for AnalysisError {}

impl From<linsys::SingularMatrixError> for AnalysisError {
    fn from(err: linsys::SingularMatrixError) -> Self {
        AnalysisError::SingularMatrix { row: err.row }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = AnalysisError::NoConvergence {
            time: 1e-3,
            residual: 0.5,
            iterations: 150,
        };
        let msg = err.to_string();
        assert!(msg.contains("converge"));
        assert!(msg.contains("1.000e-3"));
        assert!(msg.contains("150 iterations"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisError>();
    }

    #[test]
    fn numerical_hazard_reports_kind_and_time() {
        let err = AnalysisError::Numerical {
            hazard: linsys::NumericalHazard::RefinementStall,
            time: 2e-6,
        };
        let msg = err.to_string();
        assert!(msg.contains("refinement-stall"), "{msg}");
        assert!(msg.contains("2.000e-6"), "{msg}");
    }

    #[test]
    fn singular_matrix_reports_row() {
        assert_eq!(
            AnalysisError::SingularMatrix { row: 3 }.to_string(),
            "singular MNA matrix at row 3"
        );
    }
}
