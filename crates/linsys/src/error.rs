use std::error::Error;
use std::fmt;

/// Returned when a matrix factorisation finds no usable pivot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Row index at which elimination broke down.
    pub row: usize,
}

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "singular matrix at row {}", self.row)
    }
}

impl Error for SingularMatrixError {}

/// A classified numerical hazard observed by the LU kernels or the
/// solver tiers built on top of them.
///
/// The taxonomy is deliberately small and stable: each variant has a
/// fixed kebab-case [`NumericalHazard::label`] that appears verbatim in
/// solver counters, flight-recorder postmortems, campaign journals and
/// canonical report markers, so a hazard seen in one layer can be
/// traced through every other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumericalHazard {
    /// Elimination found a pivot far below the magnitude of its updated
    /// column — the matrix is numerically rank-deficient at that step.
    NearSingularPivot,
    /// Element growth during elimination exceeded the advisory bound:
    /// the factorisation succeeded but may have lost accuracy.
    PivotGrowth,
    /// A residual, trial step or solution contained a NaN or infinity.
    NonFinite,
    /// One round of iterative refinement failed to contract the true
    /// residual of a suspect solve.
    RefinementStall,
    /// The 1-norm condition estimate of a fresh factorisation exceeded
    /// the advisory threshold.
    IllConditioned,
}

impl NumericalHazard {
    /// Every hazard, in canonical (counter/report) order.
    pub const ALL: [NumericalHazard; 5] = [
        NumericalHazard::NearSingularPivot,
        NumericalHazard::PivotGrowth,
        NumericalHazard::NonFinite,
        NumericalHazard::RefinementStall,
        NumericalHazard::IllConditioned,
    ];

    /// Stable kebab-case identifier used in reports and journals.
    pub fn label(self) -> &'static str {
        match self {
            NumericalHazard::NearSingularPivot => "near-singular-pivot",
            NumericalHazard::PivotGrowth => "pivot-growth",
            NumericalHazard::NonFinite => "non-finite",
            NumericalHazard::RefinementStall => "refinement-stall",
            NumericalHazard::IllConditioned => "ill-conditioned",
        }
    }

    /// Inverse of [`NumericalHazard::label`] (journal decoding).
    pub fn from_label(label: &str) -> Option<Self> {
        NumericalHazard::ALL.into_iter().find(|h| h.label() == label)
    }
}

impl fmt::Display for NumericalHazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_row() {
        assert_eq!(
            SingularMatrixError { row: 7 }.to_string(),
            "singular matrix at row 7"
        );
    }

    #[test]
    fn hazard_labels_round_trip_and_are_distinct() {
        for h in NumericalHazard::ALL {
            assert_eq!(NumericalHazard::from_label(h.label()), Some(h));
            assert_eq!(h.to_string(), h.label());
        }
        for (i, a) in NumericalHazard::ALL.iter().enumerate() {
            for b in &NumericalHazard::ALL[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
        assert_eq!(NumericalHazard::from_label("bogus"), None);
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + Error>() {}
        check::<SingularMatrixError>();
    }
}
