//! Transient-response testing of analogue and mixed-signal sub-macros.
//!
//! The paper's technique: a transient stimulus vector propagating
//! through a mixed-signal circuit emerges as the stimulus convolved with
//! the impulse response of every block on the path,
//! `y(t) = x(t) * h(t) * z(t)`. Faults perturb the path's composite
//! impulse response; they are detected by either of two approaches:
//!
//! 1. **Correlation** ([`mod@bench`]): correlate the transient output with a
//!    correlation signal derived from the applied PRBS stimulus — the
//!    correlation function approximates the composite impulse response —
//!    and count the instances at which the faulty correlation deviates
//!    from the fault-free one.
//! 2. **Impulse-response comparison** ([`impulse`]): obtain each
//!    circuit's (faulty and fault-free) linearised dynamics, build a
//!    state-space model, and compare sampled impulse responses — the
//!    paper did this with HSPICE pole/zero extraction and Matlab.
//!
//! [`idd`] adds the dynamic supply-current signature of the related
//! work the paper cites (Binns & Taylor; Arguelles et al.), and
//! [`detect`] assembles the per-fault detection-instance percentages
//! into the series plotted in the paper's Figure 4.

pub mod bench;
pub mod circuits;
pub mod detect;
pub mod idd;
pub mod impulse;
pub mod stimulus;

pub use bench::TransientTestBench;
pub use stimulus::PrbsStimulus;

/// Figure 4's detection threshold as a fraction of the golden
/// signature's size (its peak magnitude, or its mean current for
/// [`idd`]): each circuit's comparator resolution scales with its
/// signal, as a real windowed comparator would be designed.
pub const RELATIVE_THRESHOLD: f64 = 0.02;
