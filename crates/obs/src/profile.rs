//! Phase-level cost attribution for solver hot paths.
//!
//! A [`PhaseProfiler`] splits a solve's wall time across a fixed
//! [`Phase`] taxonomy (stamping, device evaluation, LU factorisation,
//! back-substitution, residual/update, timestep control, DC homotopy
//! control, symbolic analysis, numeric refactorisation) with
//! monotonic-clock accounting. Like
//! `anasim::FlightRecorder`, arming is explicit and the disarmed path
//! is an `Option` branch — no clock reads, no atomics.
//!
//! Attribution is **self-time**: a [`PhaseGuard`] subtracts the time
//! spent in phases entered while it was open, so nesting never
//! double-counts and the per-phase nanoseconds always sum to at most
//! the outermost span's elapsed time. The bookkeeping is a single
//! thread-local accumulator; the per-phase totals are relaxed atomics,
//! so one profiler can be shared across campaign worker threads.
//!
//! Two granularities share that accounting:
//!
//! * [`PhaseGuard`] (RAII, via [`PhaseProfiler::enter`]) for coarse
//!   spans — a whole transient march, a DC solve;
//! * [`LapTimer`] for hot loops, where even one guard per iteration is
//!   too expensive: a single clock read per phase *boundary*, local
//!   (non-atomic) accumulation, and one [`LapTimer::flush`] per loop
//!   that credits the enclosing guard's child accumulator so nesting
//!   stays exact.
//!
//! Both read the cheapest monotonic clock available: the invariant TSC
//! on x86_64 (one `rdtsc`, calibrated once per process against the OS
//! monotonic clock), the OS clock elsewhere.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(test)]
use std::time::Instant;

/// Fast monotonic tick source for span timing. Ticks are an opaque
/// unit; [`clock::ticks_to_ns`] converts at publication time.
mod clock {
    #[allow(unused_imports)]
    use std::sync::OnceLock;
    #[allow(unused_imports)]
    use std::time::Instant;

    /// Current tick count. On x86_64 this is the invariant TSC (a
    /// ~6 ns unprivileged register read); elsewhere it is monotonic
    /// nanoseconds from the first call.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub fn now_ticks() -> u64 {
        // SAFETY: RDTSC is unprivileged and has no side effects.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline]
    pub fn now_ticks() -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        let epoch = EPOCH.get_or_init(Instant::now);
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Converts a tick interval to nanoseconds.
    #[cfg(target_arch = "x86_64")]
    pub fn ticks_to_ns(ticks: u64) -> u64 {
        static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
        let ratio = *NS_PER_TICK.get_or_init(calibrate);
        (ticks as f64 * ratio) as u64
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub fn ticks_to_ns(ticks: u64) -> u64 {
        ticks
    }

    /// Measures the TSC rate against the OS monotonic clock over a
    /// ~1 ms spin. Modern x86_64 TSCs are invariant (constant rate,
    /// never stop), so one short calibration holds for the process
    /// lifetime; the window bounds the ratio error well under 0.1 %.
    /// Runs once, on the first armed span's publication — disarmed
    /// runs never pay it.
    #[cfg(target_arch = "x86_64")]
    fn calibrate() -> f64 {
        let started = Instant::now();
        let c0 = now_ticks();
        loop {
            let elapsed = started.elapsed();
            if elapsed.as_micros() >= 1_000 {
                let dc = now_ticks().saturating_sub(c0);
                if dc == 0 {
                    // A TSC that did not advance in a millisecond is
                    // not usable as a clock; fall back to 1 tick = 1 ns.
                    return 1.0;
                }
                return elapsed.as_nanos() as f64 / dc as f64;
            }
            std::hint::spin_loop();
        }
    }
}

/// The fixed phase taxonomy. Every nanosecond a profiler attributes
/// lands in exactly one of these buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Assembling the MNA matrix and right-hand side (excluding
    /// nonlinear device model evaluation, which is [`Phase::DeviceEval`]).
    Stamp,
    /// Nonlinear device model evaluation (MOSFET / diode / switch)
    /// inside stamping.
    DeviceEval,
    /// LU factorisation of the stamped matrix.
    Factor,
    /// Forward/backward substitution against the factors.
    BackSubstitute,
    /// Damped Newton update and convergence testing.
    Residual,
    /// Transient time-march control: step selection, history updates,
    /// dt halving, result storage (self-time around the Newton solves).
    StepControl,
    /// DC operating-point control: homotopy scheduling around the
    /// Newton solves (self-time).
    DcSolve,
    /// Symbolic analysis of the system structure: sparsity pattern and
    /// assembly slot-map construction, done once per (netlist, fault)
    /// structure and reused across all iterations and timesteps.
    Symbolic,
    /// Numeric-only refactorisation of an already-analysed system (the
    /// factor cache held a factorisation for this structure already;
    /// [`Phase::Factor`] counts only first factorisations).
    Refactor,
}

impl Phase {
    /// Number of phases; the length of [`Phase::ALL`].
    pub const COUNT: usize = 9;

    /// Every phase, in serialisation order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Stamp,
        Phase::DeviceEval,
        Phase::Factor,
        Phase::BackSubstitute,
        Phase::Residual,
        Phase::StepControl,
        Phase::DcSolve,
        Phase::Symbolic,
        Phase::Refactor,
    ];

    /// Stable snake_case label used in reports, the bench sidecar and
    /// trace exports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Stamp => "stamp",
            Phase::DeviceEval => "device_eval",
            Phase::Factor => "lu_factor",
            Phase::BackSubstitute => "back_substitute",
            Phase::Residual => "residual",
            Phase::StepControl => "step_control",
            Phase::DcSolve => "dc_solve",
            Phase::Symbolic => "symbolic",
            Phase::Refactor => "refactor",
        }
    }
}

thread_local! {
    /// Clock ticks consumed by phase spans closed while the innermost
    /// open guard on this thread was running. Swapped out on `enter`
    /// and restored (plus the finished guard's elapsed ticks) on drop —
    /// this is what makes attribution self-time. [`LapTimer::flush`]
    /// adds its attributed ticks here too, so lap-timed loops subtract
    /// from their enclosing guard exactly like nested guards do.
    static CHILD_TICKS: Cell<u64> = const { Cell::new(0) };
}

/// Shared, thread-safe per-phase nanosecond and call accounting.
///
/// Arm by passing `Some(&profiler)` (or an `Arc`) down the solve path;
/// a disarmed (`None`) path performs no clock reads at all.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    ns: [AtomicU64; Phase::COUNT],
    calls: [AtomicU64; Phase::COUNT],
}

impl PhaseProfiler {
    /// A profiler with all counters at zero.
    pub fn new() -> Self {
        PhaseProfiler::default()
    }

    /// Opens a phase span. Time elapsed until the returned guard drops
    /// is attributed to `phase`, minus any nested phase spans opened
    /// underneath it on the same thread.
    pub fn enter(&self, phase: Phase) -> PhaseGuard<'_> {
        let parent_child_ticks = CHILD_TICKS.with(|c| c.replace(0));
        PhaseGuard {
            profiler: self,
            phase,
            parent_child_ticks,
            started: clock::now_ticks(),
        }
    }

    /// Adds raw, pre-measured self-time to a phase. Unlike
    /// [`PhaseProfiler::enter`] this does not participate in nesting
    /// subtraction; use it only for time measured outside any open
    /// guard (e.g. folding another profiler's totals in).
    pub fn add_ns(&self, phase: Phase, ns: u64, calls: u64) {
        self.ns[phase as usize].fetch_add(ns, Ordering::Relaxed);
        self.calls[phase as usize].fetch_add(calls, Ordering::Relaxed);
    }

    /// Folds a snapshot's totals into this profiler (used to aggregate
    /// per-fault profilers into a campaign- or experiment-level total).
    pub fn add_snapshot(&self, snap: &PhaseSnapshot) {
        for phase in Phase::ALL {
            let i = phase as usize;
            self.add_ns(phase, snap.ns[i], snap.calls[i]);
        }
    }

    /// A consistent-enough copy of the totals (relaxed loads; exact
    /// once all guards on all threads have dropped).
    pub fn snapshot(&self) -> PhaseSnapshot {
        let mut snap = PhaseSnapshot::default();
        for i in 0..Phase::COUNT {
            snap.ns[i] = self.ns[i].load(Ordering::Relaxed);
            snap.calls[i] = self.calls[i].load(Ordering::Relaxed);
        }
        snap
    }
}

/// RAII span for one phase; see [`PhaseProfiler::enter`].
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    profiler: &'a PhaseProfiler,
    phase: Phase,
    parent_child_ticks: u64,
    started: u64,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let elapsed = clock::now_ticks().saturating_sub(self.started);
        let child = CHILD_TICKS.with(|c| c.get());
        let self_ns = clock::ticks_to_ns(elapsed.saturating_sub(child));
        self.profiler.ns[self.phase as usize].fetch_add(self_ns, Ordering::Relaxed);
        self.profiler.calls[self.phase as usize].fetch_add(1, Ordering::Relaxed);
        CHILD_TICKS.with(|c| c.set(self.parent_child_ticks.saturating_add(elapsed)));
    }
}

/// Boundary-based phase accounting for hot loops.
///
/// A Newton iteration runs in about a microsecond on small circuits;
/// wrapping each of its phases in a [`PhaseGuard`] (two clock reads
/// plus thread-local and atomic traffic per phase) costs tens of
/// percent of the loop itself. A `LapTimer` instead keeps one running
/// boundary: [`LapTimer::lap`] reads the clock once and attributes
/// everything since the previous boundary to the given phase, into
/// plain local arrays. One [`LapTimer::flush`] at the end of the loop
/// converts to nanoseconds, publishes to the shared profiler, and
/// credits the thread-local child accumulator with the attributed
/// total — so an enclosing [`PhaseGuard`] (say [`Phase::StepControl`])
/// still sees the lap-timed work subtracted from its self-time, and
/// the "phases sum to at most the wall" invariant holds.
///
/// Time between a `flush`/[`LapTimer::skip`] and the next `lap` stays
/// with the enclosing guard; time between two `lap`s always lands in
/// the second one's phase.
#[derive(Debug)]
pub struct LapTimer {
    last: u64,
    ticks: [u64; Phase::COUNT],
    calls: [u64; Phase::COUNT],
}

impl LapTimer {
    /// A lap timer whose first boundary is "now".
    pub fn start() -> Self {
        LapTimer {
            last: clock::now_ticks(),
            ticks: [0; Phase::COUNT],
            calls: [0; Phase::COUNT],
        }
    }

    /// Attributes everything since the previous boundary to `phase`
    /// and starts the next segment. One clock read.
    #[inline]
    pub fn lap(&mut self, phase: Phase) {
        let now = clock::now_ticks();
        self.ticks[phase as usize] =
            self.ticks[phase as usize].saturating_add(now.saturating_sub(self.last));
        self.calls[phase as usize] += 1;
        self.last = now;
    }

    /// Advances the boundary without attributing the elapsed segment —
    /// for bookkeeping the caller wants left to the enclosing guard.
    #[inline]
    pub fn skip(&mut self) {
        self.last = clock::now_ticks();
    }

    /// Publishes the accumulated segments to `profiler` and credits
    /// the attributed total to the enclosing guard's child accumulator.
    pub fn flush(self, profiler: &PhaseProfiler) {
        let mut attributed_ticks = 0u64;
        for i in 0..Phase::COUNT {
            if self.calls[i] == 0 {
                continue;
            }
            attributed_ticks = attributed_ticks.saturating_add(self.ticks[i]);
            profiler.ns[i].fetch_add(clock::ticks_to_ns(self.ticks[i]), Ordering::Relaxed);
            profiler.calls[i].fetch_add(self.calls[i], Ordering::Relaxed);
        }
        if attributed_ticks > 0 {
            CHILD_TICKS.with(|c| c.set(c.get().saturating_add(attributed_ticks)));
        }
    }
}

/// A point-in-time copy of a profiler's per-phase totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseSnapshot {
    /// Self-time nanoseconds per phase, indexed by `Phase as usize`.
    pub ns: [u64; Phase::COUNT],
    /// Completed spans per phase, indexed by `Phase as usize`.
    pub calls: [u64; Phase::COUNT],
}

impl PhaseSnapshot {
    /// Self-time nanoseconds attributed to `phase`.
    pub fn ns(&self, phase: Phase) -> u64 {
        self.ns[phase as usize]
    }

    /// Completed spans of `phase`.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase as usize]
    }

    /// Total attributed nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// True if nothing was ever attributed (the disarmed case).
    pub fn is_empty(&self) -> bool {
        self.ns.iter().all(|&n| n == 0) && self.calls.iter().all(|&c| c == 0)
    }

    /// Per-field saturating difference `self - rhs`: the share of a
    /// monotonically growing profiler accumulated between two snapshots
    /// (e.g. one experiment's slice of an invocation-wide profiler).
    pub fn saturating_sub(&self, rhs: &PhaseSnapshot) -> PhaseSnapshot {
        let mut out = PhaseSnapshot::default();
        for i in 0..Phase::COUNT {
            out.ns[i] = self.ns[i].saturating_sub(rhs.ns[i]);
            out.calls[i] = self.calls[i].saturating_sub(rhs.calls[i]);
        }
        out
    }
}

impl std::ops::Add for PhaseSnapshot {
    type Output = PhaseSnapshot;

    fn add(mut self, rhs: PhaseSnapshot) -> PhaseSnapshot {
        self += rhs;
        self
    }
}

impl std::ops::AddAssign for PhaseSnapshot {
    fn add_assign(&mut self, rhs: PhaseSnapshot) {
        for i in 0..Phase::COUNT {
            self.ns[i] = self.ns[i].saturating_add(rhs.ns[i]);
            self.calls[i] = self.calls[i].saturating_add(rhs.calls[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn labels_are_unique_and_cover_all_phases() {
        let mut labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), Phase::COUNT);
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Phase::COUNT, "duplicate phase label");
    }

    #[test]
    fn flat_spans_attribute_to_their_phase() {
        let p = PhaseProfiler::new();
        {
            let _g = p.enter(Phase::Stamp);
            spin(Duration::from_micros(200));
        }
        let snap = p.snapshot();
        assert!(snap.ns(Phase::Stamp) >= 100_000, "{snap:?}");
        assert_eq!(snap.calls(Phase::Stamp), 1);
        assert_eq!(snap.ns(Phase::Factor), 0);
    }

    #[test]
    fn nested_spans_do_not_double_count() {
        let p = PhaseProfiler::new();
        let outer = Instant::now();
        {
            let _step = p.enter(Phase::StepControl);
            spin(Duration::from_micros(100));
            {
                let _stamp = p.enter(Phase::Stamp);
                spin(Duration::from_micros(300));
            }
            spin(Duration::from_micros(100));
        }
        let wall = outer.elapsed().as_nanos() as u64;
        let snap = p.snapshot();
        // The nested stamp time is subtracted from step control.
        assert!(snap.ns(Phase::Stamp) >= 150_000, "{snap:?}");
        assert!(
            snap.ns(Phase::StepControl) < snap.ns(Phase::Stamp),
            "{snap:?}"
        );
        // And the grand total never exceeds the enclosing wall time.
        assert!(snap.total_ns() <= wall, "{snap:?} vs wall {wall}");
    }

    #[test]
    fn sibling_spans_restore_the_parent_accumulator() {
        let p = PhaseProfiler::new();
        let outer = Instant::now();
        {
            let _step = p.enter(Phase::StepControl);
            for _ in 0..3 {
                let _g = p.enter(Phase::Factor);
                spin(Duration::from_micros(50));
            }
        }
        let wall = outer.elapsed().as_nanos() as u64;
        let snap = p.snapshot();
        assert_eq!(snap.calls(Phase::Factor), 3);
        assert!(snap.total_ns() <= wall, "{snap:?} vs wall {wall}");
    }

    #[test]
    fn snapshot_arithmetic_sums_fields() {
        let a = PhaseProfiler::new();
        a.add_ns(Phase::Stamp, 5, 2);
        let b = PhaseProfiler::new();
        b.add_ns(Phase::Stamp, 7, 1);
        b.add_ns(Phase::Factor, 3, 1);
        let sum = a.snapshot() + b.snapshot();
        assert_eq!(sum.ns(Phase::Stamp), 12);
        assert_eq!(sum.calls(Phase::Stamp), 3);
        assert_eq!(sum.ns(Phase::Factor), 3);
        assert_eq!(sum.total_ns(), 15);
        assert!(!sum.is_empty());
        assert!(PhaseSnapshot::default().is_empty());
    }

    #[test]
    fn add_snapshot_folds_totals() {
        let per_fault = PhaseProfiler::new();
        per_fault.add_ns(Phase::Factor, 100, 4);
        let total = PhaseProfiler::new();
        total.add_snapshot(&per_fault.snapshot());
        total.add_snapshot(&per_fault.snapshot());
        assert_eq!(total.snapshot().ns(Phase::Factor), 200);
        assert_eq!(total.snapshot().calls(Phase::Factor), 8);
    }

    #[test]
    fn lap_timer_attributes_segments_to_their_phase() {
        let p = PhaseProfiler::new();
        let mut lap = LapTimer::start();
        spin(Duration::from_micros(200));
        lap.lap(Phase::Stamp);
        spin(Duration::from_micros(200));
        lap.lap(Phase::Factor);
        lap.flush(&p);
        let snap = p.snapshot();
        assert!(snap.ns(Phase::Stamp) >= 100_000, "{snap:?}");
        assert!(snap.ns(Phase::Factor) >= 100_000, "{snap:?}");
        assert_eq!(snap.calls(Phase::Stamp), 1);
        assert_eq!(snap.calls(Phase::Factor), 1);
        assert_eq!(snap.ns(Phase::Residual), 0);
    }

    #[test]
    fn lap_timer_skip_leaves_time_unattributed() {
        let p = PhaseProfiler::new();
        let mut lap = LapTimer::start();
        spin(Duration::from_micros(300));
        lap.skip();
        spin(Duration::from_micros(50));
        lap.lap(Phase::Residual);
        lap.flush(&p);
        let snap = p.snapshot();
        // The skipped 300µs never lands anywhere; the residual lap only
        // covers the 50µs after the skip.
        assert!(snap.ns(Phase::Residual) < 250_000, "{snap:?}");
        assert_eq!(snap.calls(Phase::Residual), 1);
    }

    #[test]
    fn lap_timer_credits_the_enclosing_guard() {
        let p = PhaseProfiler::new();
        let outer = Instant::now();
        {
            let _step = p.enter(Phase::StepControl);
            spin(Duration::from_micros(100));
            let mut lap = LapTimer::start();
            spin(Duration::from_micros(400));
            lap.lap(Phase::Factor);
            lap.flush(&p);
            spin(Duration::from_micros(100));
        }
        let wall = outer.elapsed().as_nanos() as u64;
        let snap = p.snapshot();
        // The lap-timed factor work is subtracted from step control's
        // self-time, exactly like a nested guard would be.
        assert!(snap.ns(Phase::Factor) >= 200_000, "{snap:?}");
        assert!(
            snap.ns(Phase::StepControl) < snap.ns(Phase::Factor),
            "{snap:?}"
        );
        assert!(snap.total_ns() <= wall, "{snap:?} vs wall {wall}");
    }

    #[test]
    fn profiler_is_shareable_across_threads() {
        use std::sync::Arc;
        let p = Arc::new(PhaseProfiler::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let _g = p.enter(Phase::Residual);
                    spin(Duration::from_micros(50));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.snapshot().calls(Phase::Residual), 4);
    }
}
