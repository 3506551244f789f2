//! What a pass records: per-op timings and verdicts, deterministic
//! counts, and — on traced passes only — benchmark-side spans around
//! calls into the program's crates plus the solver phase profiler.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anasim::metrics::{SolverMetrics, SolverSnapshot, COUNTER_NAMES};
use anasim::robust::SolveSettings;
use msbist_bench::hooks::CampaignHooks;
use obs::profile::PhaseProfiler;

use crate::calib;
use crate::sys::Fnv;

/// Spans that tile a traced pass. Everything a pass does runs inside
/// exactly one of them; the remainder of the pass wall is reported as
/// `profile.other_s`.
pub const TOP_SPANS: [&str; 8] = [
    "macrolib.build",
    "faultsim.campaign",
    "faultsim.replay",
    "msbist.impulse",
    "msbist.quick_test",
    "msbist.circuit_convert",
    "msbist.cosim_convert",
    // The benchmark's own output checks and temp-dir housekeeping.
    "bench.check",
];

/// Tracing state for one pass. Disarmed, it only hands out inert hooks
/// and settings; armed, it owns the phase profiler and span totals.
pub struct Probe {
    profiler: Option<Arc<PhaseProfiler>>,
    hooks: CampaignHooks,
    spans: BTreeMap<&'static str, Duration>,
}

impl Probe {
    /// A probe that records nothing: end-to-end measurement.
    pub fn off() -> Self {
        Probe {
            profiler: None,
            hooks: CampaignHooks::none(),
            spans: BTreeMap::new(),
        }
    }

    /// A probe with the solver phase profiler armed.
    pub fn on() -> Self {
        let profiler = Arc::new(PhaseProfiler::new());
        Probe {
            hooks: CampaignHooks::none().with_profile(Arc::clone(&profiler)),
            profiler: Some(profiler),
            spans: BTreeMap::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.profiler.is_some()
    }

    pub fn profiler(&self) -> Option<&Arc<PhaseProfiler>> {
        self.profiler.as_ref()
    }

    /// Campaign hooks: inert, or arming per-fault phase accounting.
    pub fn hooks(&self) -> &CampaignHooks {
        &self.hooks
    }

    /// Solve settings for simulations outside a campaign, counting into
    /// `metrics` and profiled when the probe is armed.
    pub fn settings(&self, metrics: &Arc<SolverMetrics>) -> SolveSettings {
        self.hooks.solve_settings().metrics(Arc::clone(metrics))
    }

    /// Runs `f`, returning its result and wall time; an armed probe
    /// adds the time to span `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.add(name, took);
        (out, took)
    }

    /// Adds `took` to span `name` (armed probes only). Also used for
    /// the sub-spans that the program's own telemetry measures.
    pub fn add(&mut self, name: &'static str, took: Duration) {
        if self.traced() {
            *self.spans.entry(name).or_default() += took;
        }
    }

    pub fn span_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, Duration::as_secs_f64)
    }

    /// Seconds covered by the spans that tile a pass.
    pub fn covered_s(&self) -> f64 {
        TOP_SPANS.iter().map(|s| self.span_s(s)).sum()
    }
}

/// One operation's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub ms: f64,
    pub ok: bool,
}

/// Deterministic counts of one pass. Two passes over the same inputs
/// must produce identical tallies whether or not they were traced.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Solver counters summed over every analysis the pass ran that
    /// exposes them (phase times are carried but never compared).
    pub solver: SolverSnapshot,
    /// Journal records on disk, summed over campaigns.
    pub journal_records: u64,
    /// Journal bytes on disk. Journaled per-fault wall times make this
    /// wobble by a few bytes, so it is reported but not compared.
    pub journal_bytes: u64,
    /// Journal bytes with the wall-time values masked: deterministic.
    pub journal_bytes_masked: u64,
    /// ADC conversions performed.
    pub conversions: u64,
    /// Digest of every per-op output (verdicts, percentages, codes,
    /// per-op solver counts), in op order.
    pub outputs: Fnv,
}

impl Tally {
    /// Folds one extraction's solver counters into the totals and the
    /// output digest.
    pub fn solver(&mut self, snap: &SolverSnapshot) {
        self.solver += *snap;
        for v in snap.as_array() {
            self.outputs.u64(v);
        }
    }

    /// The values compared across passes, runs, and traced/untraced.
    pub fn fingerprint(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = COUNTER_NAMES
            .iter()
            .zip(self.solver.as_array())
            .map(|(n, v)| ((*n).to_owned(), v))
            .collect();
        out.push(("journal_records".into(), self.journal_records));
        out.push(("journal_bytes_masked".into(), self.journal_bytes_masked));
        out.push(("conversions".into(), self.conversions));
        out.push(("outputs_digest".into(), self.outputs.finish()));
        out
    }
}

/// Everything one pass over the workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub ops: Vec<Op>,
    pub tally: Tally,
    /// Simulated circuit seconds of the analyses the pass completed.
    pub sim_s: f64,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
    /// Calibration kernel times taken between the pass's ops, in ms.
    pub calib_ms: Vec<f64>,
}

impl Pass {
    pub fn op(&mut self, took: Duration, failure: Option<String>) {
        self.ops.push(Op {
            ms: took.as_secs_f64() * 1e3,
            ok: failure.is_none(),
        });
        if let Some(reason) = failure {
            if self.failures.len() < 8 {
                self.failures.push(reason);
            }
        }
    }

    /// Times one run of the calibration kernel. Measured passes leave
    /// these runs out of their wall and CPU times.
    pub fn calibrate(&mut self) {
        self.calib_ms.push(calib::time_ms());
    }

    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }
}
