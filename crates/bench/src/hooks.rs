//! Crash-safety hooks threaded from the `experiments` CLI into the
//! campaign-backed experiments.
//!
//! One [`CampaignHooks`] value carries the `--journal` / `--resume`
//! checkpoint file and the SIGINT [`CancelToken`] down to every
//! campaign an experiment runs. Each campaign gets its own label inside
//! the shared journal (`e6.c1.correlation`, `e6.c2.idd`, `diverge`,
//! ...), so a single journal file checkpoints a whole `experiments`
//! invocation and a resumed run replays exactly the campaigns that
//! completed.
//!
//! The same value carries the cost-attribution side: an invocation-wide
//! [`PhaseProfiler`] (`profile` subcommand / `--bench-json`) and a
//! shared [`CampaignTrace`] (`--trace-json`). Experiments call
//! [`CampaignHooks::observe`] after each completed campaign to fold its
//! phase rollup into the profiler and append its timeline to the trace.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use anasim::robust::{CancelToken, SolveSettings};
use faultsim::campaign::{CampaignConfig, CampaignReport, JournalConfig};
use faultsim::telemetry::TelemetryConfig;
use faultsim::trace::CampaignTrace;
use obs::chaos::{FaultPlan, NumericChaosPlan};
use obs::profile::PhaseProfiler;

/// Where a journaled experiment run checkpoints to.
#[derive(Debug, Clone)]
pub struct JournalSpec {
    /// Journal file shared by every campaign of the invocation.
    pub path: PathBuf,
    /// True to replay completed faults from the journal (`--resume`);
    /// false to journal without replaying (`--journal`, after the CLI
    /// truncated the file).
    pub resume: bool,
}

/// Checkpointing and cancellation context for experiment campaigns.
///
/// The default ([`CampaignHooks::none`]) is inert: campaigns run
/// exactly as they would without the crash-safety machinery.
#[derive(Debug, Clone, Default)]
pub struct CampaignHooks {
    /// Journal file and mode, when `--journal`/`--resume` was given.
    pub journal: Option<JournalSpec>,
    /// Cooperative cancellation token, raised by the CLI's SIGINT
    /// handler.
    pub cancel: Option<CancelToken>,
    /// Deterministic journal fault-injection plan (`--chaos`), applied
    /// to every campaign journal of the invocation.
    pub chaos: Option<FaultPlan>,
    /// Invocation-wide phase profiler: arms campaign profiling and
    /// accumulates every campaign's phase rollup.
    pub profile: Option<Arc<PhaseProfiler>>,
    /// Shared Chrome-trace timeline (`--trace-json`): arms campaign
    /// profiling and collects every campaign's worker/fault spans.
    pub trace: Option<Arc<Mutex<CampaignTrace>>>,
    /// Live-telemetry directory (`--telemetry`): every campaign of the
    /// invocation arms its `status.json` snapshot there, sequentially —
    /// `status.json` always shows the campaign currently running.
    pub telemetry: Option<PathBuf>,
    /// Deterministic solver arithmetic fault-injection plan
    /// (`--numeric-chaos`), armed on every campaign of the invocation.
    /// Unlike `--chaos` (journal I/O faults) this needs no journal: it
    /// injects into the linear-solver tiers of each fault extraction.
    pub numeric_chaos: Option<NumericChaosPlan>,
}

impl CampaignHooks {
    /// Hooks that change nothing — the non-journaled default.
    pub fn none() -> Self {
        CampaignHooks::default()
    }

    /// Hooks journaling to `path`, replaying existing records when
    /// `resume` is set.
    pub fn journaled(path: impl Into<PathBuf>, resume: bool) -> Self {
        CampaignHooks {
            journal: Some(JournalSpec {
                path: path.into(),
                resume,
            }),
            ..CampaignHooks::default()
        }
    }

    /// Adds a cancellation token (builder style).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Adds a journal fault-injection plan (builder style, `--chaos`).
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Attaches the invocation-wide phase profiler (builder style).
    /// Campaigns run by these hooks arm per-fault phase accounting.
    pub fn with_profile(mut self, profile: Arc<PhaseProfiler>) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Attaches the shared Chrome-trace timeline (builder style,
    /// `--trace-json`). Campaigns run by these hooks arm per-fault
    /// phase accounting so fault spans carry phase sub-spans.
    pub fn with_trace(mut self, trace: Arc<Mutex<CampaignTrace>>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Arms live telemetry into `dir` (builder style, `--telemetry`).
    pub fn with_telemetry(mut self, dir: impl Into<PathBuf>) -> Self {
        self.telemetry = Some(dir.into());
        self
    }

    /// Adds a solver numeric-chaos plan (builder style,
    /// `--numeric-chaos`).
    pub fn with_numeric_chaos(mut self, plan: NumericChaosPlan) -> Self {
        self.numeric_chaos = Some(plan);
        self
    }

    /// True when campaigns should arm per-fault phase accounting.
    pub fn profiling(&self) -> bool {
        self.profile.is_some() || self.trace.is_some()
    }

    /// Solve settings for simulations an experiment runs *outside* any
    /// campaign (ablation's integration-rule comparison), armed with
    /// the invocation-wide profiler so that solver time is attributed
    /// too instead of silently widening the unattributed gap.
    pub fn solve_settings(&self) -> SolveSettings {
        let mut settings = SolveSettings::default();
        if let Some(profile) = &self.profile {
            settings = settings.profile(Arc::clone(profile));
        }
        settings
    }

    /// Applies the hooks to one campaign's config: the journal under
    /// the campaign's `label` (with any chaos plan),
    /// the shared cancellation token, and phase-profiler arming.
    pub fn apply(&self, mut config: CampaignConfig, label: &str) -> CampaignConfig {
        if let Some(spec) = &self.journal {
            let mut jc = if spec.resume {
                JournalConfig::resume(&spec.path, label)
            } else {
                JournalConfig::fresh(&spec.path, label)
            };
            if let Some(plan) = &self.chaos {
                jc = jc.chaos(plan.clone());
            }
            config = config.journal(jc);
        }
        if let Some(cancel) = &self.cancel {
            config = config.cancel(cancel.clone());
        }
        if self.profiling() {
            config = config.profile(true);
        }
        if let Some(dir) = &self.telemetry {
            config = config.telemetry(TelemetryConfig::new(dir.clone()));
        }
        if let Some(plan) = &self.numeric_chaos {
            config = config.numeric_chaos(plan.clone());
        }
        config
    }

    /// Folds one completed campaign into the cost-attribution side:
    /// its phase rollup into the invocation-wide profiler, and its
    /// timeline (labelled `label`) onto the shared trace.
    pub fn observe(&self, label: &str, report: &CampaignReport) {
        if let Some(profile) = &self.profile {
            profile.add_snapshot(&report.stats.total_solver().phases);
        }
        if let Some(trace) = &self.trace {
            trace
                .lock()
                .expect("campaign trace lock")
                .add_campaign(label, report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_hooks_leave_the_config_unchanged() {
        let hooks = CampaignHooks::none();
        let config = hooks.apply(CampaignConfig::new(0.5), "e6.c1.correlation");
        assert!(config.journal.is_none());
        assert!(config.cancel.is_none());
    }

    #[test]
    fn journaled_hooks_label_each_campaign() {
        let hooks = CampaignHooks::journaled("/tmp/j.jsonl", true).with_cancel(CancelToken::new());
        let config = hooks.apply(CampaignConfig::new(0.5), "e6.c2.idd");
        let jc = config.journal.expect("journal configured");
        assert_eq!(jc.label, "e6.c2.idd");
        assert!(jc.resume);
        assert!(jc.chaos.is_none());
        assert!(config.cancel.is_some());
    }

    #[test]
    fn profiling_hooks_arm_every_campaign() {
        let hooks = CampaignHooks::none();
        assert!(!hooks.profiling());
        assert!(!hooks.apply(CampaignConfig::new(0.5), "e6.c1.correlation").profile);

        let profiler = Arc::new(PhaseProfiler::new());
        let trace = Arc::new(Mutex::new(CampaignTrace::new()));
        let hooks = CampaignHooks::none()
            .with_profile(Arc::clone(&profiler))
            .with_trace(Arc::clone(&trace));
        assert!(hooks.profiling());
        assert!(hooks.apply(CampaignConfig::new(0.5), "e6.c1.correlation").profile);
    }

    #[test]
    fn telemetry_hooks_arm_every_campaign() {
        let config = CampaignHooks::none().apply(CampaignConfig::new(0.5), "e6.c1.correlation");
        assert!(config.telemetry.is_none());
        let hooks = CampaignHooks::none().with_telemetry("/tmp/tele");
        let config = hooks.apply(CampaignConfig::new(0.5), "e6.c1.correlation");
        let tc = config.telemetry.expect("telemetry configured");
        assert_eq!(tc.dir, PathBuf::from("/tmp/tele"));
    }

    #[test]
    fn numeric_chaos_reaches_every_campaign_without_a_journal() {
        let config = CampaignHooks::none().apply(CampaignConfig::new(0.5), "e6.c1.correlation");
        assert!(config.numeric_chaos.is_none());
        let plan = NumericChaosPlan::parse("pivot@0,nan@2").unwrap();
        let hooks = CampaignHooks::none().with_numeric_chaos(plan.clone());
        let config = hooks.apply(CampaignConfig::new(0.5), "e6.c1.correlation");
        assert_eq!(config.numeric_chaos, Some(plan));
        assert!(config.journal.is_none(), "numeric chaos must not require a journal");
    }

    #[test]
    fn chaos_reaches_every_campaign_journal() {
        let hooks = CampaignHooks::journaled("/tmp/j.jsonl", false)
            .with_chaos(FaultPlan::parse("write@4..7").unwrap());
        let config = hooks.apply(CampaignConfig::new(0.5), "e6.c1.correlation");
        let jc = config.journal.expect("journal configured");
        assert_eq!(jc.chaos, Some(FaultPlan::parse("write@4..7").unwrap()));
    }
}
