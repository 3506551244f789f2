//! Design-choice ablations.
//!
//! Three choices DESIGN.md calls out are quantified here:
//!
//! 1. **Integration rule** — backward Euler vs trapezoidal accuracy on
//!    the switching-heavy SC integrator.
//! 2. **Signature kind** — raw sampled response vs normalised
//!    correlation for fault detection quality on circuit 1.
//! 3. **BIST overhead** — the transistor cost of the on-chip test
//!    macros against the fault classes the quick tests catch.

use std::fmt;

use anasim::mna::Integrator;
use anasim::netlist::Netlist;
use anasim::source::SourceWaveform;
use anasim::transient::TransientAnalysis;
use macrolib::process::ProcessParams;
use macrolib::sc_integrator::{ScIntegrator, ScIntegratorParams};
use msbist::adc::{AdcErrorModel, DualSlopeAdc};
use msbist::bist::overhead::OverheadBudget;
use msbist::bist::quick_test::{run_quick_tests, QuickTestLimits};
use msbist::transtest::circuits::circuit1;

/// Ablation 1 result: integration-rule accuracy on the SC integrator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegrationAblation {
    /// Per-cycle step error of backward Euler vs the ideal, volts.
    pub backward_euler_err: f64,
    /// Per-cycle step error of trapezoidal vs the ideal, volts.
    pub trapezoidal_err: f64,
    /// Steps the backward-Euler run took.
    pub backward_euler_steps: usize,
    /// Steps the trapezoidal run took.
    pub trapezoidal_steps: usize,
}

/// Runs the integration-rule ablation: 8 cycles of the behavioural SC
/// integrator at a +0.5 V input; the ideal output steps −73.5 mV per
/// cycle.
pub fn integration_rule(sim_dt: f64) -> IntegrationAblation {
    integration_rule_with(sim_dt, &anasim::robust::SolveSettings::default())
}

/// [`integration_rule`] under explicit [`anasim::robust::SolveSettings`]
/// (so a profiled invocation attributes these sweeps too).
pub fn integration_rule_with(
    sim_dt: f64,
    settings: &anasim::robust::SolveSettings,
) -> IntegrationAblation {
    let run = |method: Integrator| -> (f64, usize) {
        let mut nl = Netlist::new();
        let params = ScIntegratorParams::behavioral();
        let sc = ScIntegrator::build(&mut nl, "sc", &ProcessParams::nominal(), &params);
        nl.vsource(
            "VIN",
            sc.vin,
            Netlist::GROUND,
            SourceWaveform::dc(params.vag + 0.5),
        );
        let cycles = 8usize;
        let res = TransientAnalysis::new(params.clock_period * cycles as f64, sim_dt)
            .integrator(method)
            .with_settings(settings)
            .run(&nl)
            .expect("sc integrator must simulate");
        let w = res.voltage(sc.out);
        let ideal_step = 0.5 / 6.8;
        let mut worst: f64 = 0.0;
        for k in 1..=cycles {
            let expect = 2.5 - k as f64 * ideal_step;
            let got = w.value_at(k as f64 * params.clock_period);
            worst = worst.max((got - expect).abs());
        }
        (worst, res.len())
    };
    let (backward_euler_err, backward_euler_steps) = run(Integrator::BackwardEuler);
    let (trapezoidal_err, trapezoidal_steps) = run(Integrator::Trapezoidal);
    IntegrationAblation {
        backward_euler_err,
        trapezoidal_err,
        backward_euler_steps,
        trapezoidal_steps,
    }
}

/// Ablation 2 result: raw vs correlation vs spectral signatures on
/// circuit 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureAblation {
    /// Detection percentages per fault with raw sampling.
    pub raw: Vec<(String, f64)>,
    /// Detection percentages per fault with normalised correlation.
    pub correlation: Vec<(String, f64)>,
    /// Detection percentages per fault with the power-spectrum
    /// signature.
    pub spectral: Vec<(String, f64)>,
    /// Solver telemetry aggregated over the three campaigns.
    pub solver: super::e6::SolverSummary,
}

impl SignatureAblation {
    /// Coverage (fraction of faults above `min_pct`) for
    /// (raw, correlation, spectral).
    pub fn coverage(&self, min_pct: f64) -> (f64, f64, f64) {
        let frac = |v: &[(String, f64)]| {
            v.iter().filter(|(_, p)| *p >= min_pct).count() as f64 / v.len().max(1) as f64
        };
        (
            frac(&self.raw),
            frac(&self.correlation),
            frac(&self.spectral),
        )
    }
}

/// Runs the signature ablation with the default worker count.
pub fn signature_kind() -> SignatureAblation {
    signature_kind_with(super::e6::E6_WORKERS)
}

/// Runs the signature ablation without hooks (no journal, no profiler).
pub fn signature_kind_with(workers: usize) -> SignatureAblation {
    signature_kind_hooked(workers, &crate::hooks::CampaignHooks::none())
}

/// Runs the signature ablation on circuit 1's full fault universe,
/// using the resilient campaign engine so every fault yields a typed
/// outcome even when an extraction fails at nominal solver settings.
/// The three campaigns run under `hooks` (journal labels
/// `ablation.raw` / `.correlation` / `.spectral`, phase profiling,
/// trace lanes).
pub fn signature_kind_hooked(
    workers: usize,
    hooks: &crate::hooks::CampaignHooks,
) -> SignatureAblation {
    use faultsim::campaign::CampaignConfig;
    let c1 = circuit1(&ProcessParams::nominal());
    let raw_report = c1
        .bench
        .run_raw_campaign_with(
            &c1.faults,
            &hooks.apply(CampaignConfig::new(0.1).workers(workers), "ablation.raw"),
        )
        .expect("golden must simulate");
    hooks.observe("ablation.raw", &raw_report);
    let cor_report = c1
        .bench
        .run_correlation_campaign_with(
            &c1.faults,
            &hooks.apply(
                CampaignConfig::new(0.01).workers(workers),
                "ablation.correlation",
            ),
        )
        .expect("golden must simulate");
    hooks.observe("ablation.correlation", &cor_report);
    let spec_report = faultsim::campaign::run_campaign_sized(
        c1.bench.netlist(),
        &c1.faults,
        &hooks.apply(CampaignConfig::new(0.0).workers(workers), "ablation.spectral"),
        |psd| 0.002 * psd.iter().fold(0.0_f64, |m, &v| m.max(v)),
        |nl, settings| c1.bench.spectral_signature_with(nl, settings),
    )
    .expect("golden must simulate");
    hooks.observe("ablation.spectral", &spec_report);
    let series = |report: &faultsim::campaign::CampaignReport| {
        report
            .outcomes
            .iter()
            .map(|o| (o.fault.name().to_string(), o.figure_pct()))
            .collect()
    };
    let mut solver = super::e6::SolverSummary::default();
    solver.absorb(&raw_report);
    solver.absorb(&cor_report);
    solver.absorb(&spec_report);
    SignatureAblation {
        raw: series(&raw_report),
        correlation: series(&cor_report),
        spectral: series(&spec_report),
        solver,
    }
}

/// Ablation 3 result: BIST overhead vs quick-test catch rate.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadAblation {
    /// The paper's transistor budget.
    pub budget: OverheadBudget,
    /// `(fault description, caught by quick tests)` over a gross-fault
    /// set.
    pub catches: Vec<(String, bool)>,
}

impl OverheadAblation {
    /// Fraction of the gross faults the quick tests catch.
    pub fn catch_rate(&self) -> f64 {
        if self.catches.is_empty() {
            return 1.0;
        }
        self.catches.iter().filter(|(_, c)| *c).count() as f64 / self.catches.len() as f64
    }
}

/// Runs the overhead ablation: the 636-transistor test macros against a
/// set of gross (catastrophic-leaning) macro faults.
pub fn bist_overhead() -> OverheadAblation {
    let golden = run_quick_tests(&DualSlopeAdc::paper_measured(), &QuickTestLimits::paper());
    let limits = QuickTestLimits::paper().with_reference(golden.compressed.digital_signature);

    let gross_faults: Vec<(String, AdcErrorModel)> = vec![
        (
            "reference 20 % low".into(),
            AdcErrorModel {
                gain_error: -0.20,
                ..AdcErrorModel::paper_measured()
            },
        ),
        (
            "offset 5 LSB".into(),
            AdcErrorModel {
                offset_v: 0.05,
                ..AdcErrorModel::paper_measured()
            },
        ),
        (
            "integrator leak 100/s".into(),
            AdcErrorModel {
                leak_per_s: 100.0,
                ..AdcErrorModel::paper_measured()
            },
        ),
        (
            "severe ripple".into(),
            AdcErrorModel {
                ripple_v: 0.08,
                ..AdcErrorModel::paper_measured()
            },
        ),
    ];

    let catches = gross_faults
        .into_iter()
        .map(|(name, errors)| {
            let report = run_quick_tests(&DualSlopeAdc::with_errors(errors), &limits);
            (name, !report.passed())
        })
        .collect();

    OverheadAblation {
        budget: OverheadBudget::paper(),
        catches,
    }
}

/// Combined ablation report.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationReport {
    /// Integration-rule ablation.
    pub integration: IntegrationAblation,
    /// Signature-kind ablation.
    pub signature: SignatureAblation,
    /// Overhead ablation.
    pub overhead: OverheadAblation,
}

impl AblationReport {
    /// Renders the report as an `ablation` [`obs::Section`]: the
    /// integration-rule errors, the three coverage figures, the
    /// overhead numbers, plus the solver telemetry of the signature
    /// campaigns.
    pub fn to_section(&self) -> obs::Section {
        let mut section = self.signature.solver.to_section("ablation");
        let (raw_cov, cor_cov, spec_cov) = self.signature.coverage(40.0);
        section
            .counter("gross_faults", self.overhead.catches.len() as u64)
            .counter(
                "gross_faults_caught",
                self.overhead.catches.iter().filter(|(_, c)| *c).count() as u64,
            )
            .value(
                "backward_euler_err_mv",
                self.integration.backward_euler_err * 1e3,
            )
            .value("trapezoidal_err_mv", self.integration.trapezoidal_err * 1e3)
            .value("raw_coverage_pct", raw_cov * 100.0)
            .value("correlation_coverage_pct", cor_cov * 100.0)
            .value("spectral_coverage_pct", spec_cov * 100.0)
            .value("catch_rate_pct", self.overhead.catch_rate() * 100.0);
        section
    }
}

impl fmt::Display for AblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation 1 — integration rule on the SC integrator")?;
        let mut rules = obs::Table::new(&["rule", "worst cycle error (mV)", "steps"])
            .align(&[obs::Align::Left, obs::Align::Right, obs::Align::Right]);
        rules.row(&[
            "backward Euler".into(),
            format!("{:.1}", self.integration.backward_euler_err * 1e3),
            self.integration.backward_euler_steps.to_string(),
        ]);
        rules.row(&[
            "trapezoidal".into(),
            format!("{:.1}", self.integration.trapezoidal_err * 1e3),
            self.integration.trapezoidal_steps.to_string(),
        ]);
        write!(f, "{}", rules.render())?;
        let (raw_cov, cor_cov, spec_cov) = self.signature.coverage(40.0);
        writeln!(f, "\nAblation 2 — signature kind on circuit 1 (16 faults)")?;
        writeln!(
            f,
            "coverage at 40 % instances: raw {:.0} %, correlation {:.0} %, spectral {:.0} %",
            raw_cov * 100.0,
            cor_cov * 100.0,
            spec_cov * 100.0
        )?;
        writeln!(
            f,
            "campaign cost: {} Newton iterations, rung histogram {:?}",
            self.signature.solver.newton_iterations(),
            self.signature.solver.rung_histogram
        )?;
        writeln!(f, "\nAblation 3 — BIST overhead vs gross-fault catches")?;
        writeln!(
            f,
            "test transistors: {} analogue + {} digital = {} ({:.0} % of the ADC macro)",
            self.overhead.budget.analog_test_transistors,
            self.overhead.budget.digital_test_transistors,
            self.overhead.budget.test_total(),
            self.overhead.budget.overhead_fraction() * 100.0
        )?;
        let mut catches = obs::Table::new(&["gross fault", "quick tests"]);
        for (name, caught) in &self.overhead.catches {
            catches.row(&[
                name.clone(),
                if *caught { "caught" } else { "MISSED" }.into(),
            ]);
        }
        write!(f, "{}", catches.render())?;
        writeln!(
            f,
            "gross-fault catch rate: {:.0} %",
            self.overhead.catch_rate() * 100.0
        )
    }
}

/// Runs all three ablations with the default worker count.
pub fn run() -> AblationReport {
    run_with(super::e6::E6_WORKERS)
}

/// Runs all three ablations, the signature campaigns on `workers`
/// threads.
pub fn run_with(workers: usize) -> AblationReport {
    run_with_hooks(workers, &crate::hooks::CampaignHooks::none())
}

/// [`run_with`] under campaign hooks: the signature campaigns journal,
/// profile and trace through `hooks`, and the integration-rule sweeps
/// run under profiler-armed solve settings.
pub fn run_with_hooks(workers: usize, hooks: &crate::hooks::CampaignHooks) -> AblationReport {
    AblationReport {
        integration: integration_rule_with(50e-9, &hooks.solve_settings()),
        signature: signature_kind_hooked(workers, hooks),
        overhead: bist_overhead(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integration_rules_both_track_the_ideal() {
        let a = integration_rule(50e-9);
        assert!(a.backward_euler_err < 0.05, "BE err {}", a.backward_euler_err);
        assert!(a.trapezoidal_err < 0.05, "trap err {}", a.trapezoidal_err);
    }

    #[test]
    fn overhead_ablation_catches_gross_faults() {
        let a = bist_overhead();
        assert!(a.catch_rate() >= 0.75, "catch rate {}", a.catch_rate());
    }
}
