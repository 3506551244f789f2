//! E6 — Figure 4: transient-response fault detection on the three
//! example circuits.
//!
//! Paper: the normalised cross-correlations of the fault-free and the 16
//! faulty variants of circuit 1 were compared, and the impulse responses
//! of circuits 2 and 3 against their 12 faulty variants; Figure 4 plots
//! the percentage of detection instances per faulty circuit (roughly
//! 60–100 %, with circuit 3 dipping to ≈70 % for some faults).

use std::fmt;

use anasim::metrics::SolverSnapshot;
use anasim::AnalysisError;
use faultsim::campaign::{run_campaign_sized, CampaignConfig, CampaignReport};

use crate::hooks::CampaignHooks;
use macrolib::process::ProcessParams;
use obs::{Histogram, Section};
use msbist::transtest::circuits::{circuit1, circuit2, circuit3, ExampleCircuit};
use msbist::transtest::detect::DetectionFigure;
use msbist::transtest::idd::run_idd_campaign_with;
use msbist::transtest::impulse::run_impulse_campaign_with;
use msbist::transtest::RELATIVE_THRESHOLD;

/// Worker threads for the E6 campaigns. Reports are deterministic for
/// any worker count, so this only affects wall-clock time.
pub const E6_WORKERS: usize = 4;

/// Aggregated solver and detection telemetry over every campaign E6
/// runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverSummary {
    /// Solver counters summed across golden and fault extractions.
    pub solver: SolverSnapshot,
    /// Histogram of the escalation rung each successful extraction
    /// settled on (index 0 = nominal solver settings).
    pub rung_histogram: Vec<usize>,
    /// Faults simulated across all campaigns.
    pub faults: u64,
    /// Faults with a non-`Undetected` outcome.
    pub detected: u64,
    /// Golden-extraction wall times, one sample per campaign (ms).
    pub golden_wall: Histogram,
    /// Per-fault wall times across all campaigns (ms).
    pub fault_wall: Histogram,
}

impl SolverSummary {
    /// Newton iterations across golden and fault extractions.
    pub fn newton_iterations(&self) -> u64 {
        self.solver.newton_iterations
    }

    /// Folds one campaign report into the summary.
    pub fn absorb(&mut self, report: &CampaignReport) {
        let stats = &report.stats;
        self.solver += stats.total_solver();
        self.faults += report.outcomes.len() as u64;
        self.detected += report.detected_count() as u64;
        self.golden_wall.record(stats.golden_wall.as_secs_f64() * 1e3);
        self.fault_wall.merge(&stats.fault_wall_ms());
        let h = stats.rung_histogram();
        if self.rung_histogram.len() < h.len() {
            self.rung_histogram.resize(h.len(), 0);
        }
        for (i, n) in h.iter().enumerate() {
            self.rung_histogram[i] += n;
        }
    }

    /// Renders the summary as a [`Section`] carrying the headline keys
    /// ([`obs::RunReport`] summaries look for `coverage`, `faults`,
    /// `solver.*` counters, `escalation_rungs` and the campaign
    /// timings).
    pub fn to_section(&self, name: &str) -> Section {
        let mut section = Section::new(name);
        section
            .counter("faults", self.faults)
            .counter("detected", self.detected)
            .value(
                "coverage",
                if self.faults == 0 {
                    100.0
                } else {
                    100.0 * self.detected as f64 / self.faults as f64
                },
            );
        for (counter, value) in anasim::metrics::COUNTER_NAMES.iter().zip(self.solver.as_array())
        {
            section.counter(counter, value);
        }
        section.histogram(
            "escalation_rungs",
            self.rung_histogram.iter().map(|&n| n as u64).collect(),
        );
        section
            .timings
            .insert("campaign.golden".to_owned(), self.golden_wall.clone());
        section
            .timings
            .insert("campaign.fault".to_owned(), self.fault_wall.clone());
        section
    }
}

/// The E6 report: the assembled Figure-4 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct E6Report {
    /// Correlation-method results for every circuit.
    pub correlation: DetectionFigure,
    /// Impulse-response-method results for circuits 2 and 3.
    pub impulse: DetectionFigure,
    /// Dynamic supply-current results (extension: the paper's refs
    /// [10, 11]).
    pub idd: DetectionFigure,
    /// Solver telemetry from the correlation, impulse-response and IDD
    /// campaigns.
    pub solver: SolverSummary,
}

impl E6Report {
    /// Minimum detection over all entries of a circuit (correlation
    /// method).
    pub fn correlation_floor(&self, circuit: u8) -> Option<f64> {
        self.correlation.floor(circuit)
    }

    /// Renders the report as an `e6` [`Section`]: detection coverage,
    /// solver counters, rung histogram and campaign timings, plus the
    /// per-circuit correlation floors.
    pub fn to_section(&self) -> Section {
        let mut section = self.solver.to_section("e6");
        for c in [1u8, 2, 3] {
            if let Some(floor) = self.correlation.floor(c) {
                section.value(&format!("circuit{c}_floor_pct"), floor);
            }
        }
        section
    }
}

impl fmt::Display for E6Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E6 — Figure 4: detection instances for faulty circuits")?;
        writeln!(f, "\ncorrelation method (approach 1):")?;
        write!(f, "{}", self.correlation.to_table())?;
        writeln!(f, "\nimpulse-response method (approach 2, circuits 2 & 3):")?;
        write!(f, "{}", self.impulse.to_table())?;
        writeln!(f, "\ndynamic supply-current monitoring (extension, refs [10, 11]):")?;
        write!(f, "{}", self.idd.to_table())?;
        for c in [1u8, 2, 3] {
            if let (Some(floor), Some(mean)) =
                (self.correlation.floor(c), self.correlation.mean(c))
            {
                writeln!(
                    f,
                    "circuit {c}: correlation floor {floor:.0} %, mean {mean:.0} %"
                )?;
            }
        }
        writeln!(
            f,
            "solver: {} Newton iterations, escalation-rung histogram {:?}",
            self.solver.newton_iterations(),
            self.solver.rung_histogram
        )?;
        Ok(())
    }
}

/// One Figure-4 method: runs a circuit's campaign under an engine
/// configuration whose threshold the method sizes itself.
type Method = fn(&ExampleCircuit, &CampaignConfig) -> Result<CampaignReport, AnalysisError>;

/// The correlation method (approach 1): the threshold is
/// [`RELATIVE_THRESHOLD`] of the golden correlation's peak magnitude.
fn run_correlation(
    c: &ExampleCircuit,
    config: &CampaignConfig,
) -> Result<CampaignReport, AnalysisError> {
    run_campaign_sized(
        c.bench.netlist(),
        &c.faults,
        config,
        |golden| RELATIVE_THRESHOLD * golden.iter().fold(0.0_f64, |m, v| m.max(v.abs())),
        |nl, settings| c.bench.correlation_signature_with(nl, settings),
    )
}

/// The impulse-response method (approach 2), read at the circuit's
/// impulse probe.
fn run_impulse(
    c: &ExampleCircuit,
    config: &CampaignConfig,
) -> Result<CampaignReport, AnalysisError> {
    run_impulse_campaign_with(&c.bench, c.impulse_probe, &c.faults, RELATIVE_THRESHOLD, config)
}

/// Dynamic supply-current monitoring (extension, refs [10, 11]).
fn run_idd(c: &ExampleCircuit, config: &CampaignConfig) -> Result<CampaignReport, AnalysisError> {
    run_idd_campaign_with(&c.bench, &c.vdd_sources, &c.faults, RELATIVE_THRESHOLD, config)
}

/// Runs `method`'s campaign on each of `circuits` in turn on the
/// resilient engine, journaled under `e6.c<N>.<name>` when the hooks
/// carry a journal, folds every report into `solver` and returns the
/// method's figure.
fn figure(
    name: &str,
    method: Method,
    circuits: &[&ExampleCircuit],
    workers: usize,
    hooks: &CampaignHooks,
    solver: &mut SolverSummary,
) -> Result<DetectionFigure, AnalysisError> {
    let mut figure = DetectionFigure::new();
    for circuit in circuits {
        let label = format!("e6.c{}.{name}", circuit.number);
        let config = hooks.apply(CampaignConfig::new(0.0).workers(workers), &label);
        let report = method(circuit, &config)?;
        solver.absorb(&report);
        figure.add_campaign(circuit.number, &report);
        hooks.observe(&label, &report);
    }
    Ok(figure)
}

/// Runs E6 across all three example circuits with the default worker
/// count.
pub fn run() -> E6Report {
    run_with(E6_WORKERS)
}

/// Runs E6 across all three example circuits on `workers` threads. The
/// report (and its canonical metrics) is identical for any worker
/// count.
pub fn run_with(workers: usize) -> E6Report {
    run_with_hooks(workers, &CampaignHooks::none()).expect("golden circuit must simulate")
}

/// [`run_with`] with crash-safety hooks: each campaign journals under
/// its own label (`e6.c1.correlation` ... `e6.c3.idd`) and polls the
/// shared cancellation token at fault boundaries.
///
/// # Errors
///
/// [`AnalysisError::Cancelled`] when the token was raised mid-campaign
/// (the journal then holds a clean partial checkpoint), or any error of
/// the golden extraction.
pub fn run_with_hooks(workers: usize, hooks: &CampaignHooks) -> Result<E6Report, AnalysisError> {
    let process = ProcessParams::nominal();
    let c1 = circuit1(&process);
    let c2 = circuit2(&process);
    let c3 = circuit3(&process);

    let mut solver = SolverSummary::default();
    let all = [&c1, &c2, &c3];
    let correlation = figure("correlation", run_correlation, &all, workers, hooks, &mut solver)?;
    let impulse = figure("impulse", run_impulse, &[&c2, &c3], workers, hooks, &mut solver)?;
    let idd = figure("idd", run_idd, &all, workers, hooks, &mut solver)?;
    Ok(E6Report {
        correlation,
        impulse,
        idd,
        solver,
    })
}

/// Runs only circuit 1's correlation campaign (the cheap part, used by
/// the Criterion bench and the CI metrics smoke test).
pub fn run_circuit1_only() -> E6Report {
    run_circuit1_only_with(E6_WORKERS)
}

/// [`run_circuit1_only`] on `workers` threads.
pub fn run_circuit1_only_with(workers: usize) -> E6Report {
    run_circuit1_only_with_hooks(workers, &CampaignHooks::none())
        .expect("golden circuit must simulate")
}

/// [`run_circuit1_only`] with crash-safety hooks. The campaign journals
/// under the same `e6.c1.correlation` label as the full E6 run, so an
/// interrupted `e6` invocation can be partially resumed through `e6c1`
/// and vice versa.
///
/// # Errors
///
/// [`AnalysisError::Cancelled`] on cooperative cancellation, or any
/// golden-extraction error.
pub fn run_circuit1_only_with_hooks(
    workers: usize,
    hooks: &CampaignHooks,
) -> Result<E6Report, AnalysisError> {
    let c1 = circuit1(&ProcessParams::nominal());
    let mut solver = SolverSummary::default();
    let correlation = figure("correlation", run_correlation, &[&c1], workers, hooks, &mut solver)?;
    Ok(E6Report {
        correlation,
        impulse: DetectionFigure::new(),
        idd: DetectionFigure::new(),
        solver,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_metrics_are_byte_identical_across_worker_counts() {
        let serial = run_circuit1_only_with(1);
        let parallel = run_circuit1_only_with(4);
        let canonical = |r: &E6Report| {
            let mut report = obs::RunReport::new();
            report.push(r.to_section());
            report.canonical_json_string()
        };
        assert_eq!(canonical(&serial), canonical(&parallel));
        // The canonical report carries real telemetry, not just zeros.
        let parsed = obs::json::parse(&canonical(&serial)).unwrap();
        let summary = parsed.get("summary").unwrap();
        assert!(summary.get("coverage").and_then(obs::json::JsonValue::as_f64) > Some(0.0));
        assert!(
            summary
                .get("newton_iterations")
                .and_then(obs::json::JsonValue::as_f64)
                > Some(0.0)
        );
    }

    #[test]
    fn circuit1_faults_are_broadly_detected() {
        let report = run_circuit1_only();
        let entries = report.correlation.circuit(1);
        assert_eq!(entries.len(), 16);
        // Paper shape: high detection across the board.
        let detected = entries.iter().filter(|e| e.pct > 40.0).count();
        assert!(
            detected >= 14,
            "only {detected}/16 strongly detected:\n{}",
            report.correlation.to_table()
        );
    }
}
