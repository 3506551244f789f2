//! Dynamic supply-current (IDD) testing.
//!
//! The paper's research background cites Binns & Taylor and Arguelles
//! et al. [refs 10, 11]: "the use of dynamic current testing to detect
//! faults in embedded analogue macros and mixed signal devices". This
//! module adds that third signature to the transient-response bench —
//! the chip's supply current under the PRBS stimulus — which observes
//! faults (bias shifts, shorted stages) that leave the *voltage* output
//! untouched.

use anasim::netlist::{DeviceId, Netlist};
use anasim::robust::SolveSettings;
use anasim::AnalysisError;
use faultsim::campaign::{run_campaign_sized, CampaignConfig, CampaignReport};
use faultsim::model::Fault;

use super::bench::TransientTestBench;

/// Summary statistics of a supply-current signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IddStats {
    /// Mean supply current (amperes, magnitude).
    pub mean: f64,
    /// Peak-to-peak dynamic component.
    pub peak_to_peak: f64,
    /// RMS of the dynamic (mean-removed) component.
    pub dynamic_rms: f64,
}

/// Computes summary statistics of a sampled IDD waveform.
pub fn idd_stats(samples: &[f64]) -> IddStats {
    if samples.is_empty() {
        return IddStats {
            mean: 0.0,
            peak_to_peak: 0.0,
            dynamic_rms: 0.0,
        };
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let dyn_rms = (samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
        / samples.len() as f64)
        .sqrt();
    IddStats {
        mean: mean.abs(),
        peak_to_peak: max - min,
        dynamic_rms: dyn_rms,
    }
}

/// The IDD signature of a netlist variant: the sampled, summed supply
/// currents of `supplies` under the bench stimulus and `settings`.
///
/// # Errors
///
/// Propagates simulator non-convergence and budget exhaustion.
pub fn idd_signature_with(
    bench: &TransientTestBench,
    netlist: &Netlist,
    supplies: &[DeviceId],
    settings: &SolveSettings,
) -> Result<Vec<f64>, AnalysisError> {
    bench.current_response_with(netlist, supplies, settings)
}

/// Runs an IDD fault campaign on the resilient engine. The detection
/// threshold is `threshold_rel` times the golden signature's mean
/// current, so it scales with the circuit's quiescent draw; `config`'s
/// ladder, budget and worker settings drive the per-fault extractions
/// (the threshold inside `config` is ignored).
///
/// # Errors
///
/// Fails only if the golden circuit cannot be simulated.
pub fn run_idd_campaign_with(
    bench: &TransientTestBench,
    supplies: &[DeviceId],
    faults: &[Fault],
    threshold_rel: f64,
    config: &CampaignConfig,
) -> Result<CampaignReport, AnalysisError> {
    run_campaign_sized(
        bench.netlist(),
        faults,
        config,
        |golden| threshold_rel * idd_stats(golden).mean.max(1e-12),
        |nl, settings| idd_signature_with(bench, nl, supplies, settings),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transtest::circuits::circuit1;
    use anasim::robust::{SolveBudget, SolverRung};
    use macrolib::process::ProcessParams;

    #[test]
    fn stats_of_constant_current() {
        let s = idd_stats(&[-1e-3, -1e-3, -1e-3]);
        assert!((s.mean - 1e-3).abs() < 1e-15);
        assert_eq!(s.peak_to_peak, 0.0);
        assert_eq!(s.dynamic_rms, 0.0);
    }

    #[test]
    fn stats_of_square_current() {
        let s = idd_stats(&[1e-3, 3e-3, 1e-3, 3e-3]);
        assert!((s.mean - 2e-3).abs() < 1e-15);
        assert!((s.peak_to_peak - 2e-3).abs() < 1e-15);
        assert!((s.dynamic_rms - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn circuit1_idd_signature_is_live() {
        let c1 = circuit1(&ProcessParams::nominal());
        let vdd = c1
            .bench
            .netlist()
            .find_device("c1:VDD")
            .expect("op1 supply exists");
        let settings = SolveSettings::default();
        let sig = idd_signature_with(&c1.bench, c1.bench.netlist(), &[vdd], &settings).unwrap();
        let stats = idd_stats(&sig);
        // OP1 draws on the order of 100 uA quiescent and modulates with
        // the stimulus.
        assert!(stats.mean > 10e-6, "mean {:.3e}", stats.mean);
        assert!(stats.mean < 10e-3, "mean {:.3e}", stats.mean);
    }

    #[test]
    fn idd_campaign_detects_supply_path_faults() {
        let c1 = circuit1(&ProcessParams::nominal());
        let vdd = c1.bench.netlist().find_device("c1:VDD").expect("supply");
        // n4 is the PMOS bias gate: stuck-at-0 floods every current
        // source — nearly invisible at the output, glaring in IDD.
        let faults: Vec<_> = c1
            .faults
            .iter()
            .filter(|f| f.name() == "n4-sa0" || f.name() == "n4-sa1")
            .cloned()
            .collect();
        let config = CampaignConfig::new(0.0)
            .ladder(vec![SolverRung::nominal()])
            .budget(SolveBudget::unlimited());
        let report = run_idd_campaign_with(&c1.bench, &[vdd], &faults, 0.05, &config).unwrap();
        // The threshold is sized from the campaign's own golden.
        let threshold = 0.05 * idd_stats(&report.golden).mean.max(1e-12);
        assert_eq!(report.threshold.to_bits(), threshold.to_bits());
        for o in &report.outcomes {
            assert!(
                o.figure_pct() > 60.0,
                "{} under-detected in IDD",
                o.fault.name()
            );
        }
    }
}
