//! Approach 2: impulse-response comparison through state-space models.
//!
//! The paper's second method determines the poles, zeros and constants
//! of the fault-free and faulty circuits (HSPICE), builds state-space
//! representations (Matlab) and compares their impulse responses. Here
//! the same flow runs on the workspace substrates:
//!
//! * [`fit_first_order_discrete`] identifies a first-order z-domain
//!   model (the SC integrator family, `H(z) = b·z⁻¹/(1 − a·z⁻¹)`) from
//!   cycle-sampled PRBS data by least squares,
//! * the fitted models go through [`linsys`] state-space machinery to
//!   sampled impulse responses,
//! * [`run_impulse_campaign_with`] runs that identification for the
//!   golden and every faulty circuit on the campaign engine and compares
//!   the impulse responses sample by sample.

use anasim::netlist::{Netlist, NodeId};
use anasim::robust::SolveSettings;
use anasim::AnalysisError;
use faultsim::campaign::{run_campaign_sized, CampaignConfig, CampaignReport};
use faultsim::model::Fault;
use linsys::transfer::DiscreteTransferFunction;

use super::bench::TransientTestBench;

/// The mid-rail level the stimulus and the response are referred to
/// before identification.
const MID_RAIL: f64 = 2.5;

/// Taps of each fitted impulse response: the campaign's signature
/// length.
const TAPS: usize = 32;

/// Runs the impulse-response method (approach 2) as a fault campaign on
/// the resilient engine. Each netlist's response at `probe` is sampled
/// once per stimulus bit (the last sample of the bit), identified as a
/// first-order discrete system against the PRBS levels by
/// [`fit_first_order_discrete`], and the fitted model's first 32
/// impulse-response taps are its signature. The detection threshold is
/// `threshold_rel` times the golden response's peak magnitude (the
/// threshold inside `config` is ignored); `config`'s ladder, budget,
/// workers and journal drive the per-fault extractions.
///
/// # Errors
///
/// Fails only if the golden circuit cannot be simulated, or as
/// [`faultsim::campaign::run_campaign_with`] (cancellation, journal).
pub fn run_impulse_campaign_with(
    bench: &TransientTestBench,
    probe: NodeId,
    faults: &[Fault],
    threshold_rel: f64,
    config: &CampaignConfig,
) -> Result<CampaignReport, AnalysisError> {
    let stimulus = bench.stimulus();
    let one_period: Vec<f64> = stimulus
        .bits()
        .iter()
        .map(|&b| if b { stimulus.high() } else { stimulus.low() } - MID_RAIL)
        .collect();
    let input: Vec<f64> = std::iter::repeat_n(one_period, bench.periods())
        .flatten()
        .collect();
    let extract = |nl: &Netlist, settings: &SolveSettings| {
        let y = bench.response_at_with(nl, probe, settings)?;
        let per_bit = y.len() / input.len();
        let cycle_y: Vec<f64> = y
            .chunks(per_bit)
            .map(|bit| bit.last().copied().unwrap_or(0.0) - MID_RAIL)
            .collect();
        let fit = fit_first_order_discrete(&input, &cycle_y);
        Ok(fit.impulse_response(stimulus.bit_period(), TAPS))
    };
    let size = |golden: &[f64]| threshold_rel * golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    run_campaign_sized(bench.netlist(), faults, config, size, extract)
}

/// A first-order discrete model identified from data:
/// `y[n] = a·y[n−1] + b·x[n−1]`, i.e. `H(z) = b·z⁻¹ / (1 − a·z⁻¹)`.
///
/// For an ideal SC integrator `a = 1` (lossless accumulation) and
/// `b = ±Cs/Cf`; leakage faults pull `a` below 1 and gain faults move
/// `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirstOrderFit {
    /// Pole location (`a`).
    pub a: f64,
    /// Input gain (`b`).
    pub b: f64,
    /// Residual RMS of the fit.
    pub residual_rms: f64,
}

impl FirstOrderFit {
    /// The fitted model as a [`DiscreteTransferFunction`].
    pub fn transfer_function(&self, sample_time: f64) -> DiscreteTransferFunction {
        DiscreteTransferFunction::new(vec![0.0, self.b], vec![1.0, -self.a], sample_time)
    }

    /// Sampled impulse response of the fitted model.
    pub fn impulse_response(&self, sample_time: f64, n: usize) -> Vec<f64> {
        self.transfer_function(sample_time).impulse_response(n)
    }
}

/// Identifies the first-order model from input/output sequences sampled
/// once per cycle, by least squares over
/// `y[n] = a·y[n−1] + b·x[n−1]`.
///
/// # Panics
///
/// Panics if fewer than 3 samples are supplied or lengths mismatch.
pub fn fit_first_order_discrete(input: &[f64], output: &[f64]) -> FirstOrderFit {
    assert_eq!(input.len(), output.len(), "length mismatch");
    assert!(input.len() >= 3, "need at least 3 samples");
    // Normal equations for [a b]: minimise Σ (y[n] − a·y[n−1] − b·x[n−1])².
    let mut syy = 0.0;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut sy_y = 0.0;
    let mut sx_y = 0.0;
    for n in 1..output.len() {
        let y1 = output[n - 1];
        let x1 = input[n - 1];
        let y = output[n];
        syy += y1 * y1;
        sxx += x1 * x1;
        sxy += x1 * y1;
        sy_y += y1 * y;
        sx_y += x1 * y;
    }
    let det = syy * sxx - sxy * sxy;
    let (a, b) = if det.abs() < 1e-30 {
        (0.0, 0.0)
    } else {
        (
            (sy_y * sxx - sx_y * sxy) / det,
            (sx_y * syy - sy_y * sxy) / det,
        )
    };
    // Residual.
    let mut ss = 0.0;
    for n in 1..output.len() {
        let pred = a * output[n - 1] + b * input[n - 1];
        ss += (output[n] - pred).powi(2);
    }
    FirstOrderFit {
        a,
        b,
        residual_rms: (ss / (output.len() - 1) as f64).sqrt(),
    }
}

/// Compares golden and faulty impulse responses with the paper's
/// detection-instance metric: the percentage of samples deviating beyond
/// `threshold`.
///
/// # Panics
///
/// Panics if the responses differ in length or are empty.
pub fn impulse_detection_instances(golden: &[f64], faulty: &[f64], threshold: f64) -> f64 {
    sigproc::correlation::detection_instances(golden, faulty, threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transtest::stimulus::PrbsStimulus;
    use crate::transtest::RELATIVE_THRESHOLD;
    use anasim::source::SourceWaveform;
    use faultsim::campaign::{FaultStatus, JournalConfig};

    fn rc_bench(tau_c: f64) -> TransientTestBench {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        let src = nl.vsource("VSTIM", vin, Netlist::GROUND, SourceWaveform::dc(0.0));
        nl.resistor("R1", vin, out, 10e3);
        nl.capacitor("C1", out, Netlist::GROUND, tau_c);
        TransientTestBench::new(
            nl,
            src,
            out,
            PrbsStimulus::paper_circuit1(),
            4,
            5e-6,
        )
    }

    /// The impulse method composed by hand from the public calls, one
    /// plain simulation per netlist: each fault's detection percentage.
    fn hand_composed(bench: &TransientTestBench, faults: &[Fault]) -> Vec<f64> {
        let s = bench.stimulus();
        let input: Vec<f64> = s
            .bits()
            .iter()
            .map(|&b| if b { s.high() } else { s.low() } - 2.5)
            .collect();
        let impulse_of = |nl: &Netlist| {
            let y = bench
                .response_at_with(nl, bench.output(), &SolveSettings::default())
                .unwrap();
            let per_bit = y.len() / input.len();
            let cycle_y: Vec<f64> = y
                .chunks(per_bit)
                .map(|bit| bit.last().copied().unwrap_or(0.0) - 2.5)
                .collect();
            fit_first_order_discrete(&input, &cycle_y).impulse_response(s.bit_period(), 32)
        };
        let golden = impulse_of(bench.netlist());
        let peak = golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        faults
            .iter()
            .map(|f| {
                let h = impulse_of(&faultsim::inject::inject(bench.netlist(), f));
                impulse_detection_instances(&golden, &h, RELATIVE_THRESHOLD * peak)
            })
            .collect()
    }

    #[test]
    fn impulse_campaign_matches_the_hand_composed_method_and_resumes() {
        let bench = rc_bench(10e-9);
        let vin = bench.netlist().find_node("vin").unwrap();
        let out = bench.output();
        let faults = vec![
            Fault::stuck_at_0("out-sa0", out),
            Fault::bridge("vin-out", vin, out).with_impedance(20e3),
            Fault::bridge("out-gnd", out, Netlist::GROUND).with_impedance(1e6),
        ];
        let run = |config: &CampaignConfig| {
            run_impulse_campaign_with(&bench, out, &faults, RELATIVE_THRESHOLD, config).unwrap()
        };
        let report = run(&CampaignConfig::new(0.0));
        let hand = hand_composed(&bench, &faults);
        for (o, pct) in report.outcomes.iter().zip(hand) {
            let name = o.fault.name();
            let (got, detected) = match o.status {
                FaultStatus::Detected { pct } => (pct, true),
                FaultStatus::Undetected { pct } => (pct, false),
                ref other => panic!("{name}: {other:?}"),
            };
            assert_eq!(got.to_bits(), pct.to_bits(), "{name}: {got} % vs {pct} %");
            assert_eq!(detected, pct >= 50.0, "{name}: verdict");
        }

        // The stuck output is detected; the two resistive bridges move
        // the fit too little.
        assert_eq!(report.detected_count(), 1);

        // A campaign resumed from its complete journal replays every
        // fault and reports exactly what the fresh run did.
        let dir = std::env::temp_dir().join("msbist-impulse-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.jsonl");
        let _ = std::fs::remove_file(&path);
        let journaled = |jc| run(&CampaignConfig::new(0.0).journal(jc));
        let fresh = journaled(JournalConfig::fresh(&path, "impulse"));
        let resumed = journaled(JournalConfig::resume(&path, "impulse"));
        assert_eq!(fresh.canonical_text(), report.canonical_text());
        assert_eq!(resumed.canonical_text(), fresh.canonical_text());
    }

    #[test]
    fn first_order_fit_recovers_known_model() {
        // Simulate y[n] = 0.9 y[n-1] + 0.2 x[n-1] exactly.
        let x: Vec<f64> = (0..50).map(|n| ((n * 7) % 5) as f64 - 2.0).collect();
        let mut y = vec![0.0];
        for n in 1..50 {
            y.push(0.9 * y[n - 1] + 0.2 * x[n - 1]);
        }
        let fit = fit_first_order_discrete(&x, &y);
        assert!((fit.a - 0.9).abs() < 1e-9, "a = {}", fit.a);
        assert!((fit.b - 0.2).abs() < 1e-9, "b = {}", fit.b);
        assert!(fit.residual_rms < 1e-9);
    }

    #[test]
    fn fitted_impulse_response_matches_model() {
        let fit = FirstOrderFit {
            a: 0.8,
            b: 0.5,
            residual_rms: 0.0,
        };
        let h = fit.impulse_response(1.0, 5);
        assert_eq!(h[0], 0.0);
        assert!((h[1] - 0.5).abs() < 1e-12);
        assert!((h[2] - 0.4).abs() < 1e-12);
        assert!((h[3] - 0.32).abs() < 1e-12);
    }

    #[test]
    fn detection_metric_distinguishes_models() {
        let golden = FirstOrderFit {
            a: 1.0,
            b: -1.0 / 6.8,
            residual_rms: 0.0,
        };
        let leaky = FirstOrderFit {
            a: 0.9,
            b: -1.0 / 6.8,
            residual_rms: 0.0,
        };
        let hg = golden.impulse_response(5e-6, 40);
        let hf = leaky.impulse_response(5e-6, 40);
        let pct = impulse_detection_instances(&hg, &hf, 0.01);
        assert!(pct > 50.0, "pct = {pct}");
    }
}
