//! Approach 2: impulse-response comparison through state-space models.
//!
//! The paper's second method determines the poles, zeros and constants
//! of the fault-free and faulty circuits (HSPICE), builds state-space
//! representations (Matlab) and compares their impulse responses. Here
//! the same flow runs on the workspace substrates:
//!
//! * [`measured_impulse_response`] linearises a circuit around its
//!   operating trajectory by differencing a pulsed and an unpulsed
//!   transient (the simulation equivalent of HSPICE's small-signal
//!   view),
//! * [`fit_first_order_discrete`] identifies a first-order z-domain
//!   model (the SC integrator family, `H(z) = b·z⁻¹/(1 − a·z⁻¹)`) from
//!   cycle-sampled data by least squares,
//! * the fitted models go through [`linsys`] state-space machinery so
//!   golden and faulty impulse responses can be compared sample by
//!   sample.

use anasim::mna::MnaLayout;
use anasim::netlist::Netlist;
use anasim::source::SourceWaveform;
use anasim::transient::TransientAnalysis;
use anasim::AnalysisError;
use linsys::transfer::DiscreteTransferFunction;

use super::bench::{sample_columns, TransientTestBench};

/// Measures a circuit's small-signal impulse response by pulse
/// perturbation.
///
/// Two transients run: one with the stimulus source held at `bias`, one
/// with an added pulse of `amplitude` volts lasting `pulse_width`
/// seconds at `t = pulse_width`. The scaled difference of the sampled
/// outputs approximates `h(t)` (area-normalised).
///
/// # Errors
///
/// Propagates simulator non-convergence from either run.
pub fn measured_impulse_response(
    bench: &TransientTestBench,
    netlist: &Netlist,
    bias: f64,
    amplitude: f64,
    pulse_width: f64,
    sample_dt: f64,
    samples: usize,
) -> Result<Vec<f64>, AnalysisError> {
    assert!(pulse_width > 0.0, "pulse width must be positive");
    assert!(sample_dt > 0.0, "sample period must be positive");
    let t_stop = sample_dt * samples as f64 + 2.0 * pulse_width;

    let run = |wave: SourceWaveform| -> Result<Vec<f64>, AnalysisError> {
        // Rebuild a variant of the *given* netlist (which may carry an
        // injected fault) with the requested input drive.
        let mut nl = netlist.clone();
        match nl.device_mut(bench.stimulus_source()) {
            anasim::devices::Device::Vsource { wave: w, .. } => *w = wave,
            _ => unreachable!("bench validated the stimulus source"),
        }
        let sim_dt = (pulse_width / 4.0).min(sample_dt / 2.0);
        let analysis = TransientAnalysis::new(t_stop, sim_dt);
        let column = MnaLayout::new(&nl).node_index(bench.output());
        // Sample from the end of the pulse: the impulse approximation
        // y_diff/area ~ h(t) holds once the pulse has finished.
        let times = (0..samples).map(|k| 2.0 * pulse_width + k as f64 * sample_dt);
        let mut y = sample_columns(&analysis, &nl, &[column], times)?;
        Ok(y.swap_remove(0))
    };

    let baseline = run(SourceWaveform::dc(bias))?;
    let pulsed = run(SourceWaveform::Pwl(vec![
        (0.0, bias),
        (pulse_width, bias),
        (pulse_width + 1e-12, bias + amplitude),
        (2.0 * pulse_width, bias + amplitude),
        (2.0 * pulse_width + 1e-12, bias),
    ]))?;

    let area = amplitude * pulse_width;
    Ok(baseline
        .iter()
        .zip(&pulsed)
        .map(|(b, p)| (p - b) / area)
        .collect())
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
    use anasim::netlist::Netlist;

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

    #[test]
    fn rc_impulse_response_is_exponential() {
        // tau = 100 us.
        let bench = rc_bench(10e-9);
        let h = measured_impulse_response(
            &bench,
            bench.netlist(),
            1.0,
            0.1,
            5e-6,
            20e-6,
            20,
        )
        .unwrap();
        // h(t) = (1/tau)·e^{−t/tau}; check the ratio between samples.
        let tau = 100e-6;
        let expect_ratio = (-20e-6_f64 / tau).exp();
        for k in 1..10 {
            let ratio = h[k] / h[k - 1];
            assert!(
                (ratio - expect_ratio).abs() < 0.08,
                "sample {k}: ratio {ratio} vs {expect_ratio}"
            );
        }
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
