//! The transient-response test bench (approach 1: correlation).

use std::ops::ControlFlow;

use anasim::devices::Device;
use anasim::mna::MnaLayout;
use anasim::netlist::{DeviceId, Netlist, NodeId};
use anasim::robust::SolveSettings;
use anasim::transient::TransientAnalysis;
use anasim::waveform::Sampler;
use anasim::AnalysisError;
use faultsim::campaign::{run_campaign, run_campaign_with, CampaignConfig, CampaignReport};
use faultsim::model::Fault;
use sigproc::correlation::{cross_correlation, energy};

use super::stimulus::PrbsStimulus;

/// A self-contained transient-response test bench: a circuit netlist
/// with its PRBS stimulus source, the observed output node, and the
/// sampling configuration.
///
/// The bench can sample raw responses, form correlation signatures and
/// run whole fault campaigns, reproducing the paper's Figure 4 flow.
#[derive(Debug, Clone)]
pub struct TransientTestBench {
    netlist: Netlist,
    stimulus_source: DeviceId,
    output: NodeId,
    stimulus: PrbsStimulus,
    samples_per_bit: usize,
    sim_dt: f64,
    periods: usize,
}

impl TransientTestBench {
    /// Creates a bench around `netlist`.
    ///
    /// `stimulus_source` must be the voltage source playing the PRBS
    /// (its waveform is overwritten with the stimulus), `output` the
    /// observed node.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_bit` is zero, `sim_dt` is not positive, or
    /// `stimulus_source` is not a voltage source of `netlist`.
    pub fn new(
        mut netlist: Netlist,
        stimulus_source: DeviceId,
        output: NodeId,
        stimulus: PrbsStimulus,
        samples_per_bit: usize,
        sim_dt: f64,
    ) -> Self {
        assert!(samples_per_bit >= 1, "need at least one sample per bit");
        assert!(sim_dt > 0.0, "sim_dt must be positive");
        match netlist.device_mut(stimulus_source) {
            Device::Vsource { wave, .. } => *wave = stimulus.source_waveform(),
            other => panic!("stimulus source must be a vsource, found {other:?}"),
        }
        TransientTestBench {
            netlist,
            stimulus_source,
            output,
            stimulus,
            samples_per_bit,
            sim_dt,
            periods: 1,
        }
    }

    /// Runs the stimulus for `periods` full PRBS sequences instead of
    /// one. Stateful circuits (the SC integrators) need several periods
    /// for their dynamics to traverse the observable range — the paper
    /// simulated 2 ms (≈27 sequence periods at the 5 µs clock).
    ///
    /// # Panics
    ///
    /// Panics if `periods` is zero.
    pub fn with_periods(mut self, periods: usize) -> Self {
        assert!(periods >= 1, "need at least one period");
        self.periods = periods;
        self
    }

    /// The golden netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The stimulus configuration.
    pub fn stimulus(&self) -> &PrbsStimulus {
        &self.stimulus
    }

    /// The stimulus source device.
    pub fn stimulus_source(&self) -> DeviceId {
        self.stimulus_source
    }

    /// The observed output node.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Number of response samples a run produces.
    pub fn sample_count(&self) -> usize {
        self.stimulus.bits().len() * self.samples_per_bit * self.periods
    }

    /// Number of PRBS sequence periods a run covers.
    pub fn periods(&self) -> usize {
        self.periods
    }

    /// Simulates a (possibly fault-injected) variant of the bench
    /// netlist and samples the output uniformly.
    ///
    /// # Errors
    ///
    /// Propagates simulator non-convergence.
    pub fn response(&self, netlist: &Netlist) -> Result<Vec<f64>, AnalysisError> {
        self.response_with(netlist, &SolveSettings::default())
    }

    /// Like [`TransientTestBench::response_with`] but probing an
    /// arbitrary node (e.g. an internal sub-macro output) — the hook
    /// the resilient campaign engine uses to retry extractions down the
    /// escalation ladder.
    ///
    /// # Errors
    ///
    /// Propagates simulator non-convergence and budget exhaustion.
    pub fn response_at_with(
        &self,
        netlist: &Netlist,
        node: NodeId,
        settings: &SolveSettings,
    ) -> Result<Vec<f64>, AnalysisError> {
        let analysis = self.analysis().with_settings(settings);
        let column = MnaLayout::new(netlist).node_index(node);
        let mut y = sample_columns(&analysis, netlist, &[column], self.sample_times())?;
        Ok(y.swap_remove(0))
    }

    /// [`TransientTestBench::response`] under explicit [`SolveSettings`].
    ///
    /// # Errors
    ///
    /// Propagates simulator non-convergence and budget exhaustion.
    pub fn response_with(
        &self,
        netlist: &Netlist,
        settings: &SolveSettings,
    ) -> Result<Vec<f64>, AnalysisError> {
        self.response_at_with(netlist, self.output, settings)
    }

    /// The bench's transient analysis: every PRBS period at `sim_dt`.
    fn analysis(&self) -> TransientAnalysis {
        let t_stop = self.stimulus.total_duration() * self.periods as f64;
        TransientAnalysis::new(t_stop, self.sim_dt)
    }

    /// The response grid: one sample in the middle of each sample
    /// period.
    fn sample_times(&self) -> impl Iterator<Item = f64> + Clone {
        let dt = self.stimulus.sample_period(self.samples_per_bit);
        (0..self.sample_count()).map(move |k| (k as f64 + 0.5) * dt)
    }

    /// Samples the summed branch currents of the given voltage-defined
    /// devices (e.g. all supply sources) on the response grid under
    /// `settings` — the dynamic supply-current waveform used by IDD
    /// testing.
    ///
    /// # Errors
    ///
    /// Propagates simulator non-convergence and budget exhaustion;
    /// returns [`AnalysisError::UnknownElement`] if a device has no
    /// branch current.
    pub fn current_response_with(
        &self,
        netlist: &Netlist,
        devices: &[DeviceId],
        settings: &SolveSettings,
    ) -> Result<Vec<f64>, AnalysisError> {
        let layout = MnaLayout::new(netlist);
        let columns = devices
            .iter()
            .map(|&d| {
                layout.branch_index(d).map(Some).ok_or_else(|| {
                    AnalysisError::UnknownElement(format!(
                        "device {} has no branch current",
                        netlist.device_name(d)
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let analysis = self.analysis().with_settings(settings);
        let waves = sample_columns(&analysis, netlist, &columns, self.sample_times())?;
        // Summed per sample in device order, as the stored waveforms
        // were.
        Ok((0..self.sample_count())
            .map(|k| waves.iter().map(|w| w[k]).sum())
            .collect())
    }

    /// The correlation signature `R(y, p)` of a netlist variant: the
    /// cross-correlation of the (mean-removed) sampled output with the
    /// stimulus-derived correlation signal, normalised by the
    /// *stimulus* energy only.
    ///
    /// With a PRBS stimulus this approximates the composite impulse
    /// response of the propagating path — including its gain, so faults
    /// that attenuate or rescale the response (bias shifts, stuck
    /// stages) remain visible. Normalising by the response energy as
    /// well would erase exactly those faults, since any scaled copy of
    /// the golden response would produce an identical signature.
    ///
    /// # Errors
    ///
    /// Propagates simulator non-convergence.
    pub fn correlation_signature(&self, netlist: &Netlist) -> Result<Vec<f64>, AnalysisError> {
        self.correlation_signature_with(netlist, &SolveSettings::default())
    }

    /// [`TransientTestBench::correlation_signature`] under explicit
    /// [`SolveSettings`].
    ///
    /// # Errors
    ///
    /// Propagates simulator non-convergence and budget exhaustion.
    pub fn correlation_signature_with(
        &self,
        netlist: &Netlist,
        settings: &SolveSettings,
    ) -> Result<Vec<f64>, AnalysisError> {
        // The raw response is correlated — deliberately without mean
        // removal: a shifted DC operating level is one of the strongest
        // fault signatures (stuck stages, bias faults), and the PRBS's
        // slight bit imbalance carries it into the correlation function.
        Ok(self.correlate(&self.response_with(netlist, settings)?))
    }

    /// The correlation of a sampled response `y` with the stimulus's
    /// correlation signal over every period, normalised by that
    /// signal's energy.
    fn correlate(&self, y: &[f64]) -> Vec<f64> {
        let one_period = self.stimulus.correlation_signal(self.samples_per_bit);
        let p: Vec<f64> = std::iter::repeat_n(one_period, self.periods)
            .flatten()
            .collect();
        let e_p = energy(&p);
        let r = cross_correlation(y, &p);
        r.into_iter().map(|v| v / e_p).collect()
    }

    /// Runs a fault campaign with correlation signatures, counting
    /// detection instances against `threshold`.
    ///
    /// # Errors
    ///
    /// Fails only if the golden circuit cannot be simulated; per-fault
    /// failures are recorded in the report.
    pub fn run_correlation_campaign(
        &self,
        faults: &[Fault],
        threshold: f64,
    ) -> Result<CampaignReport, AnalysisError> {
        run_campaign(&self.netlist, faults, threshold, |nl| {
            self.correlation_signature(nl)
        })
    }

    /// Runs a correlation-signature fault campaign on the resilient
    /// engine: escalation ladder, per-fault budgets and optional
    /// parallel workers from `config`.
    ///
    /// # Errors
    ///
    /// Fails only if the golden circuit cannot be simulated; per-fault
    /// failures become typed [`faultsim::campaign::FaultStatus`]es.
    pub fn run_correlation_campaign_with(
        &self,
        faults: &[Fault],
        config: &CampaignConfig,
    ) -> Result<CampaignReport, AnalysisError> {
        run_campaign_with(&self.netlist, faults, config, |nl, settings| {
            self.correlation_signature_with(nl, settings)
        })
    }

    /// The spectral signature of a netlist variant under `settings`: the
    /// one-sided power spectrum (Hann periodogram) of the sampled
    /// response.
    ///
    /// The paper motivates detection in the frequency domain directly:
    /// "possible minor changes to the signal spectrum, indicative of
    /// circuit faults, can be detected". The spectrum is insensitive to
    /// time alignment, trading away the lag localisation the
    /// correlation signature provides.
    ///
    /// # Errors
    ///
    /// Propagates simulator non-convergence and budget exhaustion.
    pub fn spectral_signature_with(
        &self,
        netlist: &Netlist,
        settings: &SolveSettings,
    ) -> Result<Vec<f64>, AnalysisError> {
        let y = self.response_with(netlist, settings)?;
        let sample_hz = 1.0 / self.stimulus.sample_period(self.samples_per_bit);
        let window = sigproc::spectrum::Window::Hann;
        let psd = sigproc::spectrum::periodogram(&y, window, sample_hz);
        Ok(psd.power)
    }

    /// Runs a fault campaign on raw sampled responses (no correlation) —
    /// the simplest possible signature, used as an ablation baseline —
    /// on the resilient engine.
    ///
    /// # Errors
    ///
    /// Fails only if the golden circuit cannot be simulated.
    pub fn run_raw_campaign_with(
        &self,
        faults: &[Fault],
        config: &CampaignConfig,
    ) -> Result<CampaignReport, AnalysisError> {
        run_campaign_with(&self.netlist, faults, config, |nl, settings| {
            self.response_with(nl, settings)
        })
    }
}

/// Marches `analysis` over `netlist` and reads each unknown in
/// `columns` (`None`, ground, reads `0.0`) at the ascending `times`,
/// bit for bit as [`anasim::waveform::Waveform::value_at`] reads the
/// stored column, while holding only the samples: one vector per
/// column.
pub(crate) fn sample_columns(
    analysis: &TransientAnalysis,
    netlist: &Netlist,
    columns: &[Option<usize>],
    times: impl Iterator<Item = f64> + Clone,
) -> Result<Vec<Vec<f64>>, AnalysisError> {
    let mut samplers: Vec<_> = columns.iter().map(|_| Sampler::new(times.clone())).collect();
    analysis.march(netlist, |t, x| {
        for (sampler, column) in samplers.iter_mut().zip(columns) {
            sampler.push(t, column.map_or(0.0, |i| x[i]));
        }
        ControlFlow::Continue(())
    })?;
    Ok(samplers.into_iter().map(Sampler::finish).collect())
}

/// The stored-then-sampled path the streaming sampler replaced: a full
/// [`anasim::transient::TransientResult`] read with
/// [`anasim::waveform::Waveform::value_at`], kept as the test oracle the
/// bench must match bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;
    use anasim::transient::TransientResult;

    /// The stored transient `response_at_with` and
    /// `current_response_with` used to sample.
    pub(super) fn run(
        bench: &TransientTestBench,
        netlist: &Netlist,
        settings: &SolveSettings,
    ) -> TransientResult {
        bench
            .analysis()
            .with_settings(settings)
            .run(netlist)
            .expect("simulates")
    }

    pub(super) fn voltage(
        bench: &TransientTestBench,
        result: &TransientResult,
        node: NodeId,
    ) -> Vec<f64> {
        let w = result.voltage(node);
        bench.sample_times().map(|t| w.value_at(t)).collect()
    }

    pub(super) fn current(
        bench: &TransientTestBench,
        result: &TransientResult,
        devices: &[DeviceId],
    ) -> Vec<f64> {
        let waves: Vec<_> = devices
            .iter()
            .map(|&d| result.branch_current(d).expect("a branch"))
            .collect();
        bench
            .sample_times()
            .map(|t| waves.iter().map(|w| w.value_at(t)).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anasim::source::SourceWaveform;
    use faultsim::model::Fault;

    fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{k}]: {g:e} vs {w:e}");
        }
    }

    /// On circuit 1, golden and two faults, every streamed signature
    /// equals the stored-then-sampled oracle by `to_bits`: the output
    /// response, an internal node, the correlation signature, and the
    /// supply current over one and over two devices.
    #[test]
    fn streamed_signatures_match_the_stored_oracle() {
        use crate::transtest::circuits::circuit1;
        use macrolib::process::ProcessParams;

        let c1 = circuit1(&ProcessParams::nominal());
        let bench = &c1.bench;
        let golden = bench.netlist();
        let vdd = c1.vdd_sources[0];
        let vref = golden.find_device("c1:VREF").expect("reference source");
        let internal = golden.find_node("c1:n5").expect("an internal node");
        let settings = SolveSettings::default();
        let mut variants = vec![("golden".to_string(), golden.clone())];
        for name in ["n4-sa0", "n8-n9-dsa1"] {
            let fault = c1.faults.iter().find(|f| f.name() == name).expect(name);
            variants.push((name.to_string(), faultsim::inject::inject(golden, fault)));
        }
        for (name, nl) in &variants {
            let stored = oracle::run(bench, nl, &settings);
            let y = oracle::voltage(bench, &stored, bench.output());
            assert_bits(
                &format!("{name} response"),
                &bench.response_at_with(nl, bench.output(), &settings).unwrap(),
                &y,
            );
            assert_bits(
                &format!("{name} internal"),
                &bench.response_at_with(nl, internal, &settings).unwrap(),
                &oracle::voltage(bench, &stored, internal),
            );
            assert_bits(
                &format!("{name} correlation"),
                &bench.correlation_signature_with(nl, &settings).unwrap(),
                &bench.correlate(&y),
            );
            for devices in [&[vdd][..], &[vdd, vref]] {
                assert_bits(
                    &format!("{name} current over {} devices", devices.len()),
                    &bench.current_response_with(nl, devices, &settings).unwrap(),
                    &oracle::current(bench, &stored, devices),
                );
            }
        }
    }

    #[test]
    fn a_device_without_a_branch_current_is_rejected() {
        let (bench, _) = rc_bench();
        let r1 = bench.netlist().find_device("R1").unwrap();
        let err = bench
            .current_response_with(bench.netlist(), &[r1], &SolveSettings::default())
            .unwrap_err();
        assert!(matches!(err, AnalysisError::UnknownElement(_)), "{err:?}");
    }

    /// A simple RC low-pass as the circuit under test: fast to simulate
    /// and fully analysable.
    fn rc_bench() -> (TransientTestBench, NodeId) {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        let src = nl.vsource("VSTIM", vin, Netlist::GROUND, SourceWaveform::dc(0.0));
        nl.resistor("R1", vin, out, 10e3);
        nl.capacitor("C1", out, Netlist::GROUND, 2e-9); // tau = 20 us
        let stim = PrbsStimulus::paper_circuit1();
        (
            TransientTestBench::new(nl, src, out, stim, 4, 5e-6),
            out,
        )
    }

    #[test]
    fn response_has_expected_length() {
        let (bench, _) = rc_bench();
        let y = bench.response(bench.netlist()).unwrap();
        assert_eq!(y.len(), 60); // 15 bits * 4 samples
    }

    #[test]
    fn response_tracks_stimulus_levels() {
        let (bench, _) = rc_bench();
        let y = bench.response(bench.netlist()).unwrap();
        // tau (20 us) << bit period (250 us): by the last sample of each
        // bit the output has settled to the 0/5 V stimulus level.
        for (k, chunk) in y.chunks(4).enumerate() {
            let v = chunk[3];
            assert!(!(0.3..=4.7).contains(&v), "bit {k} unsettled at {v}");
        }
    }

    #[test]
    fn correlation_signature_scales_with_response_gain() {
        // Halving the response amplitude must halve the signature: the
        // impulse-response estimate keeps gain information.
        let (bench, _) = rc_bench();
        let sig = bench.correlation_signature(bench.netlist()).unwrap();
        assert!(sig.iter().any(|v| v.abs() > 0.1));
        // An attenuated variant: double R1 so the divider halves... use a
        // netlist with an output attenuator instead.
        let mut nl = bench.netlist().clone();
        let out = nl.find_node("out").unwrap();
        let vin = nl.find_node("vin").unwrap();
        nl.resistor("RATT", vin, out, 10e3); // parallel path halves swing? keep simple: load out
        let sig2 = bench.correlation_signature(&nl).unwrap();
        // The loaded circuit has different gain, so the signature differs.
        let diff = sig
            .iter()
            .zip(&sig2)
            .filter(|(a, b)| (*a - *b).abs() > 0.01)
            .count();
        assert!(diff > sig.len() / 4, "only {diff} lags differ");
    }

    #[test]
    fn campaign_detects_output_stuck() {
        let (bench, out) = rc_bench();
        let faults = vec![
            Fault::stuck_at_0("out-sa0", out),
            Fault::stuck_at_1("out-sa1", out),
        ];
        let report = bench.run_correlation_campaign(&faults, 0.01).unwrap();
        for o in &report.outcomes {
            assert!(
                o.figure_pct() > 25.0,
                "{} weakly detected ({:?})",
                o.fault.name(),
                o.detection_pct()
            );
        }
    }

    #[test]
    fn raw_and_correlation_campaigns_agree_on_hard_faults() {
        let (bench, out) = rc_bench();
        let faults = vec![Fault::stuck_at_1("out-sa1", out)];
        let raw = bench
            .run_raw_campaign_with(&faults, &CampaignConfig::new(0.5))
            .unwrap();
        let cor = bench.run_correlation_campaign(&faults, 0.01).unwrap();
        assert!(raw.outcomes[0].is_detected(50.0));
        // The correlation of this fast RC is concentrated near zero lag,
        // so fewer instances deviate than with raw sampling; it is still
        // a clear detection.
        assert!(cor.outcomes[0].is_detected(25.0));
    }

    #[test]
    fn spectral_signature_detects_dynamics_change() {
        // Doubling the RC time constant moves the response spectrum.
        let (bench, _) = rc_bench();
        let nominal = SolveSettings::default();
        let golden = bench.spectral_signature_with(bench.netlist(), &nominal).unwrap();
        let mut slow = bench.netlist().clone();
        let c1 = slow.find_device("C1").unwrap();
        match slow.device_mut(c1) {
            Device::Capacitor { farads, .. } => *farads *= 4.0,
            _ => unreachable!(),
        }
        let faulty = bench.spectral_signature_with(&slow, &nominal).unwrap();
        assert_eq!(golden.len(), faulty.len());
        let peak = golden.iter().fold(0.0_f64, |m, &v| m.max(v));
        let moved = golden
            .iter()
            .zip(&faulty)
            .filter(|(a, b)| (*a - *b).abs() > 0.001 * peak)
            .count();
        assert!(moved > golden.len() / 8, "only {moved} bins moved");
    }

    #[test]
    fn spectral_campaign_detects_stuck_output() {
        let (bench, out) = rc_bench();
        let golden = bench
            .spectral_signature_with(bench.netlist(), &SolveSettings::default())
            .unwrap();
        let peak = golden.iter().fold(0.0_f64, |m, &v| m.max(v));
        let faults = vec![Fault::stuck_at_0("out-sa0", out)];
        let config = CampaignConfig::new(0.001 * peak);
        let report = run_campaign_with(bench.netlist(), &faults, &config, |nl, settings| {
            bench.spectral_signature_with(nl, settings)
        })
        .unwrap();
        assert!(
            report.outcomes[0].figure_pct() > 25.0,
            "{:?}",
            report.outcomes[0].detection_pct()
        );
    }

    #[test]
    #[should_panic(expected = "vsource")]
    fn non_source_stimulus_rejected() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        let r = nl.resistor("R1", vin, out, 1e3);
        let stim = PrbsStimulus::paper_circuit1();
        let _ = TransientTestBench::new(nl, r, out, stim, 4, 5e-6);
    }
}
