//! Circuit-level dual-slope ADC conversion on an `anasim` netlist.
//!
//! The behavioural model in [`crate::adc::DualSlopeAdc`] captures the
//! macro's error behaviour; this module simulates the actual conversion
//! electrically: an op-amp integrator ramps for the fixed input phase,
//! the reference phase runs it back, and a comparator watching the
//! integrator output ends the conversion. The measured integrator "fall
//! time" of the paper's analogue BIST step test comes straight from this
//! waveform.
//!
//! The macro integrates the *complement* of the input — phase 1
//! accumulates `(v_span + margin − vin)`, phase 2 removes charge at the
//! reference rate — which is why the paper's step-test fall times
//! *decrease* linearly with input amplitude (2.6 ms at 0 V down to
//! 0.1 ms at 2.5 V).

use std::sync::Arc;

use anasim::metrics::SolverMetrics;
use anasim::netlist::{Netlist, NodeId};
use anasim::source::SourceWaveform;
use anasim::transient::TransientAnalysis;
use anasim::waveform::Waveform;
use anasim::AnalysisError;
use macrolib::opamp::{BehavioralOpamp, OpampParams};
use macrolib::process::ProcessParams;
use obs::profile::PhaseProfiler;
use sigproc::measure::{crossing_between, CrossingDirection};

use super::AdcConverter;

/// Circuit-level dual-slope ADC.
///
/// # Example
///
/// ```no_run
/// use msbist::adc::circuit::CircuitAdc;
/// use macrolib::process::ProcessParams;
///
/// let adc = CircuitAdc::new(ProcessParams::nominal());
/// let fall = adc.fall_time(1.8).unwrap();
/// assert!((fall - 0.8e-3).abs() < 0.1e-3); // paper: 0.8 ms at 1.8 V
/// ```
#[derive(Debug, Clone)]
pub struct CircuitAdc {
    process: ProcessParams,
    /// Reference (full-scale) voltage.
    vref: f64,
    /// Extra integration margin above full scale, volts (gives the
    /// 0.1 ms residual fall time at full-scale input).
    margin: f64,
    /// Counts in the fixed phase.
    full_count: u64,
    /// Conversion clock.
    clock_hz: f64,
    /// Transient step used for conversion runs.
    sim_dt: f64,
    /// Solver-effort accounting shared across conversion runs.
    metrics: Option<Arc<SolverMetrics>>,
    /// Phase cost-attribution profiler shared across conversion runs.
    profile: Option<Arc<PhaseProfiler>>,
}

impl CircuitAdc {
    /// Creates the nominal macro on the given process corner: 2.5 V
    /// reference, 250 counts, 100 kHz clock.
    pub fn new(process: ProcessParams) -> Self {
        CircuitAdc {
            process,
            vref: 2.5,
            margin: 0.1,
            full_count: 250,
            clock_hz: 100e3,
            sim_dt: 4e-6,
            metrics: None,
            profile: None,
        }
    }

    /// Overrides the simulation timestep (trade accuracy for speed).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn with_sim_dt(mut self, dt: f64) -> Self {
        assert!(dt > 0.0, "dt must be positive");
        self.sim_dt = dt;
        self
    }

    /// Attaches a shared solver-effort counter: every conversion's
    /// transient run accumulates into it, so callers (the bench
    /// sidecar) can report the macro's true Newton cost instead of 0.
    pub fn with_metrics(mut self, metrics: Arc<SolverMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a shared phase profiler: every conversion's transient
    /// run attributes its wall-clock to solver phases.
    pub fn with_profile(mut self, profile: Arc<PhaseProfiler>) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Duration of the integrator reset phase preceding a conversion.
    const RESET_TIME: f64 = 0.2e-3;

    /// Analogue ground used by the integrator.
    pub fn vag(&self) -> f64 {
        2.5
    }

    /// Fixed input-integration phase duration, seconds.
    pub fn t1(&self) -> f64 {
        self.full_count as f64 / self.clock_hz
    }

    /// Builds the conversion circuit for input `vin`: the netlist and
    /// the integrator-output node.
    fn circuit(&self, vin: f64) -> (Netlist, NodeId) {
        let t1 = self.t1();
        // RC = 2·T1 halves the swing so the worst-case peak (2.6 V of
        // drive) stays at VAG + 1.3 V, inside the op-amp's output range —
        // the fall-time law t = (v_span + margin − vin)·T1/v_span is RC-
        // independent because both phases share the integrator.
        let rc = 2.0 * t1;
        let r_in = 100e3;
        let c_f = rc / r_in;
        let vag = self.vag();

        let mut nl = Netlist::new();
        let op = BehavioralOpamp::build(&mut nl, "int", &OpampParams::opamp_5um());
        let vin_node = nl.node("vin_eff");
        // Reset phase: input at VAG while a switch shorts CF, defining
        // the starting state (the integrator has no DC feedback path, so
        // the operating point would otherwise rail).
        // Phase 1: effective input below VAG by (v_span + margin − vin),
        // so the inverting integrator ramps UP from VAG.
        // Phase 2: effective input vref above VAG: output falls at the
        // reference slope vref/RC until it recrosses VAG.
        let t_rst = Self::RESET_TIME;
        let drive1 = vag - (self.vref + self.margin - vin);
        let drive2 = vag + self.vref;
        nl.vsource(
            "VIN",
            vin_node,
            Netlist::GROUND,
            SourceWaveform::Pwl(vec![
                (0.0, vag),
                (t_rst, vag),
                (t_rst + 1e-9, drive1),
                (t_rst + t1, drive1),
                (t_rst + t1 + 1e-9, drive2),
            ]),
        );
        let vag_node = nl.node("vag");
        nl.vsource("VAG", vag_node, Netlist::GROUND, SourceWaveform::dc(vag));
        nl.resistor("RVAG", op.in_p, vag_node, 1.0);
        nl.resistor("RIN", vin_node, op.in_n, self.process.resistor(r_in));
        nl.capacitor("CF", op.in_n, op.out, self.process.capacitor(c_f));

        // Reset switch across CF, released as phase 1 begins.
        let rst = nl.node("rst");
        nl.vsource(
            "RSTP",
            rst,
            Netlist::GROUND,
            SourceWaveform::Step {
                initial: self.process.vdd,
                level: 0.0,
                delay: t_rst,
            },
        );
        nl.switch(
            "SRST",
            op.in_n,
            op.out,
            rst,
            Netlist::GROUND,
            anasim::devices::SwitchParams::default(),
        );

        (nl, op.out)
    }

    /// The conversion's transient analysis: the reset phase then three
    /// integration periods, room for the longest fall.
    fn analysis(&self) -> TransientAnalysis {
        let t_stop = Self::RESET_TIME + self.t1() * 3.0;
        let mut analysis = TransientAnalysis::new(t_stop, self.sim_dt);
        if let Some(metrics) = &self.metrics {
            analysis = analysis.metrics(Arc::clone(metrics));
        }
        if let Some(profile) = &self.profile {
            analysis = analysis.profile(Arc::clone(profile));
        }
        analysis
    }

    /// Simulates the conversion circuit for input `vin` over the whole
    /// horizon, returning the integrator-output waveform.
    ///
    /// # Errors
    ///
    /// Propagates simulator non-convergence.
    pub fn integrator_waveform(&self, vin: f64) -> Result<Waveform, AnalysisError> {
        let (nl, out) = self.circuit(vin);
        Ok(self.analysis().run(&nl)?.voltage(out))
    }

    /// The integrator fall time for a step input of `vin`: the time from
    /// the start of the reference phase until the integrator output
    /// falls back through analogue ground — the quantity the paper's
    /// analogue BIST step test reports (2.6 ms at 0 V … 0.1 ms at
    /// 2.5 V).
    ///
    /// Like the macro's comparator, the simulation ends at that
    /// crossing. The result is, bit for bit, the crossing that
    /// [`sigproc::measure::first_crossing_after`] finds on the full
    /// [`CircuitAdc::integrator_waveform`].
    ///
    /// # Errors
    ///
    /// Propagates simulator non-convergence; returns
    /// [`AnalysisError::InvalidParameter`] if the output never crosses
    /// (a dead integrator).
    pub fn fall_time(&self, vin: f64) -> Result<f64, AnalysisError> {
        let (nl, out) = self.circuit(vin);
        let fall_start = Self::RESET_TIME + self.t1();
        // Threshold slightly below VAG so the phase-1 start (exactly at
        // VAG) is not itself a crossing.
        let threshold = self.vag() - 1e-3;
        let mut last: Option<(f64, f64)> = None;
        let mut cross = None;
        self.analysis().run_until(&nl, |res| {
            let sample = (
                *res.times().last().expect("a run stores t = 0"),
                res.final_voltage(out),
            );
            if let Some(prev) = last.replace(sample) {
                cross = crossing_between(prev, sample, threshold, CrossingDirection::Falling)
                    .filter(|&t| t >= fall_start);
            }
            cross.is_some()
        })?;
        let cross = cross.ok_or_else(|| {
            AnalysisError::InvalidParameter("integrator output never fell".into())
        })?;
        Ok(cross - fall_start)
    }

    /// Converts by timing the fall with the conversion counter clock.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn try_convert(&self, vin: f64) -> Result<u64, AnalysisError> {
        let fall = self.fall_time(vin)?;
        let raw = (fall * self.clock_hz).floor() as i64;
        // Complement architecture: large fall time = small input. Map to
        // the conventional increasing code.
        let top = ((self.vref + self.margin) / self.vref * self.full_count as f64).round() as i64;
        Ok((top - raw).clamp(0, 2 * self.full_count as i64) as u64)
    }
}

impl AdcConverter for CircuitAdc {
    /// # Panics
    ///
    /// Panics if the underlying transient simulation fails; use
    /// [`CircuitAdc::try_convert`] to handle errors.
    fn convert(&self, vin: f64) -> u64 {
        self.try_convert(vin)
            .expect("circuit-level conversion failed")
    }

    fn full_scale(&self) -> f64 {
        self.vref
    }

    fn full_count(&self) -> u64 {
        self.full_count
    }

    fn conversion_time(&self, vin: f64) -> f64 {
        match self.fall_time(vin) {
            Ok(fall) => Self::RESET_TIME + self.t1() + fall,
            Err(_) => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adc() -> CircuitAdc {
        // Coarser timestep keeps unit tests quick; benches use default.
        CircuitAdc::new(ProcessParams::nominal()).with_sim_dt(10e-6)
    }

    #[test]
    fn fall_time_tracks_paper_table() {
        let adc = adc();
        // Paper's measured points; tolerances cover the measurement
        // scatter in the published values.
        for (vin, expect_ms, tol_ms) in [
            (0.0, 2.6, 0.1),
            (0.59, 2.01, 0.25),
            (0.96, 1.64, 0.3),
            (1.41, 1.19, 0.15),
            (1.8, 0.8, 0.1),
            (2.5, 0.1, 0.05),
        ] {
            let fall = adc.fall_time(vin).unwrap() * 1e3;
            assert!(
                (fall - expect_ms).abs() < tol_ms,
                "vin = {vin}: fall = {fall:.3} ms, expected ~{expect_ms} ms"
            );
        }
    }

    #[test]
    fn codes_increase_with_input() {
        let adc = adc();
        let c0 = adc.try_convert(0.2).unwrap();
        let c1 = adc.try_convert(1.2).unwrap();
        let c2 = adc.try_convert(2.2).unwrap();
        assert!(c0 < c1 && c1 < c2, "codes {c0}, {c1}, {c2}");
    }

    #[test]
    fn code_scale_matches_10mv_per_lsb() {
        let adc = adc();
        let c = adc.try_convert(1.25).unwrap();
        // 1.25 V at 10 mV/LSB: code 125 (integrator + comparator slop
        // allows a few counts).
        assert!((c as i64 - 125).abs() <= 4, "code {c}");
    }

    #[test]
    fn conversion_time_within_paper_spec() {
        let adc = adc();
        // Worst case is vin = 0 (longest fall): T1 + 2.6 ms ~ 5.1 ms,
        // inside the 5.6 ms specification.
        let t = adc.conversion_time(0.0);
        assert!(t < 5.6e-3, "conversion took {t}");
    }
}
