//! Mixed-signal co-simulation of the dual-slope ADC: the analogue
//! integrator/comparator run in `anasim` while the *gate-level*
//! control logic of [`digisim::structural`] clocks alongside, steering
//! the input switches each cycle — the complete macro, both halves
//! live, nothing behavioural in the loop.
//!
//! Each conversion: the controller idles with the integrator reset;
//! `start` launches the fixed input-integration phase (the analogue
//! drive switches to the input); at terminal count the drive flips to
//! the reference; the comparator's recrossing — read from the analogue
//! side at every clock tick — ends the conversion with the code held in
//! the controller's gate-level counter.
//!
//! Nothing before `start` depends on the input: the DC operating
//! point, the controller's reset and the settling tick are the same for
//! every conversion of one macro. A macro prepares that start-up once,
//! on its first conversion, and runs every conversion on an exact copy
//! of it.

use std::sync::{Arc, OnceLock};

use anasim::metrics::SolverMetrics;
use anasim::netlist::{DeviceId, Netlist, NodeId};
use anasim::robust::Instruments;
use anasim::source::SourceWaveform;
use anasim::transient::TransientSession;
use anasim::AnalysisError;
use digisim::circuit::Circuit;
use digisim::fsm::DualSlopePhase;
use digisim::structural::StructuralDualSlope;
use macrolib::opamp::{BehavioralOpamp, OpampParams};
use macrolib::process::ProcessParams;

/// The co-simulated dual-slope ADC.
#[derive(Debug, Clone)]
pub struct CosimAdc {
    process: ProcessParams,
    /// Counts in the fixed input phase.
    full_count: u64,
    /// Conversion clock, hertz.
    clock_hz: f64,
    /// Reference (full-scale) voltage.
    vref: f64,
    /// Analogue timestep per simulation step.
    sim_dt: f64,
    /// Solver-effort observers shared by every conversion.
    instruments: Instruments,
    /// The input-independent start-up every conversion copies, built
    /// on the first conversion; `with_resolution` and `with_metrics`
    /// clear it.
    prepared: OnceLock<Result<LiveMacro, AnalysisError>>,
}

/// Outcome of one co-simulated conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CosimConversion {
    /// The output code from the gate-level counter.
    pub code: u64,
    /// Total clock ticks the conversion took.
    pub ticks: u64,
    /// True if the reference phase hit its overflow limit.
    pub overflowed: bool,
}

impl CosimAdc {
    /// The nominal macro: 2.5 V reference, 250 counts, 100 kHz clock.
    pub fn new(process: ProcessParams) -> Self {
        CosimAdc {
            process,
            full_count: 250,
            clock_hz: 100e3,
            vref: 2.5,
            sim_dt: 2e-6,
            instruments: Instruments::default(),
            prepared: OnceLock::new(),
        }
    }

    /// A scaled-down variant for fast tests: fewer counts at a faster
    /// clock (same conversion physics, smaller tick budget).
    ///
    /// # Panics
    ///
    /// Panics if `full_count` is zero.
    pub fn with_resolution(mut self, full_count: u64) -> Self {
        assert!(full_count >= 1, "full count must be positive");
        // Keep T1 constant so the integrator design is unchanged.
        self.clock_hz = full_count as f64 / (250.0 / 100e3);
        self.full_count = full_count;
        self.prepared = OnceLock::new();
        self
    }

    /// Attaches a shared solver-effort counter: the prepared start-up
    /// (its DC solve included) and every conversion accumulate into it.
    pub fn with_metrics(mut self, metrics: Arc<SolverMetrics>) -> Self {
        self.instruments.metrics = Some(metrics);
        self.prepared = OnceLock::new();
        self
    }

    /// Analogue ground level.
    pub fn vag(&self) -> f64 {
        2.5
    }

    /// Nominal LSB in volts.
    pub fn lsb(&self) -> f64 {
        self.vref / self.full_count as f64
    }

    fn build_analog(&self) -> (Netlist, NodeId, NodeId, DeviceId, DeviceId) {
        let vag = self.vag();
        let t1 = self.full_count as f64 / self.clock_hz;
        let rc = 2.0 * t1;
        let r_in = 100e3;
        let c_f = rc / r_in;

        let mut nl = Netlist::new();
        let gnd = Netlist::GROUND;
        let op = BehavioralOpamp::build(&mut nl, "int", &OpampParams::opamp_5um());
        let cmp = BehavioralOpamp::build(&mut nl, "cmp", &OpampParams::comparator_5um());

        let vag_node = nl.node("vag");
        nl.vsource("VAG", vag_node, gnd, SourceWaveform::dc(vag));
        nl.resistor("RVAG", op.in_p, vag_node, 1.0);

        // Integrator drive: the co-simulation rewrites this source as
        // the controller's phases change.
        let drive = nl.node("drive");
        let vdrive = nl.vsource("VDRIVE", drive, gnd, SourceWaveform::dc(vag));
        nl.resistor("RIN", drive, op.in_n, self.process.resistor(r_in));
        nl.capacitor("CF", op.in_n, op.out, self.process.capacitor(c_f));

        // Reset switch across CF, controlled by another runtime source.
        let rst = nl.node("rst");
        let vrst = nl.vsource("VRST", rst, gnd, SourceWaveform::dc(self.process.vdd));
        nl.switch(
            "SRST",
            op.in_n,
            op.out,
            rst,
            gnd,
            anasim::devices::SwitchParams::default(),
        );

        // Comparator: fires when the integrator output recrosses VAG
        // from below.
        nl.resistor("RCP", cmp.in_p, op.out, 1.0);
        nl.resistor("RCN", cmp.in_n, vag_node, 1.0);
        nl.resistor("RCL", cmp.out, gnd, 1e6);

        (nl, op.out, cmp.out, vdrive, vrst)
    }

    /// Runs one full co-simulated conversion.
    ///
    /// The first conversion prepares the macro's start-up, which no
    /// input changes; every conversion then runs from a copy of it.
    ///
    /// # Errors
    ///
    /// Propagates analogue non-convergence; returns
    /// [`AnalysisError::InvalidParameter`] if the controller never
    /// reaches `Done` within its overflow budget.
    pub fn convert(&self, vin: f64) -> Result<CosimConversion, AnalysisError> {
        self.fork(vin, None).map(|(conversion, _)| conversion)
    }

    /// Runs a conversion with the controller's comparator input stuck
    /// at `value` — the paper's control-circuit fault class ("control
    /// circuit faults will stop the conversion process").
    ///
    /// Stuck low, the comparator can never end the reference phase and
    /// the gate-level overflow limit terminates the conversion at twice
    /// full count; stuck high, the reference phase ends on its first
    /// tick. Both corrupt the code and the conversion time, which is
    /// how the digital quick tests catch this fault class.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CosimAdc::convert`].
    pub fn convert_with_comparator_stuck(
        &self,
        vin: f64,
        value: bool,
    ) -> Result<CosimConversion, AnalysisError> {
        self.fork(vin, Some(value)).map(|(conversion, _)| conversion)
    }

    /// One conversion run on a copy of the prepared start-up, which is
    /// built on first use; returns the macro's final state with the
    /// outcome.
    fn fork(
        &self,
        vin: f64,
        comparator_stuck: Option<bool>,
    ) -> Result<(CosimConversion, LiveMacro), AnalysisError> {
        let mut live = self
            .prepared
            .get_or_init(|| LiveMacro::prepare(self))
            .clone()?;
        let conversion = live.convert(self, vin, comparator_stuck)?;
        Ok((conversion, live))
    }
}

/// Both halves of one macro mid-simulation: the analogue session and
/// the gate-level controller, with the handles the conversion loop
/// steers and samples.
///
/// Cloning copies the march, its factor cache and every gate's state
/// exactly, so a conversion run on a clone of the prepared start-up is
/// bit for bit the conversion a freshly built macro would run.
#[derive(Debug, Clone)]
struct LiveMacro {
    analog: TransientSession,
    digital: Circuit,
    ctl: StructuralDualSlope,
    cmp_out: NodeId,
    vdrive: DeviceId,
    vrst: DeviceId,
}

impl LiveMacro {
    /// Everything a conversion does before it first reads its input:
    /// the analogue DC start, the controller's reset, one settling tick
    /// with the integrator shorted and the drive at analogue ground,
    /// and the start request.
    fn prepare(adc: &CosimAdc) -> Result<Self, AnalysisError> {
        let (nl, _integ_out, cmp_out, vdrive, vrst) = adc.build_analog();
        let mut analog = TransientSession::begin(&nl, adc.sim_dt, adc.instruments.clone())?;

        let mut digital = Circuit::new();
        let width = (64 - (2 * adc.full_count).leading_zeros() as usize + 1).max(4);
        let ctl = StructuralDualSlope::build(&mut digital, "ctl", adc.full_count, width);
        ctl.reset(&mut digital);

        analog.advance_to(1.0 / adc.clock_hz)?;
        ctl.request_start(&mut digital);
        Ok(LiveMacro {
            analog,
            digital,
            ctl,
            cmp_out,
            vdrive,
            vrst,
        })
    }

    /// Clocks the prepared macro through one conversion of `vin`.
    fn convert(
        &mut self,
        adc: &CosimAdc,
        vin: f64,
        comparator_stuck: Option<bool>,
    ) -> Result<CosimConversion, AnalysisError> {
        let LiveMacro {
            analog,
            digital,
            ctl,
            cmp_out,
            vdrive,
            vrst,
        } = self;
        let vag = adc.vag();
        let tick = 1.0 / adc.clock_hz;
        let budget = 2 + adc.full_count + 2 * adc.full_count + 2;
        let mut ticks = 0u64;
        let mut last_phase = DualSlopePhase::Idle;
        while ticks < budget {
            // Steer the analogue switches for the *coming* interval
            // according to the controller's present phase.
            let phase = ctl.phase(digital);
            if phase != last_phase {
                match phase {
                    DualSlopePhase::Idle => {}
                    DualSlopePhase::IntegrateInput => {
                        analog.set_source(*vrst, SourceWaveform::dc(0.0))?;
                        analog.set_source(*vdrive, SourceWaveform::dc(vag + vin))?;
                    }
                    DualSlopePhase::IntegrateReference => {
                        analog.set_source(*vdrive, SourceWaveform::dc(vag - adc.vref))?;
                    }
                    DualSlopePhase::Done => break,
                }
                last_phase = phase;
            }

            // One analogue clock interval, then the digital edge with
            // the comparator sampled at the tick.
            let t_next = analog.time() + tick;
            analog.advance_to(t_next)?;
            let comparator = comparator_stuck.unwrap_or(analog.voltage(*cmp_out) > 2.5);
            ticks += 1;
            ctl.step(digital, comparator);
        }

        if ctl.phase(digital) != DualSlopePhase::Done {
            return Err(AnalysisError::InvalidParameter(
                "co-simulated conversion never completed".into(),
            ));
        }
        let code = ctl.result(digital).expect("done state holds a result");
        Ok(CosimConversion {
            code,
            ticks,
            overflowed: code >= 2 * adc.full_count,
        })
    }
}

/// The conversion as it ran before the start-up was shared: a freshly
/// built macro per input. Kept as the oracle every forked conversion
/// must match bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;

    /// A fresh conversion, with the final integrator and comparator
    /// output voltages.
    pub(super) fn convert(
        adc: &CosimAdc,
        vin: f64,
        comparator_stuck: Option<bool>,
    ) -> (CosimConversion, f64, f64) {
        let vag = adc.vag();
        let (nl, integ_out, cmp_out, vdrive, vrst) = adc.build_analog();
        let mut analog = TransientSession::begin(&nl, adc.sim_dt, Instruments::default()).unwrap();

        let mut digital = Circuit::new();
        let width = (64 - (2 * adc.full_count).leading_zeros() as usize + 1).max(4);
        let ctl = StructuralDualSlope::build(&mut digital, "ctl", adc.full_count, width);
        ctl.reset(&mut digital);

        let tick = 1.0 / adc.clock_hz;
        analog.advance_to(tick).unwrap();
        ctl.request_start(&mut digital);

        let budget = 2 + adc.full_count + 2 * adc.full_count + 2;
        let mut ticks = 0u64;
        let mut last_phase = DualSlopePhase::Idle;
        while ticks < budget {
            let phase = ctl.phase(&digital);
            if phase != last_phase {
                match phase {
                    DualSlopePhase::Idle => {}
                    DualSlopePhase::IntegrateInput => {
                        analog.set_source(vrst, SourceWaveform::dc(0.0)).unwrap();
                        analog
                            .set_source(vdrive, SourceWaveform::dc(vag + vin))
                            .unwrap();
                    }
                    DualSlopePhase::IntegrateReference => {
                        analog
                            .set_source(vdrive, SourceWaveform::dc(vag - adc.vref))
                            .unwrap();
                    }
                    DualSlopePhase::Done => break,
                }
                last_phase = phase;
            }
            if phase == DualSlopePhase::Done {
                break;
            }
            let t_next = analog.time() + tick;
            analog.advance_to(t_next).unwrap();
            let comparator = comparator_stuck.unwrap_or(analog.voltage(cmp_out) > 2.5);
            ticks += 1;
            ctl.step(&mut digital, comparator);
        }

        assert_eq!(ctl.phase(&digital), DualSlopePhase::Done);
        let code = ctl.result(&digital).expect("done state holds a result");
        let conversion = CosimConversion {
            code,
            ticks,
            overflowed: code >= 2 * adc.full_count,
        };
        (conversion, analog.voltage(integ_out), analog.voltage(cmp_out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adc::{AdcConverter, DualSlopeAdc};

    fn fast() -> CosimAdc {
        // 25 counts: conversions take <= 77 ticks.
        CosimAdc::new(ProcessParams::nominal()).with_resolution(25)
    }

    #[test]
    fn codes_scale_linearly_with_input() {
        let adc = fast();
        // LSB = 100 mV at 25 counts.
        for (vin, expect) in [(0.5, 5i64), (1.25, 12), (2.0, 20)] {
            let conv = adc.convert(vin).unwrap();
            assert!(
                (conv.code as i64 - expect).abs() <= 1,
                "vin {vin}: code {} vs {expect}",
                conv.code
            );
            assert!(!conv.overflowed);
        }
    }

    #[test]
    fn conversion_ticks_match_dual_slope_timing() {
        let adc = fast();
        let conv = adc.convert(1.25).unwrap();
        // full_count input ticks + ~code reference ticks (+start/latch).
        let expect = 25 + conv.code;
        assert!(
            (conv.ticks as i64 - expect as i64).abs() <= 3,
            "ticks {} vs ~{expect}",
            conv.ticks
        );
    }

    #[test]
    fn zero_input_converts_to_zero_ish() {
        let adc = fast();
        let conv = adc.convert(0.0).unwrap();
        assert!(conv.code <= 1, "code {}", conv.code);
    }

    #[test]
    fn stuck_low_comparator_overflows_at_the_gate_level_limit() {
        let adc = fast();
        let conv = adc.convert_with_comparator_stuck(1.25, false).unwrap();
        assert!(conv.overflowed, "code {}", conv.code);
        assert_eq!(conv.code, 50, "overflow terminates at 2x full count");
    }

    #[test]
    fn stuck_high_comparator_ends_the_reference_phase_immediately() {
        let adc = fast();
        let conv = adc.convert_with_comparator_stuck(1.25, true).unwrap();
        assert!(conv.code <= 1, "code {}", conv.code);
        // The corrupted conversion time is what the digital quick test
        // of E3 keys on: far shorter than the healthy conversion.
        let healthy = adc.convert(1.25).unwrap();
        assert!(conv.ticks + 5 < healthy.ticks);
    }

    #[test]
    fn cosim_agrees_with_behavioural_model() {
        // The all-behavioural DualSlopeAdc and the full co-simulation
        // must agree within a couple of codes once scaled to the same
        // resolution.
        let cosim = fast();
        let behavioural = DualSlopeAdc::ideal();
        for vin in [0.6, 1.5, 2.2] {
            let c = cosim.convert(vin).unwrap().code as f64;
            // Behavioural uses 250 counts; scale down by 10.
            let b = behavioural.convert(vin) as f64 / 10.0;
            assert!((c - b).abs() <= 1.5, "vin {vin}: cosim {c} vs model {b}");
        }
    }

    /// A forked conversion's outcome and final integrator and
    /// comparator voltages, the voltages as bit patterns.
    fn forked_state(adc: &CosimAdc, vin: f64, stuck: Option<bool>) -> (CosimConversion, u64, u64) {
        let (_, integ_out, cmp_out, _, _) = adc.build_analog();
        let (conversion, live) = adc.fork(vin, stuck).unwrap();
        let v = |node| live.analog.voltage(node).to_bits();
        (conversion, v(integ_out), v(cmp_out))
    }

    fn oracle_state(adc: &CosimAdc, vin: f64, stuck: Option<bool>) -> (CosimConversion, u64, u64) {
        let (conversion, integ, cmp) = oracle::convert(adc, vin, stuck);
        (conversion, integ.to_bits(), cmp.to_bits())
    }

    fn assert_forks_match_oracle(adc: &CosimAdc, inputs: &[(f64, Option<bool>)]) {
        for &(vin, stuck) in inputs {
            assert_eq!(
                forked_state(adc, vin, stuck),
                oracle_state(adc, vin, stuck),
                "vin {vin}, comparator stuck {stuck:?}"
            );
        }
    }

    #[test]
    fn forked_paper_ramp_matches_fresh_conversions_bit_for_bit() {
        let adc = CosimAdc::new(ProcessParams::nominal());
        let ramp = crate::bist::RampGenerator::paper();
        let inputs: Vec<_> = ramp
            .sample_times()
            .into_iter()
            .map(|t| (ramp.value_at(t), None))
            .collect();
        assert_forks_match_oracle(&adc, &inputs);
    }

    #[test]
    fn forked_stuck_comparators_and_a_skewed_die_match_fresh_conversions() {
        assert_forks_match_oracle(
            &fast(),
            &[(1.25, Some(false)), (1.25, Some(true)), (0.7, None)],
        );
        let mut skewed = ProcessParams::nominal();
        skewed.resistor_scale = 1.15;
        skewed.capacitor_scale = 0.90;
        let adc = CosimAdc::new(skewed).with_resolution(25);
        assert_forks_match_oracle(&adc, &[(0.75, None), (1.75, None)]);
    }

    #[test]
    fn a_clone_and_a_rebuilt_macro_fork_the_right_start_up() {
        // A clone taken after the first conversion carries the prepared
        // start-up along.
        let adc = fast();
        adc.convert(0.5).unwrap();
        let clone = adc.clone();
        assert_forks_match_oracle(&clone, &[(1.5, None), (1.5, Some(true))]);

        // A new resolution builds a new start-up: the controller's count
        // and the clock tick both change.
        let coarse = CosimAdc::new(ProcessParams::nominal()).with_resolution(20);
        coarse.convert(1.0).unwrap();
        let rebuilt = coarse.with_resolution(25);
        assert_forks_match_oracle(&rebuilt, &[(1.0, None), (2.2, None)]);
    }

    #[test]
    fn the_start_up_is_counted_once_per_macro() {
        use anasim::metrics::SolverSnapshot;
        fn counts(s: SolverSnapshot) -> [u64; 4] {
            [
                s.newton_iterations,
                s.steps_accepted,
                s.factor_reuse_hits,
                s.factor_reuse_misses,
            ]
        }
        let run = |inputs: &[f64]| {
            let metrics = Arc::new(SolverMetrics::new());
            let adc = fast().with_metrics(Arc::clone(&metrics));
            for &vin in inputs {
                adc.convert(vin).unwrap();
            }
            counts(metrics.snapshot())
        };
        let (x, y, z) = (0.5, 1.25, 2.0);
        let (sx, sy, sz) = (run(&[x]), run(&[y]), run(&[z]));
        let txy = run(&[x, y]);
        let prefix: Vec<u64> = (0..4).map(|k| sx[k] + sy[k] - txy[k]).collect();
        assert!(prefix[0] > 0, "start-up Newton iterations {prefix:?}");
        let three: Vec<u64> = (0..4).map(|k| sx[k] + sy[k] + sz[k] - 2 * prefix[k]).collect();
        assert_eq!(run(&[x, y, z]).to_vec(), three);
    }
}
