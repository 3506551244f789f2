//! `adc_bist`: the paper's production test of the dual-slope ADC on
//! seeded dies — the behavioural quick tests, then the paper's input
//! ramp converted by the circuit-level `CircuitAdc` and by the
//! `CosimAdc` (an analogue transient session in lockstep with the
//! gate-level controller). One op is one die's full test. Many short
//! transients on a small circuit: per-analysis setup dominates.

use std::sync::Arc;
use std::time::Instant;

use anasim::metrics::SolverMetrics;
use macrolib::process::{ProcessParams, VariationModel};
use msbist::adc::circuit::CircuitAdc;
use msbist::adc::{AdcConverter, CosimAdc, DualSlopeAdc};
use msbist::bist::quick_test::{run_quick_tests, QuickTestLimits};
use msbist::bist::RampGenerator;
use msbist::device::VirtualDie;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probe::{Pass, Probe};

/// Allowed distance, in codes, from the ideal code and between the two
/// converters.
const CODE_TOLERANCE: u64 = 1;

/// The nominal macro's conversion clock.
const CLOCK_HZ: f64 = 100e3;

pub struct AdcBist {
    dies: Vec<ProcessParams>,
    limits: QuickTestLimits,
    /// The ramp's input voltages and their ideal codes.
    ramp: Vec<(f64, u64)>,
}

impl AdcBist {
    /// Samples `dies` dies from `seed`, records the design's golden
    /// quick-test signature, and characterises the nominal macro on the
    /// ramp: every input must convert to its ideal code.
    pub fn setup(seed: u64, dies: usize) -> AdcBist {
        let mut rng = StdRng::seed_from_u64(seed);
        let dies = VariationModel::typical().sample_batch(&mut rng, dies);
        let golden = run_quick_tests(&DualSlopeAdc::paper_measured(), &QuickTestLimits::paper());
        let limits = QuickTestLimits::paper().with_reference(golden.compressed.digital_signature);
        let nominal = CircuitAdc::new(ProcessParams::nominal());
        let ramp_gen = RampGenerator::paper();
        let ramp: Vec<(f64, u64)> = ramp_gen
            .sample_times()
            .into_iter()
            .map(|t| {
                let vin = ramp_gen.value_at(t);
                (vin, (vin / nominal.lsb()).round() as u64)
            })
            .collect();
        for &(vin, ideal) in &ramp {
            let code = nominal.try_convert(vin).expect("nominal conversion");
            assert!(
                code.abs_diff(ideal) <= CODE_TOLERANCE,
                "nominal macro converts {vin} V to {code}, ideal {ideal}"
            );
        }
        AdcBist { dies, limits, ramp }
    }

    pub fn ops_per_pass(&self) -> usize {
        self.dies.len()
    }

    pub fn pass(&mut self, probe: &mut Probe) -> Pass {
        let mut pass = Pass::default();
        let profiler = probe.profiler().cloned();
        for (i, process) in self.dies.iter().enumerate() {
            pass.calibrate();
            let metrics = Arc::new(SolverMetrics::new());
            let start = Instant::now();
            let ((die, circuit, cosim), _) = probe.span("macrolib.build", || {
                let mut circuit = CircuitAdc::new(*process).with_metrics(Arc::clone(&metrics));
                if let Some(profiler) = &profiler {
                    circuit = circuit.with_profile(Arc::clone(profiler));
                }
                (
                    VirtualDie::from_process(i, *process),
                    circuit,
                    CosimAdc::new(*process),
                )
            });
            let (quick, _) = probe.span("msbist.quick_test", || {
                run_quick_tests(&die.adc, &self.limits)
            });
            let mut codes = Vec::with_capacity(self.ramp.len());
            for &(vin, _) in &self.ramp {
                let (c, _) = probe.span("msbist.circuit_convert", || circuit.try_convert(vin));
                let (k, _) = probe.span("msbist.cosim_convert", || cosim.convert(vin));
                codes.push((c, k));
            }
            let took = start.elapsed();

            let (failure, _) = probe.span("bench.check", || {
                let tally = &mut pass.tally;
                tally.solver(&metrics.snapshot());
                tally.outputs.u64(u64::from(quick.passed()));
                tally
                    .outputs
                    .u64(u64::from(quick.compressed.digital_signature));
                let mut failure = None;
                for (&(vin, ideal), (c, k)) in self.ramp.iter().zip(&codes) {
                    tally.conversions += 2;
                    // `CircuitAdc` simulates a 0.2 ms reset then three
                    // integration periods.
                    pass.sim_s += 0.2e-3 + 3.0 * circuit.t1();
                    let (c, k) = match (c, k) {
                        (Ok(c), Ok(k)) => (*c, *k),
                        (Err(e), _) | (_, Err(e)) => {
                            failure.get_or_insert(format!(
                                "die {i} at {vin} V: conversion failed: {e}"
                            ));
                            continue;
                        }
                    };
                    // One settling tick, then one per controller clock.
                    pass.sim_s += (k.ticks + 1) as f64 / CLOCK_HZ;
                    tally.outputs.u64(c);
                    tally.outputs.u64(k.code);
                    if c.abs_diff(ideal) > CODE_TOLERANCE
                        || k.code.abs_diff(ideal) > CODE_TOLERANCE
                        || c.abs_diff(k.code) > CODE_TOLERANCE
                    {
                        failure.get_or_insert(format!(
                            "die {i} at {vin} V: circuit code {c}, cosim code {}, ideal {ideal}",
                            k.code
                        ));
                    }
                }
                failure
            });
            pass.op(took, failure);
        }
        pass
    }
}
