//! Integration: the full BIST flow across crates — process sampling
//! (`macrolib`), die modelling (`msbist::device`), quick tests
//! (`msbist::bist`), characterisation and specification checking.

use mixsig::anasim::AnalysisError;
use mixsig::macrolib::process::{ProcessParams, VariationModel};
use mixsig::msbist::adc::circuit::CircuitAdc;
use mixsig::msbist::adc::spec::AdcSpecification;
use mixsig::msbist::adc::{AdcConverter, AdcErrorModel, DualSlopeAdc};
use mixsig::msbist::bist::quick_test::{run_quick_tests, QuickTestLimits};
use mixsig::msbist::bist::{RampGenerator, StepGenerator};
use mixsig::msbist::charac::characterise;
use mixsig::msbist::device::DieBatch;
use mixsig::sigproc::measure::{first_crossing_after, CrossingDirection};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn batch_screening_end_to_end() {
    let golden = run_quick_tests(&DualSlopeAdc::paper_measured(), &QuickTestLimits::paper());
    let limits = QuickTestLimits::paper().with_reference(golden.compressed.digital_signature);

    let batch = DieBatch::fabricate(10, &VariationModel::typical(), 1996);
    for die in &batch {
        let report = run_quick_tests(&die.adc, &limits);
        assert!(report.passed(), "die {} failed screening", die.index);
    }
}

#[test]
fn characterisation_consistent_across_dies() {
    // Every typical die characterises within loose bounds of nominal.
    let batch = DieBatch::fabricate(5, &VariationModel::typical(), 7);
    for die in &batch {
        let c = characterise(&die.adc, 60);
        assert!(c.offset_lsb.abs() < 0.6, "die {} offset {}", die.index, c.offset_lsb);
        assert!(c.max_dnl_lsb() < 2.0, "die {} dnl", die.index);
        assert!(c.missing_codes.is_empty(), "die {} missing codes", die.index);
    }
}

#[test]
fn quick_tests_are_coarser_than_full_characterisation() {
    // The paper's central observation: the macro passes the quick tests
    // yet fails the INL/DNL specification under full characterisation.
    let adc = DualSlopeAdc::paper_measured();
    let quick = run_quick_tests(&adc, &QuickTestLimits::paper());
    assert!(quick.passed(), "quick tests must pass");

    let c = characterise(&adc, 100);
    let spec = AdcSpecification::paper().check(&c);
    assert!(!spec.passed(), "full characterisation must catch INL/DNL");
    assert!(spec.failures().contains(&"INL") || spec.failures().contains(&"DNL"));
}

#[test]
fn sweep_of_fault_magnitudes_orders_detection() {
    // Larger reference errors always reduce the code at full scale
    // monotonically: a sanity link between fault magnitude and symptom.
    let mut last = u64::MAX;
    for gain in [0.0, 0.02, 0.05, 0.10, 0.20] {
        let adc = DualSlopeAdc::with_errors(AdcErrorModel {
            gain_error: gain,
            ..AdcErrorModel::none()
        });
        let code = adc.convert(2.4);
        assert!(code <= last, "gain {gain} raised the code");
        last = code;
    }
}

#[test]
fn conversion_time_scales_with_input() {
    let adc = DualSlopeAdc::ideal();
    let t_low = adc.conversion_time(0.1);
    let t_high = adc.conversion_time(2.4);
    assert!(t_high > t_low);
    assert!(t_high <= 5.6e-3, "worst case inside the paper spec");
}

/// A circuit-level conversion ends its simulation at the comparator
/// crossing, yet reports, bit for bit, the fall time read off the
/// integrator waveform over the full horizon: on the nominal macro and
/// four sampled dies, at the ramp's and the step generator's inputs and
/// at 2.6 V (full scale plus margin), whose crossing lands 7 µs into the
/// reference phase. Inputs above that still never fall.
#[test]
fn early_stopped_fall_time_matches_the_full_waveform() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut dies = vec![ProcessParams::nominal()];
    dies.extend(VariationModel::typical().sample_batch(&mut rng, 4));
    let ramp = RampGenerator::paper();
    let mut inputs: Vec<f64> = ramp
        .sample_times()
        .into_iter()
        .map(|t| ramp.value_at(t))
        .collect();
    inputs.extend_from_slice(StepGenerator::paper().levels());
    inputs.push(2.6);

    for (d, process) in dies.into_iter().enumerate() {
        let adc = CircuitAdc::new(process);
        // The reference phase starts after the 0.2 ms reset and T1.
        let fall_start = 0.2e-3 + adc.t1();
        for &vin in &inputs {
            let w = adc.integrator_waveform(vin).expect("full conversion run");
            let cross =
                first_crossing_after(&w, adc.vag() - 1e-3, CrossingDirection::Falling, fall_start)
                    .expect("the integrator falls back through VAG");
            let fall = adc.fall_time(vin).expect("early-stopped conversion run");
            assert_eq!(
                fall.to_bits(),
                (cross - fall_start).to_bits(),
                "die {d} at {vin} V: {fall} s vs {} s",
                cross - fall_start
            );
        }
        for vin in [2.7, 3.0] {
            match adc.fall_time(vin) {
                Err(AnalysisError::InvalidParameter(msg)) => {
                    assert_eq!(msg, "integrator output never fell", "die {d} at {vin} V")
                }
                other => panic!("die {d} at {vin} V: expected no fall, got {other:?}"),
            }
        }
    }
}
