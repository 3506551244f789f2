//! Integration: mixed-signal co-simulation across all three simulation
//! substrates — the analogue loop (`anasim` transient session), the
//! gate-level controller (`digisim`), and the behavioural macro model
//! (`msbist::adc`) as the reference.

use mixsig::macrolib::process::{ProcessParams, VariationModel};
use mixsig::msbist::adc::{AdcConverter, CosimAdc, DualSlopeAdc};
use mixsig::msbist::bist::RampGenerator;

/// The co-simulated conversion transfer matches the behavioural model
/// across the input range (one staircase, scaled resolutions).
#[test]
fn cosim_transfer_matches_behavioural_macro() {
    let counts = 20u64;
    let cosim = CosimAdc::new(ProcessParams::nominal()).with_resolution(counts);
    let behavioural = DualSlopeAdc::ideal();
    let scale = behavioural.full_count() as f64 / counts as f64;

    for k in 0..8 {
        let vin = 0.15 + k as f64 * 0.3;
        let c = cosim.convert(vin).expect("conversion converges").code as f64;
        let b = behavioural.convert(vin) as f64 / scale;
        assert!((c - b).abs() <= 1.5, "vin {vin}: cosim {c} vs model {b}");
    }
}

/// Dual-slope conversion is ratiometric: process skew of the integrator
/// RC cancels between the two phases, so co-simulated codes are
/// unchanged on skewed dies — the architectural property the paper's
/// macro exploits.
#[test]
fn cosim_codes_are_ratiometric_under_process_skew() {
    let counts = 20u64;
    let nominal = CosimAdc::new(ProcessParams::nominal()).with_resolution(counts);

    let mut fast = ProcessParams::nominal();
    fast.resistor_scale = 0.85;
    fast.capacitor_scale = 1.10;
    let skewed = CosimAdc::new(fast).with_resolution(counts);

    for vin in [0.45, 1.05, 1.95] {
        let a = nominal.convert(vin).expect("nominal converges").code;
        let b = skewed.convert(vin).expect("skewed converges").code;
        assert!(
            (a as i64 - b as i64).abs() <= 1,
            "vin {vin}: nominal {a} vs skewed {b}"
        );
    }
    let _ = VariationModel::typical();
}

/// Over-range inputs terminate — the integrator clamps, the reference
/// phase runs long, and either the comparator fires near the gate-level
/// overflow limit or the limit itself ends the conversion. Never a hang.
#[test]
fn cosim_over_range_input_saturates_cleanly() {
    let cosim = CosimAdc::new(ProcessParams::nominal()).with_resolution(20);
    let conv = cosim.convert(6.0).expect("over-range still terminates");
    assert!(
        conv.code > 20,
        "over-range code {} should exceed full scale",
        conv.code
    );
    assert!(conv.code <= 40, "code {} within overflow limit", conv.code);
}

/// The nominal macro converts the paper's test ramp to pinned codes and
/// conversion times: the input phase takes 250 ticks plus start and
/// latch, the reference phase one tick per code.
#[test]
fn cosim_nominal_ramp_is_pinned() {
    let cosim = CosimAdc::new(ProcessParams::nominal());
    let ramp = RampGenerator::paper();
    let got: Vec<(u64, u64, bool)> = ramp
        .sample_times()
        .into_iter()
        .map(|t| {
            let conv = cosim
                .convert(ramp.value_at(t))
                .expect("conversion converges");
            (conv.code, conv.ticks, conv.overflowed)
        })
        .collect();
    let want: Vec<(u64, u64, bool)> = [
        (0, 252),
        (50, 302),
        (100, 352),
        (150, 402),
        (200, 452),
        (250, 502),
    ]
    .into_iter()
    .map(|(code, ticks)| (code, ticks, false))
    .collect();
    assert_eq!(got, want);
}
