//! Full ADC characterisation: quantisation error, zero offset, gain
//! error, INL and DNL.
//!
//! This implements the paper's "full testing of the ADC macro": a fine
//! input sweep locates every code-transition level, from which the
//! static error parameters are derived. Figure 2 of the paper plots the
//! per-code DNL this module produces.

pub mod histogram;

use crate::adc::AdcConverter;

/// Result of a full static characterisation.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterisation {
    /// Nominal LSB in volts.
    pub lsb: f64,
    /// Codes over which the sweep ran (first..=last).
    pub first_code: u64,
    /// Measured transition voltages: `transitions[i]` is the input at
    /// which the output first reaches code `first_code + 1 + i`.
    pub transitions: Vec<f64>,
    /// Zero offset error in LSB (deviation of the first transition from
    /// its ideal half-LSB position).
    pub offset_lsb: f64,
    /// Gain error in LSB (deviation of the last transition from ideal,
    /// after removing offset).
    pub gain_error_lsb: f64,
    /// Per-code DNL in LSB; entry `k` is the width error of code
    /// `first_code + 1 + k`.
    pub dnl: Vec<f64>,
    /// Per-transition INL in LSB against the endpoint-fit line.
    pub inl: Vec<f64>,
    /// Codes that never appeared during the sweep.
    pub missing_codes: Vec<u64>,
    /// RMS quantisation error over the sweep, in LSB (≈ 0.29 LSB for an
    /// ideal uniform quantiser).
    pub quantisation_rms_lsb: f64,
}

impl Characterisation {
    /// Maximum |DNL| in LSB.
    pub fn max_dnl_lsb(&self) -> f64 {
        self.dnl.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// Maximum |INL| in LSB.
    pub fn max_inl_lsb(&self) -> f64 {
        self.inl.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// `(code, dnl)` pairs — the series plotted in the paper's Figure 2.
    pub fn dnl_series(&self) -> Vec<(u64, f64)> {
        self.dnl
            .iter()
            .enumerate()
            .map(|(k, &v)| (self.first_code + 1 + k as u64, v))
            .collect()
    }
}

/// Characterises a converter over its first `codes` output codes.
///
/// A fine ramp (32 points per nominal LSB) locates each transition; the
/// static parameters follow the usual endpoint definitions for a
/// truncating (mid-rise) converter whose ideal transition for code `k`
/// sits at exactly `k` LSB:
///
/// * offset = deviation of the first transition from its ideal position,
/// * gain error = deviation of the last transition from ideal after
///   offset removal,
/// * DNL(k) = (T(k+1) − T(k))/LSB − 1,
/// * INL(k) = deviation of T(k) from the line through the first and
///   last transitions.
///
/// # Panics
///
/// Panics if `codes < 3` or larger than the converter's range.
pub fn characterise<A: AdcConverter>(adc: &A, codes: u64) -> Characterisation {
    assert!(codes >= 3, "need at least 3 codes to characterise");
    assert!(
        codes <= adc.full_count(),
        "codes exceeds the converter range"
    );
    let lsb = adc.lsb();
    let step = lsb / 32.0;

    // Sweep: find the first input producing each code 1..=codes.
    let mut transitions: Vec<Option<f64>> = vec![None; codes as usize];
    let mut vin = -0.5 * lsb;
    // Sweep 10 % past the nominal top so gain/compression errors of
    // that order still reveal every transition.
    let v_end = (codes as f64 + 2.0) * lsb * 1.10;
    let mut last_code = adc.convert(0.0_f64.max(vin));
    while vin <= v_end {
        let code = adc.convert(vin.max(0.0));
        if code > last_code {
            // Record every code whose threshold this step crossed.
            for c in (last_code + 1)..=code.min(codes) {
                let slot = &mut transitions[(c - 1) as usize];
                if slot.is_none() {
                    *slot = Some(vin);
                }
            }
        }
        last_code = last_code.max(code);
        vin += step;
    }

    let missing_codes: Vec<u64> = transitions
        .iter()
        .enumerate()
        .filter(|(_, t)| t.is_none())
        .map(|(i, _)| i as u64 + 1)
        .collect();

    // Work only with codes that actually appeared, in order.
    let present: Vec<(u64, f64)> = transitions
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|v| (i as u64 + 1, v)))
        .collect();
    assert!(
        present.len() >= 2,
        "converter produced fewer than two transitions"
    );

    let (first_code_num, t_first) = present[0];
    let (last_code_num, t_last) = *present.last().expect("non-empty");

    // The dual-slope counter truncates, so code k ideally appears at
    // exactly k LSB (mid-rise convention).
    // Offset: deviation of the first transition from its ideal position.
    let offset_lsb = (t_first - first_code_num as f64 * lsb) / lsb;
    // Gain: deviation of the last transition from ideal after removing
    // the measured offset.
    let ideal_last = last_code_num as f64 * lsb + offset_lsb * lsb;
    let gain_error_lsb = (t_last - ideal_last) / lsb;

    // Endpoint-fit line through the first and last transitions.
    let span_codes = (last_code_num - first_code_num) as f64;
    let fit = |code: u64| -> f64 {
        t_first + (t_last - t_first) * (code - first_code_num) as f64 / span_codes
    };

    let inl: Vec<f64> = present
        .iter()
        .map(|&(c, t)| (t - fit(c)) / lsb)
        .collect();

    let dnl: Vec<f64> = present
        .windows(2)
        .map(|w| {
            let (c0, t0) = w[0];
            let (c1, t1) = w[1];
            // Width per code across the gap (gaps flagged separately as
            // missing codes).
            (t1 - t0) / ((c1 - c0) as f64 * lsb) - 1.0
        })
        .collect();

    // Quantisation error: reconstruct each swept input from its code and
    // accumulate the residual.
    let mut sum_sq = 0.0;
    let mut count = 0usize;
    let mut v = 0.0;
    while v <= codes as f64 * lsb {
        let code = adc.convert(v);
        let reconstructed = code as f64 * lsb;
        let residual = (v - reconstructed) / lsb;
        sum_sq += residual * residual;
        count += 1;
        v += step;
    }
    let quantisation_rms_lsb = (sum_sq / count.max(1) as f64).sqrt();

    Characterisation {
        lsb,
        first_code: first_code_num - 1,
        transitions: present.iter().map(|&(_, t)| t).collect(),
        offset_lsb,
        gain_error_lsb,
        dnl,
        inl,
        missing_codes,
        quantisation_rms_lsb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adc::{AdcErrorModel, DualSlopeAdc};

    #[test]
    fn ideal_adc_characterises_cleanly() {
        let c = characterise(&DualSlopeAdc::ideal(), 100);
        assert!(c.offset_lsb.abs() < 0.05, "offset {}", c.offset_lsb);
        assert!(c.gain_error_lsb.abs() < 0.05, "gain {}", c.gain_error_lsb);
        assert!(c.max_dnl_lsb() < 0.1, "dnl {}", c.max_dnl_lsb());
        assert!(c.max_inl_lsb() < 0.1, "inl {}", c.max_inl_lsb());
        assert!(c.missing_codes.is_empty());
    }

    #[test]
    fn quantisation_error_near_theoretical() {
        let c = characterise(&DualSlopeAdc::ideal(), 50);
        // Uniform quantiser: RMS error 1/sqrt(12) ~ 0.289 LSB. The
        // dual-slope truncates (floor), so residuals span [0, 1) LSB and
        // RMS is 1/sqrt(3) ~ 0.577.
        assert!(
            (c.quantisation_rms_lsb - 1.0 / 3.0_f64.sqrt()).abs() < 0.05,
            "rms {}",
            c.quantisation_rms_lsb
        );
    }

    #[test]
    fn offset_is_recovered() {
        let adc = DualSlopeAdc::with_errors(AdcErrorModel {
            offset_v: 0.002, // 0.2 LSB
            ..AdcErrorModel::none()
        });
        let c = characterise(&adc, 50);
        // Input-referred offset makes codes appear EARLY: offset ≈ -0.2.
        assert!(
            (c.offset_lsb + 0.2).abs() < 0.08,
            "offset {}",
            c.offset_lsb
        );
    }

    #[test]
    fn gain_error_is_recovered() {
        let adc = DualSlopeAdc::with_errors(AdcErrorModel {
            gain_error: 0.005, // reference 0.5 % high -> transitions late
            ..AdcErrorModel::none()
        });
        let c = characterise(&adc, 100);
        // Expected: transitions stretch by 0.5 % -> at code 100 that is
        // +0.5 LSB.
        assert!(
            (c.gain_error_lsb - 0.5).abs() < 0.1,
            "gain {}",
            c.gain_error_lsb
        );
    }

    #[test]
    fn ripple_creates_dnl_without_inl_growth() {
        let adc = DualSlopeAdc::with_errors(AdcErrorModel {
            ripple_v: 0.006,
            ripple_period_codes: 8.0,
            ..AdcErrorModel::none()
        });
        let c = characterise(&adc, 100);
        assert!(c.max_dnl_lsb() > 0.3, "dnl {}", c.max_dnl_lsb());
        // Ripple is zero-mean: INL stays bounded (roughly twice the
        // 0.6 LSB ripple amplitude), unlike a leak-induced bow which
        // accumulates.
        assert!(c.max_inl_lsb() < 1.3, "inl {}", c.max_inl_lsb());
    }

    #[test]
    fn leak_creates_inl_bow() {
        let adc = DualSlopeAdc::with_errors(AdcErrorModel {
            leak_per_s: 15.0,
            ..AdcErrorModel::none()
        });
        let c = characterise(&adc, 200);
        assert!(c.max_inl_lsb() > 0.5, "inl {}", c.max_inl_lsb());
    }

    #[test]
    fn dnl_series_is_indexed_by_code() {
        let c = characterise(&DualSlopeAdc::ideal(), 10);
        let series = c.dnl_series();
        assert_eq!(series.len(), c.dnl.len());
        assert_eq!(series[0].0, c.first_code + 1);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn too_few_codes_rejected() {
        let _ = characterise(&DualSlopeAdc::ideal(), 2);
    }
}
