//! Waveform measurements.
//!
//! These extractors stand in for the bench instruments of the paper:
//! fall-time meters, threshold comparators and settling detectors applied
//! to simulated node waveforms.

use anasim::waveform::Waveform;

/// Direction of a threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossingDirection {
    /// Signal passes the threshold going up.
    Rising,
    /// Signal passes the threshold going down.
    Falling,
    /// Either direction.
    Either,
}

/// Times at which `w` crosses `threshold` in the given direction, using
/// linear interpolation between samples.
pub fn threshold_crossings(w: &Waveform, threshold: f64, dir: CrossingDirection) -> Vec<f64> {
    let t = w.times();
    let v = w.values();
    (1..w.len())
        .filter_map(|i| crossing_between((t[i - 1], v[i - 1]), (t[i], v[i]), threshold, dir))
        .collect()
}

/// The crossing of `threshold` in direction `dir` between two adjacent
/// samples `(t0, v0)` and `(t1, v1)`, linearly interpolated, if the pair
/// makes one. This is the rule [`threshold_crossings`] applies to every
/// pair of a waveform, for callers that see samples one at a time.
pub fn crossing_between(
    (t0, v0): (f64, f64),
    (t1, v1): (f64, f64),
    threshold: f64,
    dir: CrossingDirection,
) -> Option<f64> {
    let rising = v0 < threshold && v1 >= threshold;
    let falling = v0 > threshold && v1 <= threshold;
    let hit = match dir {
        CrossingDirection::Rising => rising,
        CrossingDirection::Falling => falling,
        CrossingDirection::Either => rising || falling,
    };
    hit.then(|| t0 + (threshold - v0) / (v1 - v0) * (t1 - t0))
}

/// First crossing of `threshold` after `t_start`, if any.
pub fn first_crossing_after(
    w: &Waveform,
    threshold: f64,
    dir: CrossingDirection,
    t_start: f64,
) -> Option<f64> {
    threshold_crossings(w, threshold, dir)
        .into_iter()
        .find(|&t| t >= t_start)
}

/// Fall time of a monotonic transition: time from crossing
/// `hi_frac` to crossing `lo_frac` of the span between `v_high` and
/// `v_low`, starting the search at `t_start`.
///
/// Returns `None` if either level is never crossed.
pub fn fall_time(
    w: &Waveform,
    v_high: f64,
    v_low: f64,
    hi_frac: f64,
    lo_frac: f64,
    t_start: f64,
) -> Option<f64> {
    let span = v_high - v_low;
    let hi_level = v_low + span * hi_frac;
    let lo_level = v_low + span * lo_frac;
    let t_hi = first_crossing_after(w, hi_level, CrossingDirection::Falling, t_start)?;
    let t_lo = first_crossing_after(w, lo_level, CrossingDirection::Falling, t_hi)?;
    Some(t_lo - t_hi)
}

/// Rise time of a monotonic transition from `lo_frac` to `hi_frac` of the
/// span, starting the search at `t_start`.
pub fn rise_time(
    w: &Waveform,
    v_low: f64,
    v_high: f64,
    lo_frac: f64,
    hi_frac: f64,
    t_start: f64,
) -> Option<f64> {
    let span = v_high - v_low;
    let lo_level = v_low + span * lo_frac;
    let hi_level = v_low + span * hi_frac;
    let t_lo = first_crossing_after(w, lo_level, CrossingDirection::Rising, t_start)?;
    let t_hi = first_crossing_after(w, hi_level, CrossingDirection::Rising, t_lo)?;
    Some(t_hi - t_lo)
}

/// Time at which the waveform last leaves the band `final ± tolerance`
/// (i.e. the settling time to within `tolerance` of its final value).
///
/// Returns the start time if the signal never leaves the band.
pub fn settling_time(w: &Waveform, tolerance: f64) -> f64 {
    if w.is_empty() {
        return 0.0;
    }
    let final_v = *w.values().last().expect("non-empty");
    let t = w.times();
    let v = w.values();
    let mut settled_at = w.t_start();
    for i in 0..w.len() {
        if (v[i] - final_v).abs() > tolerance {
            settled_at = t[i];
        }
    }
    settled_at
}

/// Mean value of the waveform samples over `[t0, t1]` by trapezoidal
/// integration on the sample grid.
pub fn mean_between(w: &Waveform, t0: f64, t1: f64) -> f64 {
    assert!(t1 > t0, "t1 must exceed t0");
    // Integrate with a fine uniform grid over the window.
    let n = 256;
    let dt = (t1 - t0) / n as f64;
    let mut acc = 0.0;
    for i in 0..=n {
        let weight = if i == 0 || i == n { 0.5 } else { 1.0 };
        acc += weight * w.value_at(t0 + i as f64 * dt);
    }
    acc / n as f64
}

/// Peak-to-peak amplitude.
pub fn peak_to_peak(w: &Waveform) -> f64 {
    if w.is_empty() {
        0.0
    } else {
        w.max() - w.min()
    }
}

/// Linear-regression slope of the waveform over `[t0, t1]`, in
/// value/second — used to measure integrator ramp rates.
pub fn slope_between(w: &Waveform, t0: f64, t1: f64) -> f64 {
    assert!(t1 > t0, "t1 must exceed t0");
    let n = 128;
    let dt = (t1 - t0) / n as f64;
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for i in 0..=n {
        let t = t0 + i as f64 * dt;
        let y = w.value_at(t);
        sx += t;
        sy += y;
        sxx += t * t;
        sxy += t * y;
    }
    let m = (n + 1) as f64;
    (m * sxy - sx * sy) / (m * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_down() -> Waveform {
        // 5 V falling linearly to 0 V over 1 ms.
        Waveform::from_samples(
            (0..=100).map(|i| i as f64 * 1e-5).collect(),
            (0..=100).map(|i| 5.0 - i as f64 * 0.05).collect(),
        )
    }

    #[test]
    fn crossing_interpolates() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 2.0]);
        let xs = threshold_crossings(&w, 1.0, CrossingDirection::Rising);
        assert_eq!(xs.len(), 1);
        assert!((xs[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn crossing_direction_filter() {
        let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 2.0, 0.0]);
        assert_eq!(threshold_crossings(&w, 1.0, CrossingDirection::Rising).len(), 1);
        assert_eq!(threshold_crossings(&w, 1.0, CrossingDirection::Falling).len(), 1);
        assert_eq!(threshold_crossings(&w, 1.0, CrossingDirection::Either).len(), 2);
    }

    #[test]
    fn fall_time_of_linear_ramp() {
        // 90% to 10% of a 1 ms linear fall = 0.8 ms.
        let ft = fall_time(&ramp_down(), 5.0, 0.0, 0.9, 0.1, 0.0).unwrap();
        assert!((ft - 0.8e-3).abs() < 1e-8);
    }

    #[test]
    fn rise_time_symmetric() {
        let w = Waveform::from_samples(
            (0..=100).map(|i| i as f64 * 1e-5).collect(),
            (0..=100).map(|i| i as f64 * 0.05).collect(),
        );
        let rt = rise_time(&w, 0.0, 5.0, 0.1, 0.9, 0.0).unwrap();
        assert!((rt - 0.8e-3).abs() < 1e-8);
    }

    #[test]
    fn fall_time_absent_when_no_fall() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 5.0]);
        assert!(fall_time(&w, 5.0, 0.0, 0.9, 0.1, 0.0).is_none());
    }

    #[test]
    fn settling_detects_last_excursion() {
        let w = Waveform::from_samples(
            vec![0.0, 1.0, 2.0, 3.0, 4.0],
            vec![0.0, 2.0, 0.9, 1.01, 1.0],
        );
        let ts = settling_time(&w, 0.05);
        assert_eq!(ts, 2.0);
    }

    #[test]
    fn mean_of_constant() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![2.0, 2.0]);
        assert!((mean_between(&w, 0.0, 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slope_of_linear_ramp() {
        let s = slope_between(&ramp_down(), 0.1e-3, 0.9e-3);
        assert!((s + 5000.0).abs() < 1.0); // -5 V/ms
    }

    #[test]
    fn peak_to_peak_of_triangle() {
        let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![-1.0, 3.0, -1.0]);
        assert_eq!(peak_to_peak(&w), 4.0);
    }
}
