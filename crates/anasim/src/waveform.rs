//! Sampled time-domain signals.

use std::iter::Peekable;

/// A sampled signal: strictly increasing time points with one value each.
///
/// Produced by transient analysis; consumed by the measurement and signal
/// processing layers. Linear interpolation is used between samples.
///
/// # Example
///
/// ```
/// use anasim::waveform::Waveform;
///
/// let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 0.0]);
/// assert_eq!(w.value_at(0.5), 5.0);
/// assert_eq!(w.max(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    t: Vec<f64>,
    v: Vec<f64>,
}

impl Waveform {
    /// Creates an empty waveform.
    pub fn new() -> Self {
        Waveform::default()
    }

    /// Builds a waveform from parallel time/value vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length or times are not strictly
    /// increasing.
    pub fn from_samples(t: Vec<f64>, v: Vec<f64>) -> Self {
        assert_eq!(t.len(), v.len(), "time/value length mismatch");
        assert!(
            t.windows(2).all(|w| w[0] < w[1]),
            "times must be strictly increasing"
        );
        Waveform { t, v }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not after the last sample.
    pub fn push(&mut self, time: f64, value: f64) {
        if let Some(&last) = self.t.last() {
            assert!(time > last, "samples must be strictly increasing in time");
        }
        self.t.push(time);
        self.v.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Time points.
    pub fn times(&self) -> &[f64] {
        &self.t
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.v
    }

    /// First time point, or 0.0 if empty.
    pub fn t_start(&self) -> f64 {
        self.t.first().copied().unwrap_or(0.0)
    }

    /// Last time point, or 0.0 if empty.
    pub fn t_end(&self) -> f64 {
        self.t.last().copied().unwrap_or(0.0)
    }

    /// Linearly interpolated value at `time`, clamped to the ends.
    ///
    /// Returns 0.0 for an empty waveform.
    pub fn value_at(&self, time: f64) -> f64 {
        if self.t.is_empty() {
            return 0.0;
        }
        if time <= self.t[0] {
            return self.v[0];
        }
        let n = self.t.len();
        if time >= self.t[n - 1] {
            return self.v[n - 1];
        }
        let idx = self.t.partition_point(|&t| t <= time);
        lerp(
            (self.t[idx - 1], self.v[idx - 1]),
            (self.t[idx], self.v[idx]),
            time,
        )
    }

    /// Minimum sample value (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.v.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample value (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Resamples onto a uniform grid of `n` points spanning
    /// `[t_start, t_end]`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the waveform is empty.
    pub fn resample_uniform(&self, n: usize) -> Waveform {
        assert!(n >= 2, "need at least two resample points");
        assert!(!self.is_empty(), "cannot resample an empty waveform");
        let t0 = self.t_start();
        let t1 = self.t_end();
        let dt = (t1 - t0) / (n - 1) as f64;
        let t: Vec<f64> = (0..n).map(|i| t0 + i as f64 * dt).collect();
        let v: Vec<f64> = t.iter().map(|&ti| self.value_at(ti)).collect();
        Waveform { t, v }
    }

    /// Returns uniformly spaced values sampled every `dt` over
    /// `[t_start, t_end]` (values only; convenient for DSP routines).
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or the waveform is empty.
    pub fn sample_every(&self, dt: f64) -> Vec<f64> {
        assert!(dt > 0.0, "dt must be positive");
        assert!(!self.is_empty(), "cannot sample an empty waveform");
        let mut out = Vec::new();
        let mut t = self.t_start();
        let t_end = self.t_end();
        // Tolerate floating point droop at the final sample.
        while t <= t_end + dt * 1e-9 {
            out.push(self.value_at(t));
            t += dt;
        }
        out
    }

    /// Pointwise difference `self − other`, sampled on `self`'s time grid.
    pub fn subtract(&self, other: &Waveform) -> Waveform {
        let v = self
            .t
            .iter()
            .zip(&self.v)
            .map(|(&t, &v)| v - other.value_at(t))
            .collect();
        Waveform {
            t: self.t.clone(),
            v,
        }
    }

    /// Root-mean-square of the sample values.
    pub fn rms(&self) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        (self.v.iter().map(|v| v * v).sum::<f64>() / self.v.len() as f64).sqrt()
    }
}

/// The value at `time` on the line through `(t0, v0)` and `(t1, v1)`:
/// the one interpolation [`Waveform::value_at`] and [`Sampler`] share.
fn lerp((t0, v0): (f64, f64), (t1, v1): (f64, f64), time: f64) -> f64 {
    v0 + (v1 - v0) * (time - t0) / (t1 - t0)
}

/// Reads a signal at ascending sample times while its samples arrive in
/// time order, keeping only the latest one: the streaming form of
/// [`Waveform::value_at`], which it reproduces bit for bit on the
/// waveform the pushed samples would form.
///
/// A sample time at or before the first pushed time reads the first
/// value, one at or after the last pushed time reads the last value,
/// and one in between is interpolated over its bracket
/// `t[i−1] ≤ time < t[i]`. The output is reserved for the sample times'
/// lower size hint, so pushing allocates nothing for an exact-size
/// iterator.
///
/// # Example
///
/// ```
/// use anasim::waveform::{Sampler, Waveform};
///
/// let (t, v) = (vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 0.0]);
/// let mut sampler = Sampler::new([-1.0, 0.5, 1.0, 1.75, 3.0]);
/// for (&t, &v) in t.iter().zip(&v) {
///     sampler.push(t, v);
/// }
/// let w = Waveform::from_samples(t, v);
/// assert_eq!(sampler.finish(), [-1.0, 0.5, 1.0, 1.75, 3.0].map(|s| w.value_at(s)));
/// ```
#[derive(Debug, Clone)]
pub struct Sampler<I: Iterator<Item = f64>> {
    times: Peekable<I>,
    /// The latest pushed sample (`None` before the first).
    last: Option<(f64, f64)>,
    values: Vec<f64>,
}

impl<I: Iterator<Item = f64>> Sampler<I> {
    /// A sampler reading at `times`, which must ascend.
    pub fn new(times: impl IntoIterator<IntoIter = I>) -> Self {
        let times = times.into_iter();
        let values = Vec::with_capacity(times.size_hint().0);
        Sampler {
            times: times.peekable(),
            last: None,
            values,
        }
    }

    /// Takes the signal's next sample, `value` at `time` (after every
    /// earlier one), and reads every pending sample time it settles:
    /// those at or before `time` for the first sample, those before
    /// `time` after that.
    pub fn push(&mut self, time: f64, value: f64) {
        match self.last {
            None => {
                while self.times.next_if(|&s| s <= time).is_some() {
                    self.values.push(value);
                }
            }
            Some(last) => {
                while let Some(s) = self.times.next_if(|&s| s < time) {
                    self.values.push(lerp(last, (time, value), s));
                }
            }
        }
        self.last = Some((time, value));
    }

    /// Reads the remaining sample times at the last value (`0.0` if
    /// nothing was pushed, as for an empty [`Waveform`]) and returns one
    /// value per sample time.
    pub fn finish(mut self) -> Vec<f64> {
        let last = self.last.map_or(0.0, |(_, v)| v);
        self.values.extend(self.times.map(|_| last));
        self.values
    }
}

impl FromIterator<(f64, f64)> for Waveform {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut w = Waveform::new();
        for (t, v) in iter {
            w.push(t, v);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_midpoint() {
        let w = Waveform::from_samples(vec![0.0, 2.0], vec![0.0, 4.0]);
        assert_eq!(w.value_at(1.0), 2.0);
    }

    #[test]
    fn clamps_outside_range() {
        let w = Waveform::from_samples(vec![1.0, 2.0], vec![5.0, 6.0]);
        assert_eq!(w.value_at(0.0), 5.0);
        assert_eq!(w.value_at(3.0), 6.0);
    }

    #[test]
    fn empty_waveform_reads_zero() {
        let w = Waveform::new();
        assert_eq!(w.value_at(1.0), 0.0);
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_non_monotonic_time() {
        let _ = Waveform::from_samples(vec![0.0, 0.0], vec![1.0, 2.0]);
    }

    #[test]
    fn push_accumulates() {
        let mut w = Waveform::new();
        w.push(0.0, 1.0);
        w.push(1.0, 2.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.t_end(), 1.0);
    }

    #[test]
    fn resample_hits_endpoints() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 10.0]);
        let r = w.resample_uniform(11);
        assert_eq!(r.len(), 11);
        assert_eq!(r.values()[0], 0.0);
        assert!((r.values()[10] - 10.0).abs() < 1e-12);
        assert!((r.values()[5] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sample_every_covers_range() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 1.0]);
        let s = w.sample_every(0.25);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn subtract_aligns_time_grids() {
        let a = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![1.0, 2.0, 3.0]);
        let b = Waveform::from_samples(vec![0.0, 2.0], vec![1.0, 3.0]);
        let d = a.subtract(&b);
        assert!(d.values().iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn rms_of_constant() {
        let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![3.0, 3.0, 3.0]);
        assert!((w.rms() - 3.0).abs() < 1e-12);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// The sampler reads what `value_at` reads off the stored
        /// waveform, by `to_bits`: sample times before the first row, on
        /// row times, between rows, on the last row and after it.
        #[test]
        fn sampler_matches_value_at(
            steps in proptest::collection::vec(1e-3..2.0f64, 1..40),
            values in proptest::collection::vec(-3.0..3.0f64, 41),
            picks in proptest::collection::vec((0usize..45, 0.0..1.0f64, 0usize..4), 0..60),
            t0 in -1.0..1.0f64,
        ) {
            let mut t = vec![t0];
            for dt in &steps {
                let next = t[t.len() - 1] + dt;
                t.push(next);
            }
            let v = values[..t.len()].to_vec();
            let n = t.len();
            // Row times, points inside a bracket, and points before the
            // first and after the last row.
            let mut times: Vec<f64> = picks
                .iter()
                .map(|&(i, frac, kind)| match kind {
                    0 => t[i % n],
                    1 => t[0] - frac,
                    2 => t[n - 1] + frac,
                    _ if i % n + 1 < n => t[i % n] + frac * (t[i % n + 1] - t[i % n]),
                    _ => t[n - 1],
                })
                .collect();
            times.sort_by(f64::total_cmp);
            let mut sampler = Sampler::new(times.clone());
            for (&ti, &vi) in t.iter().zip(&v) {
                sampler.push(ti, vi);
            }
            let got = sampler.finish();
            let w = Waveform::from_samples(t, v);
            proptest::prop_assert_eq!(got.len(), times.len());
            for (g, &s) in got.iter().zip(&times) {
                proptest::prop_assert_eq!(g.to_bits(), w.value_at(s).to_bits(), "at {}", s);
            }
        }
    }

    #[test]
    fn sampler_without_rows_reads_zero() {
        let sampler = Sampler::new([0.0, 1.0]);
        assert_eq!(sampler.finish(), [0.0, 0.0]);
    }

    #[test]
    fn collects_from_iterator() {
        let w: Waveform = (0..5).map(|i| (i as f64, i as f64 * 2.0)).collect();
        assert_eq!(w.len(), 5);
        assert_eq!(w.value_at(2.0), 4.0);
    }
}
