//! Windowed time series for live telemetry: fixed-capacity ring-buffer
//! samples with rate and EWMA derivation.
//!
//! The live-status layer (`mixsig.campaign-status/1` snapshots) needs
//! throughput and ETA figures that react to the recent past without
//! unbounded memory: a campaign that runs for hours must not keep every
//! observation. [`TimeSeries`] keeps the last `capacity` samples in a
//! [`RingBuffer`] and derives a windowed rate
//! from whatever the window currently spans; [`Ewma`] is the
//! exponentially weighted moving average used to smooth per-fault
//! throughput; [`WindowedCounter`] combines both for the monotonic
//! counter a campaign snapshot rates ("faults completed so far").
//!
//! Everything here is zero-dependency and wall-clock free: callers pass
//! their own timestamps (milliseconds on whatever clock they like), so
//! the derivations are exactly testable and the module never reads a
//! clock behind the caller's back.

use crate::ring::RingBuffer;

/// One observation: a timestamp (caller-defined milliseconds) and a
/// value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Timestamp in milliseconds on the caller's clock.
    pub t_ms: f64,
    /// Observed value.
    pub value: f64,
}

/// A fixed-capacity series of timestamped samples, oldest discarded
/// first.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    samples: RingBuffer<Sample>,
}

impl TimeSeries {
    /// A series retaining at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (inherited from
    /// [`RingBuffer::new`]).
    pub fn new(capacity: usize) -> Self {
        TimeSeries {
            samples: RingBuffer::new(capacity),
        }
    }

    /// Records one observation. Non-monotonic timestamps are accepted
    /// (the derivations below guard against zero or negative spans).
    pub fn push(&mut self, t_ms: f64, value: f64) {
        self.samples.push(Sample { t_ms, value });
    }

    /// The oldest retained sample.
    pub fn first(&self) -> Option<Sample> {
        self.samples.iter().next().copied()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<Sample> {
        self.samples.iter().last().copied()
    }

    /// Change in value per second across the retained window, or `None`
    /// with fewer than two samples or a non-positive time span.
    pub fn rate_per_sec(&self) -> Option<f64> {
        let (first, last) = (self.first()?, self.last()?);
        let span_ms = last.t_ms - first.t_ms;
        if span_ms <= 0.0 {
            return None;
        }
        Some((last.value - first.value) / (span_ms / 1e3))
    }
}

/// Exponentially weighted moving average with smoothing factor `alpha`
/// in `(0, 1]`: larger alpha reacts faster, `alpha == 1` tracks the
/// last observation exactly. The first observation seeds the average.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// An empty average with the given smoothing factor, clamped into
    /// `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        Ewma {
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
            value: None,
        }
    }

    /// Folds one observation in and returns the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let next = match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        };
        self.value = Some(next);
        next
    }

    /// The current average, or `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// A windowed monotonic counter: ring-buffered `(t, total)` samples
/// plus an EWMA of the instantaneous rate between consecutive
/// observations. The windowed rate answers "how fast over the recent
/// past", the EWMA answers "how fast right now, smoothed".
#[derive(Debug, Clone)]
pub struct WindowedCounter {
    series: TimeSeries,
    ewma: Ewma,
}

impl WindowedCounter {
    /// Default sample capacity: enough for minutes of sub-second
    /// observation without measurable memory.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// Default EWMA smoothing factor.
    pub const DEFAULT_ALPHA: f64 = 0.2;

    /// A counter with the default window capacity and smoothing.
    pub fn new() -> Self {
        WindowedCounter::with_capacity(Self::DEFAULT_CAPACITY, Self::DEFAULT_ALPHA)
    }

    /// A counter with explicit window capacity and EWMA alpha.
    pub fn with_capacity(capacity: usize, alpha: f64) -> Self {
        WindowedCounter {
            series: TimeSeries::new(capacity),
            ewma: Ewma::new(alpha),
        }
    }

    /// Records the counter's cumulative total at `t_ms`. Out-of-order
    /// or non-advancing timestamps record the sample but skip the EWMA
    /// (no instantaneous rate exists for a zero or negative interval).
    pub fn observe(&mut self, t_ms: f64, total: f64) {
        if let Some(prev) = self.series.last() {
            let dt_ms = t_ms - prev.t_ms;
            if dt_ms > 0.0 {
                self.ewma.update((total - prev.value) / (dt_ms / 1e3));
            }
        }
        self.series.push(t_ms, total);
    }

    /// Rate per second over the retained window (`None` until two
    /// samples span positive time).
    pub fn rate_per_sec(&self) -> Option<f64> {
        self.series.rate_per_sec()
    }

    /// Smoothed instantaneous rate per second.
    pub fn ewma_per_sec(&self) -> Option<f64> {
        self.ewma.value()
    }
}

impl Default for WindowedCounter {
    fn default() -> Self {
        WindowedCounter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_rate_uses_first_and_last_sample() {
        let mut ts = TimeSeries::new(8);
        assert!(ts.rate_per_sec().is_none());
        ts.push(0.0, 0.0);
        assert!(ts.rate_per_sec().is_none(), "one sample has no rate");
        ts.push(500.0, 5.0);
        ts.push(1000.0, 8.0);
        // 8 units over 1 second.
        assert_eq!(ts.rate_per_sec(), Some(8.0));
    }

    #[test]
    fn ring_discards_oldest_so_the_rate_is_windowed() {
        let mut ts = TimeSeries::new(3);
        ts.push(0.0, 0.0); // evicted below
        ts.push(1000.0, 100.0);
        ts.push(2000.0, 101.0);
        ts.push(3000.0, 102.0);
        // Window is [1000, 3000]: 2 units over 2 seconds, the burst at
        // the evicted origin no longer biases the figure.
        assert_eq!(ts.rate_per_sec(), Some(1.0));
    }

    #[test]
    fn zero_or_negative_spans_yield_no_rate() {
        let mut ts = TimeSeries::new(4);
        ts.push(100.0, 1.0);
        ts.push(100.0, 2.0);
        assert!(ts.rate_per_sec().is_none());
        let mut backwards = TimeSeries::new(4);
        backwards.push(200.0, 1.0);
        backwards.push(100.0, 2.0);
        assert!(backwards.rate_per_sec().is_none());
    }

    #[test]
    fn ewma_seeds_on_first_observation_and_smooths_after() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.update(20.0), 15.0);
        assert_eq!(e.update(20.0), 17.5);
    }

    #[test]
    fn ewma_alpha_one_tracks_the_last_value() {
        let mut e = Ewma::new(1.0);
        e.update(3.0);
        e.update(42.0);
        assert_eq!(e.value(), Some(42.0));
    }

    #[test]
    fn counter_derives_window_and_ewma_rates() {
        let mut c = WindowedCounter::with_capacity(16, 0.5);
        c.observe(0.0, 0.0);
        c.observe(1000.0, 4.0);
        c.observe(2000.0, 6.0);
        assert_eq!(c.rate_per_sec(), Some(3.0)); // 6 over 2 s
        // EWMA of instantaneous rates 4/s then 2/s at alpha 0.5.
        assert_eq!(c.ewma_per_sec(), Some(3.0));
    }

    #[test]
    fn counter_ignores_non_advancing_timestamps_for_the_ewma() {
        let mut c = WindowedCounter::with_capacity(16, 0.5);
        c.observe(0.0, 0.0);
        c.observe(0.0, 100.0); // same instant: no instantaneous rate
        assert_eq!(c.ewma_per_sec(), None);
        c.observe(1000.0, 101.0);
        assert!(c.ewma_per_sec().is_some());
    }

}
