//! Time-domain waveform descriptions for independent sources.

/// The time-domain shape of an independent voltage or current source.
///
/// All variants evaluate to a value at an absolute simulation time via
/// [`SourceWaveform::value_at`].
///
/// # Example
///
/// ```
/// use anasim::source::SourceWaveform;
///
/// let ramp = SourceWaveform::ramp(0.0, 2.5, 1.0);
/// assert_eq!(ramp.value_at(0.5), 1.25);
/// assert_eq!(ramp.value_at(2.0), 2.5); // holds the final value
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SourceWaveform {
    /// Constant value for all time.
    Dc(f64),
    /// Single step from `initial` to `level` at `delay` seconds.
    Step {
        /// Value before the step.
        initial: f64,
        /// Value after the step.
        level: f64,
        /// Time of the step in seconds.
        delay: f64,
    },
    /// Linear ramp from `start` to `end` over `duration`, then held.
    Ramp {
        /// Value at t = 0.
        start: f64,
        /// Value at t = duration (held afterwards).
        end: f64,
        /// Ramp duration in seconds.
        duration: f64,
    },
    /// SPICE-style periodic pulse.
    Pulse {
        /// Initial (low) value.
        low: f64,
        /// Pulsed (high) value.
        high: f64,
        /// Delay before the first rising edge.
        delay: f64,
        /// Rise time (seconds).
        rise: f64,
        /// Fall time (seconds).
        fall: f64,
        /// Width of the high level (seconds).
        width: f64,
        /// Period of repetition (seconds).
        period: f64,
    },
    /// Sinusoid `offset + amplitude * sin(2π·freq·(t − delay))` for
    /// `t >= delay`, `offset` before.
    Sine {
        /// DC offset.
        offset: f64,
        /// Peak amplitude.
        amplitude: f64,
        /// Frequency in hertz.
        freq: f64,
        /// Start delay in seconds.
        delay: f64,
    },
    /// Piecewise-linear waveform through `(time, value)` points.
    ///
    /// Before the first point the first value is held; after the last point
    /// the last value is held. Points must be sorted by time.
    Pwl(Vec<(f64, f64)>),
    /// A binary sequence played as a staircase: bit `i` holds between
    /// `i*bit_period` and `(i+1)*bit_period`, mapping `false -> low`,
    /// `true -> high`. After the last bit the sequence repeats.
    BitStream {
        /// The bit pattern.
        bits: Vec<bool>,
        /// Duration of one bit in seconds.
        bit_period: f64,
        /// Output value for a 0 bit.
        low: f64,
        /// Output value for a 1 bit.
        high: f64,
    },
}

impl SourceWaveform {
    /// Constant-value source (shorthand for [`SourceWaveform::Dc`]).
    pub fn dc(value: f64) -> Self {
        SourceWaveform::Dc(value)
    }

    /// Step from 0 to `level` at time `delay`.
    pub fn step(level: f64, delay: f64) -> Self {
        SourceWaveform::Step {
            initial: 0.0,
            level,
            delay,
        }
    }

    /// Linear ramp from `start` to `end` over `duration` seconds.
    pub fn ramp(start: f64, end: f64, duration: f64) -> Self {
        SourceWaveform::Ramp {
            start,
            end,
            duration,
        }
    }

    /// Ideal two-phase clock helper: a pulse train that is high for
    /// `width` out of every `period` seconds, starting at `delay`, with
    /// edge times `edge`.
    pub fn clock(low: f64, high: f64, delay: f64, width: f64, period: f64, edge: f64) -> Self {
        SourceWaveform::Pulse {
            low,
            high,
            delay,
            rise: edge,
            fall: edge,
            width,
            period,
        }
    }

    /// Evaluates the waveform at absolute time `t` (seconds).
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            SourceWaveform::Dc(v) => *v,
            SourceWaveform::Step {
                initial,
                level,
                delay,
            } => {
                if t < *delay {
                    *initial
                } else {
                    *level
                }
            }
            SourceWaveform::Ramp {
                start,
                end,
                duration,
            } => {
                if t <= 0.0 {
                    *start
                } else if t >= *duration {
                    *end
                } else {
                    start + (end - start) * t / duration
                }
            }
            SourceWaveform::Pulse {
                low,
                high,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *low;
                }
                let tp = pulse_phase(t - delay, *period);
                if tp < *rise {
                    low + (high - low) * tp / rise.max(1e-15)
                } else if tp < rise + width {
                    *high
                } else if tp < rise + width + fall {
                    high - (high - low) * (tp - rise - width) / fall.max(1e-15)
                } else {
                    *low
                }
            }
            SourceWaveform::Sine {
                offset,
                amplitude,
                freq,
                delay,
            } => {
                if t < *delay {
                    *offset
                } else {
                    offset + amplitude * (2.0 * std::f64::consts::PI * freq * (t - delay)).sin()
                }
            }
            SourceWaveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                // Find the segment containing t.
                let idx = points.partition_point(|&(pt, _)| pt <= t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                if t1 == t0 {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
            SourceWaveform::BitStream {
                bits,
                bit_period,
                low,
                high,
            } => {
                if bits.is_empty() {
                    return *low;
                }
                let idx = ((t / bit_period).floor().max(0.0) as usize) % bits.len();
                if bits[idx] {
                    *high
                } else {
                    *low
                }
            }
        }
    }

    /// Returns times at which the waveform has a discontinuity or corner in
    /// `[t0, t1)` — used by the transient engine to align timesteps with
    /// sharp edges (breakpoints).
    pub fn breakpoints(&self, t0: f64, t1: f64) -> Vec<f64> {
        let mut pts = Vec::new();
        match self {
            SourceWaveform::Dc(_) => {}
            SourceWaveform::Step { delay, .. } => {
                if *delay >= t0 && *delay < t1 {
                    pts.push(*delay);
                }
            }
            SourceWaveform::Ramp { duration, .. } => {
                if *duration >= t0 && *duration < t1 {
                    pts.push(*duration);
                }
            }
            SourceWaveform::Pulse {
                delay,
                rise,
                fall,
                width,
                period,
                ..
            } => {
                let mut cycle_start = *delay;
                // Walk periods that intersect [t0, t1).
                if period > &0.0 && cycle_start < t1 {
                    let skip = ((t0 - cycle_start) / period).floor().max(0.0);
                    cycle_start += skip * period;
                    while cycle_start < t1 {
                        for offset in [0.0, *rise, rise + width, rise + width + fall] {
                            let bp = cycle_start + offset;
                            if bp >= t0 && bp < t1 {
                                pts.push(bp);
                            }
                        }
                        cycle_start += period;
                    }
                }
            }
            SourceWaveform::Sine { delay, .. } => {
                if *delay >= t0 && *delay < t1 {
                    pts.push(*delay);
                }
            }
            SourceWaveform::Pwl(points) => {
                pts.extend(points.iter().map(|&(t, _)| t).filter(|&t| t >= t0 && t < t1));
            }
            SourceWaveform::BitStream {
                bits, bit_period, ..
            } => {
                if !bits.is_empty() {
                    let mut k = (t0 / bit_period).floor().max(0.0) as u64;
                    loop {
                        let bp = k as f64 * bit_period;
                        if bp >= t1 {
                            break;
                        }
                        if bp >= t0 {
                            pts.push(bp);
                        }
                        k += 1;
                    }
                }
            }
        }
        pts
    }
}

/// `x % period`, bit for bit, for the phase of a [`SourceWaveform::Pulse`]
/// (`x = t − delay ≥ 0`), without the library `fmod` a stamp would
/// otherwise call for every pulse source.
///
/// The remainder `x − n·period`, `n = ⌊x/period⌋`, is exactly
/// representable, and the reduction computes it exactly:
///
/// * below one period it is `x`, and below two it is `x − period`
///   (exact by Sterbenz's lemma);
/// * otherwise the rounded quotient `q` is `n` or `n + 1`, since
///   rounding is monotonic. Split `period = hi + lo` (Veltkamp, hi and
///   lo of at most 26 significant bits each) so that for `q < 2²⁷` the
///   products `q·hi` and `q·lo` are exact. `x − q·hi` is then exact too:
///   its magnitude stays below 2⁵³ units of the coarser of the two
///   operands' last places. So `(x − q·hi) − q·lo` has the sign of
///   `x − q·period`, and, once `q = n`, rounds to that exact value;
/// * anything else (non-finite or extreme values, quotients of 2²⁷ and
///   more) falls back to `%`.
fn pulse_phase(x: f64, period: f64) -> f64 {
    // 2^27 + 1, the Veltkamp splitter for 26-bit halves.
    const SPLIT: f64 = 134_217_729.0;
    if !(x >= 0.0 && period > 1e-290 && period < 1e290) {
        return x % period;
    }
    if x < period {
        return x;
    }
    if x < 2.0 * period {
        return x - period;
    }
    let ratio = x / period;
    if ratio >= 134_217_728.0 {
        return x % period;
    }
    let split = SPLIT * period;
    let hi = split - (split - period);
    let lo = period - hi;
    let q = (ratio as u64) as f64;
    let r = (x - q * hi) - q * lo;
    if r < 0.0 {
        let q = q - 1.0;
        (x - q * hi) - q * lo
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pulse evaluated with `%`, as before [`pulse_phase`]: the oracle
    /// it must match bit for bit.
    fn pulse_with_fmod(w: &SourceWaveform, t: f64) -> f64 {
        let SourceWaveform::Pulse {
            low,
            high,
            delay,
            rise,
            fall,
            width,
            period,
        } = *w
        else {
            unreachable!("a pulse")
        };
        if t < delay {
            return low;
        }
        let tp = (t - delay) % period;
        if tp < rise {
            low + (high - low) * tp / rise.max(1e-15)
        } else if tp < rise + width {
            high
        } else if tp < rise + width + fall {
            high - (high - low) * (tp - rise - width) / fall.max(1e-15)
        } else {
            low
        }
    }

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn next_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// The phase reduction is `%` by `to_bits`: below and at one
        /// period, on exact multiples of the period (as computed) and one
        /// ulp either side, one period below a multiple, inside a period,
        /// and far beyond the exact range (`t ≫ period`).
        #[test]
        fn pulse_phase_is_fmod(
            log_period in -12.0..6.0f64,
            mantissa in 1.0..2.0f64,
            k in 0u64..(1 << 28),
            log_big in 0.0..40.0f64,
            frac in 0.0..1.0f64,
        ) {
            let period = mantissa * 10f64.powf(log_period);
            let kf = k as f64;
            let multiple = kf * period;
            let xs = [
                0.0,
                -0.0,
                frac * period,
                period,
                next_down(period),
                2.0 * period,
                next_down(2.0 * period),
                multiple,
                next_up(multiple),
                if multiple > 0.0 { next_down(multiple) } else { 0.0 },
                (kf - 1.0).max(0.0) * period,
                multiple - period,
                (kf + frac) * period,
                period * 2f64.powf(log_big),
                period * 2f64.powf(log_big) * (1.0 + frac),
            ];
            for x in xs {
                proptest::prop_assert_eq!(
                    pulse_phase(x, period).to_bits(),
                    (x % period).to_bits(),
                    "{:e} % {:e}",
                    x,
                    period
                );
            }
        }

        /// A pulse reads what it read with `%`, by `to_bits`, before its
        /// delay, inside its first periods and far along the train.
        #[test]
        fn pulse_value_matches_fmod(
            delay in 0.0..1e-6f64,
            rise in 0.0..1e-7f64,
            fall in 0.0..1e-7f64,
            width in 0.0..3e-6f64,
            gap in 1e-9..3e-6f64,
            periods in 0u64..1_000_000,
            frac in 0.0..1.0f64,
        ) {
            let period = rise + width + fall + gap;
            let w = SourceWaveform::Pulse {
                low: -0.3,
                high: 4.2,
                delay,
                rise,
                fall,
                width,
                period,
            };
            let on_train = delay + (periods as f64 + frac) * period;
            for t in [
                0.0,
                frac * delay,
                delay,
                next_up(delay),
                delay + frac * period,
                delay + periods as f64 * period,
                on_train,
                delay + rise,
                delay + rise + width,
                delay + rise + width + fall,
            ] {
                proptest::prop_assert_eq!(
                    w.value_at(t).to_bits(),
                    pulse_with_fmod(&w, t).to_bits(),
                    "t = {:e}",
                    t
                );
            }
        }
    }

    #[test]
    fn pulse_phase_falls_back_outside_its_range() {
        for (x, p) in [
            (f64::INFINITY, 1.0),
            (f64::NAN, 1.0),
            (1.0, 0.0),
            (1.0, -0.3),
            (-2.5, 1.0),
            (1e300, 1e-5),
            (3.0, f64::INFINITY),
            (5e-300, 1e-300),
        ] {
            let (got, want) = (pulse_phase(x, p), x % p);
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{x:e} % {p:e}: {got:e} vs {want:e}"
            );
        }
    }

    #[test]
    fn dc_is_constant() {
        let w = SourceWaveform::dc(3.3);
        assert_eq!(w.value_at(0.0), 3.3);
        assert_eq!(w.value_at(1e9), 3.3);
    }

    #[test]
    fn step_switches_at_delay() {
        let w = SourceWaveform::step(5.0, 1e-3);
        assert_eq!(w.value_at(0.5e-3), 0.0);
        assert_eq!(w.value_at(1.5e-3), 5.0);
    }

    #[test]
    fn ramp_is_linear_then_held() {
        let w = SourceWaveform::ramp(0.0, 2.5, 1.0);
        assert!((w.value_at(0.2) - 0.5).abs() < 1e-12);
        assert_eq!(w.value_at(5.0), 2.5);
        assert_eq!(w.value_at(-1.0), 0.0);
    }

    #[test]
    fn pulse_cycles() {
        let w = SourceWaveform::Pulse {
            low: 0.0,
            high: 5.0,
            delay: 0.0,
            rise: 1e-9,
            fall: 1e-9,
            width: 5e-6,
            period: 10e-6,
        };
        assert_eq!(w.value_at(2e-6), 5.0);
        assert_eq!(w.value_at(7e-6), 0.0);
        assert_eq!(w.value_at(12e-6), 5.0); // second period
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = SourceWaveform::Pwl(vec![(0.0, 0.0), (1.0, 10.0), (2.0, 0.0)]);
        assert!((w.value_at(0.5) - 5.0).abs() < 1e-12);
        assert!((w.value_at(1.5) - 5.0).abs() < 1e-12);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(3.0), 0.0);
    }

    #[test]
    fn bitstream_plays_and_repeats() {
        let w = SourceWaveform::BitStream {
            bits: vec![true, false, true],
            bit_period: 1e-6,
            low: 0.0,
            high: 5.0,
        };
        assert_eq!(w.value_at(0.5e-6), 5.0);
        assert_eq!(w.value_at(1.5e-6), 0.0);
        assert_eq!(w.value_at(2.5e-6), 5.0);
        assert_eq!(w.value_at(3.5e-6), 5.0); // wraps to bit 0
    }

    #[test]
    fn sine_starts_after_delay() {
        let w = SourceWaveform::Sine {
            offset: 1.0,
            amplitude: 2.0,
            freq: 1.0,
            delay: 1.0,
        };
        assert_eq!(w.value_at(0.5), 1.0);
        assert!((w.value_at(1.25) - 3.0).abs() < 1e-9); // peak at quarter period
    }

    #[test]
    fn pulse_breakpoints_cover_edges() {
        let w = SourceWaveform::Pulse {
            low: 0.0,
            high: 5.0,
            delay: 0.0,
            rise: 1e-7,
            fall: 1e-7,
            width: 4e-6,
            period: 10e-6,
        };
        let bps = w.breakpoints(0.0, 20e-6);
        // 4 breakpoints per cycle, two cycles.
        assert_eq!(bps.len(), 8);
        assert!(bps.contains(&0.0));
    }

    #[test]
    fn bitstream_breakpoints_are_bit_boundaries() {
        let w = SourceWaveform::BitStream {
            bits: vec![true, false],
            bit_period: 1e-6,
            low: 0.0,
            high: 5.0,
        };
        let bps = w.breakpoints(0.0, 3e-6);
        assert_eq!(bps, vec![0.0, 1e-6, 2e-6]);
    }
}
