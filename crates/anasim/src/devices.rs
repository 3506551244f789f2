//! Circuit element models.
//!
//! Devices are plain data; their electrical behaviour (MNA stamps) lives in
//! [`crate::mna`]. Nonlinear models (MOSFET, diode) expose small-signal
//! evaluation helpers used by the Newton iteration.

use crate::netlist::NodeId;
use crate::source::SourceWaveform;

/// MOS transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Level-1 (Shichman–Hodges) MOSFET parameters.
///
/// `beta` is the composite transconductance factor `KP · W / L` in A/V²,
/// i.e. the drain current in saturation is
/// `Id = (beta/2)·(Vgs − Vt)²·(1 + lambda·Vds)`.
///
/// Default values model the 5 µm CMOS gate-array process of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Zero-bias threshold voltage in volts (positive for both polarities;
    /// the sign convention is handled by [`MosPolarity`]).
    pub vt0: f64,
    /// Composite transconductance `KP · W / L` in A/V².
    pub beta: f64,
    /// Channel-length modulation in 1/V.
    pub lambda: f64,
}

impl MosParams {
    /// Parameters for a minimum-size NMOS device in the 5 µm process.
    pub fn nmos_5um() -> Self {
        MosParams {
            vt0: 1.0,
            beta: 40e-6,
            lambda: 0.02,
        }
    }

    /// Parameters for a minimum-size PMOS device in the 5 µm process.
    pub fn pmos_5um() -> Self {
        MosParams {
            vt0: 1.0,
            beta: 16e-6,
            lambda: 0.02,
        }
    }

    /// Returns a copy scaled to an aspect ratio `w_over_l`, relative to the
    /// unit device (`W/L = 1`).
    pub fn with_aspect(self, w_over_l: f64) -> Self {
        MosParams {
            beta: self.beta * w_over_l,
            ..self
        }
    }
}

/// Operating region of a MOSFET at a bias point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosRegion {
    /// `Vgs < Vt`: device off.
    Cutoff,
    /// `Vds < Vgs − Vt`: resistive/triode region.
    Linear,
    /// `Vds >= Vgs − Vt`: current-source region.
    Saturation,
}

/// Small-signal linearisation of a MOSFET at a bias point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosOperatingPoint {
    /// Drain current (drain → source through the channel), amperes.
    pub ids: f64,
    /// Transconductance ∂Id/∂Vgs, siemens.
    pub gm: f64,
    /// Output conductance ∂Id/∂Vds, siemens.
    pub gds: f64,
    /// Operating region.
    pub region: MosRegion,
}

impl MosParams {
    /// Evaluates the level-1 model at `(vgs, vds)` for an N-channel sign
    /// convention (`vds >= 0`; callers swap terminals when `vds < 0`).
    pub fn evaluate(&self, vgs: f64, vds: f64) -> MosOperatingPoint {
        debug_assert!(vds >= 0.0, "evaluate expects vds >= 0 (swap terminals)");
        let vov = vgs - self.vt0;
        if vov <= 0.0 {
            return MosOperatingPoint {
                ids: 0.0,
                gm: 0.0,
                gds: 0.0,
                region: MosRegion::Cutoff,
            };
        }
        let clm = 1.0 + self.lambda * vds;
        if vds < vov {
            // Triode.
            let ids = self.beta * (vov * vds - 0.5 * vds * vds) * clm;
            let gm = self.beta * vds * clm;
            let gds = self.beta * ((vov - vds) * clm + (vov * vds - 0.5 * vds * vds) * self.lambda);
            MosOperatingPoint {
                ids,
                gm,
                gds,
                region: MosRegion::Linear,
            }
        } else {
            // Saturation.
            let ids = 0.5 * self.beta * vov * vov * clm;
            let gm = self.beta * vov * clm;
            let gds = 0.5 * self.beta * vov * vov * self.lambda;
            MosOperatingPoint {
                ids,
                gm,
                gds,
                region: MosRegion::Saturation,
            }
        }
    }
}

/// Junction diode parameters (exponential model with series limiting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodeParams {
    /// Saturation current in amperes.
    pub is: f64,
    /// Emission coefficient (ideality factor).
    pub n: f64,
}

impl Default for DiodeParams {
    fn default() -> Self {
        DiodeParams { is: 1e-14, n: 1.0 }
    }
}

impl DiodeParams {
    /// Thermal voltage at 300 K, volts.
    pub const VT: f64 = 0.02585;

    /// Evaluates `(id, gd)` at junction voltage `vd`, with exponent
    /// limiting for numerical robustness.
    pub fn evaluate(&self, vd: f64) -> (f64, f64) {
        let nvt = self.n * Self::VT;
        // Limit the exponent to avoid overflow; linearise beyond the limit.
        let vcrit = nvt * 40.0;
        if vd <= vcrit {
            let e = (vd / nvt).exp();
            (self.is * (e - 1.0), self.is * e / nvt)
        } else {
            let e = (vcrit / nvt).exp();
            let id0 = self.is * (e - 1.0);
            let gd = self.is * e / nvt;
            (id0 + gd * (vd - vcrit), gd)
        }
    }
}

/// A voltage-controlled switch with smooth resistance transition.
///
/// The conductance interpolates log-linearly between `1/roff` and `1/ron`
/// over a transition band of width `vwidth` centred on `vthresh`, which
/// keeps Newton happy across switching instants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchParams {
    /// Closed (on) resistance, ohms.
    pub ron: f64,
    /// Open (off) resistance, ohms.
    pub roff: f64,
    /// Control threshold voltage, volts.
    pub vthresh: f64,
    /// Transition band width, volts.
    pub vwidth: f64,
}

impl Default for SwitchParams {
    fn default() -> Self {
        SwitchParams {
            ron: 1e3,
            roff: 1e12,
            vthresh: 2.5,
            vwidth: 1.0,
        }
    }
}

impl SwitchParams {
    /// Conductance of the switch for control voltage `vc`.
    pub fn conductance(&self, vc: f64) -> f64 {
        let g_on = 1.0 / self.ron;
        let g_off = 1.0 / self.roff;
        let x = (vc - self.vthresh) / self.vwidth;
        if x <= -0.5 {
            g_off
        } else if x >= 0.5 {
            g_on
        } else {
            // Log-linear blend: smooth over many decades of conductance.
            let frac = x + 0.5;
            (g_off.ln() + frac * (g_on.ln() - g_off.ln())).exp()
        }
    }
}

/// A circuit element instance.
///
/// Node pairs follow the SPICE convention: positive current flows from the
/// first listed node through the device to the second.
#[derive(Debug, Clone, PartialEq)]
pub enum Device {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads.
        farads: f64,
        /// Optional initial voltage `v(a) − v(b)` used by UIC transient.
        ic: Option<f64>,
    },
    /// Linear inductor between `a` and `b` (adds a branch current unknown).
    Inductor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Inductance in henries.
        henries: f64,
    },
    /// Independent voltage source from `pos` to `neg` (adds a branch
    /// current unknown).
    Vsource {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Waveform.
        wave: SourceWaveform,
    },
    /// Independent current source pushing current out of `pos` into `neg`
    /// externally (i.e. conventional current flows `pos → neg` through the
    /// source's environment).
    Isource {
        /// Terminal current is pulled from.
        pos: NodeId,
        /// Terminal current is pushed into.
        neg: NodeId,
        /// Waveform (amperes).
        wave: SourceWaveform,
    },
    /// Voltage-controlled voltage source: `v(pos) − v(neg) = gain ·
    /// (v(cpos) − v(cneg))`.
    Vcvs {
        /// Positive output terminal.
        pos: NodeId,
        /// Negative output terminal.
        neg: NodeId,
        /// Positive control terminal.
        cpos: NodeId,
        /// Negative control terminal.
        cneg: NodeId,
        /// Voltage gain.
        gain: f64,
    },
    /// Voltage-controlled current source: current `gm · (v(cpos) − v(cneg))`
    /// flows from `pos` to `neg` through the source.
    Vccs {
        /// Current exits this terminal (into the source).
        pos: NodeId,
        /// Current re-enters the circuit here.
        neg: NodeId,
        /// Positive control terminal.
        cpos: NodeId,
        /// Negative control terminal.
        cneg: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
    /// Level-1 MOSFET.
    Mosfet {
        /// Drain terminal.
        drain: NodeId,
        /// Gate terminal.
        gate: NodeId,
        /// Source terminal.
        source: NodeId,
        /// Device polarity.
        polarity: MosPolarity,
        /// Model parameters.
        params: MosParams,
    },
    /// Junction diode from `anode` to `cathode`.
    Diode {
        /// Anode.
        anode: NodeId,
        /// Cathode.
        cathode: NodeId,
        /// Model parameters.
        params: DiodeParams,
    },
    /// Voltage-controlled switch between `a` and `b`, controlled by
    /// `v(cpos) − v(cneg)`.
    Switch {
        /// First switched terminal.
        a: NodeId,
        /// Second switched terminal.
        b: NodeId,
        /// Positive control terminal.
        cpos: NodeId,
        /// Negative control terminal.
        cneg: NodeId,
        /// Switch model.
        params: SwitchParams,
    },
}

impl Device {
    /// True if the device needs an MNA branch-current unknown.
    pub fn needs_branch_current(&self) -> bool {
        matches!(
            self,
            Device::Vsource { .. } | Device::Vcvs { .. } | Device::Inductor { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mosfet_cutoff_below_threshold() {
        let p = MosParams::nmos_5um();
        let op = p.evaluate(0.5, 3.0);
        assert_eq!(op.region, MosRegion::Cutoff);
        assert_eq!(op.ids, 0.0);
    }

    #[test]
    fn mosfet_saturation_current_quadratic() {
        let p = MosParams {
            vt0: 1.0,
            beta: 100e-6,
            lambda: 0.0,
        };
        let op = p.evaluate(3.0, 5.0);
        assert_eq!(op.region, MosRegion::Saturation);
        // Id = beta/2 * (3-1)^2 = 200 uA
        assert!((op.ids - 200e-6).abs() < 1e-12);
        assert!((op.gm - 200e-6).abs() < 1e-12);
        assert_eq!(op.gds, 0.0);
    }

    #[test]
    fn mosfet_triode_region() {
        let p = MosParams {
            vt0: 1.0,
            beta: 100e-6,
            lambda: 0.0,
        };
        let op = p.evaluate(3.0, 0.5);
        assert_eq!(op.region, MosRegion::Linear);
        // Id = beta*(vov*vds - vds^2/2) = 100u*(2*0.5 - 0.125) = 87.5 uA
        assert!((op.ids - 87.5e-6).abs() < 1e-12);
    }

    #[test]
    fn mosfet_current_is_continuous_at_pinchoff() {
        let p = MosParams::nmos_5um();
        let vov = 2.0;
        let below = p.evaluate(1.0 + vov, vov - 1e-9);
        let above = p.evaluate(1.0 + vov, vov + 1e-9);
        assert!((below.ids - above.ids).abs() < 1e-9 * p.beta * 10.0);
    }

    #[test]
    fn channel_length_modulation_increases_sat_current() {
        let p = MosParams {
            vt0: 1.0,
            beta: 100e-6,
            lambda: 0.05,
        };
        let low = p.evaluate(3.0, 2.5);
        let high = p.evaluate(3.0, 5.0);
        assert!(high.ids > low.ids);
        assert!(high.gds > 0.0);
    }

    #[test]
    fn diode_forward_and_reverse() {
        let d = DiodeParams::default();
        let (i_fwd, g_fwd) = d.evaluate(0.6);
        let (i_rev, _) = d.evaluate(-1.0);
        assert!(i_fwd > 1e-6);
        assert!(g_fwd > 0.0);
        assert!(i_rev < 0.0 && i_rev > -1e-13);
    }

    #[test]
    fn diode_limits_large_forward_bias() {
        let d = DiodeParams::default();
        let (i, g) = d.evaluate(5.0);
        assert!(i.is_finite());
        assert!(g.is_finite());
    }

    #[test]
    fn switch_conductance_extremes_and_monotonic() {
        let s = SwitchParams::default();
        assert!((s.conductance(0.0) - 1e-12).abs() < 1e-13);
        assert!((s.conductance(5.0) - 1e-3).abs() < 1e-6);
        let mut last = 0.0;
        for i in 0..100 {
            let g = s.conductance(i as f64 * 0.05);
            assert!(g >= last);
            last = g;
        }
    }

    #[test]
    fn aspect_scaling_multiplies_beta() {
        let p = MosParams::nmos_5um().with_aspect(4.0);
        assert!((p.beta - 160e-6).abs() < 1e-12);
    }
}
