//! `msbist` — on-chip testing of mixed-signal macros in ASICs.
//!
//! This crate is the primary contribution of the reproduction of
//! R. A. Cobley, *"Approaches to On-chip Testing of Mixed Signal Macros
//! in ASICs"*, ED&TC 1996. It assembles the workspace substrates
//! (`anasim`, `linsys`, `sigproc`, `digisim`, `macrolib`, `faultsim`)
//! into the three systems the paper evaluates:
//!
//! 1. **Quick on-chip tests** of a dual-slope ADC macro using low-cost
//!    analogue test macros — step/ramp generators, a DC level sensor and
//!    signature compression ([`bist`]).
//! 2. **Full specification testing** of the ADC macro — quantisation
//!    error, zero offset, gain error, INL and DNL ([`charac`], Figure 2
//!    of the paper).
//! 3. **Transient-response testing** of analogue sub-macros with PRBS
//!    stimulus, fault injection and correlation/impulse-response
//!    signatures ([`transtest`], Figure 4 of the paper).
//!
//! # Quickstart
//!
//! Convert a voltage with the behavioural dual-slope ADC macro and check
//! it against its specification:
//!
//! ```
//! use msbist::adc::{AdcConverter, DualSlopeAdc};
//!
//! let adc = DualSlopeAdc::ideal();
//! let code = adc.convert(1.25);
//! // 1.25 V of a 2.5 V full scale at 10 mV per code: mid-scale.
//! assert_eq!(code, 125);
//! ```

pub mod adc;
pub mod bist;
pub mod calibrate;
pub mod charac;
pub mod dac_test;
pub mod device;
pub mod self_test;
pub mod sigma_delta;
pub mod transtest;
pub mod yield_analysis;
