//! `macrolib` — the 5 µm CMOS analogue macro library.
//!
//! The paper's mixed-signal systems are built from a gate-array macro
//! library: voltage references, current mirrors, operational amplifiers,
//! comparators, oscillators and the switched-capacitor blocks of the
//! dual-slope ADC. This crate reconstructs the macros the paper's
//! experiments use as `anasim` netlist fragments:
//!
//! * [`process`] — 5 µm process parameters and per-die process-variation
//!   sampling (the stand-in for the paper's batch of ten fabricated
//!   devices),
//! * [`op1`] — the 13-transistor CMOS operational amplifier of the
//!   paper's Figure 3, with the paper's node numbering (1–9),
//! * [`opamp`] — a behavioural op-amp/comparator macro (single pole,
//!   rail clamping) for system-level simulations,
//! * [`sc_integrator`] — the switched-capacitor integrator (example
//!   circuit 3, 15 transistors) with two-phase non-overlapping clocks,
//! * [`circuit2`] — SC integrator followed by a comparator (example
//!   circuit 2, 28 transistors),
//! * [`dac`] — binary-weighted and R-2R DAC macros (the other converter
//!   of the paper's background),
//! * [`vref`] — divider and diode-stack voltage references.
//!
//! # Example
//!
//! ```
//! use macrolib::process::ProcessParams;
//! use macrolib::op1::Op1;
//! use anasim::netlist::Netlist;
//!
//! let mut nl = Netlist::new();
//! let op1 = Op1::build(&mut nl, "op1", &ProcessParams::nominal());
//! assert_eq!(nl.transistor_count(), 13);
//! assert!(!op1.node_map().is_empty());
//! ```

pub mod circuit2;
pub mod dac;
pub mod op1;
pub mod opamp;
pub mod process;
pub mod sc_integrator;
pub mod vref;
