//! `faultsim` — analogue fault models, injection and campaigns.
//!
//! The paper introduces faults "at the transistor level using voltage
//! generators, which could produce a stuck-at-0 or stuck-at-1 fault
//! signal" on circuit nodes, plus double faults "which approximated to
//! bridging faults across the MOS transistors". This crate reproduces
//! exactly that mechanism on `anasim` netlists:
//!
//! * [`model`] — the fault taxonomy: node stuck-at-0 / stuck-at-1 clamps
//!   and two-node resistive bridges,
//! * [`inject`] — netlist transformation adding the fault hardware,
//! * [`campaign`] — golden-vs-faulty response collection and the
//!   detection-instance statistics of the paper's Figure 4,
//! * [`journal`] — the `mixsig.campaign-journal/1` checkpoint format:
//!   campaigns journal every completed fault to an append-only JSONL
//!   file and a campaign run with [`campaign::JournalConfig::resume`]
//!   replays it, so a killed or cancelled campaign, or one aborted at a
//!   failed journal write, resumes instead of restarting,
//! * [`trace`] — Chrome Trace Event timelines of completed campaigns:
//!   worker lanes, per-fault spans and (with
//!   [`campaign::CampaignConfig::profile`] armed) solver phase
//!   sub-spans, loadable by `chrome://tracing` / Perfetto,
//! * [`telemetry`] — live campaign telemetry: periodically rewritten
//!   `mixsig.campaign-status/1` snapshots (`experiments watch` tails
//!   them) with per-lane stall detection, all advisory and fully
//!   outside the canonical byte-stable path (the journal stays the one
//!   durable per-fault stream);
//!   [`telemetry::StatusRollup`] is the one progress fold, shared by
//!   the live snapshot and a journal's post-hoc view.
//!
//! # Example
//!
//! ```
//! use anasim::netlist::Netlist;
//! use anasim::source::SourceWaveform;
//! use faultsim::model::Fault;
//! use faultsim::inject::inject;
//!
//! # fn main() -> Result<(), anasim::AnalysisError> {
//! let mut nl = Netlist::new();
//! let a = nl.node("a");
//! nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(5.0));
//! let b = nl.node("b");
//! nl.resistor("R1", a, b, 1e3);
//! nl.resistor("R2", b, Netlist::GROUND, 1e3);
//!
//! let faulty = inject(&nl, &Fault::stuck_at_0("b-sa0", b));
//! let op = anasim::dc::dc_operating_point(&faulty)?;
//! assert!(op.voltage(b) < 0.5); // clamped low by the 100 ohm generator
//! # Ok(())
//! # }
//! ```

pub mod campaign;
pub mod inject;
pub mod journal;
pub mod model;
pub mod telemetry;
pub mod trace;
