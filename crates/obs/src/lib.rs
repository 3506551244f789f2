//! `obs` — zero-dependency instrumentation for the `mixsig` workspace.
//!
//! Every layer of the stack (solvers, campaigns, the experiment
//! harness) reports what it did as data its owner folds after the work
//! completes: counters and values land in a [`report::Section`], and
//! sampled scalars aggregate into [`histogram::Histogram`]s with
//! nearest-rank percentiles. Nothing is pushed to a global sink while
//! the work runs, so reports come out in a deterministic order however
//! the work was scheduled.
//!
//! The machine-readable end is [`report::RunReport`]:
//! named [`report::Section`]s of counters, values, histograms and
//! timing summaries, serialised with the hand-rolled [`json`] writer
//! (the workspace builds offline, so there is no serde). The canonical
//! serialisation zeroes wall-clock milliseconds while keeping every
//! deterministic count, so reports are byte-identical across worker
//! counts and machines.
//!
//! Failure diagnosis flows through the same pipeline:
//! [`ring::RingBuffer`] bounds per-iteration solver traces, and
//! [`postmortem::Postmortem`] is the frozen, fully deterministic record
//! of a terminally failed solve that sections embed verbatim.
//!
//! Crash safety is the [`journal`] module: an append-only,
//! fsync-per-record JSONL writer and a reader that tolerates the one
//! torn trailing line a hard kill can leave behind, so long-running
//! campaigns checkpoint and resume instead of restarting from zero.
//! The writer talks to storage through the [`journal::JournalSink`]
//! trait and stops at its first failed write or sync, leaving a file
//! that resumes like one a hard kill left behind; the [`chaos`] module
//! supplies a deterministic fault-injecting sink
//! ([`chaos::FaultySink`]) so the whole failure surface is testable
//! with reproducible, seeded schedules.
//!
//! Cost attribution is the [`profile`] module: a
//! [`profile::PhaseProfiler`] splits solver wall time across a fixed
//! phase taxonomy with self-time nesting semantics, and the [`trace`]
//! module exports timelines in the Chrome Trace Event format for
//! `chrome://tracing` / Perfetto.
//!
//! Live telemetry is the [`timeseries`] and [`status`] pair: a
//! fixed-capacity windowed counter derives the fault rate and its EWMA
//! from ring-buffered samples, and [`status::CampaignStatus`] is the
//! `mixsig.campaign-status/1` snapshot a running campaign atomically
//! rewrites (write-temp-then-rename) for concurrent watchers to poll
//! without ever seeing a torn document. A campaign's one durable
//! per-fault stream is its [`journal`]; there is no other append file.
//!
//! Human-facing output goes through [`table::Table`], so printed tables
//! and the JSON report cannot drift apart.

pub mod chaos;
pub mod histogram;
pub mod journal;
pub mod json;
pub mod postmortem;
pub mod profile;
pub mod report;
pub mod ring;
pub mod status;
pub mod table;
pub mod timeseries;
pub mod trace;

pub use chaos::{FaultPlan, FaultySink, NumericChaosPlan, NumericChaosState, NumericSite};
pub use histogram::Histogram;
pub use journal::{read_journal, JournalContents, JournalError, JournalSink, JournalWriter};
pub use postmortem::{HazardStep, LadderStep, Postmortem, PostmortemIteration};
pub use profile::{Phase, PhaseProfiler, PhaseSnapshot};
pub use report::{RunReport, Section};
pub use status::{CampaignStatus, WorkerLane};
pub use timeseries::{Ewma, TimeSeries, WindowedCounter};
pub use trace::{render_trace, validate_trace, TraceEvent};
pub use ring::RingBuffer;
pub use table::{Align, Table};
