//! The campaign checkpoint journal: schema `mixsig.campaign-journal/1`.
//!
//! A journal is an append-only JSONL file (written through
//! [`obs::journal::JournalWriter`], one fsync'd line per record) that
//! checkpoints a fault campaign as it runs, so a crash, kill or
//! cancellation loses at most the faults that were in flight. The
//! record stream is:
//!
//! * `start` — one per campaign (re)launch: label, fault universe
//!   (names in order), detection threshold and golden-signature length,
//!   so a resume can refuse a journal that belongs to a different
//!   campaign;
//! * `fault` — one per *completed* fault, appended from whichever
//!   worker finished it (completion order, not universe order; the
//!   `index` field restores universe order on replay). Carries the full
//!   [`FaultStatus`], the signature, and the per-fault telemetry
//!   including any frozen postmortem;
//! * `complete` / `cancelled` — the terminal record. A journal with no
//!   terminal record for a label was hard-killed mid-campaign.
//!
//! Several campaigns may share one journal file (the experiment harness
//! runs six per invocation); records are tagged with their campaign
//! label and [`replay`] groups them. A resumed campaign appends a fresh
//! `start` for the same label; replay merges fault records for a label
//! across segments by index, later wins.
//!
//! Every float crosses the file through [`float_to_json`] /
//! [`float_from_json`]: finite values use the shortest-roundtrip
//! formatting of `obs::json` (exact `f64` round trip), non-finite
//! values are encoded as the strings `"nan"` / `"inf"` / `"-inf"`
//! rather than JSON `null`, so a replayed record is *bit-identical* to
//! the one that was journaled — the foundation of the resume
//! byte-identity guarantee.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use anasim::metrics::SolverSnapshot;
use anasim::{AnalysisError, BudgetKind};
use obs::json::JsonValue;
use obs::journal::{read_journal, JournalContents};
use obs::Postmortem;

use crate::campaign::{FaultStatus, FaultTelemetry};
use crate::model::Fault;

/// Schema identifier stamped into every `start` record.
pub const SCHEMA: &str = "mixsig.campaign-journal/1";

// ---------------------------------------------------------------------
// Exact float round trip
// ---------------------------------------------------------------------

/// Encodes an `f64` for the journal: finite values as JSON numbers
/// (shortest-roundtrip, exact), non-finite as `"nan"`/`"inf"`/`"-inf"`
/// strings (JSON `null` would erase the sign and NaN-ness). Negative
/// zero gets its own `"-0"` marker — the integer fast path of the JSON
/// number writer would drop its sign.
pub fn float_to_json(v: f64) -> JsonValue {
    if v == 0.0 && v.is_sign_negative() {
        JsonValue::Str("-0".into())
    } else if v.is_finite() {
        JsonValue::Num(v)
    } else if v.is_nan() {
        JsonValue::Str("nan".into())
    } else if v > 0.0 {
        JsonValue::Str("inf".into())
    } else {
        JsonValue::Str("-inf".into())
    }
}

/// Decodes a [`float_to_json`] value.
///
/// # Errors
///
/// Anything that is neither a number nor one of the non-finite markers.
pub fn float_from_json(v: &JsonValue) -> Result<f64, String> {
    match v {
        JsonValue::Num(n) => Ok(*n),
        JsonValue::Str(s) => match s.as_str() {
            "nan" => Ok(f64::NAN),
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "-0" => Ok(-0.0),
            other => Err(format!("not a float: {other:?}")),
        },
        other => Err(format!("not a float: {other:?}")),
    }
}

fn get<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn get_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    float_from_json(get(v, key)?)
}

fn get_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    let n = get(v, key)?
        .as_f64()
        .ok_or_else(|| format!("key {key:?} is not a number"))?;
    Ok(n as usize)
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| format!("key {key:?} is not a string"))
}

// ---------------------------------------------------------------------
// AnalysisError codec (needed by FaultStatus::SimFailed)
// ---------------------------------------------------------------------

fn error_to_json(err: &AnalysisError) -> JsonValue {
    let mut obj = JsonValue::object();
    match err {
        AnalysisError::NoConvergence {
            time,
            residual,
            iterations,
        } => {
            obj.push("kind", JsonValue::Str("no-convergence".into()));
            obj.push("time", float_to_json(*time));
            obj.push("residual", float_to_json(*residual));
            obj.push("iterations", JsonValue::Num(*iterations as f64));
        }
        AnalysisError::SingularMatrix { row } => {
            obj.push("kind", JsonValue::Str("singular-matrix".into()));
            obj.push("row", JsonValue::Num(*row as f64));
        }
        AnalysisError::InvalidParameter(msg) => {
            obj.push("kind", JsonValue::Str("invalid-parameter".into()));
            obj.push("message", JsonValue::Str(msg.clone()));
        }
        AnalysisError::UnknownElement(name) => {
            obj.push("kind", JsonValue::Str("unknown-element".into()));
            obj.push("message", JsonValue::Str(name.clone()));
        }
        AnalysisError::BudgetExceeded { time, steps, kind } => {
            obj.push("kind", JsonValue::Str("budget-exceeded".into()));
            obj.push("time", float_to_json(*time));
            obj.push("steps", JsonValue::Num(*steps as f64));
            obj.push(
                "budget",
                JsonValue::Str(
                    match kind {
                        BudgetKind::Steps => "steps",
                        BudgetKind::WallClock => "wall-clock",
                    }
                    .into(),
                ),
            );
        }
        AnalysisError::Cancelled => {
            obj.push("kind", JsonValue::Str("cancelled".into()));
        }
        AnalysisError::Numerical { hazard, time } => {
            obj.push("kind", JsonValue::Str("numerical".into()));
            obj.push("hazard", JsonValue::Str(hazard.label().into()));
            obj.push("time", float_to_json(*time));
        }
    }
    obj
}

fn error_from_json(v: &JsonValue) -> Result<AnalysisError, String> {
    Ok(match get_str(v, "kind")? {
        "no-convergence" => AnalysisError::NoConvergence {
            time: get_f64(v, "time")?,
            residual: get_f64(v, "residual")?,
            iterations: get_usize(v, "iterations")?,
        },
        "singular-matrix" => AnalysisError::SingularMatrix {
            row: get_usize(v, "row")?,
        },
        "invalid-parameter" => AnalysisError::InvalidParameter(get_str(v, "message")?.to_owned()),
        "unknown-element" => AnalysisError::UnknownElement(get_str(v, "message")?.to_owned()),
        "budget-exceeded" => AnalysisError::BudgetExceeded {
            time: get_f64(v, "time")?,
            steps: get_usize(v, "steps")?,
            kind: match get_str(v, "budget")? {
                "steps" => BudgetKind::Steps,
                "wall-clock" => BudgetKind::WallClock,
                other => return Err(format!("unknown budget kind {other:?}")),
            },
        },
        "cancelled" => AnalysisError::Cancelled,
        "numerical" => {
            let label = get_str(v, "hazard")?;
            AnalysisError::Numerical {
                hazard: linsys::NumericalHazard::from_label(label)
                    .ok_or_else(|| format!("unknown hazard label {label:?}"))?,
                time: get_f64(v, "time")?,
            }
        }
        other => return Err(format!("unknown error kind {other:?}")),
    })
}

// ---------------------------------------------------------------------
// FaultStatus codec
// ---------------------------------------------------------------------

/// Encodes a [`FaultStatus`] as a tagged JSON object.
pub fn status_to_json(status: &FaultStatus) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.push("tag", JsonValue::Str(status.tag().into()));
    match status {
        FaultStatus::Detected { pct } | FaultStatus::Undetected { pct } => {
            obj.push("pct", float_to_json(*pct));
        }
        FaultStatus::SimFailed { error, rungs_tried } => {
            obj.push("error", error_to_json(error));
            obj.push("rungs_tried", JsonValue::Num(*rungs_tried as f64));
        }
        FaultStatus::BudgetExceeded { rungs_tried } => {
            obj.push("rungs_tried", JsonValue::Num(*rungs_tried as f64));
        }
        FaultStatus::SignatureMismatch { got, want } => {
            obj.push("got", JsonValue::Num(*got as f64));
            obj.push("want", JsonValue::Num(*want as f64));
        }
        FaultStatus::Panicked { payload } => {
            obj.push("payload", JsonValue::Str(payload.clone()));
        }
    }
    obj
}

/// Decodes a [`status_to_json`] object.
///
/// # Errors
///
/// Unknown tags or missing/mistyped fields.
pub fn status_from_json(v: &JsonValue) -> Result<FaultStatus, String> {
    Ok(match get_str(v, "tag")? {
        "detected" => FaultStatus::Detected {
            pct: get_f64(v, "pct")?,
        },
        "undetected" => FaultStatus::Undetected {
            pct: get_f64(v, "pct")?,
        },
        "sim-failed" => FaultStatus::SimFailed {
            error: error_from_json(get(v, "error")?)?,
            rungs_tried: get_usize(v, "rungs_tried")?,
        },
        "budget-exceeded" => FaultStatus::BudgetExceeded {
            rungs_tried: get_usize(v, "rungs_tried")?,
        },
        "signature-mismatch" => FaultStatus::SignatureMismatch {
            got: get_usize(v, "got")?,
            want: get_usize(v, "want")?,
        },
        "panicked" => FaultStatus::Panicked {
            payload: get_str(v, "payload")?.to_owned(),
        },
        other => Err(format!("unknown status tag {other:?}"))?,
    })
}

// ---------------------------------------------------------------------
// Telemetry codec
// ---------------------------------------------------------------------

/// Encodes a [`FaultTelemetry`] (solver counters by field name, rung
/// indices, wall milliseconds, optional postmortem).
pub fn telemetry_to_json(t: &FaultTelemetry) -> JsonValue {
    let mut solver = JsonValue::object();
    for (field, value) in SolverSnapshot::FIELDS.iter().zip(t.solver.as_array()) {
        solver.push(field, JsonValue::Num(value as f64));
    }
    let mut obj = JsonValue::object();
    obj.push("solver", solver);
    obj.push(
        "rung",
        t.rung.map_or(JsonValue::Null, |r| JsonValue::Num(r as f64)),
    );
    obj.push("rungs_tried", JsonValue::Num(t.rungs_tried as f64));
    obj.push("wall_ms", float_to_json(t.wall.as_secs_f64() * 1e3));
    obj.push(
        "postmortem",
        t.postmortem
            .as_ref()
            .map_or(JsonValue::Null, Postmortem::to_json),
    );
    obj
}

/// Decodes a [`telemetry_to_json`] object.
///
/// # Errors
///
/// Missing or mistyped fields.
pub fn telemetry_from_json(v: &JsonValue) -> Result<FaultTelemetry, String> {
    let solver_obj = get(v, "solver")?;
    let mut solver = SolverSnapshot::default();
    let fields: [&mut u64; 17] = [
        &mut solver.newton_iterations,
        &mut solver.steps_accepted,
        &mut solver.steps_rejected,
        &mut solver.dt_shrinks,
        &mut solver.dc_gmin_steps,
        &mut solver.dc_source_steps,
        &mut solver.factor_reuse_hits,
        &mut solver.factor_reuse_misses,
        &mut solver.hazard_near_singular_pivot,
        &mut solver.hazard_pivot_growth,
        &mut solver.hazard_nonfinite,
        &mut solver.hazard_refinement_stall,
        &mut solver.hazard_ill_conditioned,
        &mut solver.demote_stale,
        &mut solver.demote_refactor,
        &mut solver.demote_symbolic,
        &mut solver.refinement_rounds,
    ];
    for (field, slot) in SolverSnapshot::FIELDS.iter().zip(fields) {
        // Counters absent from the record default to zero, so journals
        // written before a counter existed keep replaying.
        *slot = match get(solver_obj, field) {
            Ok(value) => value
                .as_f64()
                .ok_or_else(|| format!("solver counter {field:?} is not a number"))?
                as u64,
            Err(_) => 0,
        };
    }
    let rung = match get(v, "rung")? {
        JsonValue::Null => None,
        other => Some(
            other
                .as_f64()
                .ok_or_else(|| "rung is not a number".to_owned())? as usize,
        ),
    };
    let postmortem = match get(v, "postmortem")? {
        JsonValue::Null => None,
        other => Some(Postmortem::from_json(other)?),
    };
    // Worker lane, start offset and solver phase times are live
    // wall-clock measurements, not campaign semantics: they are never
    // journaled, so replayed telemetry carries the defaults (lane 0,
    // zero offset, zero phases).
    Ok(FaultTelemetry {
        solver,
        rung,
        rungs_tried: get_usize(v, "rungs_tried")?,
        wall: Duration::from_secs_f64(get_f64(v, "wall_ms")?.max(0.0) / 1e3),
        postmortem,
        ..FaultTelemetry::default()
    })
}

// ---------------------------------------------------------------------
// Record constructors
// ---------------------------------------------------------------------

/// Builds the `start` record for a campaign (re)launch.
pub fn start_record(label: &str, faults: &[Fault], threshold: f64, golden_len: usize) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.push("record", JsonValue::Str("start".into()));
    obj.push("schema", JsonValue::Str(SCHEMA.into()));
    obj.push("label", JsonValue::Str(label.into()));
    obj.push("faults", JsonValue::Num(faults.len() as f64));
    obj.push(
        "names",
        JsonValue::Arr(
            faults
                .iter()
                .map(|f| JsonValue::Str(f.name().to_owned()))
                .collect(),
        ),
    );
    obj.push("threshold", float_to_json(threshold));
    obj.push("golden_len", JsonValue::Num(golden_len as f64));
    obj
}

/// Builds the per-completed-fault `fault` record.
pub fn fault_record(
    label: &str,
    index: usize,
    name: &str,
    signature: Option<&[f64]>,
    status: &FaultStatus,
    telemetry: &FaultTelemetry,
) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.push("record", JsonValue::Str("fault".into()));
    obj.push("label", JsonValue::Str(label.into()));
    obj.push("index", JsonValue::Num(index as f64));
    obj.push("name", JsonValue::Str(name.into()));
    obj.push(
        "signature",
        signature.map_or(JsonValue::Null, |sig| {
            JsonValue::Arr(sig.iter().map(|&v| float_to_json(v)).collect())
        }),
    );
    obj.push("status", status_to_json(status));
    obj.push("telemetry", telemetry_to_json(telemetry));
    obj
}

/// Builds the clean-completion terminal record.
pub fn complete_record(label: &str) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.push("record", JsonValue::Str("complete".into()));
    obj.push("label", JsonValue::Str(label.into()));
    obj
}

/// Builds the cooperative-cancellation terminal record. `completed` is
/// the number of faults with journaled outcomes at the point of
/// cancellation (including replayed ones).
pub fn cancelled_record(label: &str, completed: usize) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.push("record", JsonValue::Str("cancelled".into()));
    obj.push("label", JsonValue::Str(label.into()));
    obj.push("completed", JsonValue::Num(completed as f64));
    obj
}

/// Builds the journal-degradation terminal record: the campaign kept
/// running after persistent journal failures, so `unjournaled` fault
/// outcomes exist only in the in-memory report. Appending this record
/// is itself best-effort — the write path is the thing that failed —
/// but a bounded outage (ENOSPC that clears, a transient mount hiccup)
/// lets it land, making the journal self-describing about its own gap.
pub fn degraded_record(label: &str, journaled: usize, unjournaled: usize, reason: &str) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.push("record", JsonValue::Str("degraded".into()));
    obj.push("label", JsonValue::Str(label.into()));
    obj.push("journaled", JsonValue::Num(journaled as f64));
    obj.push("unjournaled", JsonValue::Num(unjournaled as f64));
    obj.push("reason", JsonValue::Str(reason.into()));
    obj
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// One journaled, completed fault, decoded.
#[derive(Debug, Clone)]
pub struct ReplayedFault {
    /// Universe index of the fault.
    pub index: usize,
    /// Fault name (validated against the universe on resume).
    pub name: String,
    /// The extracted signature, when any rung produced one.
    pub signature: Option<Vec<f64>>,
    /// How the simulation ended.
    pub status: FaultStatus,
    /// Per-fault telemetry, including any frozen postmortem.
    pub telemetry: FaultTelemetry,
}

/// A decoded `degraded` terminal record: how much of the campaign the
/// journal is missing, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedDegradation {
    /// Fault outcomes that made it into the journal.
    pub journaled: usize,
    /// Fault outcomes completed after journaling stopped.
    pub unjournaled: usize,
    /// The terminal journal error that triggered degradation.
    pub reason: String,
}

/// Everything the journal knows about one campaign label, merged across
/// every `start` segment for that label (a resume appends a fresh
/// segment; fault records union by index, later records win).
#[derive(Debug, Clone, Default)]
pub struct ReplayedCampaign {
    /// Fault-universe names from the most recent `start` record.
    pub names: Vec<String>,
    /// Detection threshold from the most recent `start` record.
    pub threshold: f64,
    /// Golden-signature length from the most recent `start` record.
    pub golden_len: usize,
    /// Completed faults by universe index.
    pub faults: BTreeMap<usize, ReplayedFault>,
    /// True when a `complete` terminal record was seen.
    pub complete: bool,
    /// True when a `cancelled` terminal record was seen (a later resume
    /// segment clears it).
    pub cancelled: bool,
    /// Set when a `degraded` terminal record was seen: the journal is
    /// known-incomplete for this segment (a later resume segment, which
    /// re-runs the missing faults, clears it).
    pub degraded: Option<ReplayedDegradation>,
}

/// A decoded journal: campaigns by label, plus whether the file ended
/// in a torn line (the signature of a hard kill).
#[derive(Debug, Clone, Default)]
pub struct JournalReplay {
    /// Campaigns keyed by label, each merged across its segments.
    pub campaigns: BTreeMap<String, ReplayedCampaign>,
    /// True when the underlying file had a torn trailing line.
    pub torn_tail: bool,
}

impl JournalReplay {
    /// The replayed campaign for `label`, if the journal has one.
    pub fn campaign(&self, label: &str) -> Option<&ReplayedCampaign> {
        self.campaigns.get(label)
    }
}

/// Decodes parsed journal contents into per-label campaign state.
///
/// # Errors
///
/// Structurally invalid records (unknown record type, missing fields,
/// bad schema, or a `fault` record for a label with no `start`).
pub fn replay(contents: &JournalContents) -> Result<JournalReplay, String> {
    let mut campaigns: BTreeMap<String, ReplayedCampaign> = BTreeMap::new();
    for (n, record) in contents.records.iter().enumerate() {
        let line = || format!("record {}", n + 1);
        let kind = get_str(record, "record").map_err(|e| format!("{}: {e}", line()))?;
        let label = get_str(record, "label")
            .map_err(|e| format!("{}: {e}", line()))?
            .to_owned();
        match kind {
            "start" => {
                let schema = get_str(record, "schema").map_err(|e| format!("{}: {e}", line()))?;
                if schema != SCHEMA {
                    return Err(format!("{}: unsupported schema {schema:?}", line()));
                }
                let names = get(record, "names")
                    .and_then(|v| {
                        v.as_array().ok_or_else(|| "names is not an array".into())
                    })
                    .map_err(|e| format!("{}: {e}", line()))?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| format!("{}: fault name is not a string", line()))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let threshold =
                    get_f64(record, "threshold").map_err(|e| format!("{}: {e}", line()))?;
                let golden_len =
                    get_usize(record, "golden_len").map_err(|e| format!("{}: {e}", line()))?;
                let campaign = campaigns.entry(label).or_default();
                campaign.names = names;
                campaign.threshold = threshold;
                campaign.golden_len = golden_len;
                // A fresh segment reopens a previously cancelled (or
                // even completed) campaign; it also re-runs whatever a
                // degraded segment failed to journal.
                campaign.complete = false;
                campaign.cancelled = false;
                campaign.degraded = None;
            }
            "fault" => {
                let campaign = campaigns
                    .get_mut(&label)
                    .ok_or_else(|| format!("{}: fault record before start for {label:?}", line()))?;
                let signature = match get(record, "signature")
                    .map_err(|e| format!("{}: {e}", line()))?
                {
                    JsonValue::Null => None,
                    other => Some(
                        other
                            .as_array()
                            .ok_or_else(|| format!("{}: signature is not an array", line()))?
                            .iter()
                            .map(float_from_json)
                            .collect::<Result<Vec<_>, _>>()
                            .map_err(|e| format!("{}: {e}", line()))?,
                    ),
                };
                let fault = ReplayedFault {
                    index: get_usize(record, "index").map_err(|e| format!("{}: {e}", line()))?,
                    name: get_str(record, "name")
                        .map_err(|e| format!("{}: {e}", line()))?
                        .to_owned(),
                    signature,
                    status: status_from_json(
                        get(record, "status").map_err(|e| format!("{}: {e}", line()))?,
                    )
                    .map_err(|e| format!("{}: {e}", line()))?,
                    telemetry: telemetry_from_json(
                        get(record, "telemetry").map_err(|e| format!("{}: {e}", line()))?,
                    )
                    .map_err(|e| format!("{}: {e}", line()))?,
                };
                campaign.faults.insert(fault.index, fault);
            }
            "complete" => {
                let campaign = campaigns.get_mut(&label).ok_or_else(|| {
                    format!("{}: complete record before start for {label:?}", line())
                })?;
                campaign.complete = true;
            }
            "cancelled" => {
                let campaign = campaigns.get_mut(&label).ok_or_else(|| {
                    format!("{}: cancelled record before start for {label:?}", line())
                })?;
                campaign.cancelled = true;
            }
            "degraded" => {
                let campaign = campaigns.get_mut(&label).ok_or_else(|| {
                    format!("{}: degraded record before start for {label:?}", line())
                })?;
                campaign.degraded = Some(ReplayedDegradation {
                    journaled: get_usize(record, "journaled")
                        .map_err(|e| format!("{}: {e}", line()))?,
                    unjournaled: get_usize(record, "unjournaled")
                        .map_err(|e| format!("{}: {e}", line()))?,
                    reason: get_str(record, "reason")
                        .map_err(|e| format!("{}: {e}", line()))?
                        .to_owned(),
                });
            }
            // Heartbeats are advisory telemetry (crate::telemetry);
            // they live in their own sidecar file, but a replayer that
            // encounters one anyway must skip it, not fail — the
            // canonical replay contract ignores telemetry entirely.
            "heartbeat" => {}
            other => return Err(format!("{}: unknown record type {other:?}", line())),
        }
    }
    Ok(JournalReplay {
        campaigns,
        torn_tail: contents.torn_tail,
    })
}

/// Reads and decodes a journal file: [`obs::journal::read_journal`]
/// (torn-tail tolerant) followed by [`replay`].
///
/// # Errors
///
/// I/O errors, corruption before the final line, or structurally
/// invalid records.
pub fn load(path: &Path) -> Result<JournalReplay, String> {
    replay(&read_journal(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::journal::parse_journal;

    fn two_faults() -> Vec<Fault> {
        let mut nl = anasim::netlist::Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        vec![Fault::stuck_at_0("f0", a), Fault::stuck_at_0("f1", b)]
    }

    fn sample_telemetry() -> FaultTelemetry {
        FaultTelemetry {
            solver: SolverSnapshot {
                newton_iterations: 42,
                steps_accepted: 17,
                steps_rejected: 3,
                dt_shrinks: 2,
                dc_gmin_steps: 1,
                dc_source_steps: 0,
                hazard_near_singular_pivot: 2,
                hazard_pivot_growth: 1,
                hazard_nonfinite: 4,
                demote_symbolic: 2,
                demote_refactor: 1,
                refinement_rounds: 5,
                ..SolverSnapshot::default()
            },
            rung: Some(1),
            rungs_tried: 2,
            wall: Duration::from_millis(12),
            postmortem: None,
            ..FaultTelemetry::default()
        }
    }

    #[test]
    fn status_round_trips_every_variant() {
        let statuses = vec![
            FaultStatus::Detected { pct: 87.5 },
            FaultStatus::Undetected { pct: 0.1 + 0.2 },
            FaultStatus::SimFailed {
                error: AnalysisError::NoConvergence {
                    time: 1.25e-6,
                    residual: f64::NAN,
                    iterations: 99,
                },
                rungs_tried: 4,
            },
            FaultStatus::SimFailed {
                error: AnalysisError::BudgetExceeded {
                    time: 2e-3,
                    steps: 100,
                    kind: BudgetKind::WallClock,
                },
                rungs_tried: 1,
            },
            FaultStatus::SimFailed {
                error: AnalysisError::SingularMatrix { row: 7 },
                rungs_tried: 2,
            },
            FaultStatus::SimFailed {
                error: AnalysisError::Numerical {
                    hazard: linsys::NumericalHazard::RefinementStall,
                    time: 3.5e-6,
                },
                rungs_tried: 3,
            },
            FaultStatus::SimFailed {
                error: AnalysisError::InvalidParameter("dt \"quoted\"\n".into()),
                rungs_tried: 1,
            },
            FaultStatus::SimFailed {
                error: AnalysisError::Cancelled,
                rungs_tried: 1,
            },
            FaultStatus::BudgetExceeded { rungs_tried: 3 },
            FaultStatus::SignatureMismatch { got: 10, want: 20 },
            FaultStatus::Panicked {
                payload: "index out of bounds: the len is 3".into(),
            },
        ];
        for status in statuses {
            let json = status_to_json(&status);
            let text = json.to_json();
            let parsed = obs::json::parse(&text).unwrap();
            let back = status_from_json(&parsed).unwrap();
            // NAN != NAN under PartialEq, so compare through the
            // canonical encoding instead.
            assert_eq!(status_to_json(&back).to_json(), text, "{status:?}");
        }
    }

    #[test]
    fn telemetry_round_trips_exactly() {
        let t = sample_telemetry();
        let text = telemetry_to_json(&t).to_json();
        let back = telemetry_from_json(&obs::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.solver, t.solver);
        assert_eq!(back.rung, t.rung);
        assert_eq!(back.rungs_tried, t.rungs_tried);
        assert!(back.postmortem.is_none());
        assert_eq!(telemetry_to_json(&back).to_json(), text);
    }

    #[test]
    fn non_finite_floats_survive_the_journal() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.1 + 0.2, -0.0] {
            let json = float_to_json(v);
            let back = float_from_json(&obs::json::parse(&json.to_json()).unwrap()).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v}");
        }
    }

    #[test]
    fn replay_merges_resume_segments_by_index() {
        let faults = two_faults();
        let status = FaultStatus::Detected { pct: 100.0 };
        let t = sample_telemetry();
        let mut text = String::new();
        text += &start_record("c1", &faults, 0.5, 4).to_json();
        text += "\n";
        text += &fault_record("c1", 0, "f0", Some(&[1.0, 2.0]), &status, &t).to_json();
        text += "\n";
        // Hard kill here; resume appends a fresh segment.
        text += &start_record("c1", &faults, 0.5, 4).to_json();
        text += "\n";
        text += &fault_record("c1", 1, "f1", None, &status, &t).to_json();
        text += "\n";
        text += &complete_record("c1").to_json();
        text += "\n";
        let replayed = replay(&parse_journal(&text).unwrap()).unwrap();
        let c1 = replayed.campaign("c1").unwrap();
        assert_eq!(c1.faults.len(), 2);
        assert_eq!(c1.faults[&0].signature.as_deref(), Some(&[1.0, 2.0][..]));
        assert!(c1.faults[&1].signature.is_none());
        assert!(c1.complete);
        assert!(!c1.cancelled);
        assert_eq!(c1.names, vec!["f0", "f1"]);
    }

    #[test]
    fn cancelled_terminal_is_replayed_and_cleared_by_resume() {
        let faults = two_faults();
        let mut text = String::new();
        text += &start_record("c", &faults, 0.5, 1).to_json();
        text += "\n";
        text += &cancelled_record("c", 0).to_json();
        text += "\n";
        let replayed = replay(&parse_journal(&text).unwrap()).unwrap();
        assert!(replayed.campaign("c").unwrap().cancelled);

        text += &start_record("c", &faults, 0.5, 1).to_json();
        text += "\n";
        let replayed = replay(&parse_journal(&text).unwrap()).unwrap();
        assert!(!replayed.campaign("c").unwrap().cancelled);
    }

    #[test]
    fn degraded_terminal_is_replayed_and_cleared_by_resume() {
        let faults = two_faults();
        let mut text = String::new();
        text += &start_record("c", &faults, 0.5, 1).to_json();
        text += "\n";
        text += &degraded_record("c", 1, 3, "journal sync failed: disk full").to_json();
        text += "\n";
        let replayed = replay(&parse_journal(&text).unwrap()).unwrap();
        let degraded = replayed.campaign("c").unwrap().degraded.clone().unwrap();
        assert_eq!(degraded.journaled, 1);
        assert_eq!(degraded.unjournaled, 3);
        assert!(degraded.reason.contains("disk full"));

        // A resume segment re-runs the unjournaled faults, so it clears
        // the degradation flag.
        text += &start_record("c", &faults, 0.5, 1).to_json();
        text += "\n";
        let replayed = replay(&parse_journal(&text).unwrap()).unwrap();
        assert!(replayed.campaign("c").unwrap().degraded.is_none());
    }

    #[test]
    fn fault_record_without_start_is_an_error() {
        let status = FaultStatus::Detected { pct: 100.0 };
        let t = sample_telemetry();
        let text = format!(
            "{}\n",
            fault_record("orphan", 0, "f0", None, &status, &t).to_json()
        );
        let err = replay(&parse_journal(&text).unwrap()).unwrap_err();
        assert!(err.contains("before start"), "{err}");
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let faults = two_faults();
        let mut record = start_record("c", &faults, 0.5, 1);
        // Rewrite the schema member.
        if let JsonValue::Obj(members) = &mut record {
            for (k, v) in members.iter_mut() {
                if k == "schema" {
                    *v = JsonValue::Str("mixsig.campaign-journal/999".into());
                }
            }
        }
        let err = replay(&parse_journal(&format!("{}\n", record.to_json())).unwrap()).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }
}
