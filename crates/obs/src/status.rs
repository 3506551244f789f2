//! Streaming campaign-status snapshots: the `mixsig.campaign-status/1`
//! document a live campaign rewrites while it runs.
//!
//! The snapshot is the push half of live telemetry: the campaign engine
//! periodically folds its progress, per-worker lane state and solver
//! counters into a [`CampaignStatus`] and [`write_atomic`]s it to
//! `status.json` in the telemetry directory. Watchers (`experiments
//! watch`, the future HTTP service) read the same file with
//! [`read_status`].
//!
//! Two rules make this safe next to the byte-stable reporting path:
//!
//! * **Atomic replacement.** [`write_atomic`] writes to a temporary
//!   file in the same directory and renames it over the target, so a
//!   concurrent reader sees either the previous snapshot or the new
//!   one, never a torn hybrid. [`read_status`] therefore reads a
//!   missing file (the moments before the first write) as `None` and
//!   reports an unparseable one as an error: no writer leaves one
//!   behind, so it is a foreign or damaged file, not a moment to poll
//!   through.
//! * **Wall-clock quarantine.** Everything here is wall-clock derived
//!   (ages, rates, ETAs) and therefore *never* feeds back into
//!   canonical reports or journals. The status file is advisory
//!   telemetry: deleting it mid-run changes nothing about the
//!   campaign's outcome.

use std::fs;
use std::io;
use std::path::Path;

use crate::json::{self, JsonValue};

/// Schema tag of every status snapshot.
pub const SCHEMA: &str = "mixsig.campaign-status/1";

/// File name of the snapshot inside a telemetry directory.
pub const STATUS_FILE: &str = "status.json";

/// One worker lane's live state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerLane {
    /// Lane (worker thread) index.
    pub lane: u64,
    /// Universe index of the fault currently simulating, if any.
    pub fault: Option<u64>,
    /// Name of the fault currently simulating, if any.
    pub fault_name: Option<String>,
    /// Milliseconds the lane has spent on its current fault.
    pub busy_ms: f64,
    /// Milliseconds since the lane's last claim or done event.
    pub heartbeat_age_ms: f64,
    /// Faults this lane has completed.
    pub completed: u64,
    /// True when the lane's event age (`heartbeat_age_ms`) exceeded the
    /// stall threshold while a fault was in flight.
    pub stalled: bool,
    /// The lane's hottest solver phase so far (profiling armed only).
    pub hot_phase: Option<String>,
}

/// A full status snapshot, serialised as `mixsig.campaign-status/1`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignStatus {
    /// Campaign label (the journal label when journaling).
    pub label: String,
    /// `running`, `complete`, `cancelled` or `aborted`.
    pub state: String,
    /// Faults in the universe.
    pub total: u64,
    /// Faults with an outcome (simulated this run plus replayed).
    pub done: u64,
    /// Of `done`, how many were replayed from a resume journal.
    pub replayed: u64,
    /// Outcome rollup so far.
    pub detected: u64,
    /// Faults whose deviation stayed under the detection criterion.
    pub undetected: u64,
    /// Faults that ended in a non-detection status (failed, panicked,
    /// out of budget, mismatched).
    pub failed: u64,
    /// Milliseconds since the campaign started simulating.
    pub elapsed_ms: f64,
    /// Faults per second over the recent sample window.
    pub faults_per_sec: f64,
    /// EWMA-smoothed faults per second.
    pub ewma_faults_per_sec: f64,
    /// Estimated milliseconds to completion, when a rate exists.
    pub eta_ms: Option<f64>,
    /// Deterministic solver counters accumulated so far (insertion
    /// order preserved).
    pub counters: Vec<(String, u64)>,
    /// Per-phase `(label, ns, calls)` rollup (profiling armed only).
    pub phases: Vec<(String, u64, u64)>,
    /// Per-worker lane states.
    pub workers: Vec<WorkerLane>,
    /// Path of the campaign journal, when the campaign journals.
    pub journal: Option<String>,
    /// Heartbeat age (ms) past which an in-flight lane is flagged
    /// stalled.
    pub stall_after_ms: Option<f64>,
    /// Unix timestamp of this snapshot in milliseconds (readers add
    /// their own clock delta to judge freshness).
    pub updated_at_ms: f64,
}

impl CampaignStatus {
    /// Faults not yet done.
    pub fn remaining(&self) -> u64 {
        self.total.saturating_sub(self.done)
    }

    /// True for `complete`, `cancelled` and `aborted` states.
    pub fn is_terminal(&self) -> bool {
        self.state != "running"
    }

    /// Serialises the snapshot.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.push("schema", JsonValue::Str(SCHEMA.into()));
        obj.push("label", JsonValue::Str(self.label.clone()));
        obj.push("state", JsonValue::Str(self.state.clone()));
        obj.push("total", JsonValue::Num(self.total as f64));
        obj.push("done", JsonValue::Num(self.done as f64));
        obj.push("replayed", JsonValue::Num(self.replayed as f64));
        obj.push("detected", JsonValue::Num(self.detected as f64));
        obj.push("undetected", JsonValue::Num(self.undetected as f64));
        obj.push("failed", JsonValue::Num(self.failed as f64));
        obj.push("elapsed_ms", JsonValue::Num(self.elapsed_ms));
        obj.push("faults_per_sec", JsonValue::Num(self.faults_per_sec));
        obj.push(
            "ewma_faults_per_sec",
            JsonValue::Num(self.ewma_faults_per_sec),
        );
        obj.push(
            "eta_ms",
            self.eta_ms.map_or(JsonValue::Null, JsonValue::Num),
        );
        let mut counters = JsonValue::object();
        for (name, value) in &self.counters {
            counters.push(name, JsonValue::Num(*value as f64));
        }
        obj.push("counters", counters);
        let mut phases = JsonValue::object();
        for (name, ns, calls) in &self.phases {
            let mut p = JsonValue::object();
            p.push("ns", JsonValue::Num(*ns as f64));
            p.push("calls", JsonValue::Num(*calls as f64));
            phases.push(name, p);
        }
        obj.push("phases", phases);
        obj.push(
            "workers",
            JsonValue::Arr(self.workers.iter().map(lane_to_json).collect()),
        );
        obj.push(
            "journal",
            self.journal
                .as_ref()
                .map_or(JsonValue::Null, |p| JsonValue::Str(p.clone())),
        );
        obj.push(
            "stall_after_ms",
            self.stall_after_ms.map_or(JsonValue::Null, JsonValue::Num),
        );
        obj.push("updated_at_ms", JsonValue::Num(self.updated_at_ms));
        obj
    }

    /// Decodes a snapshot, validating the schema tag and the structural
    /// invariants a watcher depends on.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first structural problem.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        match v.get("schema").and_then(JsonValue::as_str) {
            Some(s) if s == SCHEMA => {}
            other => return Err(format!("schema is {other:?}, expected {SCHEMA:?}")),
        }
        let str_of = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{key} missing or not a string"))
        };
        let count_of = |key: &str| -> Result<u64, String> {
            match v.get(key).and_then(JsonValue::as_f64) {
                Some(n) if n.is_finite() && n >= 0.0 => Ok(n as u64),
                _ => Err(format!("{key} missing or not a non-negative number")),
            }
        };
        let ms_of = |key: &str| -> Result<f64, String> {
            match v.get(key).and_then(JsonValue::as_f64) {
                Some(n) if n.is_finite() && n >= 0.0 => Ok(n),
                _ => Err(format!("{key} missing or not a non-negative number")),
            }
        };
        let opt_ms_of = |key: &str| -> Result<Option<f64>, String> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(n) => match n.as_f64() {
                    Some(ms) if ms.is_finite() && ms >= 0.0 => Ok(Some(ms)),
                    _ => Err(format!("{key} is not a non-negative number")),
                },
            }
        };
        let counters = match v.get("counters") {
            Some(JsonValue::Obj(entries)) => entries
                .iter()
                .map(|(name, value)| match value.as_f64() {
                    Some(n) if n.is_finite() && n >= 0.0 => Ok((name.clone(), n as u64)),
                    _ => Err(format!("counter {name} is not a non-negative number")),
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("counters missing or not an object".into()),
        };
        let phases = match v.get("phases") {
            Some(JsonValue::Obj(entries)) => entries
                .iter()
                .map(|(name, value)| {
                    let field = |key: &str| match value.get(key).and_then(JsonValue::as_f64) {
                        Some(n) if n.is_finite() && n >= 0.0 => Ok(n as u64),
                        _ => Err(format!("phases.{name}.{key} invalid")),
                    };
                    Ok((name.clone(), field("ns")?, field("calls")?))
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("phases missing or not an object".into()),
        };
        let workers = v
            .get("workers")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "workers missing or not an array".to_owned())?
            .iter()
            .enumerate()
            .map(|(i, w)| lane_from_json(w).map_err(|e| format!("workers[{i}]: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let status = CampaignStatus {
            label: str_of("label")?,
            state: str_of("state")?,
            total: count_of("total")?,
            done: count_of("done")?,
            replayed: count_of("replayed")?,
            detected: count_of("detected")?,
            undetected: count_of("undetected")?,
            failed: count_of("failed")?,
            elapsed_ms: ms_of("elapsed_ms")?,
            faults_per_sec: ms_of("faults_per_sec")?,
            ewma_faults_per_sec: ms_of("ewma_faults_per_sec")?,
            eta_ms: opt_ms_of("eta_ms")?,
            counters,
            phases,
            workers,
            journal: match v.get("journal") {
                None | Some(JsonValue::Null) => None,
                Some(p) => Some(
                    p.as_str()
                        .ok_or_else(|| "journal is not a string".to_owned())?
                        .to_owned(),
                ),
            },
            stall_after_ms: opt_ms_of("stall_after_ms")?,
            updated_at_ms: ms_of("updated_at_ms")?,
        };
        if status.done > status.total {
            return Err(format!(
                "done {} exceeds total {}",
                status.done, status.total
            ));
        }
        if status.detected + status.undetected + status.failed != status.done {
            return Err(format!(
                "outcome rollup {}+{}+{} does not sum to done {}",
                status.detected, status.undetected, status.failed, status.done
            ));
        }
        Ok(status)
    }
}

fn lane_to_json(lane: &WorkerLane) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.push("lane", JsonValue::Num(lane.lane as f64));
    obj.push(
        "fault",
        lane.fault.map_or(JsonValue::Null, |i| JsonValue::Num(i as f64)),
    );
    obj.push(
        "fault_name",
        lane.fault_name
            .as_ref()
            .map_or(JsonValue::Null, |n| JsonValue::Str(n.clone())),
    );
    obj.push("busy_ms", JsonValue::Num(lane.busy_ms));
    obj.push("heartbeat_age_ms", JsonValue::Num(lane.heartbeat_age_ms));
    obj.push("completed", JsonValue::Num(lane.completed as f64));
    obj.push("stalled", JsonValue::Bool(lane.stalled));
    obj.push(
        "hot_phase",
        lane.hot_phase
            .as_ref()
            .map_or(JsonValue::Null, |p| JsonValue::Str(p.clone())),
    );
    obj
}

fn lane_from_json(v: &JsonValue) -> Result<WorkerLane, String> {
    let num = |key: &str| match v.get(key).and_then(JsonValue::as_f64) {
        Some(n) if n.is_finite() && n >= 0.0 => Ok(n),
        _ => Err(format!("{key} missing or invalid")),
    };
    Ok(WorkerLane {
        lane: num("lane")? as u64,
        fault: match v.get("fault") {
            None | Some(JsonValue::Null) => None,
            Some(n) => Some(
                n.as_f64()
                    .filter(|f| f.is_finite() && *f >= 0.0)
                    .ok_or_else(|| "fault is not a non-negative number".to_owned())?
                    as u64,
            ),
        },
        fault_name: match v.get("fault_name") {
            None | Some(JsonValue::Null) => None,
            Some(n) => Some(
                n.as_str()
                    .ok_or_else(|| "fault_name is not a string".to_owned())?
                    .to_owned(),
            ),
        },
        busy_ms: num("busy_ms")?,
        heartbeat_age_ms: num("heartbeat_age_ms")?,
        completed: num("completed")? as u64,
        stalled: v
            .get("stalled")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| "stalled missing or not a bool".to_owned())?,
        hot_phase: match v.get("hot_phase") {
            None | Some(JsonValue::Null) => None,
            Some(p) => Some(
                p.as_str()
                    .ok_or_else(|| "hot_phase is not a string".to_owned())?
                    .to_owned(),
            ),
        },
    })
}

/// Parses and validates a snapshot document.
///
/// # Errors
///
/// Invalid JSON or a structurally invalid snapshot.
pub fn parse_status(text: &str) -> Result<CampaignStatus, String> {
    let parsed = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    CampaignStatus::from_json(&parsed)
}

/// Writes the snapshot atomically: the document lands in a temporary
/// file in the target's directory, is flushed, and is renamed over the
/// target. Readers polling the target therefore always see a complete
/// snapshot — the previous one until the rename, this one after.
///
/// # Errors
///
/// Any I/O error from the write or rename; callers treating status as
/// advisory telemetry should count and ignore these.
pub fn write_atomic(path: &Path, status: &CampaignStatus) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "status path has no file name"))?
        .to_string_lossy()
        .into_owned();
    // Unique-enough per process: two emitters racing the same target
    // would be a configuration bug, but even then each rename is atomic
    // and the target stays a complete snapshot.
    let tmp_name = format!(".{file_name}.tmp.{}", std::process::id());
    let tmp = match dir {
        Some(dir) => dir.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let text = status.to_json().to_json_pretty();
    let result = fs::write(&tmp, text).and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Reads the snapshot at `path`. A missing file (not yet written)
/// yields `Ok(None)`, the one state besides a complete snapshot that a
/// concurrent [`write_atomic`] can leave behind.
///
/// # Errors
///
/// I/O errors other than "file not found", and
/// [`io::ErrorKind::InvalidData`] with [`parse_status`]'s reason for
/// content that is not a valid snapshot.
pub fn read_status(path: &Path) -> io::Result<Option<CampaignStatus>> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    parse_status(&text)
        .map(Some)
        .map_err(|reason| io::Error::new(io::ErrorKind::InvalidData, reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignStatus {
        CampaignStatus {
            label: "e6.c1.correlation".into(),
            state: "running".into(),
            total: 16,
            done: 9,
            replayed: 2,
            detected: 7,
            undetected: 1,
            failed: 1,
            elapsed_ms: 1234.5,
            faults_per_sec: 3.25,
            ewma_faults_per_sec: 3.0,
            eta_ms: Some(2153.8),
            counters: vec![
                ("newton_iterations".into(), 420),
                ("factor_reuse_hits".into(), 400),
            ],
            phases: vec![("lu_factor".into(), 123456, 78)],
            workers: vec![
                WorkerLane {
                    lane: 0,
                    fault: Some(11),
                    fault_name: Some("m1-g-sa0".into()),
                    busy_ms: 87.5,
                    heartbeat_age_ms: 87.5,
                    completed: 5,
                    stalled: false,
                    hot_phase: Some("device_eval".into()),
                },
                WorkerLane {
                    lane: 1,
                    fault: None,
                    fault_name: None,
                    busy_ms: 0.0,
                    heartbeat_age_ms: 12.0,
                    completed: 4,
                    stalled: false,
                    hot_phase: None,
                },
            ],
            journal: Some("tele/campaign.jsonl".into()),
            stall_after_ms: Some(4000.0),
            updated_at_ms: 1.7e12,
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let status = sample();
        let text = status.to_json().to_json_pretty();
        let back = parse_status(&text).unwrap();
        assert_eq!(back, status);
    }

    #[test]
    fn schema_and_rollup_are_validated() {
        let mut wrong = sample().to_json();
        wrong.push("schema", JsonValue::Str("mixsig.run-report/1".into()));
        // Duplicate key: `get` returns the first, so rebuild instead.
        let mut status = sample();
        status.detected = 9; // 9+1+1 != 9 done
        let err = parse_status(&status.to_json().to_json()).unwrap_err();
        assert!(err.contains("rollup"), "{err}");
        assert!(parse_status("{\"schema\": \"nope\"}").is_err());
        assert!(parse_status("{not json").is_err());
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        let dir = std::env::temp_dir().join("obs-status-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(STATUS_FILE);
        let _ = fs::remove_file(&path);
        assert_eq!(read_status(&path).unwrap(), None, "missing file is None");
        let status = sample();
        write_atomic(&path, &status).unwrap();
        assert_eq!(read_status(&path).unwrap(), Some(status.clone()));
        // No temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        // A second write replaces the first completely.
        let mut next = status;
        next.done = 16;
        next.detected = 14;
        next.undetected = 1;
        next.state = "complete".into();
        write_atomic(&path, &next).unwrap();
        assert_eq!(read_status(&path).unwrap(), Some(next));
    }

    #[test]
    fn unparseable_content_is_invalid_data_with_its_reason() {
        let dir = std::env::temp_dir().join("obs-status-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        fs::write(&path, "{\"schema\": \"mixsig.campaign-st").unwrap();
        let err = read_status(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Outcome counts that do not sum to `done`.
        let mut status = sample();
        status.detected = 9;
        fs::write(&path, status.to_json().to_json()).unwrap();
        let err = read_status(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("rollup"), "{err}");
    }

    #[test]
    fn terminal_states_and_remaining() {
        let mut status = sample();
        assert!(!status.is_terminal());
        assert_eq!(status.remaining(), 7);
        status.state = "complete".into();
        assert!(status.is_terminal());
    }
}
