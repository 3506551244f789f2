//! Live campaign telemetry: per-worker heartbeats, periodic
//! `mixsig.campaign-status/1` snapshots, and stall detection.
//!
//! Everything in this module is *advisory*: it exists so a human (or
//! the `experiments watch` console, or a future HTTP service) can see
//! what a running campaign is doing, and it is guaranteed never to
//! change what the campaign produces. Three rules enforce that:
//!
//! * **Sidecar files only.** Heartbeats append to
//!   `<dir>/heartbeats.jsonl` and snapshots replace `<dir>/status.json`
//!   — never the checkpoint journal, whose replay semantics and byte
//!   layout are part of the crash-safety contract. (Defensively, the
//!   journal replayer also skips any `heartbeat` record it encounters,
//!   so even a misconfigured path cannot poison a resume.)
//! * **Best-effort writes.** A telemetry write failure is counted
//!   (`heartbeat_drops` / `status_drops` in the next snapshot that does
//!   land) and otherwise ignored; after the heartbeat writer fails
//!   persistently it is disabled rather than retried forever. A
//!   campaign can finish with its telemetry directory on a dead disk.
//! * **Wall-clock quarantine.** Rates, ETAs and heartbeat ages are
//!   wall-clock derived and flow only into the status snapshot, never
//!   into [`CampaignReport`](crate::campaign::CampaignReport) canonical
//!   output — reports stay byte-identical with telemetry armed or
//!   disarmed.
//!
//! Stall detection: a lane with a fault in flight whose heartbeat age
//! exceeds [`TelemetryConfig::stall_factor`] × the per-fault wall
//! budget is flagged `stalled` in the snapshot. Campaigns without a
//! wall budget fall back to the same multiple of the average observed
//! fault duration (floored at one second), so a hung worker is still
//! distinguishable from a merely slow fault once enough faults have
//! completed to establish "slow".

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

use anasim::metrics::SolverSnapshot;
use anasim::robust::SolveBudget;
use obs::chaos::FaultPlan;
use obs::journal::{JournalOptions, JournalWriter, RetryPolicy};
use obs::json::JsonValue;
use obs::profile::{Phase, PhaseSnapshot};
use obs::status::{self, CampaignStatus, WorkerLane};
use obs::timeseries::WindowedCounter;

/// Live-telemetry configuration for a campaign
/// ([`CampaignConfig::telemetry`](crate::campaign::CampaignConfig)).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Directory receiving `status.json` and `heartbeats.jsonl`
    /// (created if missing).
    pub dir: PathBuf,
    /// How often the status snapshot is rewritten (default 250 ms).
    pub interval: Duration,
    /// A lane whose heartbeat age exceeds this multiple of the
    /// per-fault wall budget (or, without one, of the average observed
    /// fault duration) while a fault is in flight is flagged stalled
    /// (default 4.0).
    pub stall_factor: f64,
    /// Retry policy for heartbeat appends (default: the journal
    /// default). Exhausted retries disable the heartbeat writer rather
    /// than failing the campaign.
    pub retry: RetryPolicy,
    /// Deterministic fault-injection plan wrapped around the heartbeat
    /// file (chaos testing). Strictly opt-in, like
    /// [`JournalConfig::chaos`](crate::campaign::JournalConfig).
    pub chaos: Option<FaultPlan>,
}

impl TelemetryConfig {
    /// Default snapshot interval.
    pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(250);

    /// Default stall multiple.
    pub const DEFAULT_STALL_FACTOR: f64 = 4.0;

    /// Telemetry into `dir` with default interval and stall policy.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TelemetryConfig {
            dir: dir.into(),
            interval: Self::DEFAULT_INTERVAL,
            stall_factor: Self::DEFAULT_STALL_FACTOR,
            retry: RetryPolicy::default(),
            chaos: None,
        }
    }

    /// Replaces the snapshot interval.
    #[must_use]
    pub fn interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Replaces the stall multiple.
    #[must_use]
    pub fn stall_factor(mut self, factor: f64) -> Self {
        self.stall_factor = factor.max(1.0);
        self
    }

    /// Replaces the heartbeat-append retry policy.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs a deterministic fault-injection plan on the heartbeat
    /// file (chaos testing).
    #[must_use]
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Path of the status snapshot inside the telemetry directory.
    pub fn status_path(&self) -> PathBuf {
        self.dir.join(status::STATUS_FILE)
    }

    /// Path of the heartbeat sidecar inside the telemetry directory.
    pub fn heartbeat_path(&self) -> PathBuf {
        self.dir.join(status::HEARTBEAT_FILE)
    }
}

/// Builds one heartbeat record. The shape mirrors campaign-journal
/// records (a `record` discriminator plus a label) so journal tooling
/// that stumbles on a heartbeat file fails soft, but heartbeats live in
/// their own sidecar and never enter the canonical journal.
///
/// `completed` is the campaign-global done count at the time of the
/// beat (a progress stamp), *not* the emitting lane's own tally —
/// per-lane completion is recovered by counting `done` events per lane
/// (see `bench`'s heartbeat overlay).
pub fn heartbeat_record(
    label: &str,
    lane: usize,
    event: &str,
    fault: Option<(usize, &str)>,
    completed: usize,
    t_ms: f64,
) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.push("record", JsonValue::Str("heartbeat".into()));
    obj.push("label", JsonValue::Str(label.into()));
    obj.push("lane", JsonValue::Num(lane as f64));
    obj.push("event", JsonValue::Str(event.into()));
    obj.push(
        "fault",
        fault.map_or(JsonValue::Null, |(i, _)| JsonValue::Num(i as f64)),
    );
    obj.push(
        "name",
        fault.map_or(JsonValue::Null, |(_, n)| JsonValue::Str(n.into())),
    );
    obj.push("completed", JsonValue::Num(completed as f64));
    obj.push("t_ms", JsonValue::Num(t_ms));
    obj
}

/// One worker lane's live state.
#[derive(Debug)]
struct LaneState {
    /// The fault in flight: universe index, name, claim instant.
    current: Option<(usize, String, Instant)>,
    /// Last heartbeat-worthy event on this lane.
    last_beat: Instant,
    /// Faults completed by this lane.
    completed: usize,
    /// Phase rollup of this lane's completed faults (profiling armed
    /// only).
    phases: PhaseSnapshot,
}

/// Rate/emission state mutated only under one lock.
struct EmitState {
    throughput: WindowedCounter,
    last_emit: Instant,
}

/// Folds live campaign state into the status snapshot and heartbeat
/// sidecar. Shared by reference between worker threads (claim/done
/// events) and the monitor thread (periodic emission); every method is
/// `&self`.
///
/// Lock order: `emit` strictly before any lane lock (`snapshot_locked`
/// holds `emit` while visiting every lane). Nothing may acquire `emit`
/// while holding a lane lock — that inversion deadlocks the monitor
/// thread against a finishing worker. Cross-lock counters that worker
/// events update under a lane lock (`StatusEmitter::fault_wall_ns`)
/// are atomics for exactly that reason.
pub struct StatusEmitter {
    config: TelemetryConfig,
    label: String,
    journal: Option<String>,
    total: usize,
    replayed: usize,
    epoch: Instant,
    budget_wall: Option<Duration>,
    lanes: Vec<Mutex<LaneState>>,
    done: AtomicUsize,
    detected: AtomicUsize,
    undetected: AtomicUsize,
    failed: AtomicUsize,
    /// Sum of completed-fault wall time in nanoseconds, for the
    /// budget-less stall fallback. Atomic (not part of [`EmitState`])
    /// because workers add to it while holding their lane lock.
    fault_wall_ns: AtomicU64,
    solver: Mutex<SolverSnapshot>,
    heartbeats: Mutex<Option<JournalWriter>>,
    heartbeat_drops: AtomicU64,
    status_drops: AtomicU64,
    emit: Mutex<EmitState>,
    finished: AtomicBool,
}

impl StatusEmitter {
    /// Arms telemetry: creates the directory, truncates the heartbeat
    /// sidecar, seeds counters with the replayed rollup and writes the
    /// first snapshot. Failures are absorbed (a dead telemetry
    /// directory must not kill the campaign): a failed heartbeat open
    /// leaves heartbeats disabled, a failed snapshot is counted.
    #[allow(clippy::too_many_arguments)]
    pub fn arm(
        config: TelemetryConfig,
        label: &str,
        journal: Option<&Path>,
        total: usize,
        workers: usize,
        replayed: (usize, usize, usize),
        budget: SolveBudget,
    ) -> Self {
        let _ = std::fs::create_dir_all(&config.dir);
        let now = Instant::now();
        let heartbeats = JournalWriter::create_with(
            &config.heartbeat_path(),
            JournalOptions {
                retry: config.retry.clone(),
                chaos: config.chaos.clone(),
            },
        )
        .ok();
        let (detected, undetected, failed) = replayed;
        let replayed_total = detected + undetected + failed;
        let emitter = StatusEmitter {
            label: label.to_owned(),
            journal: journal.map(|p| p.to_string_lossy().into_owned()),
            total,
            replayed: replayed_total,
            epoch: now,
            budget_wall: budget.max_wall,
            lanes: (0..workers.max(1))
                .map(|_| {
                    Mutex::new(LaneState {
                        current: None,
                        last_beat: now,
                        completed: 0,
                        phases: PhaseSnapshot::default(),
                    })
                })
                .collect(),
            done: AtomicUsize::new(replayed_total),
            detected: AtomicUsize::new(detected),
            undetected: AtomicUsize::new(undetected),
            failed: AtomicUsize::new(failed),
            fault_wall_ns: AtomicU64::new(0),
            solver: Mutex::new(SolverSnapshot::default()),
            heartbeats: Mutex::new(heartbeats),
            heartbeat_drops: AtomicU64::new(0),
            status_drops: AtomicU64::new(0),
            emit: Mutex::new(EmitState {
                throughput: WindowedCounter::new(),
                last_emit: now,
            }),
            finished: AtomicBool::new(false),
            config,
        };
        emitter.beat(0, "armed", None);
        emitter.emit_now("running");
        emitter
    }

    /// Elapsed milliseconds since the campaign epoch.
    fn elapsed_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Appends one heartbeat record, best-effort. A persistent append
    /// failure disables the writer: telemetry must never become the
    /// slowest (or loudest) part of a campaign.
    fn beat(&self, lane: usize, event: &str, fault: Option<(usize, &str)>) {
        let completed = self.done.load(Ordering::Acquire);
        let record =
            heartbeat_record(&self.label, lane, event, fault, completed, self.elapsed_ms());
        let mut guard = self.heartbeats.lock().expect("heartbeat lock");
        if let Some(writer) = guard.as_mut() {
            if writer.append(&record).is_err() {
                self.heartbeat_drops.fetch_add(1, Ordering::AcqRel);
                *guard = None;
            }
        } else {
            self.heartbeat_drops.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// A worker claimed fault `index`.
    pub fn fault_claimed(&self, lane: usize, index: usize, name: &str) {
        let now = Instant::now();
        {
            let mut state = self.lanes[lane].lock().expect("lane lock");
            state.current = Some((index, name.to_owned(), now));
            state.last_beat = now;
        }
        self.beat(lane, "claim", Some((index, name)));
    }

    /// A worker abandoned its in-flight fault (cancellation): the lane
    /// is released without counting an outcome, so terminal snapshots
    /// show it idle rather than eternally mid-fault.
    pub fn fault_abandoned(&self, lane: usize) {
        {
            let mut state = self.lanes[lane].lock().expect("lane lock");
            state.current = None;
            state.last_beat = Instant::now();
        }
        self.beat(lane, "abandon", None);
    }

    /// A worker finished fault `index` with the given status tag
    /// (`FaultStatus::tag`) and solver counters.
    pub fn fault_done(
        &self,
        lane: usize,
        index: usize,
        name: &str,
        status_tag: &str,
        solver: &SolverSnapshot,
    ) {
        let now = Instant::now();
        {
            let mut state = self.lanes[lane].lock().expect("lane lock");
            if let Some((_, _, claimed)) = state.current.take() {
                // Atomic, not the emit lock: taking emit here while
                // holding the lane lock would invert the emit→lane
                // order snapshot_locked relies on and deadlock against
                // the monitor thread.
                let wall = now.saturating_duration_since(claimed);
                self.fault_wall_ns
                    .fetch_add(wall.as_nanos().min(u128::from(u64::MAX)) as u64, Ordering::AcqRel);
            }
            state.last_beat = now;
            state.completed += 1;
            state.phases += solver.phases;
        }
        self.done.fetch_add(1, Ordering::AcqRel);
        match status_tag {
            "detected" => self.detected.fetch_add(1, Ordering::AcqRel),
            "undetected" => self.undetected.fetch_add(1, Ordering::AcqRel),
            _ => self.failed.fetch_add(1, Ordering::AcqRel),
        };
        *self.solver.lock().expect("solver lock") += *solver;
        self.beat(lane, "done", Some((index, name)));
    }

    /// The stall threshold in milliseconds: `stall_factor` × the wall
    /// budget when one is configured, else `stall_factor` × the average
    /// observed fault duration (floored at 1 s), else `None` before any
    /// fault completed.
    fn stall_after_ms(&self) -> Option<f64> {
        if let Some(wall) = self.budget_wall {
            return Some(self.config.stall_factor * wall.as_secs_f64() * 1e3);
        }
        let fresh = self.done.load(Ordering::Acquire).saturating_sub(self.replayed);
        if fresh == 0 {
            return None;
        }
        let avg_ms = self.fault_wall_ns.load(Ordering::Acquire) as f64 / 1e6 / fresh as f64;
        Some(self.config.stall_factor * avg_ms.max(1e3))
    }

    /// Builds the current snapshot without writing it.
    pub fn snapshot(&self, state: &str) -> CampaignStatus {
        let mut emit = self.emit.lock().expect("emit lock");
        self.snapshot_locked(state, &mut emit)
    }

    fn snapshot_locked(&self, state: &str, emit: &mut EmitState) -> CampaignStatus {
        let elapsed_ms = self.elapsed_ms();
        let done = self.done.load(Ordering::Acquire);
        emit.throughput.observe(elapsed_ms, done as f64);
        // The windowed rate counts replayed faults as instantaneous
        // progress at arm time; past the first interval the window
        // reflects only real simulation throughput.
        let rate = emit.throughput.rate_per_sec().unwrap_or(0.0).max(0.0);
        let ewma = emit.throughput.ewma_per_sec().unwrap_or(rate).max(0.0);
        let remaining = self.total.saturating_sub(done);
        let eta_ms = if remaining == 0 {
            Some(0.0)
        } else {
            let best = ewma.max(rate);
            (best > 0.0).then(|| remaining as f64 / best * 1e3)
        };
        let stall_after_ms = self.stall_after_ms();
        let workers = self
            .lanes
            .iter()
            .enumerate()
            .map(|(lane, state)| {
                let state = state.lock().expect("lane lock");
                let busy_ms = state
                    .current
                    .as_ref()
                    .map_or(0.0, |(_, _, claimed)| claimed.elapsed().as_secs_f64() * 1e3);
                let age_ms = state.last_beat.elapsed().as_secs_f64() * 1e3;
                let stalled = state.current.is_some()
                    && stall_after_ms.is_some_and(|limit| age_ms > limit);
                let hot_phase = Phase::ALL
                    .iter()
                    .copied()
                    .max_by_key(|&p| state.phases.ns(p))
                    .filter(|&p| state.phases.ns(p) > 0)
                    .map(|p| p.label().to_owned());
                WorkerLane {
                    lane: lane as u64,
                    fault: state.current.as_ref().map(|(i, _, _)| *i as u64),
                    fault_name: state.current.as_ref().map(|(_, n, _)| n.clone()),
                    busy_ms,
                    heartbeat_age_ms: age_ms,
                    completed: state.completed as u64,
                    stalled,
                    hot_phase,
                }
            })
            .collect();
        let solver = *self.solver.lock().expect("solver lock");
        let mut counters: Vec<(String, u64)> = SolverSnapshot::FIELDS
            .iter()
            .zip(solver.as_array())
            .map(|(name, value)| ((*name).to_owned(), value))
            .collect();
        counters.push((
            "heartbeat_drops".into(),
            self.heartbeat_drops.load(Ordering::Acquire),
        ));
        counters.push((
            "status_drops".into(),
            self.status_drops.load(Ordering::Acquire),
        ));
        let phases = Phase::ALL
            .iter()
            .filter(|&&p| solver.phases.calls(p) > 0 || solver.phases.ns(p) > 0)
            .map(|&p| (p.label().to_owned(), solver.phases.ns(p), solver.phases.calls(p)))
            .collect();
        CampaignStatus {
            label: self.label.clone(),
            state: state.to_owned(),
            total: self.total as u64,
            done: done as u64,
            replayed: self.replayed as u64,
            detected: self.detected.load(Ordering::Acquire) as u64,
            undetected: self.undetected.load(Ordering::Acquire) as u64,
            failed: self.failed.load(Ordering::Acquire) as u64,
            elapsed_ms,
            faults_per_sec: rate,
            ewma_faults_per_sec: ewma,
            eta_ms,
            counters,
            phases,
            workers,
            journal: self.journal.clone(),
            stall_after_ms,
            updated_at_ms: unix_ms(),
        }
    }

    /// Folds and writes one snapshot now, best-effort.
    fn emit_now(&self, state: &str) {
        let status = {
            let mut emit = self.emit.lock().expect("emit lock");
            let status = self.snapshot_locked(state, &mut emit);
            emit.last_emit = Instant::now();
            status
        };
        if status::write_atomic(&self.config.status_path(), &status).is_err() {
            self.status_drops.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// The monitor loop: rewrites the snapshot every
    /// [`TelemetryConfig::interval`] until [`StatusEmitter::finish`].
    /// Runs on its own (scoped) thread; sleeps in short increments so
    /// shutdown latency stays bounded regardless of the interval.
    pub fn monitor(&self) {
        const TICK: Duration = Duration::from_millis(10);
        while !self.finished.load(Ordering::Acquire) {
            std::thread::sleep(TICK.min(self.config.interval));
            let due = {
                let emit = self.emit.lock().expect("emit lock");
                emit.last_emit.elapsed() >= self.config.interval
            };
            if due && !self.finished.load(Ordering::Acquire) {
                self.emit_now("running");
            }
        }
    }

    /// Stops the monitor loop (the terminal snapshot is written
    /// separately via [`StatusEmitter::emit_terminal`], after the
    /// campaign's outcome is known).
    pub fn finish(&self) {
        self.finished.store(true, Ordering::Release);
    }

    /// Writes the terminal snapshot (`complete`, `cancelled` or
    /// `aborted`) and the closing heartbeat.
    pub fn emit_terminal(&self, state: &str) {
        self.finish();
        self.beat(0, state, None);
        self.emit_now(state);
    }

    /// Heartbeat records dropped (write failures after the writer was
    /// disabled included).
    pub fn heartbeat_drops(&self) -> u64 {
        self.heartbeat_drops.load(Ordering::Acquire)
    }

    /// Status snapshots that failed to write.
    pub fn status_drops(&self) -> u64 {
        self.status_drops.load(Ordering::Acquire)
    }
}

/// Unix time in milliseconds (telemetry freshness only — never
/// canonical).
fn unix_ms() -> f64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("faultsim-telemetry-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn armed(dir: &Path, budget: SolveBudget) -> StatusEmitter {
        StatusEmitter::arm(
            TelemetryConfig::new(dir),
            "unit.test",
            Some(Path::new("unit.jsonl")),
            4,
            2,
            (1, 0, 0),
            budget,
        )
    }

    #[test]
    fn arm_writes_an_initial_snapshot_and_heartbeat() {
        let dir = temp_dir("arm");
        let emitter = armed(&dir, SolveBudget::unlimited());
        let status = status::read_status(&emitter.config.status_path())
            .unwrap()
            .expect("initial snapshot");
        assert_eq!(status.label, "unit.test");
        assert_eq!(status.state, "running");
        assert_eq!(status.total, 4);
        assert_eq!(status.done, 1, "replayed faults count as done");
        assert_eq!(status.replayed, 1);
        assert_eq!(status.workers.len(), 2);
        assert_eq!(status.journal.as_deref(), Some("unit.jsonl"));
        let beats = obs::journal::read_journal(&emitter.config.heartbeat_path()).unwrap();
        assert_eq!(beats.records.len(), 1);
        assert_eq!(
            beats.records[0].get("event").and_then(JsonValue::as_str),
            Some("armed")
        );
    }

    #[test]
    fn claim_and_done_update_lanes_and_rollup() {
        let dir = temp_dir("claims");
        let emitter = armed(&dir, SolveBudget::unlimited());
        emitter.fault_claimed(1, 2, "b-sa0");
        let status = emitter.snapshot("running");
        assert_eq!(status.workers[1].fault, Some(2));
        assert_eq!(status.workers[1].fault_name.as_deref(), Some("b-sa0"));
        let solver = SolverSnapshot {
            newton_iterations: 7,
            ..SolverSnapshot::default()
        };
        emitter.fault_done(1, 2, "b-sa0", "detected", &solver);
        emitter.fault_claimed(0, 3, "b-sa1");
        emitter.fault_done(0, 3, "b-sa1", "sim-failed", &solver);
        let status = emitter.snapshot("running");
        assert_eq!(status.done, 3);
        assert_eq!(status.detected, 2);
        assert_eq!(status.failed, 1);
        assert_eq!(status.workers[1].completed, 1);
        assert_eq!(status.workers[1].fault, None, "done clears the lane");
        let newton = status
            .counters
            .iter()
            .find(|(n, _)| n == "newton_iterations")
            .unwrap()
            .1;
        assert_eq!(newton, 14);
        // Five heartbeats: armed + claim + done + claim + done.
        let beats = obs::journal::read_journal(&emitter.config.heartbeat_path()).unwrap();
        assert_eq!(beats.records.len(), 5);
    }

    #[test]
    fn stall_flag_uses_the_wall_budget_multiple() {
        let dir = temp_dir("stall");
        let budget = SolveBudget::unlimited().wall(Duration::from_millis(5));
        let emitter = armed(&dir, budget);
        emitter.fault_claimed(0, 1, "c-sa0");
        // stall_after = 4 × 5 ms; an in-flight fault older than that is
        // stalled, while the idle lane never is.
        std::thread::sleep(Duration::from_millis(40));
        let status = emitter.snapshot("running");
        assert_eq!(status.stall_after_ms, Some(20.0));
        assert!(status.workers[0].stalled, "{status:?}");
        assert!(!status.workers[1].stalled, "idle lane cannot stall");
    }

    #[test]
    fn without_a_budget_stall_needs_observed_faults() {
        let dir = temp_dir("stall-adaptive");
        let emitter = armed(&dir, SolveBudget::unlimited());
        emitter.fault_claimed(0, 1, "c-sa0");
        let status = emitter.snapshot("running");
        assert_eq!(status.stall_after_ms, None, "no budget, nothing observed");
        assert!(!status.workers[0].stalled);
        emitter.fault_done(0, 1, "c-sa0", "detected", &SolverSnapshot::default());
        let status = emitter.snapshot("running");
        // One observed fault establishes the adaptive threshold, with
        // the 1 s floor dominating this fast unit test.
        assert_eq!(status.stall_after_ms, Some(4000.0));
    }

    #[test]
    fn heartbeat_write_failures_disable_the_writer_and_count_drops() {
        let dir = temp_dir("hb-chaos");
        let plan = FaultPlan::parse("write@0..").unwrap();
        let config = TelemetryConfig::new(&dir)
            .retry(RetryPolicy::none())
            .chaos(plan);
        let emitter = StatusEmitter::arm(
            config,
            "unit.test",
            None,
            2,
            1,
            (0, 0, 0),
            SolveBudget::unlimited(),
        );
        // The armed beat hit the injected fault and disabled the
        // writer; subsequent beats are counted as drops without
        // touching it again.
        emitter.fault_claimed(0, 0, "b-sa0");
        emitter.fault_done(0, 0, "b-sa0", "detected", &SolverSnapshot::default());
        assert_eq!(emitter.heartbeat_drops(), 3);
        // The campaign-facing API never surfaced an error, and the
        // status snapshot still works and reports the drops (terminal
        // beat included).
        emitter.emit_terminal("complete");
        let status = status::read_status(&emitter.config.status_path())
            .unwrap()
            .unwrap();
        let drops = status
            .counters
            .iter()
            .find(|(n, _)| n == "heartbeat_drops")
            .unwrap()
            .1;
        assert_eq!(drops, 4);
    }

    #[test]
    fn status_write_failures_are_counted_not_fatal() {
        let dir = temp_dir("status-chaos");
        let emitter = armed(&dir, SolveBudget::unlimited());
        // Make the status path unwritable by replacing it with a
        // directory: the rename target stays invalid from here on.
        let path = emitter.config.status_path();
        let _ = std::fs::remove_file(&path);
        std::fs::create_dir_all(&path).unwrap();
        emitter.emit_terminal("complete");
        assert_eq!(emitter.status_drops(), 1);
    }

    #[test]
    fn terminal_snapshot_carries_the_final_state() {
        let dir = temp_dir("terminal");
        let emitter = armed(&dir, SolveBudget::unlimited());
        emitter.emit_terminal("cancelled");
        let status = status::read_status(&emitter.config.status_path())
            .unwrap()
            .unwrap();
        assert_eq!(status.state, "cancelled");
        assert!(status.is_terminal());
        let beats = obs::journal::read_journal(&emitter.config.heartbeat_path()).unwrap();
        let last = beats.records.last().unwrap();
        assert_eq!(last.get("event").and_then(JsonValue::as_str), Some("cancelled"));
    }
}
