//! Live campaign telemetry: periodic `mixsig.campaign-status/1`
//! snapshots and stall detection.
//!
//! Everything in this module is *advisory*: it exists so a human (or
//! the `experiments watch` console, or a future HTTP service) can see
//! what a running campaign is doing, and it is guaranteed never to
//! change what the campaign produces. Three rules enforce that:
//!
//! * **One sidecar file.** Snapshots replace `<dir>/status.json` and
//!   nothing else. The checkpoint journal is the campaign's one durable
//!   per-fault stream; its replay semantics and byte layout are part of
//!   the crash-safety contract, and telemetry never writes to it. Each
//!   lane's claim and done events live only in memory, and every
//!   snapshot carries their latest state.
//! * **Best-effort writes.** A failed snapshot write is counted
//!   (`status_drops` in the next snapshot that does land) and otherwise
//!   ignored. A campaign can finish with its telemetry directory on a
//!   dead disk.
//! * **Wall-clock quarantine.** Rates, ETAs and lane event ages are
//!   wall-clock derived and flow only into the status snapshot, never
//!   into [`CampaignReport`](crate::campaign::CampaignReport) canonical
//!   output — reports stay byte-identical with telemetry armed or
//!   disarmed.
//!
//! Progress is folded one way: [`StatusRollup`] adds each completed
//! fault's outcome and telemetry. The live [`StatusEmitter`] keeps one,
//! seeded with a resume's replayed outcomes, and `experiments watch`
//! folds a journal through the same type, so the live and post-hoc
//! views of one run agree on everything the journal records.
//!
//! Stall detection: a lane with a fault in flight whose last claim or
//! done event is older than [`STALL_FACTOR`] × the per-fault wall
//! budget is flagged `stalled` in the snapshot (its `heartbeat_age_ms`
//! is that event's age). Campaigns without a wall budget fall back
//! to the same multiple of the average observed fault duration (floored
//! at one second), so a hung worker is still distinguishable from a
//! merely slow fault once enough faults have completed to establish
//! "slow".

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

use anasim::metrics::SolverSnapshot;
use anasim::robust::SolveBudget;
use obs::profile::{Phase, PhaseSnapshot};
use obs::status::{self, CampaignStatus, WorkerLane};
use obs::timeseries::WindowedCounter;

use crate::campaign::{FaultOutcome, FaultStatus, FaultTelemetry};

/// A lane whose last claim or done event is older than this multiple
/// of the per-fault wall budget (or, without one, of the average
/// observed fault duration) while a fault is in flight is flagged
/// stalled.
pub const STALL_FACTOR: f64 = 4.0;

/// Live-telemetry configuration for a campaign
/// ([`CampaignConfig::telemetry`](crate::campaign::CampaignConfig)).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Directory receiving `status.json` (created if missing).
    pub dir: PathBuf,
    /// How often the status snapshot is rewritten (default 250 ms).
    pub interval: Duration,
}

impl TelemetryConfig {
    /// Default snapshot interval.
    pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(250);

    /// Telemetry into `dir` with the default interval.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TelemetryConfig {
            dir: dir.into(),
            interval: Self::DEFAULT_INTERVAL,
        }
    }

    /// Replaces the snapshot interval.
    #[must_use]
    pub fn interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Path of the status snapshot inside the telemetry directory.
    pub fn status_path(&self) -> PathBuf {
        self.dir.join(status::STATUS_FILE)
    }

}

/// The progress fold of a campaign's completed faults: the outcome
/// split, the summed solver counters and phases, and per worker lane
/// the faults it completed.
#[derive(Debug, Clone, Default)]
pub struct StatusRollup {
    detected: u64,
    undetected: u64,
    failed: u64,
    solver: SolverSnapshot,
    /// Summed wall milliseconds of the folded faults.
    wall_ms: f64,
    /// By lane: faults completed, their summed wall milliseconds and
    /// their phase rollup.
    lanes: BTreeMap<usize, (u64, f64, PhaseSnapshot)>,
}

impl StatusRollup {
    /// Folds one completed fault, on the lane its telemetry names.
    pub fn add(&mut self, status: &FaultStatus, telemetry: &FaultTelemetry) {
        match status {
            FaultStatus::Detected { .. } => self.detected += 1,
            FaultStatus::Undetected { .. } => self.undetected += 1,
            _ => self.failed += 1,
        }
        self.solver += telemetry.solver;
        let wall_ms = telemetry.wall.as_secs_f64() * 1e3;
        self.wall_ms += wall_ms;
        let lane = self.lanes.entry(telemetry.lane).or_default();
        lane.0 += 1;
        lane.1 += wall_ms;
        lane.2 += telemetry.solver.phases;
    }

    /// Faults folded so far.
    pub fn done(&self) -> u64 {
        self.detected + self.undetected + self.failed
    }

    /// Writes the fold into `status`: `done` and the outcome split, the
    /// solver counters (replacing any), the phases that saw time or
    /// calls, `elapsed_ms` as the summed fault wall, and for every lane
    /// that completed a fault its `completed`, `busy_ms` (the summed
    /// wall of those faults) and hottest phase. A lane `status` does not
    /// list yet is added in lane order.
    pub fn fill(&self, status: &mut CampaignStatus) {
        status.done = self.done();
        status.detected = self.detected;
        status.undetected = self.undetected;
        status.failed = self.failed;
        status.counters = SolverSnapshot::FIELDS
            .iter()
            .zip(self.solver.as_array())
            .map(|(name, value)| ((*name).to_owned(), value))
            .collect();
        let phases = &self.solver.phases;
        status.phases = Phase::ALL
            .iter()
            .filter(|&&p| phases.ns(p) > 0 || phases.calls(p) > 0)
            .map(|&p| (p.label().to_owned(), phases.ns(p), phases.calls(p)))
            .collect();
        status.elapsed_ms = self.wall_ms;
        for (&lane, (completed, busy_ms, phases)) in &self.lanes {
            let lane = lane as u64;
            let at = match status.workers.binary_search_by_key(&lane, |w| w.lane) {
                Ok(at) => at,
                Err(at) => {
                    let worker = WorkerLane {
                        lane,
                        ..WorkerLane::default()
                    };
                    status.workers.insert(at, worker);
                    at
                }
            };
            let worker = &mut status.workers[at];
            worker.completed = *completed;
            worker.busy_ms = *busy_ms;
            worker.hot_phase = Phase::ALL
                .iter()
                .copied()
                .max_by_key(|&p| phases.ns(p))
                .filter(|&p| phases.ns(p) > 0)
                .map(|p| p.label().to_owned());
        }
    }
}

/// One worker lane's live state.
#[derive(Debug)]
struct LaneState {
    /// The fault in flight: universe index, name, claim instant.
    current: Option<(usize, String, Instant)>,
    /// The lane's last claim, done or abandon event.
    last_event: Instant,
}

/// Rate/emission state mutated only under one lock.
struct EmitState {
    throughput: WindowedCounter,
    last_emit: Instant,
}

/// Folds live campaign state into the status snapshot. Shared by
/// reference between worker threads (claim, done and abandon events)
/// and the monitor thread (periodic emission); every method is `&self`.
///
/// Lock order: `emit` strictly before any lane lock or the rollup lock
/// (`snapshot_locked` holds `emit` while it reads them). A worker event
/// never takes `emit` and holds at most one lock at a time — its own
/// lane lock, released before `fault_done` takes the rollup lock — so
/// the monitor thread cannot deadlock against a finishing worker.
pub struct StatusEmitter {
    config: TelemetryConfig,
    label: String,
    journal: Option<String>,
    total: usize,
    replayed: u64,
    epoch: Instant,
    budget_wall: Option<Duration>,
    lanes: Vec<Mutex<LaneState>>,
    rollup: Mutex<StatusRollup>,
    status_drops: AtomicU64,
    emit: Mutex<EmitState>,
    finished: AtomicBool,
}

impl StatusEmitter {
    /// Arms telemetry: creates the directory, seeds the progress fold
    /// with the `replayed` outcomes and writes the first snapshot.
    /// Replayed faults were completed by an earlier run, not by a lane
    /// of this one, so they count toward the outcome split and the
    /// solver counters but toward no lane. Failures are absorbed (a dead
    /// telemetry directory must not kill the campaign): a failed
    /// snapshot is counted.
    #[allow(clippy::too_many_arguments)]
    pub fn arm(
        config: TelemetryConfig,
        label: &str,
        journal: Option<&Path>,
        total: usize,
        workers: usize,
        mut replayed: StatusRollup,
        budget: SolveBudget,
    ) -> Self {
        let _ = std::fs::create_dir_all(&config.dir);
        let now = Instant::now();
        replayed.lanes.clear();
        let emitter = StatusEmitter {
            label: label.to_owned(),
            journal: journal.map(|p| p.to_string_lossy().into_owned()),
            total,
            replayed: replayed.done(),
            epoch: now,
            budget_wall: budget.max_wall,
            lanes: (0..workers.max(1))
                .map(|_| {
                    Mutex::new(LaneState {
                        current: None,
                        last_event: now,
                    })
                })
                .collect(),
            rollup: Mutex::new(replayed),
            status_drops: AtomicU64::new(0),
            emit: Mutex::new(EmitState {
                throughput: WindowedCounter::new(),
                last_emit: now,
            }),
            finished: AtomicBool::new(false),
            config,
        };
        emitter.emit_now("running");
        emitter
    }

    /// Elapsed milliseconds since the campaign epoch.
    fn elapsed_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// A worker claimed fault `index`.
    pub fn fault_claimed(&self, lane: usize, index: usize, name: &str) {
        let now = Instant::now();
        let mut state = self.lanes[lane].lock().expect("lane lock");
        state.current = Some((index, name.to_owned(), now));
        state.last_event = now;
    }

    /// A worker abandoned its in-flight fault (cancellation): the lane
    /// is released without counting an outcome, so terminal snapshots
    /// show it idle rather than eternally mid-fault.
    pub fn fault_abandoned(&self, lane: usize) {
        let mut state = self.lanes[lane].lock().expect("lane lock");
        state.current = None;
        state.last_event = Instant::now();
    }

    /// A worker finished a fault on the lane its telemetry names.
    pub fn fault_done(&self, outcome: &FaultOutcome, telemetry: &FaultTelemetry) {
        {
            let mut state = self.lanes[telemetry.lane].lock().expect("lane lock");
            state.current = None;
            state.last_event = Instant::now();
        }
        self.rollup
            .lock()
            .expect("rollup lock")
            .add(&outcome.status, telemetry);
    }

    /// The stall threshold in milliseconds: [`STALL_FACTOR`] × the wall
    /// budget when one is configured, else [`STALL_FACTOR`] × the
    /// average fault duration (floored at 1 s), else `None` before any
    /// fault of this run completed.
    fn stall_after_ms(&self, rollup: &StatusRollup) -> Option<f64> {
        if let Some(wall) = self.budget_wall {
            return Some(STALL_FACTOR * wall.as_secs_f64() * 1e3);
        }
        if rollup.done() == self.replayed {
            return None;
        }
        let avg_ms = rollup.wall_ms / rollup.done() as f64;
        Some(STALL_FACTOR * avg_ms.max(1e3))
    }

    /// Builds the current snapshot without writing it.
    pub fn snapshot(&self, state: &str) -> CampaignStatus {
        let mut emit = self.emit.lock().expect("emit lock");
        self.snapshot_locked(state, &mut emit)
    }

    /// The rollup's snapshot with the wall-clock fields only a live
    /// campaign has laid over it: elapsed time, rates and ETA, each
    /// lane's fault in flight, busy time, event age and stall flag, and
    /// the snapshot drop counter.
    fn snapshot_locked(&self, state: &str, emit: &mut EmitState) -> CampaignStatus {
        let mut status = CampaignStatus {
            label: self.label.clone(),
            state: state.to_owned(),
            total: self.total as u64,
            replayed: self.replayed,
            workers: (0..self.lanes.len() as u64)
                .map(|lane| WorkerLane {
                    lane,
                    ..WorkerLane::default()
                })
                .collect(),
            journal: self.journal.clone(),
            ..CampaignStatus::default()
        };
        let elapsed_ms = self.elapsed_ms();
        {
            let rollup = self.rollup.lock().expect("rollup lock");
            rollup.fill(&mut status);
            status.stall_after_ms = self.stall_after_ms(&rollup);
        }
        status.elapsed_ms = elapsed_ms;
        emit.throughput.observe(elapsed_ms, status.done as f64);
        // The windowed rate counts replayed faults as instantaneous
        // progress at arm time; past the first interval the window
        // reflects only real simulation throughput.
        let rate = emit.throughput.rate_per_sec().unwrap_or(0.0).max(0.0);
        let ewma = emit.throughput.ewma_per_sec().unwrap_or(rate).max(0.0);
        status.faults_per_sec = rate;
        status.ewma_faults_per_sec = ewma;
        let remaining = status.remaining();
        status.eta_ms = if remaining == 0 {
            Some(0.0)
        } else {
            let best = ewma.max(rate);
            (best > 0.0).then(|| remaining as f64 / best * 1e3)
        };
        for (worker, state) in status.workers.iter_mut().zip(&self.lanes) {
            let state = state.lock().expect("lane lock");
            let age_ms = state.last_event.elapsed().as_secs_f64() * 1e3;
            worker.fault = state.current.as_ref().map(|(i, _, _)| *i as u64);
            worker.fault_name = state.current.as_ref().map(|(_, n, _)| n.clone());
            worker.busy_ms = state
                .current
                .as_ref()
                .map_or(0.0, |(_, _, claimed)| claimed.elapsed().as_secs_f64() * 1e3);
            worker.heartbeat_age_ms = age_ms;
            worker.stalled = state.current.is_some()
                && status.stall_after_ms.is_some_and(|limit| age_ms > limit);
        }
        status.counters.push((
            "status_drops".into(),
            self.status_drops.load(Ordering::Acquire),
        ));
        status.updated_at_ms = unix_ms();
        status
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
    /// `aborted`).
    pub fn emit_terminal(&self, state: &str) {
        self.finish();
        self.emit_now(state);
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
        let mut replayed = StatusRollup::default();
        let status = FaultStatus::Detected { pct: 100.0 };
        replayed.add(&status, &FaultTelemetry::default());
        StatusEmitter::arm(
            TelemetryConfig::new(dir),
            "unit.test",
            Some(Path::new("unit.jsonl")),
            4,
            2,
            replayed,
            budget,
        )
    }

    /// A completed fault named `name` with `status`, simulated on `lane`
    /// with `newton` Newton iterations.
    fn done(
        name: &str,
        status: FaultStatus,
        lane: usize,
        newton: u64,
    ) -> (FaultOutcome, FaultTelemetry) {
        let mut nl = anasim::netlist::Netlist::new();
        let node = nl.node("n");
        let outcome = FaultOutcome {
            fault: crate::model::Fault::stuck_at_0(name, node),
            signature: None,
            status,
        };
        let mut telemetry = FaultTelemetry {
            lane,
            ..FaultTelemetry::default()
        };
        telemetry.solver.newton_iterations = newton;
        (outcome, telemetry)
    }

    #[test]
    fn arm_writes_only_an_initial_snapshot() {
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
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, [status::STATUS_FILE], "the snapshot is the one sidecar");
    }

    #[test]
    fn claim_and_done_update_lanes_and_rollup() {
        let dir = temp_dir("claims");
        let emitter = armed(&dir, SolveBudget::unlimited());
        emitter.fault_claimed(1, 2, "b-sa0");
        let status = emitter.snapshot("running");
        assert_eq!(status.workers[1].fault, Some(2));
        assert_eq!(status.workers[1].fault_name.as_deref(), Some("b-sa0"));
        let (outcome, telemetry) = done("b-sa0", FaultStatus::Detected { pct: 80.0 }, 1, 7);
        emitter.fault_done(&outcome, &telemetry);
        emitter.fault_claimed(0, 3, "b-sa1");
        let status = FaultStatus::BudgetExceeded { rungs_tried: 1 };
        let (outcome, telemetry) = done("b-sa1", status, 0, 7);
        emitter.fault_done(&outcome, &telemetry);
        let status = emitter.snapshot("running");
        assert_eq!(status.done, 3);
        assert_eq!(status.detected, 2);
        assert_eq!(status.failed, 1);
        assert_eq!(status.workers[1].completed, 1);
        assert_eq!(status.workers[0].completed, 1, "replay is on no lane");
        assert_eq!(status.workers[1].fault, None, "done clears the lane");
        let newton = status
            .counters
            .iter()
            .find(|(n, _)| n == "newton_iterations")
            .unwrap()
            .1;
        assert_eq!(newton, 14);
    }

    #[test]
    fn the_rollup_fills_lanes_in_lane_order() {
        let mut rollup = StatusRollup::default();
        for (lane, newton) in [(2, 5), (0, 3), (2, 1)] {
            let (outcome, telemetry) =
                done("f", FaultStatus::Undetected { pct: 1.0 }, lane, newton);
            rollup.add(&outcome.status, &telemetry);
        }
        let mut status = CampaignStatus::default();
        rollup.fill(&mut status);
        assert_eq!((status.done, status.undetected), (3, 3));
        let lanes = status.workers.iter().map(|w| (w.lane, w.completed));
        assert_eq!(lanes.collect::<Vec<_>>(), [(0, 1), (2, 2)]);
        assert_eq!(status.counters[0], ("newton_iterations".to_owned(), 9));
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
        let (outcome, telemetry) = done("c-sa0", FaultStatus::Detected { pct: 80.0 }, 0, 0);
        emitter.fault_done(&outcome, &telemetry);
        let status = emitter.snapshot("running");
        // One observed fault establishes the adaptive threshold, with
        // the 1 s floor dominating this fast unit test.
        assert_eq!(status.stall_after_ms, Some(4000.0));
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
    }
}
