//! `experiments watch <dir>` — the live campaign console.
//!
//! A campaign run with `--telemetry DIR` leaves one advisory sidecar
//! behind (see `faultsim::telemetry`): the atomically replaced
//! `status.json` snapshot. Beside it, the checkpoint journal is the
//! campaign's one durable per-fault stream. This module is the *pull*
//! half of that telemetry: [`observe`] reads the freshest consistent
//! view of a campaign — live or dead — and [`render`] turns it into the
//! refreshing console.
//!
//! Sources, in order of preference:
//!
//! 1. **The status snapshot.** A running campaign atomically rewrites
//!    it every interval, so [`obs::status::read_status`] sees either
//!    no file yet or a complete snapshot; anything unparseable is a
//!    foreign or damaged file, and [`observe`] fails naming it and the
//!    reason instead of silently falling back to a journal.
//! 2. **The checkpoint journal.** When the snapshot is missing, or has
//!    gone stale while claiming `running` (the campaign process died
//!    between snapshots), the journal named in the snapshot — or any
//!    journal found in the directory — is replayed and folded into a
//!    synthesized snapshot by [`fold_campaign`]. A stale snapshot
//!    selects the campaign with its own label, and its worker lanes
//!    (as of its last rewrite) replace the fold's one aggregate lane,
//!    since the journal records progress but not lanes. The fold is
//!    `faultsim::telemetry::StatusRollup`, the one a live
//!    `StatusEmitter` keeps, and `explain` and `check-report` reuse it
//!    for their in-flight-journal progress views.
//!
//! Everything here is read-only and wall-clock quarantined: watching a
//! campaign cannot change what it produces.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use faultsim::journal::ReplayedCampaign;
use faultsim::telemetry::StatusRollup;
use obs::status::{self, CampaignStatus};
use obs::table::{bar, Align, Table};

/// Age past which a `running` snapshot is treated as abandoned and the
/// journal (when one is resolvable) becomes the source of truth.
pub const STALE_AFTER_MS: f64 = 10_000.0;

/// One observation of a campaign: the snapshot plus where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchView {
    /// The snapshot — read from `status.json` or synthesized from the
    /// journal.
    pub status: CampaignStatus,
    /// Human-readable provenance (`status.json`, `journal …`).
    pub source: String,
    /// Set when the snapshot claims `running` but has not been
    /// rewritten for [`STALE_AFTER_MS`]: its age in milliseconds.
    pub stale_ms: Option<f64>,
}

/// Folds a replayed campaign into a `mixsig.campaign-status/1`
/// snapshot through [`StatusRollup`], the fold a live `StatusEmitter`
/// keeps: outcome counts, solver counters, phase hot spots and
/// per-lane completions, with `elapsed_ms` and each lane's `busy_ms`
/// the summed journaled fault walls.
///
/// Rates and ETA are zero/absent (a journal has no wall-clock epoch).
/// Every journaled outcome counts as `replayed` — that is exactly what
/// a resume would do with it. Worker lanes are scheduling metadata the
/// journal deliberately never records, so a replayed journal folds to
/// a single aggregate lane 0; [`observe`] keeps a stale snapshot's
/// lanes instead when it has one.
pub fn fold_campaign(
    label: &str,
    campaign: &ReplayedCampaign,
    journal: Option<&str>,
) -> CampaignStatus {
    let mut rollup = StatusRollup::default();
    for fault in campaign.faults.values() {
        rollup.add(&fault.status, &fault.telemetry);
    }
    let mut status = CampaignStatus {
        label: label.to_owned(),
        state: campaign.state().label().to_owned(),
        total: campaign.names.len() as u64,
        journal: journal.map(str::to_owned),
        ..CampaignStatus::default()
    };
    rollup.fill(&mut status);
    status.replayed = status.done;
    status
}

/// Replays the journal at `path` and folds every campaign it holds, in
/// journal (label) order.
///
/// # Errors
///
/// Unreadable files and structurally invalid journals.
pub fn fold_journal(path: &Path) -> Result<Vec<(String, CampaignStatus)>, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let replay = obs::journal::parse_journal(&text).and_then(|c| faultsim::journal::replay(&c))?;
    let shown = path.display().to_string();
    Ok(replay
        .campaigns
        .iter()
        .map(|(label, c)| (label.clone(), fold_campaign(label, c, Some(&shown))))
        .collect())
}

/// Picks the campaign a watcher most wants to see from a multi-campaign
/// journal: the first one that did not run to completion, else the last.
pub fn pick_campaign(mut folded: Vec<(String, CampaignStatus)>) -> Option<CampaignStatus> {
    if folded.is_empty() {
        return None;
    }
    let incomplete = folded.iter().position(|(_, s)| s.state != "complete");
    let index = incomplete.unwrap_or(folded.len() - 1);
    Some(folded.swap_remove(index).1)
}

/// Finds a checkpoint journal for a telemetry directory: the path named
/// in the snapshot (as written, then relative to the directory), else
/// any readable journal file inside the directory other than the
/// snapshot itself.
pub fn find_journal(dir: &Path, snapshot: Option<&CampaignStatus>) -> Option<PathBuf> {
    if let Some(named) = snapshot.and_then(|s| s.journal.as_deref()) {
        let as_written = PathBuf::from(named);
        if as_written.is_file() {
            return Some(as_written);
        }
        if let Some(name) = as_written.file_name() {
            let local = dir.join(name);
            if local.is_file() {
                return Some(local);
            }
        }
    }
    let mut candidates: Vec<PathBuf> = fs::read_dir(dir)
        .ok()?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.file_name().is_some_and(|n| n != status::STATUS_FILE))
        .filter(|p| {
            fs::read_to_string(p)
                .is_ok_and(|text| crate::explain::looks_like_journal(&text))
        })
        .collect();
    candidates.sort();
    candidates.into_iter().next()
}

/// Observes the campaign behind `target` — a telemetry directory, or a
/// journal file directly. `now_unix_ms` is the caller's clock, used
/// only to judge snapshot freshness.
///
/// Returns `Ok(None)` when there is nothing to watch *yet* (no
/// snapshot, no journal): live watchers keep polling through that.
///
/// # Errors
///
/// A target that exists but is structurally broken: an unreadable
/// directory, a `status.json` that cannot be read or is not a valid
/// snapshot (the message names the file and the reason), or an invalid
/// journal file given directly.
pub fn observe(target: &Path, now_unix_ms: f64) -> Result<Option<WatchView>, String> {
    if target.is_file() {
        return Ok(pick_campaign(fold_journal(target)?).map(|status| WatchView {
            source: format!("journal {}", target.display()),
            status,
            stale_ms: None,
        }));
    }
    let status_path = target.join(status::STATUS_FILE);
    let snapshot = status::read_status(&status_path)
        .map_err(|e| format!("unreadable status snapshot {}: {e}", status_path.display()))?;
    if let Some(snapshot) = snapshot {
        let age = (now_unix_ms - snapshot.updated_at_ms).max(0.0);
        if snapshot.is_terminal() || age <= STALE_AFTER_MS {
            return Ok(Some(WatchView {
                status: snapshot,
                source: "status.json".to_owned(),
                stale_ms: None,
            }));
        }
        // The snapshot claims `running` but nobody has rewritten it for
        // a while: the campaign process is gone. The journal, if there
        // is one, knows how far this campaign actually got; the lanes
        // are the snapshot's, as of its last rewrite.
        if let Some(path) = find_journal(target, Some(&snapshot)) {
            let folded = fold_journal(&path).unwrap_or_default();
            if let Some((_, mut status)) = folded.into_iter().find(|(l, _)| *l == snapshot.label) {
                status.workers = snapshot.workers;
                return Ok(Some(WatchView {
                    status,
                    source: format!("journal {} (status.json stale)", path.display()),
                    stale_ms: Some(age),
                }));
            }
        }
        return Ok(Some(WatchView {
            status: snapshot,
            source: "status.json".to_owned(),
            stale_ms: Some(age),
        }));
    }
    let Some(path) = find_journal(target, None) else {
        return Ok(None);
    };
    Ok(pick_campaign(fold_journal(&path)?).map(|status| WatchView {
        source: format!("journal {}", path.display()),
        status,
        stale_ms: None,
    }))
}

/// Formats a millisecond quantity for the console.
fn fmt_ms(ms: f64) -> String {
    // Round to whole seconds before splitting so 119 950 ms renders as
    // 2m00s, never 1m60s.
    let secs = (ms / 1e3).round();
    if secs >= 60.0 {
        format!("{:.0}m{:02.0}s", (secs / 60.0).floor(), secs % 60.0)
    } else if ms >= 1_000.0 {
        format!("{:.1}s", ms / 1e3)
    } else {
        format!("{ms:.0}ms")
    }
}

/// Looks a counter up by name.
fn counter(status: &CampaignStatus, name: &str) -> u64 {
    status
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Renders one observation as the console frame: headline, progress
/// bar, throughput/ETA, outcome rollup, solver economy, per-worker
/// lanes and phase hot spots.
pub fn render(view: &WatchView) -> String {
    let s = &view.status;
    let mut out = String::new();
    let _ = writeln!(out, "campaign {} — {}  [{}]", s.label, s.state, view.source);

    let pct = if s.total > 0 {
        100.0 * s.done as f64 / s.total as f64
    } else {
        0.0
    };
    let replayed = if s.replayed > 0 {
        format!(", {} replayed", s.replayed)
    } else {
        String::new()
    };
    let _ = writeln!(
        out,
        "  [{:<32}] {}/{} ({pct:.1} %{replayed})",
        bar(s.done as f64, s.total.max(1) as f64, 32),
        s.done,
        s.total,
    );
    let eta = s.eta_ms.map_or_else(|| "—".to_owned(), fmt_ms);
    let _ = writeln!(
        out,
        "  {:.2} faults/s (ewma {:.2}), ETA {eta}, elapsed {}",
        s.faults_per_sec,
        s.ewma_faults_per_sec,
        fmt_ms(s.elapsed_ms),
    );
    let _ = writeln!(
        out,
        "  outcomes: {} detected, {} undetected, {} failed",
        s.detected, s.undetected, s.failed
    );
    let newton = counter(s, "newton_iterations");
    if newton > 0 {
        let hits = counter(s, "factor_reuse_hits");
        let decisions = hits + counter(s, "factor_reuse_misses");
        let reuse = if decisions > 0 {
            format!(", factor reuse {hits}/{decisions}")
        } else {
            String::new()
        };
        let _ = writeln!(out, "  solver: {newton} Newton iterations{reuse}");
    }
    let drops = counter(s, "status_drops");
    if drops > 0 {
        let _ = writeln!(out, "  telemetry drops: {drops} (advisory writes failed)");
    }
    if let Some(age) = view.stale_ms {
        let _ = writeln!(
            out,
            "  WARNING: snapshot is {} old — the campaign process looks dead",
            fmt_ms(age)
        );
    }

    if !s.workers.is_empty() {
        let _ = writeln!(out, "\n  worker lanes:");
        let mut t = Table::new(&["lane", "fault", "busy", "event age", "done", "hot phase", ""])
            .align(&[
                Align::Right,
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Left,
                Align::Left,
            ]);
        for w in &s.workers {
            let fault = match (&w.fault, &w.fault_name) {
                (Some(i), Some(name)) => format!("#{i} {name}"),
                (Some(i), None) => format!("#{i}"),
                _ => "idle".to_owned(),
            };
            t.row(&[
                w.lane.to_string(),
                fault,
                fmt_ms(w.busy_ms),
                fmt_ms(w.heartbeat_age_ms),
                w.completed.to_string(),
                w.hot_phase.clone().unwrap_or_default(),
                if w.stalled { "STALLED".to_owned() } else { String::new() },
            ]);
        }
        out.push_str(&indent(&t.render(), "  "));
        if let Some(limit) = s.stall_after_ms {
            for w in s.workers.iter().filter(|w| w.stalled) {
                let _ = writeln!(
                    out,
                    "  STALLED: lane {} event age {} exceeds {}",
                    w.lane,
                    fmt_ms(w.heartbeat_age_ms),
                    fmt_ms(limit)
                );
            }
        }
    }

    if !s.phases.is_empty() {
        let mut ranked: Vec<&(String, u64, u64)> = s.phases.iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let _ = writeln!(out, "\n  phase hot spots:");
        let mut t = Table::new(&["phase", "self (ms)", "calls"])
            .align(&[Align::Left, Align::Right, Align::Right]);
        for (label, ns, calls) in ranked.into_iter().take(5) {
            t.row(&[
                label.clone(),
                format!("{:.3}", *ns as f64 / 1e6),
                calls.to_string(),
            ]);
        }
        out.push_str(&indent(&t.render(), "  "));
    }
    out
}

fn indent(text: &str, pad: &str) -> String {
    text.lines()
        .map(|l| {
            if l.is_empty() {
                String::from("\n")
            } else {
                format!("{pad}{l}\n")
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anasim::metrics::SolverSnapshot;
    use faultsim::campaign::{FaultStatus, FaultTelemetry};
    use faultsim::journal::{complete_record, fault_record, start_record};
    use faultsim::model::Fault;
    use obs::status::WorkerLane;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn journal_text(complete: bool) -> String {
        let mut nl = anasim::netlist::Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let faults = [
            Fault::stuck_at_0("f0", a),
            Fault::stuck_at_1("f1", b),
            Fault::stuck_at_0("f2", b),
        ];
        let telemetry = |lane: usize, iters: u64| {
            let mut t = FaultTelemetry {
                rung: Some(0),
                rungs_tried: 1,
                wall: Duration::from_millis(40),
                lane,
                ..FaultTelemetry::default()
            };
            t.solver.newton_iterations = iters;
            t
        };
        let mut text = start_record("rc", &faults, 0.05, 4).to_json();
        text.push('\n');
        text += &fault_record(
            "rc",
            0,
            "f0",
            Some(&[1.0]),
            &FaultStatus::Detected { pct: 100.0 },
            &telemetry(0, 12),
        )
        .to_json();
        text.push('\n');
        text += &fault_record(
            "rc",
            1,
            "f1",
            Some(&[0.0]),
            &FaultStatus::Undetected { pct: 1.0 },
            &telemetry(1, 7),
        )
        .to_json();
        text.push('\n');
        if complete {
            text += &fault_record(
                "rc",
                2,
                "f2",
                None,
                &FaultStatus::Panicked {
                    payload: "boom".to_owned(),
                },
                &telemetry(0, 0),
            )
            .to_json();
            text.push('\n');
            text += &complete_record("rc").to_json();
            text.push('\n');
        }
        text
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bench-watch-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn replayed(text: &str) -> faultsim::journal::JournalReplay {
        faultsim::journal::replay(&obs::journal::parse_journal(text).unwrap()).unwrap()
    }

    #[test]
    fn fold_rolls_up_outcomes_lanes_and_counters() {
        let replay = replayed(&journal_text(true));
        let status = fold_campaign("rc", &replay.campaigns["rc"], Some("j.jsonl"));
        assert_eq!(status.state, "complete");
        assert_eq!((status.total, status.done, status.replayed), (3, 3, 3));
        assert_eq!(
            (status.detected, status.undetected, status.failed),
            (1, 1, 1)
        );
        assert_eq!(status.journal.as_deref(), Some("j.jsonl"));
        // Lanes are never journaled, so a replayed journal collapses to
        // the single aggregate lane 0.
        assert_eq!(status.workers.len(), 1);
        assert_eq!(status.workers[0].lane, 0);
        assert_eq!(status.workers[0].completed, 3);
        assert!(status.workers[0].busy_ms > 0.0);
        assert_eq!(counter(&status, "newton_iterations"), 19);
        // The fold is a structurally valid status snapshot.
        let text = status.to_json().to_json_pretty();
        assert_eq!(obs::status::parse_status(&text).unwrap(), status);
    }

    #[test]
    fn interrupted_journals_fold_to_a_terminal_state() {
        let replay = replayed(&journal_text(false));
        let status = fold_campaign("rc", &replay.campaigns["rc"], None);
        assert_eq!(status.state, "interrupted");
        assert!(status.is_terminal());
        assert_eq!((status.total, status.done), (3, 2));
    }

    #[test]
    fn observe_prefers_the_status_snapshot() {
        let dir = temp_dir("prefers-status");
        fs::write(dir.join("campaign.jsonl"), journal_text(false)).unwrap();
        let mut snapshot = fold_campaign(
            "rc",
            &replayed(&journal_text(true)).campaigns["rc"],
            None,
        );
        snapshot.state = "running".to_owned();
        snapshot.failed = 0;
        snapshot.done = 2;
        snapshot.updated_at_ms = 5_000.0;
        obs::status::write_atomic(&dir.join(status::STATUS_FILE), &snapshot).unwrap();
        // Fresh snapshot wins over the journal.
        let view = observe(&dir, 5_100.0).unwrap().unwrap();
        assert_eq!(view.source, "status.json");
        assert_eq!(view.status, snapshot);
        assert_eq!(view.stale_ms, None);
    }

    /// Two worker lanes as a live snapshot last saw them: lane 0 holds
    /// fault 2 and has completed one fault, lane 1 completed one and
    /// sits idle.
    fn live_lanes() -> Vec<WorkerLane> {
        vec![
            WorkerLane {
                lane: 0,
                fault: Some(2),
                fault_name: Some("f2".to_owned()),
                completed: 1,
                ..WorkerLane::default()
            },
            WorkerLane {
                lane: 1,
                completed: 1,
                ..WorkerLane::default()
            },
        ]
    }

    /// Writes a `running` snapshot for `label`, last rewritten at 1 s,
    /// with the [`live_lanes`].
    fn write_stale_snapshot(dir: &Path, label: &str) {
        let snapshot = CampaignStatus {
            label: label.to_owned(),
            state: "running".to_owned(),
            total: 3,
            done: 1,
            detected: 1,
            workers: live_lanes(),
            updated_at_ms: 1_000.0,
            ..CampaignStatus::default()
        };
        obs::status::write_atomic(&dir.join(status::STATUS_FILE), &snapshot).unwrap();
    }

    #[test]
    fn stale_running_snapshots_fall_back_to_the_journal() {
        let dir = temp_dir("stale-status");
        fs::write(dir.join("campaign.jsonl"), journal_text(false)).unwrap();
        write_stale_snapshot(&dir, "rc");
        // 20 s later with no rewrite: the journal becomes the source of
        // progress, and the lanes are the snapshot's.
        let view = observe(&dir, 21_000.0).unwrap().unwrap();
        assert!(view.source.contains("journal"), "{}", view.source);
        assert!(view.source.contains("stale"), "{}", view.source);
        assert_eq!(view.status.state, "interrupted");
        assert_eq!((view.status.total, view.status.done), (3, 2));
        assert_eq!(view.status.workers, live_lanes());
        assert!(view.stale_ms.is_some());
    }

    #[test]
    fn a_stale_snapshot_selects_its_own_campaign_from_the_journal() {
        let dir = temp_dir("stale-label");
        // Campaign `a` was cancelled before `b` started and died; `a`
        // sorts first and is not complete either.
        let mut text = journal_text(true).replace("\"rc\"", "\"a\"");
        let cancelled = text.rfind("{\"record\":\"complete\"").unwrap();
        text.truncate(cancelled);
        text += &faultsim::journal::cancelled_record("a", 3).to_json();
        text.push('\n');
        text += &journal_text(false).replace("\"rc\"", "\"b\"");
        fs::write(dir.join("campaign.jsonl"), text).unwrap();
        write_stale_snapshot(&dir, "b");
        let view = observe(&dir, 21_000.0).unwrap().unwrap();
        assert_eq!(view.status.label, "b");
        assert_eq!(view.status.state, "interrupted");
        assert_eq!(view.status.workers, live_lanes());
        // Given directly, the journal still shows the first unfinished
        // campaign.
        let direct = observe(&dir.join("campaign.jsonl"), 0.0).unwrap().unwrap();
        assert_eq!(direct.status.label, "a");
        assert_eq!(direct.status.state, "cancelled");
    }

    #[test]
    fn an_unreadable_snapshot_fails_naming_it_and_the_reason() {
        let dir = temp_dir("unreadable-status");
        fs::write(dir.join("campaign.jsonl"), journal_text(false)).unwrap();
        // Outcome counts that do not sum to `done`: no writer leaves
        // this behind, so the journal must not silently stand in.
        let snapshot = CampaignStatus {
            label: "rc".to_owned(),
            state: "running".to_owned(),
            total: 3,
            done: 2,
            detected: 1,
            updated_at_ms: 1_000.0,
            ..CampaignStatus::default()
        };
        let path = dir.join(status::STATUS_FILE);
        fs::write(&path, snapshot.to_json().to_json_pretty()).unwrap();
        let err = observe(&dir, 1_100.0).unwrap_err();
        assert!(
            err.contains(&format!("unreadable status snapshot {}", path.display())),
            "{err}"
        );
        assert!(err.contains("does not sum to done 2"), "{err}");
    }

    #[test]
    fn observe_without_a_snapshot_synthesizes_from_the_journal() {
        let dir = temp_dir("journal-only");
        fs::write(dir.join("campaign.jsonl"), journal_text(true)).unwrap();
        let view = observe(&dir, 0.0).unwrap().unwrap();
        assert!(view.source.contains("journal"), "{}", view.source);
        assert_eq!(view.status.state, "complete");
        // An empty directory is "nothing yet", not an error.
        let empty = temp_dir("empty");
        assert_eq!(observe(&empty, 0.0).unwrap(), None);
    }

    #[test]
    fn observe_accepts_a_journal_file_directly() {
        let dir = temp_dir("direct-file");
        let path = dir.join("campaign.jsonl");
        fs::write(&path, journal_text(false)).unwrap();
        let view = observe(&path, 0.0).unwrap().unwrap();
        assert_eq!(view.status.done, 2);
    }

    #[test]
    fn render_shows_progress_outcomes_and_stalls() {
        let mut status = fold_campaign(
            "rc",
            &replayed(&journal_text(true)).campaigns["rc"],
            Some("j.jsonl"),
        );
        status.faults_per_sec = 2.5;
        status.ewma_faults_per_sec = 2.0;
        status.eta_ms = Some(1_500.0);
        status.stall_after_ms = Some(2_000.0);
        status.workers.push(WorkerLane {
            lane: 1,
            fault: Some(1),
            fault_name: Some("f1".to_owned()),
            heartbeat_age_ms: 9_000.0,
            stalled: true,
            ..WorkerLane::default()
        });
        let text = render(&WatchView {
            status,
            source: "status.json".to_owned(),
            stale_ms: None,
        });
        assert!(text.contains("campaign rc — complete"), "{text}");
        assert!(text.contains("3/3 (100.0 %"), "{text}");
        assert!(text.contains("1 detected, 1 undetected, 1 failed"), "{text}");
        assert!(text.contains("ETA 1.5s"), "{text}");
        assert!(text.contains("#1 f1"), "{text}");
        assert!(text.contains("STALLED: lane 1"), "{text}");
        assert!(text.contains("19 Newton iterations"), "{text}");
    }

    #[test]
    fn the_live_snapshot_and_the_journal_fold_agree() {
        use anasim::netlist::Netlist;
        use anasim::source::SourceWaveform;
        use anasim::transient::TransientAnalysis;
        use faultsim::campaign::{run_campaign_with, CampaignConfig, JournalConfig};
        use faultsim::telemetry::TelemetryConfig;

        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let c = nl.node("c");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::step(5.0, 1e-5));
        nl.resistor("R1", a, b, 10e3);
        nl.capacitor("C1", b, Netlist::GROUND, 1e-9);
        nl.resistor("R2", b, c, 10e3);
        nl.capacitor("C2", c, Netlist::GROUND, 1e-9);
        let faults = [
            Fault::stuck_at_0("b-sa0", b),
            Fault::stuck_at_1("b-sa1", b),
            Fault::stuck_at_0("c-sa0", c),
            Fault::stuck_at_1("c-sa1", c),
            Fault::bridge("b-c-br", b, c),
            Fault::bridge("a-c-br", a, c).with_impedance(1e9),
        ];
        let dir = temp_dir("live-vs-journal");
        let journal = dir.join("campaign.jsonl");
        let config = CampaignConfig::new(0.5)
            .workers(2)
            .journal(JournalConfig::fresh(&journal, "rc"))
            .telemetry(TelemetryConfig::new(&dir));
        run_campaign_with(&nl, &faults, &config, |n, settings| {
            let result = TransientAnalysis::new(2e-4, 2e-6)
                .with_settings(settings)
                .run(n)?;
            let w = result.voltage(n.find_node("c").expect("node c"));
            Ok((0..20).map(|k| w.value_at(k as f64 * 1e-5)).collect())
        })
        .unwrap();

        let live = status::read_status(&dir.join(status::STATUS_FILE))
            .unwrap()
            .unwrap();
        let folded = pick_campaign(fold_journal(&journal).unwrap()).unwrap();
        assert_eq!(live.state, "complete");
        assert_eq!(folded.state, "complete");
        let progress = |s: &CampaignStatus| (s.total, s.done, s.detected, s.undetected, s.failed);
        assert_eq!(progress(&live), progress(&folded));
        assert!(counter(&live, "newton_iterations") > 0);
        for name in SolverSnapshot::FIELDS {
            assert_eq!(counter(&live, name), counter(&folded, name), "{name}");
        }
        // Journals carry no phase times, so phases agree for a run with
        // profiling disarmed, as this one is.
        let labels_and_calls = |s: &CampaignStatus| -> Vec<(String, u64)> {
            let calls = s.phases.iter().map(|(l, _, calls)| (l.clone(), *calls));
            calls.collect()
        };
        assert_eq!(labels_and_calls(&live), labels_and_calls(&folded));
        // The journal records no lanes: the fold's one aggregate lane
        // completed what the live lanes completed between them.
        let completed = |s: &CampaignStatus| -> BTreeMap<u64, u64> {
            s.workers.iter().map(|w| (w.lane, w.completed)).collect()
        };
        assert_eq!(completed(&folded), BTreeMap::from([(0, faults.len() as u64)]));
        assert_eq!(completed(&live).values().sum::<u64>(), faults.len() as u64);
    }

    #[test]
    fn fmt_ms_carries_rounded_seconds_into_minutes() {
        assert_eq!(fmt_ms(119_950.0), "2m00s");
        assert_eq!(fmt_ms(59_999.0), "1m00s");
        assert_eq!(fmt_ms(90_000.0), "1m30s");
        assert_eq!(fmt_ms(1_500.0), "1.5s");
        assert_eq!(fmt_ms(250.0), "250ms");
    }

    #[test]
    fn pick_prefers_unfinished_campaigns() {
        let done = fold_campaign("a", &replayed(&journal_text(true)).campaigns["rc"], None);
        let part = fold_campaign("b", &replayed(&journal_text(false)).campaigns["rc"], None);
        let picked = pick_campaign(vec![
            ("a".to_owned(), done.clone()),
            ("b".to_owned(), part.clone()),
        ])
        .unwrap();
        assert_eq!(picked.label, part.label);
        let picked = pick_campaign(vec![("a".to_owned(), done.clone())]).unwrap();
        assert_eq!(picked.label, done.label);
        assert_eq!(pick_campaign(Vec::new()), None);
    }
}
